"""Explicit rational witness curves for every inhabited stratum.

Each builder assembles an octic from lines, conics and constrained
higher-degree pieces so that the designed multiple points realise the label's
singularity counts.  Generic choices are drawn from a deterministic seeded
sequence and every candidate is validated against its label through
`curve_profile`; the first valid candidate is returned.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .curveprofile import curve_profile
from .linsys import (ConeDirection, HomForm, LineContact, MultiplicityAtPoint, NNPointWithTangent,
                     PLANE_VARS, Point, _det3, condition_ideal_graded_piece, evaluate_at,
                     normalize_point, transport_matrix)
from .poly import MultiPoly
from .singclass import _chart
from .strata import StratumLabel, label_from_id

X = MultiPoly.var(PLANE_VARS, "x")
Y = MultiPoly.var(PLANE_VARS, "y")
Z = MultiPoly.var(PLANE_VARS, "z")

P1: Point = normalize_point((0, 0, 1))
P2: Point = normalize_point((0, 1, 0))
P3: Point = normalize_point((1, 0, 0))
P4: Point = normalize_point((1, 1, 1))

WITNESS_SEED = 90101


class WitnessConstructionError(RuntimeError):
    pass


def pick_form(degree: int, conditions, seed: int, avoid_points=(), checks=()) -> MultiPoly:
    """Deterministic generic member of a constrained linear system: the first
    of 80 seeded combinations of the basis that passes every check."""
    system = condition_ideal_graded_piece(list(conditions), degree)
    if system.dim_forms == 0:
        raise WitnessConstructionError("empty linear system")
    rng = random.Random(seed)
    for _ in range(80):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in system.basis]
        if all(c == 0 for c in coeffs):
            continue
        f = MultiPoly.zero(PLANE_VARS)
        for c, b in zip(coeffs, system.basis):
            if c:
                f = f + b.poly * c
        if f.is_zero():
            continue
        if any(evaluate_at(f, normalize_point(p)) == 0 for p in avoid_points):
            continue
        if any(not chk(f) for chk in checks):
            continue
        return f.primitive()
    raise WitnessConstructionError("no suitable generic member found")


def _conic_matrix(q: MultiPoly) -> list[list[Fraction]]:
    m = [[Fraction(0)] * 3 for _ in range(3)]
    for (i, j), name in (((0, 0), (2, 0, 0)), ((1, 1), (0, 2, 0)), ((2, 2), (0, 0, 2))):
        m[i][j] = q.coeff(name)
    for (i, j), name in (((0, 1), (1, 1, 0)), ((0, 2), (1, 0, 1)), ((1, 2), (0, 1, 1))):
        m[i][j] = m[j][i] = q.coeff(name) / 2
    return m


def _smooth_conic(q: MultiPoly) -> bool:
    return _det3(_conic_matrix(q)) != 0


def _generic_conic(seed, avoid=()):
    return pick_form(2, [], seed, avoid_points=avoid, checks=[_smooth_conic])


# -- building blocks ----------------------------------------------------------

PENCIL = [ (Y * Z - k * X * X).primitive() for k in range(0, 5) ]   # members y*z - k*x^2

# curves that several recipes share: three conics tangent to y at P1, missing
# P2 and P3, pairwise contact 2 there and no common rational second
# intersection, and one with contact 3 with the first of them at P1
FLAG_CONICS = [
    (Y * Z + X * X + Y * Y).primitive(),
    (Y * Z + 2 * X * X + 2 * Y * Y).primitive(),
    (Y * Z + 3 * X * X + X * Y + Y * Y).primitive(),
]
FLAG_CONTACT3 = (Y * Z + X * X + X * Y + Y * Y).primitive()
TANGENT_PAIR = ((Y * Z + X * X).primitive(), (Y * Z + 2 * X * X).primitive())   # at P1 and P2
CONTACT3_P2 = (Y * Z - X * X - X * Z + Z * Z).primitive()   # contact 3 with PENCIL[1] at P2
# the line y - x through P1, and conics tangent to it there (missing P3)
T_P1 = (Y - X).primitive()
T_CONIC_1 = (T_P1 * Z + X * Y).primitive()
T_CONIC_2 = (T_P1 * Z + 2 * X * Y).primitive()
T_CONIC_Y2 = (T_P1 * Z + Y * Y).primitive()   # contact 3 with T_CONIC_1 at P1, through P3
FOUR_LINES_P1 = X * Y * (X + Y) * (X - 2 * Y)
CUSPIDAL_CUBIC = (X * Z * Z - Y ** 3 + Z ** 3).primitive()   # cusp at P3, tangent z
CIRCLE = X * X + Y * Y - Z * Z
FERMAT_QUARTIC = X ** 4 + Y ** 4 + Z ** 4


# -- normal locus, at most one non-simple singularity -------------------------


def w_N_empty(seed):
    return X ** 8 + Y ** 8 + Z ** 8


def w_N_2(seed):
    quartic = pick_form(4, [], seed, avoid_points=[P1], checks=[])
    return FOUR_LINES_P1 * quartic


def w_N_1(seed):
    c1, c2, c3 = FLAG_CONICS
    k = _generic_conic(seed, avoid=[P1])
    return c1 * c2 * c3 * k


def w_N_1b(seed):
    k = _generic_conic(seed, avoid=[P1])
    return FLAG_CONICS[0] * FLAG_CONTACT3 * FLAG_CONICS[1] * k


def w_N_2b(seed):
    u, w = TANGENT_PAIR
    k = _generic_conic(seed, avoid=[P1, P2])
    return u * w * X * (X - Y) * k


# -- two non-simple singularities ---------------------------------------------


def w_N_11(seed):
    k = _generic_conic(seed, avoid=[P1, P2])
    return PENCIL[1] * PENCIL[2] * PENCIL[3] * k


def w_N_11b(seed):
    lam = pick_form(1, [], seed, avoid_points=[P1, P2])
    return Y * PENCIL[1] * PENCIL[2] * CONTACT3_P2 * lam


def w_N_1b1b(seed):
    c2 = (Y * Z - X * X + X * Y + Y * Y).primitive()   # contact 3 with PENCIL[1] at P1
    return Y * Z * PENCIL[1] * c2 * CONTACT3_P2


def w_N_12_p(seed):
    # [3;3] at P1 with tangent y - x (missing P3), quadruple at P3
    c3 = (T_P1 * Z + 3 * X * Y).primitive()
    ell = (Y - Z).primitive()
    lam = pick_form(1, [], seed, avoid_points=[P1, P3])
    return T_CONIC_1 * T_CONIC_2 * c3 * ell * lam


def w_N_12_pp(seed):
    # distinct quadratic parts so the two conics meet the line z in different
    # conjugate pairs; the concurrent lines at P3 avoid the extra tangency point
    q2 = (Y * Z + 2 * X * X + Y * Y).primitive()
    return Y * FLAG_CONICS[0] * q2 * Z * (Y - 2 * Z) * (Y + 2 * Z)


def w_N_12b(seed):
    return T_P1 * T_CONIC_1 * T_CONIC_2 * CUSPIDAL_CUBIC


def w_N_1b2(seed):
    # T_CONIC_1 is tangent to y+z at P3 and T_CONIC_Y2 to z there, so the
    # extra lines through P3 must avoid those directions
    l1 = (Y - Z).primitive()
    l2 = (Y + 2 * Z).primitive()
    lam = pick_form(1, [], seed, avoid_points=[P1, P3])
    return T_P1 * T_CONIC_1 * T_CONIC_Y2 * l1 * l2 * lam


def w_N_1b2b(seed):
    cubic = (X * Y * Y - Z ** 3).primitive()   # cusp at P3 with tangent y
    return T_P1 * T_CONIC_1 * T_CONIC_Y2 * cubic


def w_N_22(seed):
    rng = random.Random(seed)
    conics = []
    used_dirs = set()
    while len(conics) < 4:
        a, b, g, d = (rng.randint(1, 6) for _ in range(4))
        q = a * X * X + b * X * Y + g * X * Z + d * Y * Z
        t1 = Fraction(g, d)
        t2 = Fraction(b, d)
        if (("p1", t1) in used_dirs) or (("p2", t2) in used_dirs):
            continue
        if not _smooth_conic(q):
            continue
        used_dirs.add(("p1", t1))
        used_dirs.add(("p2", t2))
        conics.append(q.primitive())
    f = conics[0] * conics[1] * conics[2] * conics[3]
    return f


def w_N_22b(seed):
    m = (Y - Z).primitive()
    return Y * X * (X - Y) * (X + Y) * CUSPIDAL_CUBIC * m


def w_N_2b2b(seed):
    w = (X * Y + X * Z + Y * Z).primitive()
    u1 = ((X + Y) * Z + 2 * X * Y).primitive()
    u2 = (X * Y + X * Z + Y * Y).primitive()
    l_p1 = (X - Y).primitive()
    m_p3 = (Y - Z).primitive()
    return w * u1 * u2 * l_p1 * m_p3


# -- three quadruple-type points ------------------------------------------------


def _triple_point_conics(specs) -> list[MultiPoly]:
    out = []
    for (a, b, g) in specs:
        out.append((a * X * Y + b * X * Z + g * Y * Z).primitive())
    return out


def w_N_222(seed):
    conics = _triple_point_conics([(1, 1, 1), (2, 1, 3), (1, 2, 5), (3, 5, 1)])
    f = conics[0] * conics[1] * conics[2] * conics[3]
    return f


def w_N_222b(seed):
    conics = _triple_point_conics([(1, 1, 1), (1, 1, 2), (2, 1, 3), (3, 2, 1)])
    f = conics[0] * conics[1] * conics[2] * conics[3]
    return f


def w_N_22b2b(seed):
    conics = _triple_point_conics([(1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 4, 3)])
    f = conics[0] * conics[1] * conics[2] * conics[3]
    return f


def w_N_2b2b2b(seed):
    conics = _triple_point_conics([(1, 1, 1), (2, 1, 1), (2, 1, 2), (1, 3, 5)])
    f = conics[0] * conics[1] * conics[2] * conics[3]
    return f


# -- the 112 family: two [3;3]-points and one quadruple -------------------------


def _skeleton_112(seed, flex_p1: bool, flex_p2: bool, pair_at_q: bool):
    """y * z * (yz - x^2) * quartic with a triple point at P4.

    The quartic is tangent to y at P1 and to z at P2 (third branch of each
    [3;3]-point); a flex against the line there makes that point degenerate,
    and letting the cone at P4 contain the tangent direction of the conic
    makes the quadruple point degenerate.
    """
    c = PENCIL[1]
    conds = [MultiplicityAtPoint(P4, 3)]
    conds.append(LineContact(P1, Y, 3) if flex_p1 else ConeDirection(P1, Y, 1, 1))
    conds.append(LineContact(P2, Z, 3) if flex_p2 else ConeDirection(P2, Z, 1, 1))
    if pair_at_q:
        lam = (-2 * X + Y + Z).primitive()   # tangent of the conic at P4
        conds.append(ConeDirection(P4, lam, 3, 1))
    quartic = pick_form(4, conds, seed, avoid_points=[P3])
    return Y * Z * c * quartic


def w_N_112_p(seed):
    return _skeleton_112(seed, False, False, False)


def w_N_112_pp(seed):
    # quadruple point on exactly one distinguished tangent line (at q on z,
    # off y): the forced line z, a pencil conic serving both [3;3]-points, and
    # a quintic with a two-branch contact at P1 and an ordinary triple point
    # at q; its intersection with z is exactly 2 at P2 plus 3 at q
    q = normalize_point((1, 1, 0))
    conds = [NNPointWithTangent(P1, Y, 2),
             ConeDirection(P2, Z, 1, 1),
             MultiplicityAtPoint(q, 3)]
    quintic = pick_form(5, conds, seed, checks=[lambda f: not Z.divides(f)])
    return Z * PENCIL[1] * quintic


def w_N_112_ppp(seed):
    return Y * Z * PENCIL[1] * PENCIL[2] * (Y - Z) * (Y + Z)


def w_N_112b(seed):
    return _skeleton_112(seed, False, False, True)


def w_N_11b2(seed):
    return _skeleton_112(seed, False, True, False)


def w_N_11b2b(seed):
    return _skeleton_112(seed, False, True, True)


def w_N_1b1b2(seed):
    return _skeleton_112(seed, True, True, False)


def w_N_1b1b2b(seed):
    return _skeleton_112(seed, True, True, True)


# -- the 122 family: one [3;3]-point and two quadruples --------------------------


Q1_122 = normalize_point((1, 1, 0))
Q2_122 = normalize_point((1, 2, 1))
C_122 = (Y * Z + 2 * X * X - 2 * X * Y).primitive()   # flag conic through both quadruples


def _skeleton_122(seed, flex_p1: bool, pair_at_q2: bool):
    conds = [MultiplicityAtPoint(Q1_122, 3), MultiplicityAtPoint(Q2_122, 2)]
    if flex_p1:
        conds.append(LineContact(P1, Y, 3))
    conds.append(ConeDirection(P1, Y, 1, 1))
    if pair_at_q2:
        lam2 = (-Y + 2 * Z).primitive()          # tangent of the flag conic at Q2
        conds.append(ConeDirection(Q2_122, lam2, 2, 1))
    quartic = pick_form(4, conds, seed,
                        checks=[lambda f: not Y.divides(f) and not C_122.divides(f)])
    line = (X - Z).primitive()                    # through Q2, missing P1 and Q1
    return Y * C_122 * quartic * line


def w_N_122_p(seed):
    return _skeleton_122(seed, False, False)


def w_N_122_pp(seed):
    # one quadruple on the distinguished tangent line y (at P3), forcing the
    # line into the curve: three more lines through P3 complete that quadruple,
    # and a quartic with a two-branch contact at P1 and an ordinary triple
    # point at P4 supplies the rest (it meets y only at P1, with contact 4)
    l1 = (Y - Z).primitive()      # join of P3 and P4
    l2 = (Y + Z).primitive()
    lines = [Y, l1, l2]
    # the quintic meets y with contact 4 at P1 and 1 at P3, and the join of P1
    # and P4 with contact 2 + 3: both budgets are exactly exhausted
    q5 = pick_form(5, [NNPointWithTangent(P1, Y, 2), MultiplicityAtPoint(P3, 1),
                       MultiplicityAtPoint(P4, 3)],
                   seed, checks=[lambda f: all(not l.divides(f) for l in lines)])
    return Y * l1 * l2 * q5


def w_N_1b22(seed):
    return _skeleton_122(seed, True, False)


def w_N_122b(seed):
    return _skeleton_122(seed, False, True)


def w_N_1b22b(seed):
    return _skeleton_122(seed, True, True)


Q1_CUSP = P4
Q2_CUSP = normalize_point((1, 2, 3))
TAU1_CUSP = (X - Z).primitive()          # cusp direction at the first point
TAU2_CUSP = (2 * X - Y).primitive()      # cusp direction at the second point


def _bicuspidal_skeleton(seed, degenerate_33: bool):
    """Two pencil conics through both cusps of a bicuspidal quartic: an
    octic with a [3;3]-point at P1 and two degenerate quadruple points."""
    c1 = pick_form(2, [ConeDirection(P1, Y, 1, 1), MultiplicityAtPoint(Q1_CUSP, 1),
                       MultiplicityAtPoint(Q2_CUSP, 1)], seed + 17)
    c2 = pick_form(2, [ConeDirection(P1, Y, 1, 1), MultiplicityAtPoint(Q1_CUSP, 1),
                       MultiplicityAtPoint(Q2_CUSP, 1)], seed + 40,
                   checks=[lambda f, _c1=c1: not _c1.divides(f)])
    conds = [ConeDirection(Q1_CUSP, TAU1_CUSP, 2, 2),
             ConeDirection(Q2_CUSP, TAU2_CUSP, 2, 2)]
    if degenerate_33:
        kappa = _branch_curvature(c1, P1, Y)
        conds.append(LineContact(P1, Y, 3, kappa))
    else:
        conds.append(ConeDirection(P1, Y, 1, 1))
    quartic = pick_form(4, conds, seed,
                        checks=[lambda f: not c1.divides(f) and not c2.divides(f)])
    return c1 * c2 * quartic


def w_N_12b2b(seed):
    return _bicuspidal_skeleton(seed, degenerate_33=False)


def w_N_1b2b2b(seed):
    return _bicuspidal_skeleton(seed, degenerate_33=True)


# -- three [3;3]-points -----------------------------------------------------------


TANGENT_CONIC = (X * Y + X * Z + Y * Z).primitive()
TAU = {P1: (X + Y).primitive(), P2: (X + Z).primitive(), P3: (Y + Z).primitive()}


def _branch_curvature(form: MultiPoly, p: Point, tangent: MultiPoly) -> Fraction:
    """Curvature coefficient of a smooth branch tangent to the given line, in
    the standard transported frame (branch y = kappa*x^2 + ...)."""
    g = _chart(form, transport_matrix(p, tangent))
    a = g.coeff((0, 1))
    b = g.coeff((2, 0))
    if a == 0:
        raise WitnessConstructionError("branch is not smooth with the expected tangent")
    return -b / a


def _on_conic_sextic(seed, degenerate_at):
    """Conic times a sextic with a two-branch contact point at each anchor of
    the conic; a pinned repeated branch direction makes the point degenerate."""
    conds = []
    for p in (P1, P2, P3):
        if tuple(p) in degenerate_at:
            kappa = _branch_curvature(TANGENT_CONIC, p, TAU[p])
            t0 = kappa + 1 + (seed % 5)
            conds.append(NNPointWithTangent(p, TAU[p], 2, t0))
        else:
            conds.append(NNPointWithTangent(p, TAU[p], 2))
    sextic = pick_form(6, conds, seed)
    return TANGENT_CONIC * sextic


def w_N_111_pp(seed):
    return _on_conic_sextic(seed, degenerate_at=set())


def w_N_111b(seed):
    return _on_conic_sextic(seed, degenerate_at={tuple(P3)})


def w_N_11b1b(seed):
    return _on_conic_sextic(seed, degenerate_at={tuple(P2), tuple(P3)})


def w_N_1b1b1b(seed):
    return _on_conic_sextic(seed, degenerate_at={tuple(P1), tuple(P2), tuple(P3)})


L1_CONC = (X - Y).primitive()   # tangent at P1, through P4
L2_CONC = (X - Z).primitive()   # tangent at P2, through P4
L3_CONC = (Y - Z).primitive()   # tangent at P3, through P4


def w_N_111_p(seed):
    conds = [NNPointWithTangent(P1, L1_CONC, 2),
             NNPointWithTangent(P2, L2_CONC, 2),
             NNPointWithTangent(P3, L3_CONC, 2)]
    quintic = pick_form(5, conds, seed, avoid_points=[P4])
    return L1_CONC * L2_CONC * L3_CONC * quintic


def w_N_1112_p(seed):
    conds = [NNPointWithTangent(P1, L1_CONC, 2),
             NNPointWithTangent(P2, L2_CONC, 2),
             NNPointWithTangent(P3, L3_CONC, 2),
             MultiplicityAtPoint(P4, 1)]
    quintic = pick_form(5, conds, seed)
    return L1_CONC * L2_CONC * L3_CONC * quintic


def w_N_1112_pp(seed):
    p4 = normalize_point((1, -1, -1))    # intersection of the tangents at P1, P2
    conds = [ConeDirection(P1, TAU[P1], 1, 1),
             ConeDirection(P2, TAU[P2], 1, 1),
             NNPointWithTangent(P3, TAU[P3], 2),
             MultiplicityAtPoint(p4, 2)]
    quartic = pick_form(4, conds, seed)
    return TANGENT_CONIC * quartic * TAU[P1] * TAU[P2]


def w_N_2222(seed):
    f = MultiPoly.const(PLANE_VARS, 1)
    for k in range(1, 5):
        f = f * (X * X + k * Y * Y - (1 + k) * Z * Z)
    return f.primitive()


# -- non-normal strata -------------------------------------------------------------


def w_M_4_empty(seed):
    return FERMAT_QUARTIC ** 2


def w_M_3_empty(seed):
    cubic = pick_form(3, [], seed, checks=[])
    return CIRCLE * cubic * cubic


def w_M_2_empty(seed):
    return FERMAT_QUARTIC * CIRCLE ** 2


def w_M_2_2(seed):
    return FOUR_LINES_P1 * CIRCLE * CIRCLE


def w_M_1_empty(seed):
    line = (X + Y + Z).primitive()
    return (X ** 6 + Y ** 6 + Z ** 6) * line * line


def w_M_1_2(seed):
    line = pick_form(1, [], seed, avoid_points=[P1])
    return FOUR_LINES_P1 * CIRCLE * line * line


def w_M_1_2b(seed):
    u, w = TANGENT_PAIR
    line = pick_form(1, [], seed, avoid_points=[P1, P2])
    return u * w * X * (X - Y) * line * line


def w_M_1_1(seed):
    c1, c2, c3 = FLAG_CONICS
    line = pick_form(1, [], seed, avoid_points=[P1])
    return c1 * c2 * c3 * line * line


def w_M_1_1b(seed):
    line = pick_form(1, [], seed, avoid_points=[P1])
    return FLAG_CONICS[0] * FLAG_CONTACT3 * FLAG_CONICS[1] * line * line


def w_M_1_11(seed):
    line = pick_form(1, [], seed, avoid_points=[P1, P2])
    return PENCIL[1] * PENCIL[2] * PENCIL[3] * line * line


# -- registry and validation --------------------------------------------------------


# Keyed by the ids that catalogue records carry as `witness_key`: the recipe
# for id k is `w_k`, and its label is read from k.
WITNESS_BUILDERS: dict[str, tuple[StratumLabel, callable]] = {
    builder.__name__[2:]: (label_from_id(builder.__name__[2:]), builder) for builder in (
        w_N_empty, w_N_1, w_N_1b, w_N_2, w_N_2b, w_N_11, w_N_11b, w_N_1b1b, w_N_12_p,
        w_N_12_pp, w_N_12b, w_N_1b2, w_N_1b2b, w_N_22, w_N_22b, w_N_2b2b, w_N_111_p,
        w_N_111_pp, w_N_111b, w_N_11b1b, w_N_1b1b1b, w_N_112_p, w_N_112_pp, w_N_112_ppp,
        w_N_112b, w_N_11b2, w_N_11b2b, w_N_1b1b2, w_N_1b1b2b, w_N_122_p, w_N_122_pp,
        w_N_1b22, w_N_122b, w_N_1b22b, w_N_12b2b, w_N_1b2b2b, w_N_222, w_N_222b, w_N_22b2b,
        w_N_2b2b2b, w_N_1112_p, w_N_1112_pp, w_N_2222, w_M_4_empty, w_M_3_empty,
        w_M_2_empty, w_M_2_2, w_M_1_empty, w_M_1_1, w_M_1_1b, w_M_1_2, w_M_1_2b, w_M_1_11,
    )
}


@dataclass(slots=True)
class Witness:
    label: StratumLabel
    curve: HomForm
    profile: object
    seed_used: int


def build_witness(key: str, seed: int = WITNESS_SEED) -> Witness:
    """Construct and validate the witness for a stratum (or component) id,
    trying eight seeds spaced 1009 apart."""
    if key not in WITNESS_BUILDERS:
        raise KeyError(f"no witness recipe for {key}")
    label, builder = WITNESS_BUILDERS[key]
    last_issue = None
    for k in range(8):
        s = seed + 1009 * k
        try:
            poly = builder(s)
        except WitnessConstructionError as e:
            last_issue = str(e)
            continue
        curve = HomForm(poly.primitive(), 8)
        profile = curve_profile(curve)
        if profile.half_log_canonical and profile.label_tuple == label.match_tuple():
            return Witness(label, curve, profile, s)
        last_issue = f"profile {profile.label_tuple} issues {profile.issues[:2]}"
    raise WitnessConstructionError(f"could not validate witness for {key}: {last_issue}")
