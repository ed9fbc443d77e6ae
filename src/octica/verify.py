"""Executable checks of the degree-bound and Milnor-number constraints that
govern which singularity configurations fit on low-degree curves, plus the
emptiness certificates for the excluded strata.

Among these is the certificate that no plane octic carries four triple points
with infinitely-near triple points.  Its conics come from `linsys` condition
rows (a tangent flag is contact >= 2 with a line) and its residual
coincidence points from the certified point search, so an uncertified search
fails the certificate.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from sys import intern
from typing import Sequence

from .curveprofile import curve_profile
from .linalg import poly_kernel_basis
from .linsys import (HomForm, LineContact, MultiplicityAtPoint, NNPointWithTangent, PLANE_VARS,
                     Point, _cross, condition_ideal_graded_piece, condition_rows, conic_gradient,
                     conic_through, line_through, normalize_point)
from .pointsearch import common_rational_zeros
from .poly import MultiPoly, monomial_basis, poly_gcd

X = MultiPoly.var(PLANE_VARS, "x")
Y = MultiPoly.var(PLANE_VARS, "y")
Z = MultiPoly.var(PLANE_VARS, "z")

# Default seed of the parameter sampling in the nonexistence suite; the CLI
# falls back to it when neither --seed nor OCTICA_SEED is given.
DEFAULT_SEED = 77003
# Parameter values the nonexistence suite samples per configuration.
EMPTINESS_SAMPLES = 10


@dataclass(slots=True)
class LemmaCheckResult:
    lemma_id: str
    instances_checked: int
    all_passed: bool
    counterexample: str | None = None
    details: list[str] = field(default_factory=list)

    def __post_init__(self):
        # a suite repeats its messages call after call, so results that are
        # kept share one copy of each
        self.details = [intern(d) for d in self.details]

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma_id,
            "instances": self.instances_checked,
            "passed": self.all_passed,
            "counterexample": self.counterexample,
            "details": self.details,
        }


# -- degree bound suite ---------------------------------------------------------


def check_degree_bounds(seed: int = DEFAULT_SEED) -> LemmaCheckResult:
    """Bounds forced by an [n;n]-point or several multiple points on one curve.

    Checks, over explicit witness families:
      (a) an n-fold point forces degree >= n, with equality only for n
          concurrent lines;
      (b) the minimal-degree curve with an [n;n]-point (degree 2n-1) contains
          the distinguished tangent line;
      (c) an [n;n]-point together with an m-fold point on its tangent line is
          impossible below degree 2n+m-2, and at degree 2n+m-2 every solution
          of the linear conditions is non-reduced;
      (d) on an octic, two [3;3]-points have distinct tangent lines and no
          three [3;3]-points are collinear (via the four-point certificate
          machinery at the linear-system level).
    """
    details: list[str] = []
    checked = 0

    # (a) equality case: n concurrent lines
    for n in (3, 4):
        lines = MultiPoly.const(PLANE_VARS, 1)
        for k in range(n):
            lines = lines * (X + k * Y)
        prof = curve_profile(HomForm(lines.primitive(), n))
        mu = prof.total_milnor_rational
        checked += 1
        if mu != (n - 1) ** 2:
            return LemmaCheckResult("degree-bounds", checked, False,
                                    f"{n} concurrent lines with total milnor {mu}")
        details.append(f"{n} concurrent lines: milnor {(n-1)**2} attained")

    # (a') an n-fold point on a lower degree is impossible: the linear system
    # of degree-(n-1) forms with an n-fold point is empty
    for n in (3, 4, 5):
        ls = condition_ideal_graded_piece([MultiplicityAtPoint((0, 0, 1), n)], n - 1)
        checked += 1
        if ls.dim_forms != 0:
            return LemmaCheckResult("degree-bounds", checked, False,
                                    f"degree {n-1} with an {n}-fold point")
    details.append("multiplicity n needs degree >= n")

    # (b) at degree 2n-1 every member contains the distinguished tangent line
    for n in (2, 3, 4):
        ls = condition_ideal_graded_piece([NNPointWithTangent((0, 0, 1), Y, n)], 2 * n - 1)
        checked += 1
        if ls.dim_forms == 0:
            return LemmaCheckResult("degree-bounds", checked, False,
                                    f"[{n};{n}]-point linear system empty at degree {2*n-1}")
        if not all(Y.divides(b.poly) for b in ls.basis):
            return LemmaCheckResult("degree-bounds", checked, False,
                                    f"degree {2*n-1} member without the tangent line, n={n}")
        details.append(f"degree {2*n-1} with an [{n};{n}]-point contains its tangent line")

    # (c) [3;3]-point plus quadruple point on the tangent line: at degree 7
    # only non-reduced solutions survive (every member is divisible by the
    # square of the tangent line)
    ls = condition_ideal_graded_piece(
        [NNPointWithTangent((0, 0, 1), Y, 3), MultiplicityAtPoint((1, 0, 0), 4)], 7)
    checked += 1
    yy = Y * Y
    if ls.dim_forms == 0 or not all(yy.divides(b.poly) for b in ls.basis):
        return LemmaCheckResult("degree-bounds", checked, False,
                                "septic with [3;3] + quadruple on the tangent line is reduced")
    details.append("septic with [3;3]-point and quadruple point on its tangent: all members non-reduced")

    # (d) distinct tangent lines for two [3;3]-points on an octic: with a
    # common tangent line imposed, every member is divisible by that line
    # twice, hence non-reduced
    ls = condition_ideal_graded_piece(
        [NNPointWithTangent((0, 0, 1), X, 3), NNPointWithTangent((0, 1, 0), X, 3)], 8)
    checked += 1
    xx = X * X
    if ls.dim_forms and not all(xx.divides(b.poly) for b in ls.basis):
        return LemmaCheckResult("degree-bounds", checked, False,
                                "octic with two [3;3]-points sharing a tangent line is reduced")
    details.append("two [3;3]-points with a common tangent line force a doubled line")

    # (d') three collinear [3;3]-points: all members divisible by the line twice
    ls = condition_ideal_graded_piece(
        [NNPointWithTangent((0, 0, 1), X, 3), NNPointWithTangent((0, 1, 0), X, 3),
         NNPointWithTangent((0, 1, 1), X, 3)], 8)
    checked += 1
    if ls.dim_forms and not all(xx.divides(b.poly) for b in ls.basis):
        return LemmaCheckResult("degree-bounds", checked, False,
                                "octic with three collinear [3;3]-points is reduced")
    details.append("three collinear [3;3]-points force a doubled line")
    return LemmaCheckResult("degree-bounds", checked, True, None, details)


# -- Milnor bound suite -----------------------------------------------------------


def check_milnor_lemma(seed: int = DEFAULT_SEED) -> LemmaCheckResult:
    """Total Milnor number bound and the Euler characteristic bookkeeping of
    the normalisation on curves with fully known branch data."""
    details = []
    checked = 0

    suite: list[tuple[str, MultiPoly, int]] = []
    four_lines = (X * Y * (X + Y) * (X - 2 * Y)).primitive()
    suite.append(("four concurrent lines", four_lines, 4))
    suite.append(("smooth octic", (X ** 8 + Y ** 8 + Z ** 8), 8))
    three_conics = ((Y * Z - X * X) * (Y * Z - 2 * X * X) * (Y * Z - 3 * X * X)).primitive()
    suite.append(("three tangent conics", three_conics, 6))

    profiles = {}
    for name, poly, degree in suite:
        prof = profiles[name] = curve_profile(HomForm(poly, degree))
        checked += 1
        if prof.total_milnor_rational > (degree - 1) ** 2:
            return LemmaCheckResult("milnor-bound", checked, False, name)
        details.append(f"{name}: milnor {prof.total_milnor_rational} <= {(degree-1)**2}")

    # equality only for concurrent lines
    checked += 1
    if profiles["four concurrent lines"].total_milnor_rational != 9:
        return LemmaCheckResult("milnor-bound", checked, False, "four concurrent lines")

    # Euler characteristic of the normalisation for the three-conic curve:
    # the three conics pass through the two contact points with pairwise
    # contact 2, which exhausts every pairwise intersection, so those two
    # points carry all the singularities.  The normalisation is three
    # disjoint smooth rational curves, chi_top = 6, and the singular side is
    # (3 - d) d + sum over points of (mu + branches - 1).
    prof = profiles["three tangent conics"]
    rhs = (3 - 6) * 6
    for rep in prof.reports:
        rhs += rep.milnor + rep.branches - 1
    checked += 1
    if rhs != 6 or len(prof.reports) != 2:
        return LemmaCheckResult("milnor-bound", checked, False,
                                f"euler characteristic bookkeeping gave {rhs}")
    details.append("three tangent conics: normalisation euler characteristic 6 matches")
    return LemmaCheckResult("milnor-bound", checked, True, None, details)


# -- nonexistence suite -------------------------------------------------------------


@dataclass
class FourPointsCertificate:
    base_conic: HomForm
    coincidence_polys: list[MultiPoly]       # polynomials in (u, v) cutting the locus
    residuals: list[MultiPoly]
    degenerate_lines: list[MultiPoly]
    residual_curve_part_explained: bool
    residual_points: list[tuple[Fraction, Fraction]]
    residual_points_on_base: bool
    holds: bool
    notes: list[str] = field(default_factory=list)


UV = ("u", "v")
CONIC_EXPS = monomial_basis(3, 2)
# the substitution (x, y, z) -> (u, v, 1), which evaluates a form at p4 = (u : v : 1)
AT_P4 = {"x": MultiPoly.var(UV, "u"), "y": MultiPoly.var(UV, "v"), "z": 1}


def _symbolic_conic(flags: Sequence[tuple[Point, MultiPoly]]) -> list[MultiPoly]:
    """Coefficient vector of the conic through two rational flags and the
    symbolic point (u : v : 1): the kernel of the 5 x 6 condition matrix over
    Q(u, v), cleared to polynomials in u and v."""
    flag_rows = condition_rows([LineContact(p, line, 2) for p, line in flags], 2)
    rows = [[MultiPoly.const(UV, c) for c in r] for r in flag_rows]
    rows.append([MultiPoly.monomial(PLANE_VARS, exp).substitute(AT_P4, UV) for exp in CONIC_EXPS])
    vec, = poly_kernel_basis(rows, len(CONIC_EXPS), UV)
    return vec


def _homogenised(q: MultiPoly) -> MultiPoly:
    """q(u, v) as the form q(x/z, y/z) * z^deg q."""
    d = q.total_degree()
    return MultiPoly(PLANE_VARS, {(a, b, d - a - b): c for (a, b), c in q.terms.items()})


def verify_no_four_33_points(perturb: bool = False) -> FourPointsCertificate:
    """Fix three points and two tangents, build the three conics through a
    variable fourth point, and certify that their tangent directions at the
    fourth point can only coincide on the base conic (or on degenerate
    positions of the fourth point).  With perturb=True a deliberately wrong
    tangent through p2 is used and the certificate must fail (negative
    control)."""
    p1 = normalize_point((0, 0, 1))
    p2 = normalize_point((0, 1, 0))
    p3 = normalize_point((1, 0, 0))
    l1 = (X + Y).primitive()
    l2 = (X + Z).primitive()
    C0 = conic_through(points=[p3], flags=[(p1, l1), (p2, l2)])
    l3 = conic_gradient(C0, p3)
    l2_used = l2 if not perturb else (X + 2 * Z).primitive()
    conics = [_symbolic_conic(flags) for flags in (
        ((p2, l2), (p3, l3)),            # C1: misses p1
        ((p1, l1), (p3, l3)),            # C2: misses p2
        ((p1, l1), (p2, l2_used)))]      # C3: misses p3

    # tangent line of each conic at p4 = (u : v : 1): its gradient there
    grad_rows = [[MultiPoly.monomial(PLANE_VARS, exp).derivative(w).substitute(AT_P4, UV)
                  for exp in CONIC_EXPS] for w in PLANE_VARS]
    tangents = [[sum((c * d for c, d in zip(vec, row)), MultiPoly.zero(UV)) for row in grad_rows]
                for vec in conics]

    u = MultiPoly.var(UV, "u")
    v = MultiPoly.var(UV, "v")
    psis = []
    for other in (1, 2):
        c = _cross(tangents[0], tangents[other])
        psi = c[2]
        if not (c[0] == psi * u and c[1] == psi * v):
            raise AssertionError("tangent lines do not meet at the fourth point")
        psis.append(psi)
    c0_uv = C0.poly.substitute(AT_P4, UV)
    lines = [line_through(a, b) for a, b in ((p1, p2), (p1, p3), (p2, p3))] + [l1, l2, l3]
    degenerate_lines = [line.substitute(AT_P4, UV) for line in lines]

    if any(psi.is_zero() for psi in psis):
        return FourPointsCertificate(C0, psis, [], degenerate_lines, False, [], False, False,
                                     ["a coincidence polynomial vanished identically"])
    divisions = [psi.divmod_by(c0_uv) for psi in psis]
    residuals = [q if r.is_zero() else psi for (q, r), psi in zip(divisions, psis)]
    if any(not r.is_zero() for _, r in divisions):
        return FourPointsCertificate(C0, psis, residuals, degenerate_lines,
                                     False, [], False, False,
                                     ["coincidence polynomials are not divisible by the base conic"])

    # every curve component of the residual locus must be a known degenerate line
    # or the base conic again
    g = poly_gcd(residuals[0], residuals[1])
    explained = c0_uv
    for line in degenerate_lines:
        explained = explained * line
    h = g
    while not h.is_constant():
        d = poly_gcd(h, explained)
        if d.is_constant():
            break
        h = h.exact_div(d)
    curve_part_ok = h.is_constant()

    # the finitely many other common zeros, as points of the plane; those on
    # z = 0, the line through p2 and p3, are degenerate positions
    zeros, points_ok = common_rational_zeros([_homogenised(q.exact_div(g)) for q in residuals])
    notes = [] if points_ok else ["could not certify rationality of all residual coincidence points"]
    residual_points = sorted((px / pz, py / pz) for px, py, pz in zeros if pz != 0)
    for (u0, v0) in residual_points:
        vals = {"u": u0, "v": v0}
        on_base = c0_uv.evaluate(vals) == 0
        on_deg = any(l.evaluate(vals) == 0 for l in degenerate_lines)
        if not (on_base or on_deg):
            points_ok = False
            notes.append(f"residual coincidence point off the base conic: ({u0}, {v0})")

    holds = curve_part_ok and points_ok
    return FourPointsCertificate(C0, psis, residuals, degenerate_lines,
                                 curve_part_ok, residual_points, points_ok, holds, notes)


@dataclass
class EmptinessCertificate:
    label: str
    specializations_checked: int
    all_invalid: bool
    reasons: list[str] = field(default_factory=list)


def certify_empty_configuration(conditions_builder, n_params: int, label: str,
                                seed: int = DEFAULT_SEED) -> EmptinessCertificate:
    """Sample the parametric configuration space and certify that every
    solution of the linear conditions is non-reduced or fails the profile."""
    rng = random.Random(seed)
    reasons = []
    all_invalid = True
    checked = 0
    for _ in range(EMPTINESS_SAMPLES):
        params = tuple(Fraction(rng.randint(-6, 6)) for _ in range(n_params))
        try:
            conditions, forbidden = conditions_builder(params)
        except ValueError:
            continue
        system = condition_ideal_graded_piece(conditions, 8)
        checked += 1
        if system.dim_forms == 0:
            reasons.append(f"params {params}: empty linear system")
            continue
        squares = [l * l for l in forbidden]
        if all(any(s.divides(b.poly) for s in squares) for b in system.basis):
            reasons.append(f"params {params}: every member is non-reduced")
            continue
        # a reduced member may exist: validate its actual profile
        member = system.basis[0].poly
        for b in system.basis[1:]:
            member = member + b.poly
        prof = curve_profile(HomForm(member.primitive(), 8))
        if prof.half_log_canonical:
            all_invalid = False
            reasons.append(f"params {params}: admissible member found")
        else:
            reasons.append(f"params {params}: members violate admissibility")
    return EmptinessCertificate(label, checked, all_invalid, reasons)


def check_nonexistence_suite(seed: int = DEFAULT_SEED) -> LemmaCheckResult:
    """Emptiness certificates for the excluded strata, plus a control that the
    machinery does not declare an inhabited stratum empty."""
    details = []
    checked = 0

    cert: FourPointsCertificate = verify_no_four_33_points()
    checked += 1
    if not cert.holds:
        return LemmaCheckResult("nonexistence", checked, False, "four [3;3]-points certificate failed")
    details.append("four [3;3]-points: coincidence locus confined to the base conic")

    control = verify_no_four_33_points(perturb=True)
    checked += 1
    if control.holds:
        return LemmaCheckResult("nonexistence", checked, False, "perturbed certificate did not fail")
    details.append("perturbed tangent data: certificate fails as required (negative control)")

    # two [3;3]-points plus two quadruple points, one quadruple point moving
    def config_1122(params):
        u, v = params
        q2 = (Fraction(1), Fraction(u), Fraction(v))
        if u == 0 and v == 0:
            raise ValueError("degenerate sample")
        q2 = normalize_point(q2)
        if q2 in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
            raise ValueError("anchor collision")
        conds = [NNPointWithTangent((0, 0, 1), Y, 3), NNPointWithTangent((0, 1, 0), Z, 3),
                 MultiplicityAtPoint((1, 0, 0), 4), MultiplicityAtPoint(q2, 4)]
        forbidden = [Y, Z, X, (Y - u * X).primitive() if u else Y]
        return conds, [f for f in forbidden if not f.is_zero()]

    cert2 = certify_empty_configuration(config_1122, 2, "two [3;3] + two quadruples", seed)
    checked += cert2.specializations_checked
    if not cert2.all_invalid:
        return LemmaCheckResult("nonexistence", checked, False, "two [3;3] + two quadruple points")
    details.append(f"two [3;3] + two quadruples: {cert2.specializations_checked} samples, none admissible")

    def config_1222(params):
        u, v = params
        q3 = normalize_point((Fraction(1), Fraction(1) + u, Fraction(2) + v))
        anchors = [(0, 0, 1), (1, 0, 0), (0, 1, 0)]
        if q3 in [normalize_point(a) for a in anchors]:
            raise ValueError("anchor collision")
        conds = [NNPointWithTangent((0, 0, 1), Y, 3),
                 MultiplicityAtPoint((1, 0, 0), 4), MultiplicityAtPoint((0, 1, 0), 4),
                 MultiplicityAtPoint(q3, 4)]
        return conds, [X, Y, Z]

    cert3 = certify_empty_configuration(config_1222, 2, "one [3;3] + three quadruples", seed + 1)
    checked += cert3.specializations_checked
    if not cert3.all_invalid:
        return LemmaCheckResult("nonexistence", checked, False, "one [3;3] + three quadruple points")
    details.append(f"one [3;3] + three quadruples: {cert3.specializations_checked} samples, none admissible")

    # control: a single quadruple point is of course realisable
    from .witnesses import build_witness
    w = build_witness("N_2")
    checked += 1
    if not w.profile.half_log_canonical:
        return LemmaCheckResult("nonexistence", checked, False, "control witness failed")
    details.append("control: the single-quadruple stratum is inhabited")
    return LemmaCheckResult("nonexistence", checked, True, None, details)
