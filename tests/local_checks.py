"""Test-only helpers: the germ of a curve at a point, oracles built on the
library's local intersection numbers, schoolbook Fraction references for
evaluation, derivatives, substitution, division and pseudo-remainders, the
Bareiss determinant, coefficients in one variable and the Sylvester-determinant
resultant, local intersection numbers from resultants at shears, random
projectivities and their inverses, the small linear systems that the dimension
tables quote, stratum dimensions from one tangent-space rank and the partial
order on Hodge diamonds."""
import itertools
import random
from fractions import Fraction

from octica.linalg import rank
from octica.linsys import (AnchorError, ConeDirection, ContainsCurve, HomForm, LinearSystem,
                           MultiplicityAtPoint, NNPointWithTangent, PLANE_VARS, _det3,
                           _degenerate_direction_combos, condition_ideal_graded_piece,
                           evaluate_at, normalize_point, transport_matrix)
from octica.paramfam import ParamMatrix, UniversalFamily
from octica.poly import (MultiPoly, _check_resultant_args, grevlex_key, monomial_basis, poly_gcd,
                         resultant, squarefree_decomposition)
from octica.singclass import _chart, _point_on, intersection_multiplicity_origin


def localize(curve: HomForm, point) -> MultiPoly:
    """Germ of the curve at the point: transport to (0:0:1), set z to 1."""
    return _chart(curve.poly, transport_matrix(_point_on(curve, point)))


def intersection_multiplicity(f: HomForm, g: HomForm, point) -> int:
    """Local intersection multiplicity of two curves at a rational point."""
    p = normalize_point(point)
    if evaluate_at(f.poly, p) != 0 or evaluate_at(g.poly, p) != 0:
        return 0
    val = intersection_multiplicity_origin(localize(f, p), localize(g, p))
    if val is None:
        raise ValueError("curves share a component through the point")
    return val


def bezout_check(f: HomForm, g: HomForm, points) -> bool:
    """Sum of local intersection numbers at the given rational common points
    never exceeds the product of the degrees."""
    return sum(intersection_multiplicity(f, g, p) for p in points) <= f.degree * g.degree


def is_isolated(f: MultiPoly) -> bool:
    """No repeated component of the germ passes through the origin."""
    for mult, piece in squarefree_decomposition(f):
        if mult >= 2 and piece.evaluate({"x": 0, "y": 0}) == 0:
            return False
    return True


# -- schoolbook references on Fraction terms ------------------------------------


def _terms_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _terms_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def substitute_reference(f: MultiPoly, images: dict, frame) -> MultiPoly:
    """f with every variable sent to its image in `frame`, one Fraction
    term times one image at a time."""
    frame = tuple(frame)
    out = {}
    for exp, c in f.terms.items():
        term = {(0,) * len(frame): c}
        for v, e in zip(f.vars, exp):
            for _ in range(e):
                term = _terms_mul(term, images[v].terms)
        out = _terms_add(out, term)
    return MultiPoly(frame, out)


def evaluate_reference(f: MultiPoly, values: dict) -> Fraction:
    """f at a point, one Fraction power at a time; a used variable without a
    value raises KeyError."""
    total = Fraction(0)
    for exp, c in f.terms.items():
        for v, e in zip(f.vars, exp):
            if e:
                c *= Fraction(values[v]) ** e
        total += c
    return total


def derivative_reference(f: MultiPoly, name: str) -> MultiPoly:
    """The partial derivative, one Fraction term at a time."""
    i = f.vars.index(name)
    out = {}
    for exp, c in f.terms.items():
        if exp[i]:
            e = exp[:i] + (exp[i] - 1,) + exp[i + 1:]
            out[e] = out.get(e, 0) + c * exp[i]
    return MultiPoly(f.vars, out)


def divide_reference(f: MultiPoly, g: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Grevlex division of f by g: the leading term of what is left either
    divides by the leading term of g or moves to the remainder."""
    lexp, lc = g.leading_term()
    q, r, left = {}, {}, dict(f.terms)
    while left:
        exp = max(left, key=grevlex_key)
        if all(a >= b for a, b in zip(exp, lexp)):
            m = {tuple(a - b for a, b in zip(exp, lexp)): left[exp] / lc}
            q.update(m)
            left = _terms_add(left, _terms_mul(m, g.terms), -1)
        else:
            r[exp] = left.pop(exp)
    return MultiPoly(f.vars, q), MultiPoly(f.vars, r)


def prem_reference(A: MultiPoly, B: MultiPoly, main: str) -> MultiPoly:
    """lc(B)^(degA-degB+1) * A - Q*B, one leading coefficient at a time."""
    i = A.vars.index(main)
    da, db = A.degree_in(main), B.degree_in(main)
    if da < db:
        return A
    lb = {e[:i] + (0,) + e[i + 1:]: c for e, c in B.terms.items() if e[i] == db}
    R = dict(A.terms)
    for _ in range(da - db + 1):
        dr = max((e[i] for e in R), default=-1)
        lead = {e[:i] + (dr - db,) + e[i + 1:]: c for e, c in R.items() if e[i] == dr}
        R = _terms_mul(R, lb)
        if dr >= db:
            R = _terms_add(R, _terms_mul(lead, B.terms), -1)
    return MultiPoly(A.vars, R)


# -- resultants ----------------------------------------------------------------


def coeff_of(f: MultiPoly, name: str, k: int) -> MultiPoly:
    """Coefficient of name^k in f, kept in f's frame with name's exponent 0."""
    i = f.vars.index(name)
    return MultiPoly(f.vars, {exp[:i] + (0,) + exp[i + 1:]: c
                              for exp, c in f.terms.items() if exp[i] == k})


def sylvester_matrix(f: MultiPoly, g: MultiPoly, main: str) -> list[list[MultiPoly]]:
    """Sylvester matrix in `main`, coefficients of f in the top rows."""
    df = f.degree_in(main)
    dg = g.degree_in(main)
    if df <= 0 and dg <= 0:
        raise ValueError("both polynomials are constant in the eliminated variable")
    cf = [coeff_of(f, main, k) for k in range(df + 1)]
    cg = [coeff_of(g, main, k) for k in range(dg + 1)]
    n = df + dg
    zero = MultiPoly.zero(f.vars)
    rows: list[list[MultiPoly]] = []
    for r in range(dg):
        row = [zero] * n
        for k in range(df + 1):
            row[r + k] = cf[df - k]
        rows.append(row)
    for r in range(df):
        row = [zero] * n
        for k in range(dg + 1):
            row[r + k] = cg[dg - k]
        rows.append(row)
    return rows


def det_bareiss(rows: list[list[MultiPoly]]) -> MultiPoly:
    """Fraction-free determinant; entries must support exact division."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    frame = rows[0][0].vars
    m = [list(r) for r in rows]
    sign = 1
    prev = MultiPoly.const(frame, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            for r in range(k + 1, n):
                if not m[r][k].is_zero():
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return MultiPoly.zero(frame)
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                q, rem = divide_reference(m[k][k] * m[r][c] - m[r][k] * m[k][c], prev)
                assert rem.is_zero()
                m[r][c] = q
            m[r][k] = MultiPoly.zero(frame)
        prev = m[k][k]
    return m[n - 1][n - 1] * sign


def resultant_sylvester(f: MultiPoly, g: MultiPoly, main: str) -> MultiPoly:
    """Reference implementation: Bareiss determinant of the Sylvester matrix.

    Sign convention is frozen by the row layout of `sylvester_matrix`.
    """
    _check_resultant_args(f, g, main)
    return det_bareiss(sylvester_matrix(f, g, main))


# -- intersection numbers by resultants -----------------------------------------


def _order_along_axis(f: MultiPoly, axis_var: str) -> int | None:
    """Order of vanishing at 0 of f restricted to the coordinate axis."""
    other = "y" if axis_var == "x" else "x"
    restr = f.substitute({other: Fraction(0)})
    if restr.is_zero():
        return None
    return min(exp[f.vars.index(axis_var)] for exp in restr.terms)


def intersection_reference(p: MultiPoly, q: MultiPoly) -> int | None:
    """I_0(p, q) for bivariate polynomials in (x, y), None for infinity, as
    the y-order of Res_x at the first shear y -> y + c*x that passes exact
    checks; independent of the library's Fulton algorithm.

    The factors x and y are split off first.  Past the checks the origin is
    the only common zero on the line y = 0, with none at x-infinity over it,
    so for coprime p and q the order is exactly I_0.  A zero Res_x or four
    failed shears call for `poly_gcd`: a common factor through the origin
    gives None, one off it is divided out and the sweep goes on.
    """
    if p.is_zero() or q.is_zero():
        return None
    if p.evaluate({"x": 0, "y": 0}) != 0 or q.evaluate({"x": 0, "y": 0}) != 0:
        return 0
    total = 0
    for name, other in (("x", "y"), ("y", "x")):
        v = MultiPoly.var(p.vars, name)
        k, p = p.divisor_power(v)
        if k:
            o = _order_along_axis(q, other)
            if o is None:
                return None
            total += k * o
        k, q = q.divisor_power(v)
        if k:
            o = _order_along_axis(p, other)
            if o is None:
                return None
            total += k * o
    if p.evaluate({"x": 0, "y": 0}) != 0 or q.evaluate({"x": 0, "y": 0}) != 0:
        return total
    shears = (Fraction((k + 1) // 2 * (1 if k % 2 else -1)) for k in itertools.count())
    order = _resultant_order(p, q, itertools.islice(shears, 4))
    if order is None:
        g = poly_gcd(p, q)
        if g.total_degree() > 0:
            if g.evaluate({"x": 0, "y": 0}) == 0:
                return None
            p = p.exact_div(g)
            q = q.exact_div(g)
        order = _resultant_order(p, q, shears)
    return total + order


def _resultant_order(p: MultiPoly, q: MultiPoly, shears) -> int | None:
    """ord_y Res_x at the first shear in `shears` that passes the checks;
    None if none passes or Res_x vanishes there."""
    x = MultiPoly.var(p.vars, "x")
    y = MultiPoly.var(p.vars, "y")
    for c in shears:
        pc = p.substitute({"y": y + c * x})
        qc = q.substitute({"y": y + c * x})
        # only the origin may be a common zero on the sweep line y = 0
        pu = pc.substitute({"y": Fraction(0)}).rename(("x",))
        qu = qc.substitute({"y": Fraction(0)}).rename(("x",))
        if pu.is_zero() or qu.is_zero():
            continue
        if len(poly_gcd(pu, qu).terms) != 1:
            continue
        # no common zero at x-infinity over y = 0
        lp = coeff_of(pc, "x", pc.degree_in("x"))
        lq = coeff_of(qc, "x", qc.degree_in("x"))
        if lp.evaluate({"x": 0, "y": 0}) == 0 and lq.evaluate({"x": 0, "y": 0}) == 0:
            continue
        res = resultant(pc, qc, "x").rename(("y",))
        if res.is_zero():
            return None
        return min(exp[0] for exp in res.terms)
    return None


# -- projectivities and the systems quoted in the dimension tables -------------


def random_projectivity(rng) -> list[list[Fraction]]:
    while True:
        A = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        if _det3(A):
            return A


def invert3(A: list[list[Fraction]]) -> list[list[Fraction]]:
    a, b, c = A[0]
    d, e, f = A[1]
    g, h, i = A[2]
    det = _det3(A)
    if det == 0:
        raise AnchorError("singular transport matrix")
    cof = [
        [(e * i - f * h), -(b * i - c * h), (b * f - c * e)],
        [-(d * i - f * g), (a * i - c * g), -(a * f - c * d)],
        [(d * h - e * g), -(a * h - b * g), (a * e - b * d)],
    ]
    return [[cof[r][s] / det for s in range(3)] for r in range(3)]


def quadruple_point_system(point=(0, 0, 1), degree: int = 8) -> LinearSystem:
    return condition_ideal_graded_piece([MultiplicityAtPoint(point, 4)], degree)


def nn_point_system(point=(0, 0, 1), tangent: MultiPoly | None = None, n: int = 3,
                    degree: int = 8, degenerate: bool = False) -> LinearSystem:
    if tangent is None:
        tangent = MultiPoly.var(PLANE_VARS, "y")
    return condition_ideal_graded_piece(
        [NNPointWithTangent(point, tangent, n, Fraction(0) if degenerate else None)], degree)


def sextic_quadruple_system() -> LinearSystem:
    """Sextics with a quadruple point at the standard anchor (18 forms)."""
    return quadruple_point_system(degree=6)


def sextic_33_fixed_tangent(degenerate: bool = False) -> LinearSystem:
    """Sextics with a [3;3]-point at the standard flag; optionally with the
    degenerate second-order datum pinned (16 resp. 14 forms)."""
    return nn_point_system(degree=6, degenerate=degenerate)


def sextic_degenerate_quadruple_system() -> LinearSystem:
    """Sextics with a quadruple point whose cone contains the fixed tangent
    direction doubly (16 forms)."""
    y = MultiPoly.var(PLANE_VARS, "y")
    return condition_ideal_graded_piece([ConeDirection((0, 0, 1), y, 4, 2)], 6)


def conic_pencil_through_two_flags(p1=(0, 0, 1), t1=None, p2=(0, 1, 0), t2=None) -> LinearSystem:
    """Conics through two point-with-tangent flags (a pencil: 2 forms)."""
    t1 = t1 if t1 is not None else MultiPoly.var(PLANE_VARS, "y")
    t2 = t2 if t2 is not None else MultiPoly.var(PLANE_VARS, "z")
    return condition_ideal_graded_piece(
        [ConeDirection(p1, t1, 1, 1), ConeDirection(p2, t2, 1, 1)], 2)


def two_33_sextic_system(p1=(0, 0, 1), t1=None, p2=(0, 1, 0), t2=None) -> LinearSystem:
    """Sextics with [3;3]-points at two flags (4 forms: products of three
    members of the conic pencil through the flags)."""
    t1 = t1 if t1 is not None else MultiPoly.var(PLANE_VARS, "y")
    t2 = t2 if t2 is not None else MultiPoly.var(PLANE_VARS, "z")
    return condition_ideal_graded_piece(
        [NNPointWithTangent(p1, t1, 3), NNPointWithTangent(p2, t2, 3)], 6)


def two_33_sextic_pinned_system(p1=(0, 0, 1), t1=None, p2=(0, 1, 0), t2=None,
                                pencil_members=(1, 2)) -> LinearSystem:
    """Sextics with two [3;3]-points divisible by two fixed members of the
    conic pencil: the residual pencil (2 forms, projective dimension 1)."""
    t1 = t1 if t1 is not None else MultiPoly.var(PLANE_VARS, "y")
    t2 = t2 if t2 is not None else MultiPoly.var(PLANE_VARS, "z")
    pencil = conic_pencil_through_two_flags(p1, t1, p2, t2)
    if pencil.dim_forms != 2:
        raise AnchorError("expected a pencil of conics through the two flags")
    q0, q1 = pencil.basis
    k0, k1 = pencil_members
    c1 = HomForm(q0.poly * k0 + q1.poly, 2)
    c2 = HomForm(q0.poly * k1 + q1.poly, 2)
    return condition_ideal_graded_piece(
        [NNPointWithTangent(p1, t1, 3), NNPointWithTangent(p2, t2, 3),
         ContainsCurve(HomForm(c1.poly * c2.poly, 4), 1)], 6)


def degenerate_nn_direction_analysis(n: int = 3, degree: int = 6,
                                     param: str = "s") -> tuple[UniversalFamily, ParamMatrix]:
    """Forms with an [n;n]-point at the standard flag whose blown-up tangent
    cone has a repeated root at the variable direction y/x = s.

    The family is the fixed monomial basis of the [n;n] ideal; the two extra
    rows (the cone as a binary n-ic vanishes doubly at the direction s) are
    polynomial in the parameter, so the kernel of the 2-row matrix at each
    value of s is the degenerate linear system with that second-order datum.
    """
    frame_p = (param,)
    zero = MultiPoly.zero(frame_p)
    exps = [e for e in monomial_basis(3, degree) if e[0] + 2 * e[1] >= 2 * n]
    basis = [MultiPoly.monomial(PLANE_VARS + frame_p, e + (0,)) for e in exps]
    family = UniversalFamily(degree, frame_p, basis)
    combos = _degenerate_direction_combos(degree, n, MultiPoly.var(frame_p, param))
    return family, ParamMatrix([[combo.get(e, zero) for e in exps] for combo in combos], frame_p,
                               family.size)


# -- stratum dimensions from one tangent-space rank --------------------------------


def family_dimension(factors, seed: int) -> int:
    """Dimension modulo PGL(3) of the PGL(3)-saturated family of forms
    W = prod F_i^e_i, each F_i ranging over the span of its basis.

    `factors` lists (basis of forms, exponent e_i).  At W built from seeded
    integer combinations F_i, the differential of the parametrisation spans
    the forms e_i (W / F_i) g for g in the i-th basis, and the differential of
    the PGL(3) action the nine orbit forms x_j dW/dx_i.  By generic
    smoothness the rank of both together, less one for scaling and eight for
    PGL(3), is the dimension, provided the nine orbit forms alone have rank 9:
    then the stabiliser of W is finite.
    """
    rng = random.Random(seed)
    zero = MultiPoly.zero(PLANE_VARS)
    fs = [sum((g * rng.randint(1, 9) for g in basis), zero) for basis, _ in factors]
    w = MultiPoly.const(PLANE_VARS, 1)
    for f, (_, e) in zip(fs, factors):
        w = w * f ** e
    tangent = [w.exact_div(f) * g * e for f, (basis, e) in zip(fs, factors) for g in basis]
    orbit = [MultiPoly.var(PLANE_VARS, xj) * w.derivative(xi)
             for xi in PLANE_VARS for xj in PLANE_VARS]
    exps = monomial_basis(3, w.total_degree())

    def coefficients(forms):
        return [[h.coeff(m) for m in exps] for h in forms]

    assert rank(coefficients(orbit)) == 9, "the stabiliser of W is not finite"
    return rank(coefficients(tangent + orbit)) - 9


def _piece(degree: int, conditions=()) -> list[MultiPoly]:
    return [h.poly for h in condition_ideal_graded_piece(list(conditions), degree).basis]


def dimension_families() -> dict[str, list]:
    """The factors of a general member of each stratum whose dimension the
    catalogue quotes, keyed by witness key.  A normal stratum is one graded
    piece of octics; the doubled part of a non-normal one is a free factor
    with exponent 2, and M_1's sextic carries the point conditions of N."""
    x, y, z = (MultiPoly.var(PLANE_VARS, v) for v in PLANE_VARS)
    p1, p2, p3, p4 = (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)
    nn = NNPointWithTangent(p1, y, 3)
    points = {
        "empty": [],
        "2": [MultiplicityAtPoint(p1, 4)],
        "1": [nn],
        "1b": [NNPointWithTangent(p1, y, 3, direction=1)],
        "2b": [ConeDirection(p1, y, 4, 2)],
        "11": [nn, NNPointWithTangent(p2, z, 3)],
    }
    out = {f"N_{body}": [(_piece(8, conds), 1)] for body, conds in points.items()}
    for ps, key in (((p1, p2), "N_22"), ((p1, p2, p3), "N_222"), ((p1, p2, p3, p4), "N_2222")):
        out[key] = [(_piece(8, [MultiplicityAtPoint(p, 4) for p in ps]), 1)]
    out["N_12_p"] = [(_piece(8, [NNPointWithTangent(p1, y - x, 3), MultiplicityAtPoint(p3, 4)]), 1)]
    out["N_12_pp"] = [(_piece(8, [nn, MultiplicityAtPoint(p3, 4)]), 1)]
    out.update({f"M_1_{body}": [(_piece(6, conds), 1), (_piece(1), 2)]
                for body, conds in points.items()})
    out["M_4_empty"] = [(_piece(4), 2)]
    out["M_3_empty"] = [(_piece(2), 1), (_piece(3), 2)]
    out["M_2_empty"] = [(_piece(4), 1), (_piece(2), 2)]
    out["M_2_2"] = [(_piece(4, [MultiplicityAtPoint(p4, 4)]), 1), (_piece(2), 2)]
    return out


# -- the partial order on Hodge diamonds -----------------------------------------


def hodge_leq(h1: tuple[int, int], h2: tuple[int, int]) -> bool:
    return h1[0] <= h2[0] and h1[0] + h1[1] <= h2[0] + h2[1]


def hodge_diamonds() -> list[tuple[int, int]]:
    return [(r, s) for r in range(4) for s in range(4 - r)]


def hodge_hasse_edges() -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Covering relations of the partial order on the ten diamonds."""
    ds = hodge_diamonds()
    edges = []
    for h1 in ds:
        for h2 in ds:
            if h1 == h2 or not hodge_leq(h1, h2):
                continue
            if any(h3 not in (h1, h2) and hodge_leq(h1, h3) and hodge_leq(h3, h2) for h3 in ds):
                continue
            edges.append((h1, h2))
    return sorted(edges)
