"""Local analysis and classification of plane curve germs.

The classifier decides whether the germ of a curve at a rational point is one
of the singularity types admissible on the branch curve of a stable double
cover (A/D/E, the ordinary and degenerate quadruple points X9 / X_p / Y_{r,s},
the ordinary and degenerate triple points with infinitely-near triple point
J10 / J_{2,p}, and the six non-isolated types along a doubled component), or
none of these.  Milnor numbers are computed exactly as the intersection
multiplicity of the two partial derivatives at the origin, by the order of a
resultant in sheared coordinates, at the first shear of a fixed sweep under
which the resultant order provably equals the intersection number.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .linsys import HomForm, PLANE_VARS, Point, apply_transport, invert3, normalize_point, transport_matrix
from .poly import (MultiPoly, poly_gcd, resultant, squarefree_decomposition,
                   squarefree_part, univariate_coeff_list)

LOCAL_VARS = ("x", "y")


# -- local curves -------------------------------------------------------------


@dataclass
class LocalCurve:
    """A curve germ at the origin of an affine chart, with its provenance."""

    f_local: MultiPoly
    original_point: Point | None = None
    transport: list[list[Fraction]] | None = None

    def __post_init__(self):
        if self.f_local.vars != LOCAL_VARS:
            self.f_local = self.f_local.rename(LOCAL_VARS)
        if self.f_local.evaluate({"x": 0, "y": 0}) != 0:
            raise ValueError("germ does not pass through the origin")


def localize(curve: HomForm, point) -> LocalCurve:
    """Germ of the curve at the point: transport to (0:0:1), set z to 1."""
    p = normalize_point(point)
    value = curve.poly.evaluate({"x": p[0], "y": p[1], "z": p[2]})
    if value != 0:
        raise ValueError(f"point {point} does not lie on the curve")
    A = transport_matrix(p)
    g = apply_transport(curve.poly, A)
    g = g.substitute({"z": Fraction(1)}).rename(LOCAL_VARS + ("z",)).rename(LOCAL_VARS)
    return LocalCurve(g, p, A)


def multiplicity(germ: LocalCurve | MultiPoly) -> int:
    f = germ.f_local if isinstance(germ, LocalCurve) else germ
    if f.is_zero():
        raise ValueError("zero germ")
    return min(sum(exp) for exp in f.terms)


def tangent_cone(germ: LocalCurve | MultiPoly) -> MultiPoly:
    f = germ.f_local if isinstance(germ, LocalCurve) else germ
    m = multiplicity(germ)
    terms = {exp: c for exp, c in f.terms.items() if sum(exp) == m}
    return MultiPoly(f.vars, terms)


def tangent_cone_structure(germ: LocalCurve | MultiPoly) -> list[tuple[int, MultiPoly]]:
    """Squarefree structure [(multiplicity, squarefree factor)] of the cone."""
    return squarefree_decomposition(tangent_cone(germ))


# -- blow-up ------------------------------------------------------------------


def blow_up_strict_transform(germ: LocalCurve | MultiPoly) -> list[dict]:
    """Both charts of one blow-up.

    Chart "y/x": substitute y -> x*y and divide by x^multiplicity; the
    exceptional line is x = 0 and y is the direction coordinate.  Chart "x/y"
    is symmetric and only the direction at infinity (0:1) is read off there.
    Each entry reports the rational singular directions of the strict
    transform along the exceptional line.
    """
    f = germ.f_local if isinstance(germ, LocalCurve) else germ
    m = multiplicity(germ)
    x = MultiPoly.var(LOCAL_VARS, "x")
    y = MultiPoly.var(LOCAL_VARS, "y")
    charts = []
    g1 = f.substitute({"y": x * y}).exact_div(x ** m)
    charts.append({"chart": "y/x", "strict": g1,
                   "singular_directions": _singular_on_exceptional(g1, "x")})
    g2 = f.substitute({"x": x * y}).exact_div(y ** m)
    charts.append({"chart": "x/y", "strict": g2,
                   "singular_directions": _singular_on_exceptional(g2, "y")})
    return charts


def _singular_on_exceptional(strict: MultiPoly, exc_var: str) -> list[Fraction]:
    other = "y" if exc_var == "x" else "x"
    on_line = strict.substitute({exc_var: Fraction(0)})
    if on_line.is_zero():
        return []
    restr = on_line.rename((other,))
    d1 = restr.derivative(other)
    dd = strict.derivative(exc_var).substitute({exc_var: Fraction(0)}).rename((other,))
    g = poly_gcd(poly_gcd(restr, d1), dd)
    if g.total_degree() <= 0:
        return []
    return rational_roots(g, other)


def strict_germ_at_direction(germ: LocalCurve | MultiPoly, direction: tuple[Fraction, Fraction]) -> MultiPoly:
    """Strict transform localised at a point of the exceptional line.

    `direction` is the tangent direction (dx : dy); for dx != 0 this is the
    point y = dy/dx of chart "y/x", for dx == 0 the origin of chart "x/y".
    """
    f = germ.f_local if isinstance(germ, LocalCurve) else germ
    m = multiplicity(germ)
    x = MultiPoly.var(LOCAL_VARS, "x")
    y = MultiPoly.var(LOCAL_VARS, "y")
    dx, dy = Fraction(direction[0]), Fraction(direction[1])
    if dx != 0:
        t = dy / dx
        g = f.substitute({"y": x * (y + t)}).exact_div(x ** m)
    else:
        # direction (0:1): visible at the origin of the second chart, where x
        # is the direction coordinate and the exceptional line is y = 0
        g = f.substitute({"x": x * y}).exact_div(y ** m)
    return g


# -- intersection numbers and Milnor numbers ----------------------------------


def _strip_var(f: MultiPoly, name: str) -> tuple[int, MultiPoly]:
    v = MultiPoly.var(f.vars, name)
    k = 0
    while True:
        q, r = f.divmod_by(v)
        if not r.is_zero():
            return k, f
        k += 1
        f = q


def _order_along_axis(f: MultiPoly, axis_var: str) -> int | None:
    """Order of vanishing at 0 of f restricted to the coordinate axis."""
    other = "y" if axis_var == "x" else "x"
    restr = f.substitute({other: Fraction(0)})
    if restr.is_zero():
        return None
    return min(exp[f.vars.index(axis_var)] for exp in restr.terms)


def intersection_multiplicity_origin(p: MultiPoly, q: MultiPoly) -> int | None:
    """I_0(p, q) for bivariate polynomials; None encodes infinity."""
    p = p.rename(LOCAL_VARS)
    q = q.rename(LOCAL_VARS)
    if p.is_zero() or q.is_zero():
        return None
    if p.evaluate({"x": 0, "y": 0}) != 0 or q.evaluate({"x": 0, "y": 0}) != 0:
        return 0
    g = poly_gcd(p, q)
    if g.total_degree() > 0 and g.evaluate({"x": 0, "y": 0}) == 0:
        return None
    if g.total_degree() > 0:
        p = p.exact_div(g)
        q = q.exact_div(g)
    total = 0
    for name, other in (("x", "y"), ("y", "x")):
        k, p = _strip_var(p, name)
        if k:
            o = _order_along_axis(q, other)
            if o is None:
                return None
            total += k * o
        k, q = _strip_var(q, name)
        if k:
            o = _order_along_axis(p, other)
            if o is None:
                return None
            total += k * o
    if p.evaluate({"x": 0, "y": 0}) != 0 or q.evaluate({"x": 0, "y": 0}) != 0:
        return total
    x = MultiPoly.var(LOCAL_VARS, "x")
    y = MultiPoly.var(LOCAL_VARS, "y")
    # Sweep the shears y -> y + c*x, c = 0, 1, -1, 2, -2, ...  Once the checks
    # below pass, the origin is the only common zero on the line y = 0, with
    # none at x-infinity over it, so ord_y Res_x is exactly I_0.  Only finitely
    # many c fail them, since the coprime p and q have finitely many common
    # zeros, linear factors and zeros of their top-degree forms.
    for k in itertools.count():
        c = Fraction((k + 1) // 2 * (1 if k % 2 else -1))
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
        lp = pc.coeff_of("x", pc.degree_in("x"))
        lq = qc.coeff_of("x", qc.degree_in("x"))
        if lp.evaluate({"x": 0, "y": 0}) == 0 and lq.evaluate({"x": 0, "y": 0}) == 0:
            continue
        res = resultant(pc, qc, "x").rename(("y",))
        return total + min(exp[0] for exp in res.terms)


def is_isolated(germ: LocalCurve | MultiPoly) -> bool:
    """No repeated component of the germ passes through the origin."""
    f = germ.f_local if isinstance(germ, LocalCurve) else germ
    for mult, piece in squarefree_decomposition(f):
        if mult >= 2 and piece.evaluate({"x": 0, "y": 0}) == 0:
            return False
    return True


def milnor_number(germ: LocalCurve | MultiPoly) -> int | None:
    """Milnor number at the origin; None encodes a non-isolated germ."""
    f = germ.f_local if isinstance(germ, LocalCurve) else germ
    f = f.rename(LOCAL_VARS)
    if f.is_zero():
        return None
    if f.evaluate({"x": 0, "y": 0}) != 0:
        raise ValueError("germ does not pass through the origin")
    if not is_isolated(f):
        return None
    if multiplicity(f) == 1:
        return 0
    return intersection_multiplicity_origin(f.derivative("x"), f.derivative("y"))


# -- rational root extraction --------------------------------------------------


def rational_roots(f: MultiPoly, name: str) -> list[Fraction]:
    """All rational roots of a univariate polynomial, sorted.

    No integer is factored (Loos 1983): the roots of the squarefree part
    modulo a prime p at which they are all simple are Newton-lifted until
    p^k exceeds 2*|lead*a0|, which bounds lead*r for every rational root r,
    and each symmetric residue is checked exactly.
    """
    f = f.rename((name,))
    if f.is_zero():
        raise ValueError("zero polynomial has every root")
    if f.degree_in(name) >= 2:
        f = squarefree_part(f)
    coeffs = univariate_coeff_list(f, name)
    den = math.lcm(*(c.denominator for c in coeffs))
    a = [int(c * den) for c in coeffs]
    roots = []
    if a[0] == 0:   # a squarefree or linear polynomial has x at most once
        roots.append(Fraction(0))
        a = a[1:]
    if len(a) == 1:
        return roots
    da = [k * c for k, c in enumerate(a)][1:]
    lead = a[-1]
    bound = 2 * abs(lead * a[0])
    p, residues = _simple_roots_mod_prime(a, da)
    for r in residues:
        m = p
        while m <= bound:
            m *= m
            r = (r - _horner(a, r, m) * pow(_horner(da, r, m), -1, m)) % m
        v = lead * r % m
        cand = Fraction(v - m if 2 * v > m else v, lead)
        if sum(c * cand ** k for k, c in enumerate(a)) == 0:
            roots.append(cand)
    return sorted(roots)


def _horner(a: list[int], r: int, m: int) -> int:
    """The polynomial with ascending coefficients a at r, modulo m."""
    v = 0
    for c in reversed(a):
        v = (v * r + c) % m
    return v


def _simple_roots_mod_prime(a: list[int], da: list[int]) -> tuple[int, list[int]]:
    """The first prime p not dividing the leading coefficient at which every
    root of a modulo p is simple, with those roots.

    Such a p exists when a is squarefree: any p dividing neither the leading
    coefficient nor the discriminant will do.
    """
    p = 1
    while True:
        p += 1
        if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)) or a[-1] % p == 0:
            continue
        residues = [r for r in range(p) if _horner(a, r, p) == 0]
        if all(_horner(da, r, p) for r in residues):
            return p, residues


def is_rational_square(q: Fraction) -> bool:
    if q < 0:
        return False
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    return rn * rn == q.numerator and rd * rd == q.denominator


# -- the classifier -------------------------------------------------------------


@dataclass
class SingularityReport:
    kind: str                      # "Smooth", "A", "D", "E", "X", "Y", "J10", "J2",
    #                                "A_inf", "D_inf", "J2_inf", "X_inf", "Y_r_inf",
    #                                "Y_inf_inf", "NotHLC"
    params: tuple = ()
    multiplicity: int = 0
    milnor: int | None = None      # None encodes infinity (non-isolated)
    table_mu: int | None = None    # tabulated value for the non-isolated types
    branches: int | None = None
    distinguished_tangent: MultiPoly | None = None
    reason: str = ""
    point: Point | None = None

    def type_string(self) -> str:
        k = self.kind
        if k in ("A", "D", "E"):
            return f"{k}{self.params[0]}"
        if k == "X":
            return f"X{self.params[0]}"
        if k == "Y":
            return f"Y{self.params[0]},{self.params[1]}"
        if k == "J10":
            return "J10"
        if k == "J2":
            return f"J2,{self.params[0]}"
        if k == "A_inf":
            return "Ainf"
        if k == "D_inf":
            return "Dinf"
        if k == "J2_inf":
            return "J2inf"
        if k == "X_inf":
            return "Xinf"
        if k == "Y_r_inf":
            return f"Y{self.params[0]},inf"
        if k == "Y_inf_inf":
            return "Yinf,inf"
        if k == "NotHLC":
            return f"NotHLC({self.reason})"
        return k

    @property
    def is_half_log_canonical(self) -> bool:
        return self.kind != "NotHLC"

    @property
    def is_simple(self) -> bool:
        return self.kind in ("Smooth", "A", "D", "E")

    def label_weight(self) -> str | None:
        """Which stratum counter this singularity feeds: a, b, c, d, or None."""
        if self.kind == "J10":
            return "a"
        if self.kind == "J2":
            return "b"
        if self.kind == "X":
            return "c" if self.params[0] == 9 else "d"
        if self.kind == "Y":
            return "d"
        return None

    def to_json(self) -> dict:
        return {
            "type": self.type_string(),
            "multiplicity": self.multiplicity,
            "milnor": self.milnor if self.milnor is not None else "infinite",
            "table_mu": self.table_mu,
            "branches": self.branches,
            "point": [str(c) for c in self.point] if self.point else None,
            "distinguished_tangent": str(self.distinguished_tangent) if self.distinguished_tangent is not None else None,
        }


def _branch_count_A(n: int) -> int:
    return 2 if n % 2 == 1 else 1


def _not_hlc(reason: str, m: int, mu=None, point=None) -> SingularityReport:
    return SingularityReport("NotHLC", (), m, mu, None, None, None, reason, point)


def classify(germ: LocalCurve | MultiPoly) -> SingularityReport:
    f = (germ.f_local if isinstance(germ, LocalCurve) else germ).rename(LOCAL_VARS)
    point = germ.original_point if isinstance(germ, LocalCurve) else None
    transport = germ.transport if isinstance(germ, LocalCurve) else None
    if f.is_zero():
        raise ValueError("zero germ")
    if f.evaluate({"x": 0, "y": 0}) != 0:
        raise ValueError("germ does not pass through the origin")
    if not is_isolated(f):
        rep = _classify_nonisolated(f)
        rep.point = point
        _globalise_tangent(rep, transport)
        return rep
    m = multiplicity(f)
    if m == 1:
        return SingularityReport("Smooth", (), 1, 0, None, 1, None, "", point)
    mu = milnor_number(f)
    assert mu is not None
    cone = tangent_cone(f)
    structure = squarefree_decomposition(cone)
    rep: SingularityReport
    if m == 2:
        rep = SingularityReport("A", (mu,), 2, mu, None, _branch_count_A(mu), None, "", point)
    elif m == 3:
        rep = _classify_triple(f, mu, structure, point)
    elif m == 4:
        rep = _classify_quadruple(f, mu, structure, point)
    else:
        rep = _not_hlc(f"multiplicity {m} exceeds 4", m, mu, point)
    _globalise_tangent(rep, transport)
    return rep


def _direction_of_line(line: MultiPoly) -> tuple[Fraction, Fraction]:
    # line a*x + b*y: the tangent direction (dx : dy) it spans is (b : -a)
    a = line.coeff((1, 0))
    b = line.coeff((0, 1))
    return (b, -a)


def _classify_triple(f, mu, structure, point) -> SingularityReport:
    by_mult = {}
    for k, piece in structure:
        by_mult.setdefault(k, []).append(piece)
    if set(by_mult) == {1}:
        if mu != 4:
            return _not_hlc(f"ordinary triple point with unexpected milnor {mu}", 3, mu, point)
        return SingularityReport("D", (4,), 3, 4, None, 3, None, "", point)
    if 2 in by_mult:
        doubles = by_mult[2]
        if len(doubles) == 1 and doubles[0].total_degree() == 1:
            if mu < 5:
                return _not_hlc(f"triple point with double direction but milnor {mu}", 3, mu, point)
            branches = 3 if mu % 2 == 0 else 2
            return SingularityReport("D", (mu,), 3, mu, None, branches, doubles[0].primitive(), "", point)
        return _not_hlc("triple cone with unexpected double structure", 3, mu, point)
    if 3 in by_mult:
        line = by_mult[3][0]
        if line.total_degree() != 1:
            return _not_hlc("triple cone is a perfect cube of higher degree", 3, mu, point)
        if mu in (6, 7, 8):
            branches = {6: 1, 7: 2, 8: 1}[mu]
            return SingularityReport("E", (mu,), 3, mu, None, branches, line.primitive(), "", point)
        if mu < 10:
            return _not_hlc(f"triple line cone with milnor {mu}", 3, mu, point)
        strict = strict_germ_at_direction(f, _direction_of_line(line))
        s_mult = multiplicity(strict)
        if s_mult != 3:
            return _not_hlc(f"infinitely-near multiplicity {s_mult} after a triple line", 3, mu, point)
        s_structure = squarefree_decomposition(tangent_cone(strict))
        ordinary = all(k == 1 for k, _ in s_structure)
        if ordinary:
            if mu != 10:
                return _not_hlc(f"ordinary infinitely-near triple with milnor {mu}", 3, mu, point)
            return SingularityReport("J10", (), 3, 10, None, 3, line.primitive(), "", point)
        if any(k >= 3 for k, _ in s_structure):
            return _not_hlc("infinitely-near triple degenerates to a triple direction", 3, mu, point)
        p = mu - 10
        if p < 1:
            return _not_hlc(f"degenerate infinitely-near triple with milnor {mu}", 3, mu, point)
        branches = 3 if (4 + p) % 2 == 0 else 2
        return SingularityReport("J2", (p,), 3, mu, None, branches, line.primitive(), "", point)
    return _not_hlc("unrecognised triple cone", 3, mu, point)


def _classify_quadruple(f, mu, structure, point) -> SingularityReport:
    by_mult: dict[int, list[MultiPoly]] = {}
    for k, piece in structure:
        by_mult.setdefault(k, []).append(piece)
    if any(k >= 3 for k in by_mult):
        return _not_hlc("quadruple cone with a direction of multiplicity >= 3", 4, mu, point)
    if set(by_mult) == {1}:
        if mu != 9:
            return _not_hlc(f"ordinary quadruple point with unexpected milnor {mu}", 4, mu, point)
        return SingularityReport("X", (9,), 4, 9, None, 4, None, "", point)
    doubles = by_mult[2]
    double_deg = sum(p.total_degree() for p in doubles)
    if double_deg == 1:
        if mu < 10:
            return _not_hlc(f"degenerate quadruple with milnor {mu}", 4, mu, point)
        p = mu
        k = p - 8
        branches = 2 + _branch_count_A(k)
        return SingularityReport("X", (p,), 4, mu, None, branches,
                                 doubles[0].primitive(), "", point)
    if double_deg == 2:
        # two repeated directions: either two rational ones or a conjugate pair
        if len(doubles) == 1 and doubles[0].total_degree() == 2:
            quad = doubles[0]
            a = quad.coeff((2, 0))
            b = quad.coeff((1, 1))
            c = quad.coeff((0, 2))
            disc = b * b - 4 * a * c
            if a == 0 or is_rational_square(disc):
                dirs = _split_binary_quadratic(quad)
            else:
                if (mu - 9) % 2 != 0 or mu < 11:
                    return _not_hlc(f"conjugate repeated directions with milnor {mu}", 4, mu, point)
                r = (mu - 9) // 2
                return SingularityReport("Y", (r, r), 4, mu, None,
                                         2 * _branch_count_A(r + 1), None, "", point)
        else:
            dirs = [_direction_of_line(d) for d in doubles]
        rs = []
        for d in dirs:
            strict = strict_germ_at_direction(f, d)
            local_mu = milnor_number(strict)
            if local_mu is None:
                return _not_hlc("non-isolated infinitely-near structure at a repeated direction", 4, mu, point)
            rs.append(local_mu + 1)
        r, s = sorted(rs)
        if r < 1 or 9 + r + s != mu:
            return _not_hlc(f"repeated directions with inconsistent contact ({r},{s}) vs milnor {mu}", 4, mu, point)
        branches = _branch_count_A(r + 1) + _branch_count_A(s + 1)
        return SingularityReport("Y", (r, s), 4, mu, None, branches, None, "", point)
    return _not_hlc("unrecognised quadruple cone", 4, mu, point)


def _split_binary_quadratic(quad: MultiPoly) -> list[tuple[Fraction, Fraction]]:
    """Directions of a split binary quadratic in (x, y)."""
    dirs = []
    a = quad.coeff((2, 0))
    b = quad.coeff((1, 1))
    c = quad.coeff((0, 2))
    if a == 0:
        # no x^2 term: quad = y*(b*x + c*y), and the line y spans direction (1, 0)
        dirs.append((Fraction(1), Fraction(0)))
        if b != 0:
            dirs.append(_direction_of_line(MultiPoly(LOCAL_VARS, {(1, 0): b, (0, 1): c})))
        return dirs
    disc = b * b - 4 * a * c
    rn = Fraction(math.isqrt(disc.numerator), math.isqrt(disc.denominator))
    for sgn in (1, -1):
        root = (-b + sgn * rn) / (2 * a)
        # the factor x - root*y spans the direction (root, 1)
        dirs.append((Fraction(root), Fraction(1)))
    if rn == 0:
        dirs.pop()
    return dirs


def _classify_nonisolated(f: MultiPoly) -> SingularityReport:
    origin = {"x": Fraction(0), "y": Fraction(0)}
    pieces = squarefree_decomposition(f)
    v = MultiPoly.const(LOCAL_VARS, 1)
    u = MultiPoly.const(LOCAL_VARS, 1)
    for mult, piece in pieces:
        through = piece.evaluate(origin) == 0
        if mult >= 3 and through:
            return _not_hlc("component of multiplicity >= 3 through the point", multiplicity(f))
        if mult == 2 and through:
            v = v * piece
        elif mult == 1 and through:
            u = u * piece
    m_all = multiplicity(f)
    if v.is_constant():
        return _not_hlc("unexpected isolated germ in non-isolated classification", m_all)
    mv = multiplicity(v)
    if mv == 1:
        if u.is_constant():
            return SingularityReport("A_inf", (), m_all, None, 0, None, None, "")
        mu_u = multiplicity(u)
        if mu_u == 1:
            contact = intersection_multiplicity_origin(u, v)
            if contact == 1:
                return SingularityReport("D_inf", (), m_all, None, 1, None, None, "")
            if contact == 2:
                return SingularityReport("J2_inf", (), m_all, None, 4, None, None, "")
            return _not_hlc(f"reduced branch meets the doubled component with contact {contact}", m_all)
        if mu_u == 2:
            contact = intersection_multiplicity_origin(u, v)
            if contact != 2:
                return _not_hlc(f"double point of the reduced part meets the doubled component with contact {contact}", m_all)
            mu_val = milnor_number(u)
            if mu_val is None:
                return _not_hlc("reduced part is itself non-reduced", m_all)
            if mu_val == 1:
                return SingularityReport("X_inf", (), m_all, None, 5, None, None, "")
            r = mu_val - 1
            return SingularityReport("Y_r_inf", (r,), m_all, None, r + 5, None, None, "")
        return _not_hlc(f"reduced part of multiplicity {mu_u} on the doubled component", m_all)
    if mv == 2:
        if not u.is_constant():
            return _not_hlc("reduced branch through a singular point of the doubled component", m_all)
        if not is_isolated(v) or milnor_number(v) != 1:
            return _not_hlc("doubled component with a singularity worse than a node", m_all)
        return SingularityReport("Y_inf_inf", (), m_all, None, 4, None, None, "")
    return _not_hlc("doubled component of multiplicity >= 3", m_all)


def _globalise_tangent(rep: SingularityReport, transport) -> None:
    if rep.distinguished_tangent is None or transport is None:
        return
    local = rep.distinguished_tangent
    a = local.coeff((1, 0))
    b = local.coeff((0, 1))
    inv = invert3(transport)
    coeffs = [a * inv[0][j] + b * inv[1][j] for j in range(3)]
    terms = {tuple(1 if k == j else 0 for k in range(3)): coeffs[j]
             for j in range(3) if coeffs[j] != 0}
    rep.distinguished_tangent = MultiPoly(PLANE_VARS, terms).primitive()


def classify_point(curve: HomForm, point) -> SingularityReport:
    return classify(localize(curve, point))
