"""Local analysis and classification of plane curve germs.

The classifier decides whether the germ of a curve at a rational point is one
of the singularity types admissible on the branch curve of a stable double
cover (A/D/E, the ordinary and degenerate quadruple points X9 / X_p / Y_{r,s},
the ordinary and degenerate triple points with infinitely-near triple point
J10 / J_{2,p}, and the six non-isolated types along a doubled component), or
none of these.

A germ is a `MultiPoly` in (x, y) with the point at the origin.  `classify`
types a germ.  `classify_point` types a curve at a rational point: it moves
the point to (0:0:1), sets z = 1, and is the one place that reports the point
and the distinguished tangent in the coordinates of the curve.

Milnor numbers are computed exactly as the intersection multiplicity of the
two partial derivatives at the origin, by Fulton's algorithm in the local
ring on integer numerators: no resultant and no change of coordinates.  One
gcd first decides whether the partials share a component through the origin
(an infinite mu, which means a repeated component of the germ there and
selects the non-isolated types) and removes a common factor off it.  The
classifier computes mu once per germ.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .linsys import (PLANE_VARS, HomForm, Point, evaluate_at, line_through, normalize_point,
                     transport_matrix, transport_point)
from .poly import MultiPoly, binary_roots, poly_gcd, squarefree_decomposition

LOCAL_VARS = ("x", "y")


# -- germs ----------------------------------------------------------------------


def _chart(f: MultiPoly, A: list[list[Fraction]]) -> MultiPoly:
    """f(A u) in the affine chart z = 1, as a polynomial in LOCAL_VARS: one
    substitution of the affine images row * (x, y, 1)."""
    return f.substitute({v: MultiPoly(LOCAL_VARS, {(1, 0): row[0], (0, 1): row[1], (0, 0): row[2]})
                         for v, row in zip(PLANE_VARS, A)}, LOCAL_VARS)


def _point_on(curve: HomForm, point) -> Point:
    p = normalize_point(point)
    if evaluate_at(curve.poly, p) != 0:
        raise ValueError(f"point {point} does not lie on the curve")
    return p


def multiplicity(f: MultiPoly) -> int:
    if f.is_zero():
        raise ValueError("zero germ")
    return min(sum(exp) for exp in f.terms)


def tangent_cone(f: MultiPoly) -> MultiPoly:
    m = multiplicity(f)
    return MultiPoly(f.vars, {exp: c for exp, c in f.terms.items() if sum(exp) == m})


def strict_germ_at_direction(f: MultiPoly, direction: tuple[Fraction, Fraction]) -> MultiPoly:
    """Strict transform of one blow-up, localised at a point of the
    exceptional line.

    `direction` is the tangent direction (dx : dy).  For dx != 0 this is the
    point y = dy/dx of the chart y -> x*y, whose exceptional line is x = 0;
    for dx == 0 it is the origin of the chart x -> x*y, where x is the
    direction coordinate and the exceptional line is y = 0.
    """
    m = multiplicity(f)
    x = MultiPoly.var(LOCAL_VARS, "x")
    y = MultiPoly.var(LOCAL_VARS, "y")
    dx, dy = Fraction(direction[0]), Fraction(direction[1])
    if dx != 0:
        return f.substitute({"y": x * (y + dy / dx)}).exact_div(x ** m)
    return f.substitute({"x": x * y}).exact_div(y ** m)


# -- intersection numbers and Milnor numbers ----------------------------------


def intersection_multiplicity_origin(p: MultiPoly, q: MultiPoly) -> int | None:
    """I_0(p, q) for bivariate polynomials; None encodes infinity.

    A common factor through the origin makes I_0 infinite; one off the
    origin is a unit there and is divided out.  The coprime rest meets in at
    most deg p * deg q points counted with multiplicity (Bezout), which
    bounds I_0 for `_fulton`.
    """
    p = p.rename(LOCAL_VARS)
    q = q.rename(LOCAL_VARS)
    if p.is_zero() or q.is_zero():
        return None
    if p.coeff((0, 0)) or q.coeff((0, 0)):
        return 0
    g = poly_gcd(p, q)
    if not g.is_constant():
        if not g.coeff((0, 0)):
            return None
        p = p.exact_div(g)
        q = q.exact_div(g)
    return _fulton(p._numerators()[0], q._numerators()[0], p.total_degree() * q.total_degree())


def _fulton(p: dict, q: dict, bound: int) -> int:
    """I_0(p, q) for integer polynomials {(i, j): c} in (x, y) that vanish at
    the origin, with I_0 <= bound; Fulton's algorithm in the local ring
    (Algebraic Curves, 1969, section 3.3).

    Write p(x, 0) = x^r u and q(x, 0) = x^s w with u(0) w(0) != 0 and r <= s.
    Then u q - w x^(s-r) p = y q' and, u being a unit at the origin,
    I_0(p, q) = I_0(p, y q') = r + I_0(p, q'); if q(x, 0) = 0, then q = y q'
    and the same holds.  When at most n of I_0 is left to find, the colength
    n of the ideal gives m^n in it, so a term of degree > n lies in m times
    the ideal and, by Nakayama's lemma, dropping it keeps the ideal.
    """
    total = 0
    while True:
        left = bound - total
        p = {e: c for e, c in p.items() if e[0] + e[1] <= left}
        q = {e: c for e, c in q.items() if e[0] + e[1] <= left}
        if (0, 0) in p or (0, 0) in q:
            return total
        pa = {i: c for (i, j), c in p.items() if not j}
        qa = {i: c for (i, j), c in q.items() if not j}
        if not pa or (qa and min(qa) < min(pa)):
            p, q, pa, qa = q, p, qa, pa
        if not pa:
            raise ArithmeticError("intersection number exceeds its bound")
        r = min(pa)
        total += r
        left -= r
        if not qa:
            q = {(i, j - 1): c for (i, j), c in q.items()}
            continue
        # u q - w x^(s-r) p, each term of degree at most left + 1 (q' is then
        # cut at left), so its terms free of y cancel exactly
        comb: dict = {}
        get = comb.get
        for f, g, sign in ((q, sorted(pa.items()), 1), (p, sorted(qa.items()), -1)):
            for (i, j), c in f.items():
                room = left + 1 + r - i - j
                c *= sign
                for k, d in g:
                    if k > room:
                        break
                    e = (i + k - r, j)
                    comb[e] = get(e, 0) + d * c
        q = {(i, j - 1): c for (i, j), c in comb.items() if c}
        content = math.gcd(*q.values())
        q = {e: c // content for e, c in q.items()}


def milnor_number(f: MultiPoly) -> int | None:
    """Milnor number at the origin; None encodes a non-isolated germ.

    Over Q, mu = I_0(f_x, f_y) is infinite exactly when a repeated component
    of f passes through the origin, so no squarefree decomposition is needed.
    """
    f = f.rename(LOCAL_VARS)
    if f.is_zero():
        return None
    if f.coeff((0, 0)):
        raise ValueError("germ does not pass through the origin")
    if multiplicity(f) == 1:
        return 0
    return intersection_multiplicity_origin(f.derivative("x"), f.derivative("y"))


# -- the classifier -------------------------------------------------------------


@dataclass(slots=True)
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


def _not_hlc(reason: str, m: int, mu=None) -> SingularityReport:
    return SingularityReport("NotHLC", (), m, mu, reason=reason)


def classify(f: MultiPoly) -> SingularityReport:
    """Type of the germ f at the origin of (x, y)."""
    f = f.rename(LOCAL_VARS)
    if f.is_zero():
        raise ValueError("zero germ")
    if f.coeff((0, 0)):
        raise ValueError("germ does not pass through the origin")
    mu = milnor_number(f)
    if mu is None:
        return _classify_nonisolated(f)
    m = multiplicity(f)
    if m == 1:
        return SingularityReport("Smooth", (), 1, 0, None, 1)
    # one squarefree piece per multiplicity of a direction of the tangent cone
    pieces = dict(squarefree_decomposition(tangent_cone(f)))
    if m == 2:
        return SingularityReport("A", (mu,), 2, mu, None, _branch_count_A(mu))
    if m == 3:
        return _classify_triple(f, mu, pieces)
    if m == 4:
        return _classify_quadruple(f, mu, pieces)
    return _not_hlc(f"multiplicity {m} exceeds 4", m, mu)


def _direction_of_line(line: MultiPoly) -> tuple[Fraction, Fraction]:
    # line a*x + b*y: the tangent direction (dx : dy) it spans is (b : -a)
    a = line.coeff((1, 0))
    b = line.coeff((0, 1))
    return (b, -a)


def _classify_triple(f, mu, pieces) -> SingularityReport:
    if set(pieces) == {1}:
        if mu != 4:
            return _not_hlc(f"ordinary triple point with unexpected milnor {mu}", 3, mu)
        return SingularityReport("D", (4,), 3, 4, None, 3)
    if 2 in pieces:
        # a cubic cone with a repeated factor is l^2 * l', so pieces[2] is l
        if mu < 5:
            return _not_hlc(f"triple point with double direction but milnor {mu}", 3, mu)
        branches = 3 if mu % 2 == 0 else 2
        return SingularityReport("D", (mu,), 3, mu, None, branches, pieces[2].primitive())
    line = pieces[3]   # the cone is l^3
    if mu in (6, 7, 8):
        branches = {6: 1, 7: 2, 8: 1}[mu]
        return SingularityReport("E", (mu,), 3, mu, None, branches, line.primitive())
    if mu < 10:
        return _not_hlc(f"triple line cone with milnor {mu}", 3, mu)
    strict = strict_germ_at_direction(f, _direction_of_line(line))
    s_mult = multiplicity(strict)
    if s_mult != 3:
        return _not_hlc(f"infinitely-near multiplicity {s_mult} after a triple line", 3, mu)
    s_structure = squarefree_decomposition(tangent_cone(strict))
    ordinary = all(k == 1 for k, _ in s_structure)
    if ordinary:
        if mu != 10:
            return _not_hlc(f"ordinary infinitely-near triple with milnor {mu}", 3, mu)
        return SingularityReport("J10", (), 3, 10, None, 3, line.primitive())
    if any(k >= 3 for k, _ in s_structure):
        return _not_hlc("infinitely-near triple degenerates to a triple direction", 3, mu)
    p = mu - 10
    if p < 1:
        return _not_hlc(f"degenerate infinitely-near triple with milnor {mu}", 3, mu)
    branches = 3 if (4 + p) % 2 == 0 else 2
    return SingularityReport("J2", (p,), 3, mu, None, branches, line.primitive())


def _classify_quadruple(f, mu, pieces) -> SingularityReport:
    if max(pieces) >= 3:
        return _not_hlc("quadruple cone with a direction of multiplicity >= 3", 4, mu)
    if set(pieces) == {1}:
        if mu != 9:
            return _not_hlc(f"ordinary quadruple point with unexpected milnor {mu}", 4, mu)
        return SingularityReport("X", (9,), 4, 9, None, 4)
    double = pieces[2]
    if double.total_degree() == 1:
        if mu < 10:
            return _not_hlc(f"degenerate quadruple with milnor {mu}", 4, mu)
        branches = 2 + _branch_count_A(mu - 8)
        return SingularityReport("X", (mu,), 4, mu, None, branches, double.primitive())
    # two repeated directions, the roots of a quadratic: both rational or a conjugate pair
    dirs, _ = binary_roots(double)
    if not dirs:
        if (mu - 9) % 2 != 0 or mu < 11:
            return _not_hlc(f"conjugate repeated directions with milnor {mu}", 4, mu)
        r = (mu - 9) // 2
        return SingularityReport("Y", (r, r), 4, mu, None, 2 * _branch_count_A(r + 1))
    rs = []
    for d in dirs:
        local_mu = milnor_number(strict_germ_at_direction(f, d))
        if local_mu is None:
            return _not_hlc("non-isolated infinitely-near structure at a repeated direction", 4, mu)
        rs.append(local_mu + 1)
    r, s = sorted(rs)
    if r < 1 or 9 + r + s != mu:
        return _not_hlc(f"repeated directions with inconsistent contact ({r},{s}) vs milnor {mu}", 4, mu)
    branches = _branch_count_A(r + 1) + _branch_count_A(s + 1)
    return SingularityReport("Y", (r, s), 4, mu, None, branches)


def _classify_nonisolated(f: MultiPoly) -> SingularityReport:
    pieces = squarefree_decomposition(f)
    v = MultiPoly.const(LOCAL_VARS, 1)
    u = MultiPoly.const(LOCAL_VARS, 1)
    for mult, piece in pieces:
        through = not piece.coeff((0, 0))
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
            return SingularityReport("A_inf", (), m_all, None, 0)
        mu_u = multiplicity(u)
        if mu_u == 1:
            contact = intersection_multiplicity_origin(u, v)
            if contact == 1:
                return SingularityReport("D_inf", (), m_all, None, 1)
            if contact == 2:
                return SingularityReport("J2_inf", (), m_all, None, 4)
            return _not_hlc(f"reduced branch meets the doubled component with contact {contact}", m_all)
        if mu_u == 2:
            contact = intersection_multiplicity_origin(u, v)
            if contact != 2:
                return _not_hlc(f"double point of the reduced part meets the doubled component with contact {contact}", m_all)
            mu_val = milnor_number(u)
            if mu_val is None:
                return _not_hlc("reduced part is itself non-reduced", m_all)
            if mu_val == 1:
                return SingularityReport("X_inf", (), m_all, None, 5)
            r = mu_val - 1
            return SingularityReport("Y_r_inf", (r,), m_all, None, r + 5)
        return _not_hlc(f"reduced part of multiplicity {mu_u} on the doubled component", m_all)
    if mv == 2:
        if not u.is_constant():
            return _not_hlc("reduced branch through a singular point of the doubled component", m_all)
        if milnor_number(v) != 1:
            return _not_hlc("doubled component with a singularity worse than a node", m_all)
        return SingularityReport("Y_inf_inf", (), m_all, None, 4)
    return _not_hlc("doubled component of multiplicity >= 3", m_all)


def classify_point(curve: HomForm, point) -> SingularityReport:
    """Type of the curve at a rational point on it, with the point and the
    distinguished tangent in the coordinates of the curve."""
    p = _point_on(curve, point)
    A = transport_matrix(p)
    rep = classify(_chart(curve.poly, A))
    rep.point = p
    if rep.distinguished_tangent is not None:
        # the tangent joins p = A*e3 and the image under A of its direction
        dx, dy = _direction_of_line(rep.distinguished_tangent)
        rep.distinguished_tangent = line_through(p, transport_point(A, (dx, dy, 0)))
    return rep
