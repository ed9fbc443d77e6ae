"""Linear systems of plane curves with imposed singularity conditions.

Conditions are anchored at rational points and realised as exact linear
constraints on the coefficient vector of degree-d forms in x, y, z:

  * prescribed multiplicity at a point (all low-order jets vanish),
  * an n-fold point with an infinitely-near n-fold point along a prescribed
    tangent line (membership in the graded pieces of (s^2, l)^n after a
    projective change of coordinates, the pattern a + 2b >= 2n),
  * the degenerate refinement of the previous condition, where the repeated
    direction of the blown-up tangent cone is pinned to the tangent line,
  * a repeated linear direction inside the tangent cone (degenerate
    multiple points), and
  * divisibility by a fixed form.

All arithmetic is exact; bases are echelonised against the canonical
monomial order so output is reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Sequence

from .linalg import kernel_basis, rref
from .poly import MultiPoly, monomial_basis

PLANE_VARS = ("x", "y", "z")


class AnchorError(ValueError):
    """Inconsistent anchoring data (degenerate point, tangent off the point, ...)."""


Point = tuple[Fraction, Fraction, Fraction]


def normalize_point(coords: Sequence) -> Point:
    vals = [Fraction(c) for c in coords]
    if len(vals) != 3 or all(v == 0 for v in vals):
        raise AnchorError(f"not a projective point: {coords}")
    den = 1
    for v in vals:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in vals]
    g = 0
    for n in ints:
        g = gcd(g, abs(n))
    ints = [n // g for n in ints]
    lead = next(n for n in ints if n != 0)
    if lead < 0:
        ints = [-n for n in ints]
    return tuple(Fraction(n) for n in ints)  # type: ignore[return-value]


def line_through(p: Point, q: Point) -> MultiPoly:
    """The linear form vanishing on both points (cross product), primitive."""
    p, q = normalize_point(p), normalize_point(q)
    c = (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])
    if all(v == 0 for v in c):
        raise AnchorError("points coincide; no unique joining line")
    terms = {(1, 0, 0): c[0], (0, 1, 0): c[1], (0, 0, 1): c[2]}
    return MultiPoly(PLANE_VARS, terms).primitive()


def line_coeffs(line: MultiPoly) -> Point:
    if line.total_degree() != 1 or not line.is_homogeneous():
        raise AnchorError(f"not a linear form: {line}")
    return (line.coeff((1, 0, 0)), line.coeff((0, 1, 0)), line.coeff((0, 0, 1)))


def evaluate_at(f: MultiPoly, p: Point) -> Fraction:
    return f.evaluate({"x": p[0], "y": p[1], "z": p[2]})


@dataclass(frozen=True)
class HomForm:
    """A homogeneous form in x, y, z of a recorded degree."""

    poly: MultiPoly
    degree: int

    def __post_init__(self):
        if self.poly.vars != PLANE_VARS:
            raise AnchorError(f"form must live in frame {PLANE_VARS}")
        for exp in self.poly.terms:
            if sum(exp) != self.degree:
                raise AnchorError(f"term {exp} breaks homogeneity of degree {self.degree}")

    @staticmethod
    def of(poly: MultiPoly) -> "HomForm":
        return HomForm(poly, max(poly.total_degree(), 0))

    def __mul__(self, other: "HomForm") -> "HomForm":
        return HomForm(self.poly * other.poly, self.degree + other.degree)

    def __str__(self):
        return str(self.poly)


# -- anchored conditions ----------------------------------------------------


@dataclass(frozen=True)
class MultiplicityAtPoint:
    point: Point
    m: int

    def __post_init__(self):
        object.__setattr__(self, "point", normalize_point(self.point))
        if self.m < 1:
            raise AnchorError("multiplicity must be at least 1")


@dataclass(frozen=True)
class NNPointWithTangent:
    """n-fold point with infinitely-near n-fold point along the given tangent.

    With `degenerate=True` the repeated direction of the blown-up cone is
    additionally pinned to the tangent line itself (the second-order datum at
    its special value); two more linear conditions.
    """

    point: Point
    tangent: MultiPoly
    n: int
    degenerate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "point", normalize_point(self.point))
        if self.n < 2:
            raise AnchorError("infinitely-near condition needs n >= 2")
        if evaluate_at(self.tangent, self.point) != 0:
            raise AnchorError("tangent line does not pass through the anchor point")


@dataclass(frozen=True)
class ConeDirection:
    """Multiplicity m at the point and tangent cone divisible by tangent^k."""

    point: Point
    tangent: MultiPoly
    m: int
    k: int = 2

    def __post_init__(self):
        object.__setattr__(self, "point", normalize_point(self.point))
        if not (1 <= self.k <= self.m):
            raise AnchorError("cone divisibility order out of range")
        if evaluate_at(self.tangent, self.point) != 0:
            raise AnchorError("cone direction does not pass through the anchor point")


@dataclass(frozen=True)
class ContainsCurve:
    form: HomForm
    multiplicity: int = 1

    def __post_init__(self):
        if self.multiplicity < 1:
            raise AnchorError("containment multiplicity must be at least 1")
        if self.form.poly.is_zero():
            raise AnchorError("cannot require containment of the zero form")


@dataclass(frozen=True)
class NNDegenerateAt:
    """[n;n]-point whose blown-up cone has a double root at the prescribed
    direction value t0 (the coordinate of the repeated infinitely-near
    direction along the exceptional line, 0 being the tangent line itself)."""

    point: Point
    tangent: MultiPoly
    n: int
    t0: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "point", normalize_point(self.point))
        object.__setattr__(self, "t0", Fraction(self.t0))
        if self.n < 2:
            raise AnchorError("infinitely-near condition needs n >= 2")
        if evaluate_at(self.tangent, self.point) != 0:
            raise AnchorError("tangent line does not pass through the anchor point")


@dataclass(frozen=True)
class LineContact:
    """The restriction of the form to the line vanishes to order >= `order`
    at the point (intersection multiplicity with the line at the point)."""

    point: Point
    line: MultiPoly
    order: int

    def __post_init__(self):
        object.__setattr__(self, "point", normalize_point(self.point))
        if self.order < 1:
            raise AnchorError("contact order must be at least 1")
        if evaluate_at(self.line, self.point) != 0:
            raise AnchorError("contact line does not pass through the anchor point")


@dataclass(frozen=True)
class BranchJetContact:
    """The form vanishes to order >= `order` along the parabola jet
    y = kappa*x^2 in the frame transported to the point and tangent: for a
    smooth germ this pins tangency and the branch curvature."""

    point: Point
    tangent: MultiPoly
    kappa: Fraction
    order: int = 3

    def __post_init__(self):
        object.__setattr__(self, "point", normalize_point(self.point))
        object.__setattr__(self, "kappa", Fraction(self.kappa))
        if self.order < 1:
            raise AnchorError("contact order must be at least 1")
        if evaluate_at(self.tangent, self.point) != 0:
            raise AnchorError("tangent line does not pass through the anchor point")


AnchoredCondition = (MultiplicityAtPoint | NNPointWithTangent | ConeDirection |
                     ContainsCurve | NNDegenerateAt | LineContact | BranchJetContact)


# -- transports -------------------------------------------------------------


def transport_matrix(point: Point, tangent: MultiPoly | None = None) -> list[list[Fraction]]:
    """Invertible rational 3x3 matrix A with A*e3 = point; if a tangent line is
    given, the pullback of the line along A is proportional to the y coordinate."""
    p = normalize_point(point)
    basis = [(Fraction(1), Fraction(0), Fraction(0)),
             (Fraction(0), Fraction(1), Fraction(0)),
             (Fraction(0), Fraction(0), Fraction(1))]
    if tangent is not None:
        l = line_coeffs(tangent)
        if sum(a * b for a, b in zip(l, p)) != 0:
            raise AnchorError("tangent line does not pass through the point")
        i = next(i for i, a in enumerate(l) if a != 0)
        col1 = None
        for j in range(3):
            if j == i:
                continue
            cand = [Fraction(0)] * 3
            cand[j] = Fraction(1)
            cand[i] = -l[j] / l[i]
            cand = tuple(cand)
            if _independent(p, cand):
                col1 = cand
                break
        if col1 is None:
            raise AnchorError("degenerate tangent data")
        col2 = None
        for e in basis:
            if sum(a * b for a, b in zip(l, e)) != 0 and _full_rank([col1, e, p]):
                col2 = e
                break
        if col2 is None:
            raise AnchorError("could not complete transport frame")
        cols = [col1, col2, p]
    else:
        cols = None
        for a in range(3):
            for b in range(3):
                if _full_rank([basis[a], basis[b], p]):
                    cols = [basis[a], basis[b], p]
                    break
            if cols:
                break
        if cols is None:
            raise AnchorError("degenerate point")
    return [[cols[j][i] for j in range(3)] for i in range(3)]


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _independent(p, q) -> bool:
    return any(c != 0 for c in _cross(p, q))


def _full_rank(cols) -> bool:
    (a, b, c) = cols
    det = (a[0] * (b[1] * c[2] - b[2] * c[1])
           - a[1] * (b[0] * c[2] - b[2] * c[0])
           + a[2] * (b[0] * c[1] - b[1] * c[0]))
    return det != 0


def _variable_images(A: list[list[Fraction]]) -> list[MultiPoly]:
    """The linear forms that x, y, z become under u -> A u."""
    images = []
    for row in A:
        terms = {}
        for j, a in enumerate(row):
            if a != 0:
                terms[tuple(1 if k == j else 0 for k in range(3))] = a
        images.append(MultiPoly(PLANE_VARS, terms))
    return images


def apply_transport(f: MultiPoly, A: list[list[Fraction]]) -> MultiPoly:
    """f(A u) in the same frame."""
    return f.substitute(dict(zip(PLANE_VARS, _variable_images(A))))


def random_projectivity(rng) -> list[list[Fraction]]:
    while True:
        A = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        if _full_rank([tuple(A[i][j] for i in range(3)) for j in range(3)]):
            return A


def transport_point(A: list[list[Fraction]], p: Point) -> Point:
    """Image of p under the projectivity with matrix A acting on coordinates."""
    return normalize_point(tuple(sum(A[i][j] * p[j] for j in range(3)) for i in range(3)))


def invert3(A: list[list[Fraction]]) -> list[list[Fraction]]:
    a, b, c = A[0]
    d, e, f = A[1]
    g, h, i = A[2]
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if det == 0:
        raise AnchorError("singular transport matrix")
    cof = [
        [(e * i - f * h), -(b * i - c * h), (b * f - c * e)],
        [-(d * i - f * g), (a * i - c * g), -(a * f - c * d)],
        [(d * h - e * g), -(a * h - b * g), (a * e - b * d)],
    ]
    return [[cof[r][s] / det for s in range(3)] for r in range(3)]


# -- condition rows ----------------------------------------------------------


def _monomial_images(degree: int, A: list[list[Fraction]]) -> list[MultiPoly]:
    imgs_var = _variable_images(A)
    pow_cache = [{0: MultiPoly.const(PLANE_VARS, 1)} for _ in range(3)]

    def power(i: int, e: int) -> MultiPoly:
        cache = pow_cache[i]
        if e not in cache:
            k = max(k for k in cache if k <= e)
            p = cache[k]
            while k < e:
                p = p * imgs_var[i]
                k += 1
                cache[k] = p
        return cache[e]

    out = []
    for exp in monomial_basis(3, degree):
        m = MultiPoly.const(PLANE_VARS, 1)
        for i, e in enumerate(exp):
            if e:
                m = m * power(i, e)
        out.append(m)
    return out


def condition_rows(conditions: Sequence[AnchoredCondition], degree: int) -> list[list[Fraction]]:
    """Linear constraint rows over the canonical degree-d monomial basis."""
    basis = monomial_basis(3, degree)
    col_index = {exp: i for i, exp in enumerate(basis)}
    rows: list[list[Fraction]] = []
    for cond in conditions:
        if isinstance(cond, ContainsCurve):
            rows.extend(_containment_rows(cond, degree, basis))
            continue
        combos: list[dict[tuple[int, int, int], Fraction]] = []
        if isinstance(cond, MultiplicityAtPoint):
            A = transport_matrix(cond.point)
            killed = _killed_multiplicity(degree, cond.m)
        elif isinstance(cond, NNPointWithTangent):
            A = transport_matrix(cond.point, cond.tangent)
            killed = _killed_nn(degree, cond.n, cond.degenerate)
        elif isinstance(cond, ConeDirection):
            A = transport_matrix(cond.point, cond.tangent)
            killed = _killed_multiplicity(degree, cond.m) + _killed_cone(degree, cond.m, cond.k)
        elif isinstance(cond, NNDegenerateAt):
            A = transport_matrix(cond.point, cond.tangent)
            killed = _killed_nn(degree, cond.n, False)
            combos = _degenerate_direction_combos(degree, cond.n, cond.t0)
        elif isinstance(cond, LineContact):
            # the line pulls back to y = 0 and the point to (0:0:1), so the
            # restriction's order at the point is read off the x^k z^(d-k) terms
            A = transport_matrix(cond.point, cond.line)
            killed = [(k, 0, degree - k) for k in range(min(cond.order, degree + 1))]
        elif isinstance(cond, BranchJetContact):
            A = transport_matrix(cond.point, cond.tangent)
            killed = []
            combos = _branch_jet_combos(degree, cond.kappa, cond.order)
        else:
            raise TypeError(f"unknown condition {cond!r}")
        images = _monomial_images(degree, A)
        for kexp in killed:
            row = [Fraction(0)] * len(basis)
            for i, img in enumerate(images):
                c = img.terms.get(kexp)
                if c:
                    row[i] = c
            rows.append(row)
        for combo in combos:
            row = [Fraction(0)] * len(basis)
            for i, img in enumerate(images):
                total = Fraction(0)
                for kexp, w in combo.items():
                    c = img.terms.get(kexp)
                    if c:
                        total += w * c
                if total:
                    row[i] = total
            rows.append(row)
    return rows


def _killed_multiplicity(degree: int, m: int) -> list[tuple[int, int, int]]:
    out = []
    for a in range(m):
        for b in range(m - a):
            c = degree - a - b
            if c >= 0:
                out.append((a, b, c))
    return out


def _killed_nn(degree: int, n: int, degenerate: bool) -> list[tuple[int, int, int]]:
    out = []
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            if a + 2 * b < 2 * n:
                out.append((a, b, degree - a - b))
    if degenerate:
        for (a, b) in ((2 * n, 0), (2 * n - 2, 1)):
            c = degree - a - b
            if c >= 0:
                out.append((a, b, c))
    return out


def _killed_cone(degree: int, m: int, k: int) -> list[tuple[int, int, int]]:
    # tangent cone is the (a+b == m)-slice in local coordinates (u, v); the
    # tangent line pulls back to v, so divisibility by v^k kills b < k
    out = []
    for b in range(k):
        a = m - b
        c = degree - m
        if c >= 0:
            out.append((a, b, c))
    return out


def _branch_jet_combos(degree: int, kappa: Fraction, order: int) -> list[dict]:
    """Rows forcing vanishing along y = kappa*x^2 to the given order: the local
    monomial x^a y^b contributes kappa^b to the x^(a+2b) jet coefficient."""
    combos = []
    for j in range(order):
        combo: dict[tuple[int, int, int], Fraction] = {}
        for b in range(j // 2 + 1):
            a = j - 2 * b
            c = degree - a - b
            if c >= 0:
                combo[(a, b, c)] = kappa ** b
        if combo:
            combos.append(combo)
    return combos


def _degenerate_direction_combos(degree: int, n: int, t0: Fraction) -> list[dict]:
    """Two linear combinations of blown-up cone coefficients forcing a double
    root of the cone at the direction value t0."""
    cells = []
    for b in range(n + 1):
        a = 2 * n - 2 * b
        c = degree - a - b
        if c >= 0:
            cells.append((b, (a, b, c)))
    row_val = {exp: t0 ** b for b, exp in cells}
    row_der = {exp: Fraction(b) * t0 ** (b - 1) for b, exp in cells if b >= 1}
    return [row_val, row_der]


def _containment_rows(cond: ContainsCurve, degree: int, basis) -> list[list[Fraction]]:
    h = cond.form.poly
    for _ in range(cond.multiplicity - 1):
        h = h * cond.form.poly
    if h.total_degree() > degree:
        raise AnchorError("containment divisor exceeds the ambient degree")
    remainders = []
    support: dict[tuple[int, int, int], int] = {}
    for exp in basis:
        mono = MultiPoly.monomial(PLANE_VARS, exp)
        _, r = mono.divmod_by(h)
        remainders.append(r)
        for rexp in r.terms:
            support.setdefault(rexp, len(support))
    rows = [[Fraction(0)] * len(basis) for _ in range(len(support))]
    for i, r in enumerate(remainders):
        for rexp, c in r.terms.items():
            rows[support[rexp]][i] = c
    return rows


# -- systems and bases --------------------------------------------------------


@dataclass
class ConditionSystem:
    degree: int
    matrix: list[list[Fraction]]

    @property
    def rows(self) -> int:
        return len(self.matrix)

    @property
    def cols(self) -> int:
        return len(monomial_basis(3, self.degree))


@dataclass
class LinearSystem:
    degree: int
    basis: list[HomForm] = field(default_factory=list)

    @property
    def dim_forms(self) -> int:
        return len(self.basis)

    @property
    def dim_projective(self) -> int:
        return self.dim_forms - 1


def build_condition_system(conditions: Sequence[AnchoredCondition], degree: int) -> ConditionSystem:
    return ConditionSystem(degree, condition_rows(conditions, degree))


def _echelon_forms(vectors: list[list[Fraction]], degree: int) -> list[HomForm]:
    basis = monomial_basis(3, degree)
    red, _ = rref(vectors)
    forms = []
    for row in red:
        if all(c == 0 for c in row):
            continue
        terms = {basis[i]: c for i, c in enumerate(row) if c != 0}
        forms.append(HomForm(MultiPoly(PLANE_VARS, terms).primitive(), degree))
    return forms


def condition_ideal_graded_piece(conditions: Sequence[AnchoredCondition], degree: int) -> LinearSystem:
    """Exact basis of the degree-d forms satisfying every condition."""
    if degree > 12:
        raise AnchorError("degree out of supported range")
    system = build_condition_system(conditions, degree)
    ker = kernel_basis(system.matrix, ncols=system.cols)
    return LinearSystem(degree, _echelon_forms(ker, degree))


def satisfies_conditions(form: HomForm, conditions: Sequence[AnchoredCondition]) -> bool:
    """Re-evaluate the constraint rows against a single form (round-trip check)."""
    basis = monomial_basis(3, form.degree)
    vec = [form.poly.coeff(exp) for exp in basis]
    for row in condition_rows(conditions, form.degree):
        if sum(a * b for a, b in zip(row, vec)) != 0:
            return False
    return True


def divisibility_multiplicity(f: HomForm | MultiPoly, l: HomForm | MultiPoly) -> int:
    """Largest k with l^k dividing f; f nonzero, l nonconstant."""
    fp = f.poly if isinstance(f, HomForm) else f
    lp = l.poly if isinstance(l, HomForm) else l
    if lp.is_zero() or lp.is_constant():
        raise ValueError("divisor must be nonconstant")
    if fp.is_zero():
        raise ValueError("dividend must be nonzero")
    k = 0
    work = fp
    while True:
        q, r = work.divmod_by(lp)
        if not r.is_zero():
            return k
        k += 1
        work = q


def common_divisibility(forms: Sequence[MultiPoly], l: MultiPoly) -> int:
    """Largest k with l^k dividing every form (the general member's order)."""
    return min(divisibility_multiplicity(f, l) for f in forms)


# -- specific systems used throughout the catalogue ---------------------------


def quadruple_point_system(point=(0, 0, 1), degree: int = 8) -> LinearSystem:
    return condition_ideal_graded_piece([MultiplicityAtPoint(point, 4)], degree)


def nn_point_system(point=(0, 0, 1), tangent: MultiPoly | None = None, n: int = 3,
                    degree: int = 8, degenerate: bool = False) -> LinearSystem:
    if tangent is None:
        tangent = MultiPoly.var(PLANE_VARS, "y")
    return condition_ideal_graded_piece(
        [NNPointWithTangent(point, tangent, n, degenerate)], degree)


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
        [_flag_condition(p1, t1), _flag_condition(p2, t2)], 2)


def _flag_condition(point, tangent) -> "ConeDirection":
    # smooth point with prescribed tangent: multiplicity 1, cone contains the tangent
    return ConeDirection(point, tangent, 1, 1)


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
