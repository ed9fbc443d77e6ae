"""Linear systems of plane curves with imposed singularity conditions.

Conditions are anchored at rational points and realised as exact linear
constraints on the coefficient vector of degree-d forms in x, y, z.  There
are five kinds:

  * prescribed multiplicity at a point (all low-order jets vanish),
  * an n-fold point with an infinitely-near n-fold point along a prescribed
    tangent line (membership in the graded pieces of (s^2, l)^n after a
    projective change of coordinates, the pattern a + 2b >= 2n), optionally
    with the repeated direction of the blown-up tangent cone pinned,
  * a repeated linear direction inside the tangent cone (degenerate
    multiple points),
  * divisibility by a fixed form, and
  * contact to a given order with a line, or with a parabola jet tangent to it.

All but divisibility are a transported frame plus linear combinations of the
local coefficients.  All arithmetic is exact.  The basis of a graded piece is
the unique reduced row echelon basis over the canonical monomial order, each
form made primitive, so output is reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Sequence

from .linalg import kernel_basis
from .poly import MultiPoly, _monomial_images, monomial_basis

PLANE_VARS = ("x", "y", "z")
_ZERO = Fraction(0)


class AnchorError(ValueError):
    """Inconsistent anchoring data (degenerate point, tangent off the point, ...)."""


Point = tuple[Fraction, Fraction, Fraction]


def normalize_point(coords: Sequence) -> Point:
    vals = [Fraction(c) for c in coords]
    if len(vals) != 3 or all(v == 0 for v in vals):
        raise AnchorError(f"not a projective point: ({', '.join(map(str, coords))})")
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
    c = _cross(normalize_point(p), normalize_point(q))
    if all(v == 0 for v in c):
        raise AnchorError("points coincide; no unique joining line")
    return MultiPoly.linear(PLANE_VARS, c).primitive()


def line_coeffs(line: MultiPoly) -> Point:
    if line.total_degree() != 1 or not line.is_homogeneous():
        raise AnchorError(f"not a linear form: {line}")
    return (line.coeff((1, 0, 0)), line.coeff((0, 1, 0)), line.coeff((0, 0, 1)))


def evaluate_at(f: MultiPoly, p: Point) -> Fraction:
    return f.evaluate({"x": p[0], "y": p[1], "z": p[2]})


@dataclass(frozen=True, slots=True)
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

    With a `direction` t0 the blown-up cone additionally has a double root at
    t0, the coordinate of the repeated infinitely-near direction along the
    exceptional line (0 being the tangent line itself); two more linear
    conditions.
    """

    point: Point
    tangent: MultiPoly
    n: int
    direction: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "point", normalize_point(self.point))
        if self.direction is not None:
            object.__setattr__(self, "direction", Fraction(self.direction))
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
class LineContact:
    """The form vanishes to order >= `order` along the parabola jet
    y = kappa*x^2 in the frame transported to the point and the line.  With
    kappa = 0 this is the intersection multiplicity with the line at the
    point; otherwise, for a smooth germ, it pins tangency and the branch
    curvature."""

    point: Point
    line: MultiPoly
    order: int
    kappa: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "point", normalize_point(self.point))
        object.__setattr__(self, "kappa", Fraction(self.kappa))
        if self.order < 1:
            raise AnchorError("contact order must be at least 1")
        if evaluate_at(self.line, self.point) != 0:
            raise AnchorError("contact line does not pass through the anchor point")


AnchoredCondition = (MultiplicityAtPoint | NNPointWithTangent | ConeDirection |
                     ContainsCurve | LineContact)


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
            if sum(a * b for a, b in zip(l, e)) != 0 and _det3([col1, e, p]):
                col2 = e
                break
        if col2 is None:
            raise AnchorError("could not complete transport frame")
        cols = [col1, col2, p]
    else:
        cols = None
        for a in range(3):
            for b in range(3):
                if _det3([basis[a], basis[b], p]):
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


def _det3(m) -> Fraction:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def apply_transport(f: MultiPoly, A: list[list[Fraction]]) -> MultiPoly:
    """f(A u) in the same frame: x, y, z become the linear forms of A's rows."""
    return f.substitute({v: MultiPoly.linear(PLANE_VARS, row) for v, row in zip(PLANE_VARS, A)})


def transport_point(A: list[list[Fraction]], p: Point) -> Point:
    """Image of p under the projectivity with matrix A acting on coordinates."""
    return normalize_point(tuple(sum(A[i][j] * p[j] for j in range(3)) for i in range(3)))


# -- condition rows ----------------------------------------------------------


def condition_rows(conditions: Sequence[AnchoredCondition], degree: int) -> list[list[Fraction]]:
    """Linear constraint rows over the canonical degree-d monomial basis.

    Each condition but containment is a frame A and a list of combinations
    {local exponent: weight}; its rows are those combinations of the
    coefficients of the transported monomials.  A killed local monomial is
    the combination {exp: 1}.  No combination is empty or has a zero weight.
    """
    basis = monomial_basis(3, degree)
    rows: list[list[Fraction]] = []
    for cond in conditions:
        if isinstance(cond, ContainsCurve):
            rows.extend(_containment_rows(cond, degree, basis))
            continue
        killed, combos = [], []
        if isinstance(cond, MultiplicityAtPoint):
            A = transport_matrix(cond.point)
            killed = _killed_multiplicity(degree, cond.m)
        elif isinstance(cond, NNPointWithTangent):
            A = transport_matrix(cond.point, cond.tangent)
            killed = _killed_nn(degree, cond.n)
            if cond.direction is not None:
                combos = _degenerate_direction_combos(degree, cond.n, cond.direction)
        elif isinstance(cond, ConeDirection):
            A = transport_matrix(cond.point, cond.tangent)
            killed = _killed_multiplicity(degree, cond.m) + _killed_cone(degree, cond.m, cond.k)
        elif isinstance(cond, LineContact):
            # the line pulls back to y = 0 and the point to (0:0:1)
            A = transport_matrix(cond.point, cond.line)
            combos = _branch_jet_combos(degree, cond.kappa, cond.order)
        else:
            raise TypeError(f"unknown condition {cond!r}")
        # the transported monomials, as integer numerators over a denominator
        images = _monomial_images([MultiPoly.linear(PLANE_VARS, row) for row in A], basis)
        for combo in [{exp: 1} for exp in killed] + combos:
            row = []
            for nums, den in images:
                total = 0
                for kexp, w in combo.items():
                    c = nums.get(kexp)
                    if c:
                        total += c if w == 1 else w * c
                row.append(Fraction(total, den) if total else _ZERO)
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


def _killed_nn(degree: int, n: int) -> list[tuple[int, int, int]]:
    out = []
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            if a + 2 * b < 2 * n:
                out.append((a, b, degree - a - b))
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
    for j in range(min(order, 2 * degree + 1)):
        combo = {}
        for b in range(j // 2 + 1):
            c = degree - j + b
            if c >= 0 and (w := kappa ** b):
                combo[(j - 2 * b, b, c)] = w
        if combo:
            combos.append(combo)
    return combos


def _degenerate_direction_combos(degree: int, n: int, t0) -> list[dict]:
    """Linear combinations of blown-up cone coefficients forcing a double root
    of the cone at the direction value t0 (a rational, or a polynomial in a
    parameter): the value and the derivative of sum_b coeff_b * t^b at t0."""
    val, der = {}, {}
    for b in range(n + 1):
        exp = (2 * n - 2 * b, b, degree - 2 * n + b)
        if exp[2] < 0:
            continue
        if w := t0 ** b:
            val[exp] = w
        if b and (w := b * t0 ** (b - 1)):
            der[exp] = w
    return [combo for combo in (val, der) if combo]


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
class LinearSystem:
    degree: int
    basis: list[HomForm] = field(default_factory=list)

    @property
    def dim_forms(self) -> int:
        return len(self.basis)

    @property
    def dim_projective(self) -> int:
        return self.dim_forms - 1


def condition_ideal_graded_piece(conditions: Sequence[AnchoredCondition], degree: int) -> LinearSystem:
    """Exact basis of the degree-d forms satisfying every condition.

    The basis is the unique reduced row echelon basis of the kernel, over the
    canonical monomial order, with each form made primitive.  One elimination
    gives it: `kernel_basis` of the condition rows with their columns
    reversed picks each row's pivot at its last nonzero column.  So the
    kernel vector of a free column f has a 1 at f, zeros at every other free
    column, and nonzeros only at pivot columns to the right of f.  Read back
    in the canonical order and listed by increasing f, these vectors are
    exactly the rows of the reduced row echelon form of the kernel.
    """
    if not 0 <= degree <= 12:
        raise AnchorError("degree out of supported range")
    basis = monomial_basis(3, degree)
    rows = [row[::-1] for row in condition_rows(conditions, degree)]
    forms = []
    for vec in reversed(kernel_basis(rows, ncols=len(basis))):
        terms = {exp: c for exp, c in zip(basis, reversed(vec)) if c}
        forms.append(HomForm(MultiPoly(PLANE_VARS, terms).primitive(), degree))
    return LinearSystem(degree, forms)


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
    return fp.divisor_power(lp)[0]


def common_divisibility(forms: Sequence[HomForm | MultiPoly], l: MultiPoly) -> int:
    """Largest k with l^k dividing every form (the general member's order)."""
    return min(divisibility_multiplicity(f, l) for f in forms)
