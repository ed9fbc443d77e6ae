"""Universal families of constrained curves over polynomial parameter rings.

The central objects are condition matrices M(t) acting on the coefficients of
a parameter-dependent basis of forms: their generic rank, the locus where the
rank drops, and the comparison between the kernel specialised at a parameter
value and the specialisation of the generic kernel.  A strict inclusion
between the two detects that a numerically defined family splits into
separate components.  The module also hosts the certificate that no plane
octic carries four triple points with infinitely-near triple points.  Its
conics come from `linsys` condition rows (a tangent flag is contact >= 2
with a line) and its residual coincidence points from the certified point
search, so an uncertified search fails the certificate.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .linalg import (determinantal_divisor, kernel_basis, poly_kernel_basis,
                     poly_matrix_rank, rank)
from .linsys import (AnchoredCondition, AnchorError, HomForm, LineContact, MultiplicityAtPoint,
                     PLANE_VARS, Point, _cross, common_divisibility, condition_ideal_graded_piece,
                     condition_rows, evaluate_at, line_through, normalize_point)
from .pointsearch import common_rational_zeros
from .poly import MultiPoly, monomial_basis, poly_gcd, squarefree_part


@dataclass
class UniversalFamily:
    """f = sum a_i * basis_i with basis forms depending on the parameters."""

    degree: int
    params: tuple[str, ...]
    basis: list[MultiPoly]          # frame PLANE_VARS + params

    @property
    def size(self) -> int:
        return len(self.basis)

    def specialize(self, values: dict[str, Fraction]) -> list[MultiPoly]:
        subs = {p: Fraction(values[p]) for p in self.params}
        out = []
        for b in self.basis:
            s = b.substitute(subs)
            out.append(s.rename(PLANE_VARS))
        return out

    def member(self, coeff_vec, values: dict[str, Fraction]) -> HomForm:
        forms = self.specialize(values)
        total = MultiPoly.zero(PLANE_VARS)
        for c, m in zip(coeff_vec, forms):
            total = total + m * c
        return HomForm(total.primitive() if not total.is_zero() else total, self.degree)


@dataclass
class ParamMatrix:
    entries: list[list[MultiPoly]]   # frame = params only
    params: tuple[str, ...]
    cols: int                        # kept apart: a matrix may have no rows

    @property
    def rows(self) -> int:
        return len(self.entries)

    def specialize(self, values: dict[str, Fraction]) -> list[list[Fraction]]:
        vals = {p: Fraction(values[p]) for p in self.params}
        return [[e.evaluate(vals) for e in row] for row in self.entries]


def parametric_nn_family(n: int = 3, degree: int = 8, param: str = "t") -> UniversalFamily:
    """Forms of the given degree with an [n;n]-point at (0:0:1) whose tangent
    direction y - t*x varies with the parameter.

    The fixed-tangent monomial basis is sheared by y -> y - t*x, which
    identifies the graded pieces for every parameter value at once.
    """
    if param in PLANE_VARS:
        raise AnchorError(f"parameter {param!r} clashes with a plane variable")
    if not (isinstance(param, str) and param.isascii() and param.isidentifier()):
        raise AnchorError(f"parameter {param!r} is not a name")
    if not 0 <= degree <= 12:
        raise AnchorError("degree out of supported range")
    if n < 2:
        raise AnchorError("infinitely-near condition needs n >= 2")
    frame = PLANE_VARS + (param,)
    x = MultiPoly.var(frame, "x")
    y = MultiPoly.var(frame, "y")
    t = MultiPoly.var(frame, param)
    sheared_y = y - t * x
    basis = []
    for (a, b, c) in monomial_basis(3, degree):
        if a + 2 * b >= 2 * n:
            m = MultiPoly.var(frame, "x") ** a * sheared_y ** b * MultiPoly.var(frame, "z") ** c
            basis.append(m)
    return UniversalFamily(degree, (param,), basis)


def build_condition_matrix(family: UniversalFamily, extra_conditions: Sequence[AnchoredCondition]) -> ParamMatrix:
    """M(t) a = 0 characterises family members meeting the extra conditions."""
    rows_q = condition_rows(extra_conditions, family.degree)
    basis_exps = monomial_basis(3, family.degree)
    param_frame = family.params
    coeff_tables = []
    for b in family.basis:
        table = b.coefficients_in(PLANE_VARS)
        coeff_tables.append({exp: p.rename(param_frame) for exp, p in table.items()})
    zero = MultiPoly.zero(param_frame)
    entries = []
    for row in rows_q:
        out_row = []
        for table in coeff_tables:
            acc = zero
            for exp, coeff in zip(basis_exps, row):
                if coeff != 0:
                    p = table.get(exp)
                    if p is not None:
                        acc = acc + p * coeff
            out_row.append(acc)
        entries.append(out_row)
    return ParamMatrix(entries, param_frame, family.size)


def generic_rank(M: ParamMatrix) -> int:
    if not M.entries:
        return 0
    return poly_matrix_rank(M.entries)


@dataclass
class RankDropLocus:
    generic_rank: int
    minor_gcd: MultiPoly
    radical: MultiPoly          # squarefree part: the reduced vanishing locus

    @property
    def empty(self) -> bool:
        """True when the rank never drops (the minors generate the unit ideal)."""
        return self.radical.is_constant()


def rank_drop_locus(M: ParamMatrix) -> RankDropLocus:
    """Where a matrix in one parameter drops below its generic rank."""
    if len(M.params) != 1:
        raise ValueError("a rank-drop locus is computed for one parameter only")
    r, g = determinantal_divisor(M.entries, M.params[0]) if M.entries else (0, None)
    if r == 0:
        raise ValueError("zero matrix has no rank-drop locus")
    radical = squarefree_part(g) if not g.is_constant() else MultiPoly.const(g.vars, 1)
    return RankDropLocus(r, g, radical)


@dataclass
class KernelComparison:
    special_kernel: list[list[Fraction]]
    limit_kernel: list[list[Fraction]]
    inclusion_holds: bool
    strict: bool

    @property
    def special_dim(self) -> int:
        return len(self.special_kernel)

    @property
    def limit_dim(self) -> int:
        return len(self.limit_kernel)


def _span_contains(span_rows: list[list[Fraction]], vec: list[Fraction]) -> bool:
    if not span_rows:
        return all(c == 0 for c in vec)
    return rank(span_rows) == rank(span_rows + [vec])


def compare_kernels_at(M: ParamMatrix, values: dict[str, Fraction]) -> KernelComparison:
    ncols = M.cols
    special_rows = M.specialize(values)
    special = kernel_basis(special_rows, ncols=ncols)
    generic = poly_kernel_basis(M.entries, ncols, M.params)
    limit = []
    vals = {p: Fraction(values[p]) for p in M.params}
    zero = Fraction(0)
    for vec in generic:
        # one shared zero: a result keeps no fresh Fraction(0) per entry
        limit.append([e.evaluate(vals) or zero for e in vec])
    limit_rank = rank(limit) if limit else 0
    inclusion = all(_span_contains(special, v) for v in limit)
    if not inclusion:
        raise AssertionError("kernel limit escaped the specialised kernel; "
                             "semicontinuity violated")
    strict = limit_rank < len(special)
    return KernelComparison(special, limit, inclusion, strict)


@dataclass
class SplitReport:
    witness_line: MultiPoly
    special_multiplicity: int
    limit_multiplicity: int


def component_split_report(family: UniversalFamily, comparison: KernelComparison,
                           values: dict[str, Fraction], witness_line: MultiPoly) -> SplitReport:
    forms_special = [family.member(v, values).poly for v in comparison.special_kernel]
    forms_limit = [family.member(v, values).poly for v in comparison.limit_kernel]
    forms_special = [f for f in forms_special if not f.is_zero()]
    forms_limit = [f for f in forms_limit if not f.is_zero()]
    div_special = common_divisibility(forms_special, witness_line) if forms_special else 0
    div_limit = common_divisibility(forms_limit, witness_line) if forms_limit else 0
    return SplitReport(witness_line, div_special, div_limit)


# -- conics through prescribed data -------------------------------------------


def conic_through(points: Sequence[Point] = (), flags: Sequence[tuple[Point, MultiPoly]] = ()) -> HomForm:
    """The unique conic through the given simple points and tangent flags:
    the degree-2 graded piece of the conditions, which must have dimension 1.

    Each plain point imposes one condition, each flag (point, tangent line)
    two: the conic passes through the point with contact >= 2 to the line.
    """
    conditions = ([MultiplicityAtPoint(p, 1) for p in points] +
                  [LineContact(p, line, 2) for p, line in flags])
    basis = condition_ideal_graded_piece(conditions, 2).basis
    if len(basis) != 1:
        raise AnchorError(f"conic constraints are not independent: solution space {len(basis)}")
    return basis[0]


def conic_gradient(Q: HomForm, p: Point) -> MultiPoly:
    """Tangent line of a smooth conic at a point on it."""
    coeffs = [evaluate_at(Q.poly.derivative(v), p) for v in PLANE_VARS]
    if all(c == 0 for c in coeffs):
        raise AnchorError("conic is singular at the point")
    return MultiPoly.linear(PLANE_VARS, coeffs).primitive()


# -- the four-[3;3]-points certificate ----------------------------------------


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
    x = MultiPoly.var(PLANE_VARS, "x")
    y = MultiPoly.var(PLANE_VARS, "y")
    z = MultiPoly.var(PLANE_VARS, "z")
    l1 = (x + y).primitive()
    l2 = (x + z).primitive()
    C0 = conic_through(points=[p3], flags=[(p1, l1), (p2, l2)])
    l3 = conic_gradient(C0, p3)
    l2_used = l2 if not perturb else (x + 2 * z).primitive()
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
