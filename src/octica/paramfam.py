"""Universal families of constrained curves over polynomial parameter rings.

The central objects are condition matrices M(t) acting on the coefficients of
a parameter-dependent basis of forms: their generic rank, the locus where the
rank drops, and the comparison between the kernel specialised at a parameter
value and the specialisation of the generic kernel.  A strict inclusion
between the two detects that a numerically defined family splits into
separate components.  The module also hosts the conic machinery culminating
in the certificate that no plane octic carries four triple points with
infinitely-near triple points.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .linalg import (determinantal_divisor, kernel_basis, poly_kernel_basis,
                     poly_matrix_rank, rank)
from .linsys import (AnchoredCondition, AnchorError, HomForm, PLANE_VARS, Point,
                     _cross, common_divisibility, condition_rows,
                     evaluate_at, line_coeffs, line_through, normalize_point)
from .poly import MultiPoly, binary_roots, monomial_basis, poly_gcd, resultant, squarefree_part


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
    r = generic_rank(M)
    if r == 0:
        raise ValueError("zero matrix has no rank-drop locus")
    g = determinantal_divisor(M.entries, M.params[0])
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


CONIC_EXPS = monomial_basis(3, 2)


def _conic_eval_row(p: Point) -> list[Fraction]:
    return [evaluate_at(MultiPoly.monomial(PLANE_VARS, exp), p) for exp in CONIC_EXPS]


def _conic_gradient_rows(p: Point, line: MultiPoly) -> list[list[Fraction]]:
    """Rows forcing grad Q(p) parallel to the line coefficients (two of the
    three cross-product components suffice; all three are produced and the
    dependent one discarded)."""
    l = line_coeffs(line)
    grads = [[evaluate_at(MultiPoly.monomial(PLANE_VARS, exp).derivative(v), p) for exp in CONIC_EXPS]
             for v in PLANE_VARS]
    cross = [
        [l[2] * a - l[1] * b for a, b in zip(grads[1], grads[2])],
        [l[0] * a - l[2] * b for a, b in zip(grads[2], grads[0])],
        [l[1] * a - l[0] * b for a, b in zip(grads[0], grads[1])],
    ]
    out = []
    for row in cross:
        if any(c != 0 for c in row):
            cand = out + [row]
            if rank(cand) > rank(out):
                out.append(row)
        if len(out) == 2:
            break
    if len(out) != 2:
        raise AnchorError("degenerate tangency constraint for a conic")
    return out


def conic_through(points: Sequence[Point] = (), flags: Sequence[tuple[Point, MultiPoly]] = ()) -> HomForm:
    """The unique conic through the given simple points and tangent flags.

    Each plain point imposes one condition, each flag two; exactly five
    independent conditions are required.
    """
    rows: list[list[Fraction]] = []
    for p in points:
        rows.append(_conic_eval_row(normalize_point(p)))
    for (p, line) in flags:
        p = normalize_point(p)
        if evaluate_at(line, p) != 0:
            raise AnchorError("flag tangent does not pass through its point")
        rows.extend(_conic_gradient_rows(p, line))
        rows.append(_conic_eval_row(p))
    ker = kernel_basis(rows, ncols=6)
    if len(ker) != 1:
        raise AnchorError(f"conic constraints are not independent: solution space {len(ker)}")
    vec = ker[0]
    terms = {exp: c for exp, c in zip(CONIC_EXPS, vec) if c != 0}
    return HomForm(MultiPoly(PLANE_VARS, terms).primitive(), 2)


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
# the substitution (x, y, z) -> (u, v, 1), which evaluates a form at p4 = (u : v : 1)
AT_P4 = {"x": MultiPoly.var(UV, "u"), "y": MultiPoly.var(UV, "v"), "z": 1}


def _symbolic_conic(flag_rows: list[list[Fraction]]) -> list[MultiPoly]:
    """Coefficient vector of the conic through two rational flags and the
    symbolic point (u : v : 1): the kernel of the 5 x 6 condition matrix over
    Q(u, v), cleared to polynomials in u and v."""
    rows = [[MultiPoly.const(UV, c) for c in r] for r in flag_rows]
    rows.append([MultiPoly.monomial(PLANE_VARS, exp).substitute(AT_P4, UV) for exp in CONIC_EXPS])
    vec, = poly_kernel_basis(rows, len(CONIC_EXPS), UV)
    return vec


def verify_no_four_33_points(perturb: bool = False) -> FourPointsCertificate:
    """Fix three points and two tangents, build the three conics through a
    variable fourth point, and certify that their tangent directions at the
    fourth point can only coincide on the base conic (or on degenerate
    positions of the fourth point).  With perturb=True a deliberately wrong
    tangent is used and the certificate must fail (negative control)."""
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
    notes = []
    l2_used = l2 if not perturb else (x + 2 * y + z).primitive()
    conics = []
    for flags in (((p2, l2), (p3, l3)),            # C1: misses p1
                  ((p1, l1), (p3, l3)),            # C2: misses p2
                  ((p1, l1), (p2, l2_used))):      # C3: misses p3
        rows = [row for p, line in flags for row in _conic_gradient_rows(normalize_point(p), line)]
        conics.append(_symbolic_conic(rows))

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
    residuals = []
    divisible = True
    for psi in psis:
        qq, rr = psi.divmod_by(c0_uv)
        if rr.is_zero():
            residuals.append(qq)
        else:
            divisible = False
            residuals.append(psi)
    if not divisible:
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

    q1 = residuals[0].exact_div(g) if not g.is_constant() else residuals[0]
    q2 = residuals[1].exact_div(g) if not g.is_constant() else residuals[1]
    residual_points: list[tuple[Fraction, Fraction]] = []
    points_ok = True
    if not (q1.is_constant() or q2.is_constant()):
        if q1.degree_in("v") > 0 and q2.degree_in("v") > 0:
            R = resultant(q1, q2, "v")
        else:
            R = q1 if q1.degree_in("v") == 0 else q2
        if R.is_zero():
            points_ok = False
            notes.append("residual coincidence polynomials share a factor")
        elif not R.is_constant():
            for u0, _ in binary_roots(R.rename(("u",)))[0]:
                sub1 = q1.substitute({"u": u0}).rename(("v",))
                sub2 = q2.substitute({"u": u0}).rename(("v",))
                gg = poly_gcd(sub1, sub2)
                if gg.total_degree() > 0:
                    for v0, _ in binary_roots(gg)[0]:
                        residual_points.append((u0, v0))
            for (u0, v0) in residual_points:
                vals = {"u": u0, "v": v0}
                on_base = c0_uv.evaluate(vals) == 0
                on_deg = any(l.evaluate(vals) == 0 for l in degenerate_lines)
                if not (on_base or on_deg):
                    points_ok = False
                    notes.append(f"residual coincidence point off the base conic: ({u0}, {v0})")

    holds = divisible and curve_part_ok and points_ok
    return FourPointsCertificate(C0, psis, residuals, degenerate_lines,
                                 curve_part_ok, residual_points, points_ok, holds, notes)
