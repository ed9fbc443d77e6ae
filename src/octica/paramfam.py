"""Universal families of constrained curves over polynomial parameter rings.

The central objects are condition matrices M(t) acting on the coefficients of
a parameter-dependent basis of forms: their generic rank, the locus where the
rank drops, and the comparison between the kernel specialised at a parameter
value and the specialisation of the generic kernel.  A strict inclusion
between the two detects that a numerically defined family splits into
separate components.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import (determinantal_divisor, kernel_basis, poly_kernel_basis,
                     poly_matrix_rank, rank)
from .linsys import AnchoredCondition, AnchorError, HomForm, PLANE_VARS, condition_rows
from .poly import MultiPoly, monomial_basis, squarefree_part


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
    def order(kernel) -> int:
        """Largest k with witness_line^k dividing every nonzero member of the kernel."""
        forms = [f for f in (family.member(v, values).poly for v in kernel) if not f.is_zero()]
        return min((f.divisor_power(witness_line)[0] for f in forms), default=0)

    return SplitReport(witness_line, order(comparison.special_kernel), order(comparison.limit_kernel))
