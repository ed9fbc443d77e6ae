"""Exact linear algebra over Q and over polynomial rings Q[t].

One elimination path per ring:
  * rref/kernel over Q (Fraction entries): presolve, then `rref`; a kernel
    drops the columns its single-entry rows kill and eliminates the rest,
  * fraction-free Bareiss echelon for matrices of polynomials, with kernels
    by fraction-free back-substitution,
  * determinantal divisors over a single-parameter ring Q[t] via Smith-style
    reduction, for rank-drop loci.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .poly import MultiPoly, grevlex_key, poly_gcd

_ZERO, _ONE = Fraction(0), Fraction(1)


# -- echelon over Q --------------------------------------------------------


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a matrix with Fraction entries.

    Returns (reduced rows, pivot column indices).  Deterministic: pivots are
    chosen as the first nonzero entry scanning rows in order.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        m[r] = [e / inv for e in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: list[list[Fraction]]) -> int:
    return len(rref(rows)[1])


def kernel_basis(rows: list[list[Fraction]], ncols: int | None = None) -> list[list[Fraction]]:
    """Exact right-kernel basis from the reduced echelon form.

    Deterministic: one basis vector per free column, in column order, with a 1
    in the free position and zeros at the other free columns.  For an empty
    row list the full standard basis of length `ncols` is returned.

    Presolve, then `rref`: a row with a single nonzero entry kills its
    column, a pivot of the full echelon form and 0 in every kernel vector.
    One pass drops those columns and the rows they leave empty, and `rref`
    runs on what remains, if anything does.  The kernel, its free columns
    and so the vectors are the same as from `rref` of all rows.
    """
    if not rows:
        if ncols is None:
            raise ValueError("need ncols for an empty matrix")
        return [[_ONE if j == i else _ZERO for j in range(ncols)] for i in range(ncols)]
    ncols = len(rows[0])
    killed = set()
    for row in rows:
        nonzero = [c for c, e in enumerate(row) if e]
        if len(nonzero) == 1:
            killed.add(nonzero[0])
    cols = [c for c in range(ncols) if c not in killed]
    if killed:
        rows = [r for r in ([row[c] for c in cols] for row in rows) if any(r)]
    red, pivots = rref(rows) if rows else ([], [])
    basis = []
    for fc in range(len(cols)):
        if fc in pivots:
            continue
        v = [_ZERO] * ncols
        v[cols[fc]] = _ONE
        for r, pc in enumerate(pivots):
            if e := red[r][fc]:
                v[cols[pc]] = -e
        basis.append(v)
    return basis


# -- fraction-free echelon over polynomial rings --------------------------


def _row_primitive(row: list[MultiPoly]) -> list[MultiPoly]:
    g: MultiPoly | None = None
    for e in row:
        if not e.is_zero():
            g = e if g is None else poly_gcd(g, e)
            if g.is_constant():
                g = None
                break
    if g is None or g.is_constant():
        # still normalise rational content for reproducibility
        nz = [e for e in row if not e.is_zero()]
        if not nz:
            return row
        c = nz[0].rational_content() if len(nz) == 1 else _content(nz)
        return [e * (1 / c) for e in row]
    return [e.exact_div(g) for e in row]


def _content(entries: list[MultiPoly]) -> Fraction:
    """gcd of all numerators over lcm of all denominators of the entries' terms."""
    coeffs = [c for e in entries for c in e.terms.values()]
    return Fraction(math.gcd(*(c.numerator for c in coeffs)), math.lcm(*(c.denominator for c in coeffs)))


def bareiss_echelon(rows: list[list[MultiPoly]]) -> tuple[list[list[MultiPoly]], list[int]]:
    """Fraction-free row echelon of a polynomial matrix.

    Rows are made primitive before each elimination step; the pivot in each
    column is the candidate of lowest total degree (ties broken by canonical
    term order, then row index), which keeps the output reproducible.
    Returns (echelon rows, pivot column indices); rank = number of pivots.
    """
    if not rows:
        return [], []
    m = [_row_primitive(list(r)) for r in rows]
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        cand = None
        for i in range(r, len(m)):
            e = m[i][c]
            if e.is_zero():
                continue
            key = (e.total_degree(), grevlex_key(e.leading_term()[0]), i)
            if cand is None or key < cand[0]:
                cand = (key, i)
        if cand is None:
            continue
        i = cand[1]
        m[r], m[i] = m[i], m[r]
        piv = m[r][c]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            if not f.is_zero():
                m[i] = [piv * e - f * p for e, p in zip(m[i], m[r])]
                m[i] = _row_primitive(m[i])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def poly_matrix_rank(rows: list[list[MultiPoly]]) -> int:
    return len(bareiss_echelon(rows)[1])


def poly_kernel_basis(rows: list[list[MultiPoly]], ncols: int, frame: Sequence[str]) -> list[list[MultiPoly]]:
    """Right kernel over the fraction field, returned as cleared polynomial
    vectors, each primitive with positive leading coefficient, deterministic.

    One vector per free column of the Bareiss echelon, in column order: the
    kernel vector with zeros in the other free columns, found by
    fraction-free back-substitution over the polynomial ring.
    """
    frame = tuple(frame)
    zero = MultiPoly.zero(frame)
    one = MultiPoly.const(frame, 1)
    if not rows:
        return [[one if j == i else zero for j in range(ncols)] for i in range(ncols)]
    echelon, pivots = bareiss_echelon(rows)
    out: list[list[MultiPoly]] = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [zero] * ncols
        v[fc] = one
        for row, pc in reversed(list(zip(echelon, pivots))):
            s = zero
            for e, x in zip(row[pc + 1:], v[pc + 1:]):
                if e and x:
                    s = s + e * x
            if not s:
                continue
            g = poly_gcd(row[pc], s)
            scale = row[pc].exact_div(g)
            v = [x * scale if x else x for x in v]
            v[pc] = -s.exact_div(g)
        out.append(_primitive_vector(v))
    return out


def _primitive_vector(v: list[MultiPoly]) -> list[MultiPoly]:
    """Divide out the polynomial gcd of the entries, make the first nonzero
    entry's leading coefficient positive, divide out the rational content."""
    g: MultiPoly | None = None
    for e in v:
        if e:
            g = e if g is None else poly_gcd(g, e)
    if g.total_degree() > 0 or g.constant_value() != 1:
        v = [e.exact_div(g) if e else e for e in v]
    lead = next(e for e in v if e)
    if lead.leading_term()[1] < 0:
        v = [-e for e in v]
    c = _content([e for e in v if e])
    if c != 1:
        v = [e * (1 / c) for e in v]
    return v


# -- determinantal divisors over Q[t] --------------------------------------


def determinantal_divisor(rows: list[list[MultiPoly]], var: str) -> tuple[int, MultiPoly]:
    """The rank r of a matrix over Q[var] and the gcd of all its r x r
    minors, via Smith reduction.

    Entries live in the one-variable frame (var,), where `divmod_by` is
    Euclidean division.  Unimodular row/column operations preserve the rank
    and every determinantal divisor, and the reduction leaves exactly r
    nonzero diagonal entries, so their count is the rank and their product
    the divisor.  The divisor is primitive with positive leading coefficient.
    """
    m = [[e for e in row] for row in rows]
    if not m:
        raise ValueError("empty matrix")
    frame = m[0][0].vars
    nrows, ncols = len(m), len(m[0])
    diag: list[MultiPoly] = []
    top = 0
    while top < min(nrows, ncols):
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                e = m[i][j]
                if not e.is_zero():
                    key = (e.degree_in(var), grevlex_key(e.leading_term()[0]), i, j)
                    if best is None or key < best[0]:
                        best = (key, i, j)
        if best is None:
            break
        _, bi, bj = best
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        changed = True
        while changed:
            changed = False
            piv = m[top][top]
            for i in range(top + 1, nrows):
                if m[i][top].is_zero():
                    continue
                q, rem = m[i][top].divmod_by(piv)
                m[i] = [a - q * b for a, b in zip(m[i], m[top])]
                if not rem.is_zero():
                    m[top], m[i] = m[i], m[top]
                    changed = True
                    break
            if changed:
                continue
            for j in range(top + 1, ncols):
                if m[top][j].is_zero():
                    continue
                q, rem = m[top][j].divmod_by(piv)
                for row in m:
                    row[j] = row[j] - q * row[top]
                if not rem.is_zero():
                    for row in m:
                        row[top], row[j] = row[j], row[top]
                    changed = True
                    break
        diag.append(m[top][top])
        top += 1
    out = MultiPoly.const(frame, 1)
    for d in diag:
        out = out * d
    return len(diag), out.primitive()
