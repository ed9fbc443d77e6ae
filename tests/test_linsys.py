"""Constrained linear systems of plane curves."""
import hashlib
import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest

from octica.linsys import (AnchorError, ConeDirection, ContainsCurve, HomForm, LineContact,
                           MultiplicityAtPoint, NNPointWithTangent, PLANE_VARS,
                           condition_ideal_graded_piece, condition_rows, conic_gradient,
                           conic_through, evaluate_at, line_through, normalize_point,
                           satisfies_conditions, transport_point)
from octica.poly import MultiPoly, monomial_basis

from local_checks import (invert3, nn_point_system, quadruple_point_system, random_projectivity,
                          sextic_33_fixed_tangent, sextic_degenerate_quadruple_system,
                          sextic_quadruple_system, two_33_sextic_pinned_system,
                          two_33_sextic_system)

X = MultiPoly.var(PLANE_VARS, "x")
Y = MultiPoly.var(PLANE_VARS, "y")
Z = MultiPoly.var(PLANE_VARS, "z")


def brute_force_nn_count(degree: int, n: int) -> int:
    """Independent oracle: count monomials x^a y^b z^c with a + 2b >= 2n."""
    count = 0
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            if a + 2 * b >= 2 * n:
                count += 1
    return count


def test_quadruple_point_octics():
    assert quadruple_point_system().dim_forms == 35


def test_nn_point_octics():
    system = nn_point_system()
    assert system.dim_forms == 33
    assert brute_force_nn_count(8, 3) == 33


def test_sextic_dimensions_quoted_in_the_dimension_table():
    assert sextic_quadruple_system().dim_forms == 18            # projective 17
    assert sextic_33_fixed_tangent().dim_forms == 16            # projective 15
    assert sextic_degenerate_quadruple_system().dim_forms == 16  # projective 15
    assert sextic_33_fixed_tangent(degenerate=True).dim_forms == 14
    assert two_33_sextic_pinned_system().dim_forms == 2         # projective 1
    assert two_33_sextic_system().dim_forms == 4


def test_no_conditions():
    assert condition_ideal_graded_piece([], 8).dim_forms == 45


def test_sextic_quadruple_projective_dimension_17():
    assert condition_ideal_graded_piece(
        [MultiplicityAtPoint((0, 0, 1), 4)], 6).dim_projective == 17


def test_multiplicity_dimension_formula():
    # independent conditions: C(d+2,2) - C(m+1,2) whenever d >= m
    for d in range(2, 11):
        for m in range(2, d + 1):
            system = condition_ideal_graded_piece([MultiplicityAtPoint((0, 0, 1), m)], d)
            assert system.dim_forms == comb(d + 2, 2) - comb(m + 1, 2), (d, m)


def test_basis_members_satisfy_conditions():
    conds = [NNPointWithTangent((1, 2, 1), line_through((1, 2, 1), (0, 1, 3)), 3)]
    system = condition_ideal_graded_piece(conds, 8)
    assert system.dim_forms == 33
    for b in system.basis:
        assert satisfies_conditions(b, conds)
    # independent re-evaluation: all jets of order < 3 vanish at the point
    p = normalize_point((1, 2, 1))
    for b in system.basis[:5]:
        for i in range(3):
            for j in range(3 - i):
                d = b.poly
                for _ in range(i):
                    d = d.derivative("x")
                for _ in range(j):
                    d = d.derivative("y")
                assert evaluate_at(d, p) == 0


def test_line_contact_restriction_vanishes_to_the_order():
    # independent oracle: restrict each basis form to the line as s -> p + s*q
    # and read the order of vanishing at s = 0; each order up to degree + 1
    # is one more independent condition
    rng = random.Random(11)
    s = MultiPoly.var(("s",), "s")
    for _ in range(12):
        p = normalize_point([rng.randint(-3, 3) for _ in range(2)] + [rng.randint(1, 3)])
        q = normalize_point([rng.randint(-3, 3) for _ in range(2)] + [rng.randint(-3, 0)])
        degree = rng.randint(2, 6)
        order = rng.randint(1, degree + 2)
        system = condition_ideal_graded_piece([LineContact(p, line_through(p, q), order)], degree)
        assert system.dim_forms == comb(degree + 2, 2) - min(order, degree + 1), (p, q, degree, order)
        for b in system.basis:
            restricted = b.poly.substitute({v: p[j] + q[j] * s for j, v in enumerate(PLANE_VARS)}, ("s",))
            assert all(restricted.coeff((k,)) == 0 for k in range(order)), (p, q, degree, order)


def test_transport_invariance_of_dimensions():
    rng = random.Random(2024)
    configs = [
        [MultiplicityAtPoint((0, 0, 1), 4)],
        [MultiplicityAtPoint((0, 0, 1), 3), MultiplicityAtPoint((1, 0, 0), 2)],
        [NNPointWithTangent((0, 0, 1), Y, 3)],
        [NNPointWithTangent((0, 0, 1), Y, 2), MultiplicityAtPoint((1, 1, 1), 2)],
        [ConeDirection((0, 0, 1), Y, 4, 2)],
    ]
    for conds in configs:
        base = condition_ideal_graded_piece(conds, 6).dim_forms
        for _ in range(10):
            A = random_projectivity(rng)
            moved = []
            for c in conds:
                p = transport_point(A, c.point)
                inv = invert3(A)
                if isinstance(c, MultiplicityAtPoint):
                    moved.append(MultiplicityAtPoint(p, c.m))
                else:
                    # a line moves by the inverse transpose
                    coeffs = [c.tangent.coeff(tuple(1 if k == j else 0 for k in range(3)))
                              for j in range(3)]
                    new = [sum(coeffs[i] * inv[i][j] for i in range(3)) for j in range(3)]
                    line = MultiPoly(PLANE_VARS, {tuple(1 if k == j else 0 for k in range(3)): new[j]
                                                  for j in range(3) if new[j]})
                    if isinstance(c, NNPointWithTangent):
                        moved.append(NNPointWithTangent(p, line, c.n, c.direction))
                    else:
                        moved.append(ConeDirection(p, line, c.m, c.k))
            assert condition_ideal_graded_piece(moved, 6).dim_forms == base


def _nonzero(rng, k):
    return rng.choice([i for i in range(-k, k + 1) if i])


def _non_axis_flag(rng):
    """A point with no zero coordinate on a line with no zero coefficient."""
    while True:
        p = normalize_point([_nonzero(rng, 3) for _ in range(3)])
        q = normalize_point([_nonzero(rng, 3) for _ in range(3)])
        if p == q:
            continue
        line = line_through(p, q)
        if len(line.terms) == 3:
            return p, line


def _golden_conditions(rng, degree):
    p, line = _non_axis_flag(rng)
    n = rng.randint(2, max(2, degree // 2 + 1))
    m = rng.randint(1, degree + 1)
    form = MultiPoly(PLANE_VARS, {e: Fraction(_nonzero(rng, 4))
                                  for e in monomial_basis(3, rng.randint(1, degree))})
    return [
        MultiplicityAtPoint(p, rng.randint(1, degree + 1)),
        NNPointWithTangent(p, line, n),
        NNPointWithTangent(p, line, n, Fraction(0)),
        NNPointWithTangent(p, line, n, Fraction(_nonzero(rng, 5), rng.randint(1, 4))),
        ConeDirection(p, line, m, rng.randint(1, m)),
        ContainsCurve(HomForm.of(form)),
        LineContact(p, line, rng.randint(1, degree + 2)),
        LineContact(p, line, rng.randint(1, 2 * degree + 2), Fraction(_nonzero(rng, 5), rng.randint(1, 3))),
        LineContact(p, line, rng.randint(degree + 2, 2 * degree + 3)),
    ]


def test_condition_rows_golden_output():
    # sha256 of the rows of every kind of condition at seeded non-axis flags,
    # degrees 1-9; no row is identically zero
    rng = random.Random(20240607)
    digest = hashlib.sha256()
    count = 0
    for degree in range(1, 10):
        for _ in range(2):
            for i, cond in enumerate(_golden_conditions(rng, degree)):
                for row in condition_rows([cond], degree):
                    assert any(row), (cond, degree)
                    digest.update(f"{degree}|{i}|{','.join(map(str, row))}\n".encode())
                    count += 1
    assert count == GOLDEN_ROW_COUNT
    assert digest.hexdigest() == GOLDEN_ROWS_SHA256


GOLDEN_ROW_COUNT = 1620
GOLDEN_ROWS_SHA256 = "616335470e3469a7335d0cbd86cd04659164d9320a5e503482a69d298d76e352"


def test_more_conditions_never_increase_dimension():
    rng = random.Random(7)
    base_conds = [MultiplicityAtPoint((0, 0, 1), 3)]
    base = condition_ideal_graded_piece(base_conds, 7).dim_forms
    for _ in range(8):
        p = (rng.randint(-3, 3), rng.randint(-3, 3), 1)
        extra = base_conds + [MultiplicityAtPoint(p, rng.randint(1, 3))]
        assert condition_ideal_graded_piece(extra, 7).dim_forms <= base


def test_divisibility_multiplicity():
    f = HomForm((Y ** 2 * (X ** 6 + Z ** 6)).primitive(), 8)
    assert f.poly.divisor_power(Y)[0] == 2
    assert HomForm(X ** 8, 8).poly.divisor_power(Y)[0] == 0


def test_inconsistent_anchor_raises():
    with pytest.raises(AnchorError):
        NNPointWithTangent((0, 0, 1), Z, 3)   # the line z misses (0:0:1)
    with pytest.raises(AnchorError):
        normalize_point((0, 0, 0))


def test_degree_cap():
    with pytest.raises(AnchorError):
        condition_ideal_graded_piece([], 13)


# -- graded pieces against an independent reduced echelon basis ----------------


def _sympy_echelon_basis(rows, degree):
    """Oracle: sympy's nullspace of the rows, then its reduced row echelon
    form, each row scaled to coprime integers with a positive coefficient at
    its grevlex-leading monomial (the smallest power of z, then of y)."""
    sp = pytest.importorskip("sympy")
    exps = monomial_basis(3, degree)
    if rows:
        kernel = sp.Matrix([[sp.Rational(c.numerator, c.denominator) for c in row]
                            for row in rows]).nullspace()
    else:
        kernel = [sp.eye(len(exps)).col(i) for i in range(len(exps))]
    if not kernel:
        return []
    red, _ = sp.Matrix.hstack(*kernel).T.rref()
    out = []
    for i in range(red.rows):
        row = [Fraction(int(c.p), int(c.q)) for c in red.row(i)]
        scale = Fraction(lcm(*(c.denominator for c in row)), gcd(*(c.numerator for c in row)))
        lead = min((j for j, c in enumerate(row) if c), key=lambda j: exps[j][::-1])
        out.append([c * scale if row[lead] > 0 else -c * scale for c in row])
    return out


def _differential_cases():
    rng = random.Random(20261019)
    cases = []
    for degree in range(1, 10):
        # every kind and variant of condition alone, and one pair
        conds = _golden_conditions(rng, degree)
        cases += [([c], degree) for c in conds]
        cases.append((rng.sample(conds, 2), degree))
    p, line = _non_axis_flag(rng)
    conic = HomForm.of(line * line_through(normalize_point((2, -1, 3)), p) + Z * Z)
    cases += [
        ([], 4),                                                      # no conditions
        ([MultiplicityAtPoint(p, 3)] * 2, 6),                         # a duplicated condition
        ([MultiplicityAtPoint(p, 6), NNPointWithTangent(p, line, 3)], 5),   # empty system
        ([ContainsCurve(conic), MultiplicityAtPoint((1, 1, 1), 2)], 5),     # a containment
    ]
    return cases


def test_graded_piece_is_the_reduced_echelon_basis_of_the_kernel():
    empty = 0
    for conds, degree in _differential_cases():
        system = condition_ideal_graded_piece(conds, degree)
        want = _sympy_echelon_basis(condition_rows(conds, degree), degree)
        exps = monomial_basis(3, degree)
        assert [[f.poly.coeff(e) for e in exps] for f in system.basis] == want, (conds, degree)
        empty += not want
    assert empty >= 1


def test_graded_piece_runs_one_elimination(monkeypatch):
    import octica.linalg as linalg
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda rows: calls.append(len(rows)) or rref(rows))
    p, line = _non_axis_flag(random.Random(5))
    system = condition_ideal_graded_piece([NNPointWithTangent(p, line, 3),
                                           MultiplicityAtPoint((1, 1, 1), 2)], 8)
    assert (system.dim_forms, calls) == (30, [15])
    calls.clear()
    assert condition_ideal_graded_piece([], 8).dim_forms == 45
    assert calls == []


def test_single_entry_rows_need_no_elimination(monkeypatch):
    # a row with one nonzero entry kills its column: a matrix of such rows,
    # and a graded piece whose conditions are all killed monomials, are
    # solved without `rref`
    import octica.linalg as linalg

    def refuse(rows):
        raise AssertionError("rref called")

    monkeypatch.setattr(linalg, "rref", refuse)
    one, zero = Fraction(1), Fraction(0)
    rows = [[zero, Fraction(3), zero, zero], [zero, zero, zero, Fraction(-1, 2)],
            [zero, Fraction(5), zero, zero]]
    assert linalg.kernel_basis(rows) == [[one, zero, zero, zero], [zero, zero, one, zero]]
    # two [3;3]-points with a common tangent line (`verify`'s check (d))
    system = condition_ideal_graded_piece([NNPointWithTangent((0, 0, 1), X, 3),
                                           NNPointWithTangent((0, 1, 0), X, 3)], 8)
    assert system.dim_forms == 24
    assert all(f.poly.divisor_power(X)[0] >= 2 for f in system.basis)


def test_conic_through_five_points():
    conic = conic_through(points=[(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1), (1, 2, 4)])
    for p in [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1), (1, 2, 4)]:
        assert conic.poly.evaluate({"x": Fraction(p[0]), "y": Fraction(p[1]),
                                    "z": Fraction(p[2])}) == 0


def test_conic_through_flags():
    conic = conic_through(points=[(1, 0, 0)], flags=[((0, 0, 1), X + Y), ((0, 1, 0), X + Z)])
    tangent = conic_gradient(conic, (0, 0, 1))
    # gradient parallel to the prescribed flag line
    assert tangent == (X + Y).primitive()


def test_conic_through_degenerate_data_raises():
    with pytest.raises(AnchorError):
        conic_through(points=[(0, 0, 1), (0, 1, 1), (0, 2, 1)],
                      flags=[((1, 0, 0), Y), ((1, 1, 1), (X - Z).primitive())])
