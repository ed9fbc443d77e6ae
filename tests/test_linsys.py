"""Constrained linear systems of plane curves."""
import random
from math import comb

import pytest

from octica.linsys import (AnchorError, ConeDirection, HomForm, LineContact, MultiplicityAtPoint,
                           NNPointWithTangent, PLANE_VARS,
                           condition_ideal_graded_piece,
                           divisibility_multiplicity, invert3, line_through,
                           normalize_point, quadruple_point_system, nn_point_system,
                           random_projectivity, satisfies_conditions,
                           sextic_33_fixed_tangent, sextic_degenerate_quadruple_system,
                           sextic_quadruple_system, transport_point,
                           two_33_sextic_pinned_system, two_33_sextic_system)
from octica.poly import MultiPoly

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
                assert d.evaluate({"x": p[0], "y": p[1], "z": p[2]}) == 0


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
                        moved.append(NNPointWithTangent(p, line, c.n, c.degenerate))
                    else:
                        moved.append(ConeDirection(p, line, c.m, c.k))
            assert condition_ideal_graded_piece(moved, 6).dim_forms == base


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
    assert divisibility_multiplicity(f, Y) == 2
    assert divisibility_multiplicity(HomForm(X ** 8, 8), Y) == 0


def test_inconsistent_anchor_raises():
    with pytest.raises(AnchorError):
        NNPointWithTangent((0, 0, 1), Z, 3)   # the line z misses (0:0:1)
    with pytest.raises(AnchorError):
        normalize_point((0, 0, 0))


def test_degree_cap():
    with pytest.raises(AnchorError):
        condition_ideal_graded_piece([], 13)
