"""Lemma-check suites and local intersection numbers."""
import pytest

from octica.linsys import HomForm, PLANE_VARS
from octica.poly import MultiPoly
from octica.verify import check_degree_bounds, check_milnor_lemma, check_nonexistence_suite

from local_checks import bezout_check, intersection_multiplicity

X = MultiPoly.var(PLANE_VARS, "x")
Y = MultiPoly.var(PLANE_VARS, "y")
Z = MultiPoly.var(PLANE_VARS, "z")


def test_intersection_multiplicity_examples():
    line = HomForm(Y, 1)
    conic = HomForm((Y * Z - X * X).primitive(), 2)
    assert intersection_multiplicity(line, conic, (0, 0, 1)) == 2  # tangency
    other = HomForm((X - Y).primitive(), 1)
    assert intersection_multiplicity(line, other, (0, 0, 1)) == 1  # transversal
    # a [3;3]-point meets its distinguished tangent line with multiplicity 6
    three = HomForm(((Y * Z - X * X) * (Y * Z - 2 * X * X) * (Y * Z - 3 * X * X)).primitive(), 6)
    assert intersection_multiplicity(three, line, (0, 0, 1)) == 6


def test_bezout_bound():
    line = HomForm(Y, 1)
    three = HomForm(((Y * Z - X * X) * (Y * Z - 2 * X * X) * (Y * Z - 3 * X * X)).primitive(), 6)
    assert bezout_check(three, line, [(0, 0, 1)])
    conic = HomForm((Y * Z - X * X).primitive(), 2)
    assert bezout_check(conic, line, [(0, 0, 1)])


def test_component_sharing_is_detected():
    a = HomForm(((Y * Z - X * X) * Y).primitive(), 3)
    b = HomForm(((Y * Z - X * X) * Z).primitive(), 3)
    with pytest.raises(ValueError):
        intersection_multiplicity(a, b, (0, 0, 1))


# the full output of the two suites that every catalogue request runs; the
# Milnor suite checks its last two instances on the profiles of its first loop
DEGREE_BOUNDS_JSON = {
    "lemma": "degree-bounds", "instances": 11, "passed": True, "counterexample": None,
    "details": [
        "3 concurrent lines: milnor 4 attained",
        "4 concurrent lines: milnor 9 attained",
        "multiplicity n needs degree >= n",
        "degree 3 with an [2;2]-point contains its tangent line",
        "degree 5 with an [3;3]-point contains its tangent line",
        "degree 7 with an [4;4]-point contains its tangent line",
        "septic with [3;3]-point and quadruple point on its tangent: all members non-reduced",
        "two [3;3]-points with a common tangent line force a doubled line",
        "three collinear [3;3]-points force a doubled line",
    ],
}
MILNOR_JSON = {
    "lemma": "milnor-bound", "instances": 5, "passed": True, "counterexample": None,
    "details": [
        "four concurrent lines: milnor 9 <= 9",
        "smooth octic: milnor 0 <= 49",
        "three tangent conics: milnor 20 <= 25",
        "three tangent conics: normalisation euler characteristic 6 matches",
    ],
}


def test_catalogue_suites_golden_output():
    assert check_degree_bounds().to_json() == DEGREE_BOUNDS_JSON
    assert check_milnor_lemma().to_json() == MILNOR_JSON


def test_kept_suite_results_share_their_messages():
    # every catalogue request runs both suites; kept results hold one copy
    # of each message between them
    for check in (check_degree_bounds, check_milnor_lemma):
        first, second = check(), check()
        assert first.details == second.details and len(first.details) >= 4
        assert all(a is b for a, b in zip(first.details, second.details))


def test_degree_bounds_divide_by_the_bounded_power(monkeypatch):
    # (b), (c), (d) and (d') only ask whether l or l^2 divides every basis
    # form, so the full power of the line is never sought
    def forbidden(*args):
        raise AssertionError("divisor_power was called")

    monkeypatch.setattr(MultiPoly, "divisor_power", forbidden)
    assert check_degree_bounds().to_json() == DEGREE_BOUNDS_JSON


def test_degree_bounds_suite():
    result = check_degree_bounds()
    assert result.all_passed, result.counterexample
    assert result.instances_checked >= 10


def test_milnor_suite():
    result = check_milnor_lemma()
    assert result.all_passed, result.counterexample


def test_nonexistence_suite():
    result = check_nonexistence_suite()
    assert result.all_passed, result.counterexample
    assert result.instances_checked >= 20
