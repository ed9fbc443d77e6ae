"""Whole-curve profiles: location, classification, conductor checks."""
import pytest

from octica.curveprofile import curve_profile
from octica.linsys import HomForm, PLANE_VARS
from octica.poly import MultiPoly

X = MultiPoly.var(PLANE_VARS, "x")
Y = MultiPoly.var(PLANE_VARS, "y")
Z = MultiPoly.var(PLANE_VARS, "z")


def test_concurrent_lines_attain_the_milnor_bound():
    curve = HomForm((X * Y * (X + Y) * (X - 2 * Y)).primitive(), 4)
    prof = curve_profile(curve)
    assert prof.label_tuple == (0, 0, 0, 1, 0)
    assert prof.total_milnor_rational == 9
    assert prof.half_log_canonical
    assert [r.type_string() for r in prof.reports] == ["X9"]


def test_smooth_octic():
    prof = curve_profile(HomForm(X ** 8 + Y ** 8 + Z ** 8, 8))
    assert prof.label_tuple == (0, 0, 0, 0, 0)
    assert prof.half_log_canonical
    assert prof.reports == []


def test_three_conic_configuration_has_two_contact_points():
    three = ((Y * Z - X * X) * (Y * Z - 2 * X * X) * (Y * Z - 3 * X * X)).primitive()
    prof = curve_profile(HomForm(three, 6))
    assert prof.label_tuple == (0, 2, 0, 0, 0)
    assert sorted(r.type_string() for r in prof.reports) == ["J10", "J10"]
    assert prof.total_milnor_rational == 20


def test_points_found_without_hints():
    three = ((Y * Z - X * X) * (Y * Z - 2 * X * X) * (Y * Z - 3 * X * X)).primitive()
    prof = curve_profile(HomForm(three, 6), hint_points=[])
    assert sorted(r.type_string() for r in prof.reports) == ["J10", "J10"]


def test_doubled_component_bookkeeping():
    octic = HomForm(((X ** 6 + Y ** 6 + Z ** 6) * (X + Y + Z) ** 2).primitive(), 8)
    prof = curve_profile(octic)
    assert prof.nonnormal_degree == 1
    assert prof.label_tuple == (1, 0, 0, 0, 0)
    assert prof.half_log_canonical


def test_double_quartic():
    prof = curve_profile(HomForm(((X ** 4 + Y ** 4 + Z ** 4) ** 2).primitive(), 8))
    assert prof.label_tuple == (4, 0, 0, 0, 0)
    assert prof.half_log_canonical


def test_triple_component_rejected():
    prof = curve_profile(HomForm((X ** 3 * (Y ** 5 + Z ** 5)).primitive(), 8))
    assert not prof.half_log_canonical
    assert prof.issues


def test_conductor_tangency_rejected():
    # the doubled line is inflectionally tangent to the reduced part: contact 3
    reduced = (Y * Z ** 2 - X ** 3 + Y ** 3).primitive()
    lines = (X + 5 * Y + 7 * Z) * (X - 3 * Y + 2 * Z) * (X + Y - Z)
    curve = HomForm((reduced * Y * Y * lines).primitive(), 8)
    prof = curve_profile(curve)
    assert not prof.half_log_canonical


def _conic_contact_octic(x, y, z):
    # the reduced conic x*y + z^2 meets the doubled conic x*y + z^2 + y*z
    # with contact 3 at (1:0:0), where Res_x of the two projects from
    return ((x * y + z ** 2) * (x ** 2 + 2 * y ** 2 + 3 * z ** 2 + x * z + y * z)
            * (x * y + z ** 2 + y * z) ** 2).primitive()


@pytest.mark.parametrize("coords", [(X, Y, Z), (Z, Y, X)], ids=["centre-on-both", "swapped"])
def test_conductor_conic_contact_rejected(coords):
    prof = curve_profile(HomForm(_conic_contact_octic(*coords), 8))
    assert not prof.half_log_canonical
    assert "could not certify contact <= 2 between reduced and doubled parts" in prof.issues


def test_quadruple_line_cone_rejected():
    prof = curve_profile(HomForm((X ** 5 * Z ** 3 + Y ** 8).primitive(), 8),
                         hint_points=[(0, 0, 1)])
    assert not prof.half_log_canonical
