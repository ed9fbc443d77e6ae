"""Whole-curve profiles: location, classification, conductor checks."""
from fractions import Fraction

import pytest

from octica import pointsearch, singclass
from octica.curveprofile import _second_partials, curve_profile
from octica.linsys import HomForm, PLANE_VARS, apply_transport, evaluate_at, transport_point
from octica.pointsearch import FRAMES, _direction_gcd, _points_on_direction, common_rational_zeros
from octica.poly import MultiPoly, binary_roots, poly_gcd, squarefree_part
from octica.singclass import classify_point
from octica.witnesses import build_witness

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
    prof = curve_profile(HomForm((X ** 5 * Z ** 3 + Y ** 8).primitive(), 8))
    assert not prof.half_log_canonical


# The (0,2,0,2,0) octic of the README's open question on N_1122: a member of the
# linear system with [3;3]-points at (0:0:1) and (0:1:0), tangents y and z,
# and quadruple points at (1:0:0) and (1:2:3), whose basis members are each
# non-reduced.  The stratum table calls N_1122 empty; this profile is the
# oracle for whichever of the two turns out wrong.
N_1122_OCTIC = Y * Z * (81 * X ** 4 * Y ** 2 + 36 * X ** 4 * Y * Z + 16 * X ** 4 * Z ** 2
                        - 144 * X ** 3 * Y ** 2 * Z - 56 * X ** 3 * Y * Z ** 2 + 9 * X ** 2 * Y ** 3 * Z
                        + 102 * X ** 2 * Y ** 2 * Z ** 2 + 4 * X ** 2 * Y * Z ** 3
                        - 14 * X * Y ** 3 * Z ** 2 - 16 * X * Y ** 2 * Z ** 3
                        + Y ** 4 * Z ** 2 + Y ** 3 * Z ** 3 + Y ** 2 * Z ** 4)


def _points_and_tangents(prof):
    return {tuple(str(c) for c in r.point): (r.type_string(), str(r.distinguished_tangent))
            for r in prof.reports}


@pytest.mark.parametrize("matrix, want", [
    (None, {("0", "0", "1"): ("J10", "y"), ("0", "1", "0"): ("J10", "z"),
            ("1", "0", "0"): ("X9", "None"), ("1", "2", "3"): ("X9", "None")}),
    # a transport that is not a permutation moves the points and tangents
    (((1, 2, -1), (0, 1, 3), (2, -1, 1)),
     {("7", "-3", "1"): ("J10", "y + 3*z"), ("1", "-3", "-5"): ("J10", "2*x - y + z"),
      ("2", "3", "-1"): ("X9", "None"), ("23", "3", "11"): ("X9", "None")}),
], ids=["standard", "moved"])
def test_two_33_and_two_quadruple_points_profile_as_admissible(matrix, want):
    f = N_1122_OCTIC if matrix is None else apply_transport(N_1122_OCTIC, matrix)
    prof = curve_profile(HomForm(f, 8))
    assert prof.counts == {"a": 2, "b": 0, "c": 2, "d": 0}
    assert prof.half_log_canonical and prof.mult3_certified
    assert prof.issues == []
    assert _points_and_tangents(prof) == want


def frame_zeros(polys, A):
    """One frame of the search on its own: the common zeros it records (its
    vertex and the points on its rational directions, in the curve's
    coordinates) and whether every direction is rational and clean."""
    moved = [apply_transport(p, A) for p in polys]
    pts, certified = [transport_point(A, (1, 0, 0))], False
    g = _direction_gcd(moved)
    if g is not None:
        dirs, cofactor = binary_roots(squarefree_part(g.rename(("y", "z"))))
        certified = cofactor.is_constant()
        for dy, dz in dirs:
            on_line, clean = _points_on_direction(moved, dy, dz)
            pts += [transport_point(A, p) for p in on_line]
            certified = certified and clean
    return [p for p in pts if all(evaluate_at(f, p) == 0 for f in polys)], certified


def frame_by_frame_zeros(polys):
    """The point search frame by frame, each frame transported and solved
    afresh: all three frames in the curve's coordinates with no early stop,
    then the projectivities' frames up to the first certificate.  The
    reference for a search that stops at its first certificate."""
    found, certified = [], False
    for k, A in enumerate(FRAMES):
        if certified and k >= 3:
            break
        pts, ok = frame_zeros(polys, A)
        for p in pts:
            if p not in found:
                found.append(p)
        certified = certified or ok
    return found, certified


SEARCH_CURVES = {
    "readme-octic": lambda: N_1122_OCTIC,
    "three-conics": lambda: ((Y * Z - X * X) * (Y * Z - 2 * X * X) * (Y * Z - 3 * X * X)).primitive(),
    # all certified in the first frame but M_2_2, which runs all twelve
    "N_12_pp": lambda: build_witness("N_12_pp").curve.poly,
    "N_112_ppp": lambda: build_witness("N_112_ppp").curve.poly,
    "M_2_2": lambda: build_witness("M_2_2").curve.poly,
}


@pytest.mark.parametrize("name", SEARCH_CURVES)
def test_point_search_matches_all_axes(name):
    system = _second_partials(SEARCH_CURVES[name]())
    assert common_rational_zeros(system) == frame_by_frame_zeros(system)


def _counted(monkeypatch, name):
    calls = []
    function = getattr(pointsearch, name)
    monkeypatch.setattr(pointsearch, name, lambda *args: calls.append(args) or function(*args))
    return calls


def test_point_search_stops_at_its_first_certificate(monkeypatch):
    # the README octic certifies in its own coordinates: nothing is transported
    transported = _counted(monkeypatch, "apply_transport")
    found, certified = common_rational_zeros(_second_partials(N_1122_OCTIC))
    assert certified and len(found) == 4
    assert transported == []


def test_rational_directions_without_common_zeros_certify(monkeypatch):
    # N_12_pp's resultant gcd has the direction (1 : 0), whose line holds no
    # common zero but the vertex; a clean line lets the first frame certify
    system = _second_partials(build_witness("N_12_pp").curve.poly)
    frames = _counted(monkeypatch, "_direction_gcd")
    found, certified = common_rational_zeros(system)
    assert certified and len(found) == 2
    assert len(frames) == 1


def _counting(monkeypatch, owner, name):
    calls = []
    function = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _points_on_direction_by_substitution(polys, dy, dz):
    """The line solved through `substitute`: y and z sent to dy*t and dz*t."""
    tname = "y" if dz != 0 else "z"
    t = MultiPoly.var(PLANE_VARS, tname)
    sub = {"y": MultiPoly.const(PLANE_VARS, dy) * t, "z": MultiPoly.const(PLANE_VARS, dz) * t}
    g = None
    for q in polys:
        r = q.substitute(sub)
        if not r.is_zero():
            g = r if g is None else poly_gcd(g, r)
    if g is None:
        return [], False
    roots, leftover = binary_roots(squarefree_part(g.rename(("x", tname))))
    return [(tx, dy * tt, dz * tt) for (tx, tt) in roots], leftover.is_constant()


DIRECTIONS = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(2), Fraction(1)),
              (Fraction(-3, 4), Fraction(1)), (Fraction(5, 3), Fraction(1))]


@pytest.mark.parametrize("name", ["readme-octic", "three-conics", "M_2_2"])
def test_points_on_a_direction_scale_terms_without_substitution(monkeypatch, name):
    # each form is restricted to the line by scaling its terms, with the
    # same points and flags as the substitution y, z -> (dy, dz) * t; the
    # directions are the search's own in the curve's and a moved frame, and
    # fixed ones with denominators
    system = _second_partials(SEARCH_CURVES[name]())
    cases = []
    for A in (FRAMES[0], FRAMES[4]):
        moved = [apply_transport(p, A) for p in system]
        g = _direction_gcd(moved)
        dirs = binary_roots(squarefree_part(g.rename(("y", "z"))))[0] if g is not None else []
        cases += [(moved, d) for d in dirs + DIRECTIONS]
    want = [_points_on_direction_by_substitution(moved, *d) for moved, d in cases]
    substitutions = _counting(monkeypatch, MultiPoly, "substitute")
    assert [_points_on_direction(moved, *d) for moved, d in cases] == want
    assert substitutions == []
    assert any(pts for pts, _ in want)


@pytest.mark.parametrize("name", ["readme-octic", "three-conics", "N_12_pp", "M_2_2"])
def test_point_search_evaluates_no_form(monkeypatch, name):
    # a vertex is read off the moved forms' coefficients, and a root of the
    # gcd of the restricted forms is a common zero by construction
    system = _second_partials(SEARCH_CURVES[name]())
    want = frame_by_frame_zeros(system)
    evaluations = _counting(monkeypatch, MultiPoly, "evaluate")
    assert common_rational_zeros(system) == want
    assert evaluations == []


def test_second_partials_from_the_first_partials(monkeypatch):
    f = N_1122_OCTIC + X ** 7 * Z - 3 * Y ** 8
    want = [f.derivative(a).derivative(b) for i, a in enumerate(PLANE_VARS) for b in PLANE_VARS[i:]]
    derivatives = _counting(monkeypatch, MultiPoly, "derivative")
    assert _second_partials(f) == want
    assert len(derivatives) == 9
    # a zero second partial is dropped
    assert len(_second_partials(X ** 3 + Y ** 3 + Z ** 3)) == 3


def test_classify_point_substitutes_once_per_point(monkeypatch):
    # the chart is one substitution; only the strict transform at a J10
    # point's tangent direction adds one more
    curve = HomForm(N_1122_OCTIC, 8)
    substitutions = _counting(monkeypatch, MultiPoly, "substitute")
    strict = _counting(monkeypatch, singclass, "strict_germ_at_direction")
    seen = {}
    for point in ((1, 0, 0), (1, 2, 3), (0, 0, 1), (0, 1, 0)):
        substitutions.clear()
        strict.clear()
        rep = classify_point(curve, point)
        seen[rep.type_string()] = seen.get(rep.type_string(), []) + [(len(substitutions), len(strict))]
    assert seen == {"X9": [(1, 0), (1, 0)], "J10": [(2, 1), (2, 1)]}
