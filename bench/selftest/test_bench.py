"""Self-tests of the benchmark: input generators, ground-truth checkers and
the span arithmetic.  Run from the root of a checkout:

    python3 -m pytest -q bench/selftest
"""
from __future__ import annotations

import copy
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import algebra as A  # noqa: E402
import catalogue  # noqa: E402
import curves  # noqa: E402
import germs  # noqa: E402
import systems  # noqa: E402
from run import rng_for  # noqa: E402
from spans import SpanRecorder, aggregate, self_times  # noqa: E402

WORKLOADS = {"germs": germs, "curves": curves, "systems": systems, "catalogue": catalogue}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_and_never_repeats(name):
    module = WORKLOADS[name]

    def rounds(seed):
        seen = set()
        return [module.round_requests(rng_for(name, seed, "run", r), seen) for r in range(3)]

    first = json.dumps(rounds(11), default=str, sort_keys=True)
    assert first == json.dumps(rounds(11), default=str, sort_keys=True)
    assert first != json.dumps(rounds(12), default=str, sort_keys=True)
    inputs = [json.dumps(req["input"], sort_keys=True) for rnd in rounds(11) for req in rnd]
    assert len(set(inputs)) == len(inputs)


def test_germ_checker_rejects_milnor_off_by_one():
    request = next(r for r in germs.round_requests(rng_for("germs", 3, "run", 0), set())
                   if r["expected"]["type"] == "A3")
    report = germs.execute(request)
    assert germs.check(request, report) is None
    report.milnor += 1
    assert germs.check(request, report) is not None


def test_curve_checker_rejects_wrong_counts():
    request = curves.warmup_request(rng_for("curves", 3, "warmup", 0), set())
    profile = curves.execute(request)
    assert curves.check(request, profile) is None
    wrong = copy.deepcopy(profile)
    wrong.total_milnor_rational += 1
    assert curves.check(request, wrong) is not None
    wrong = copy.deepcopy(profile)
    wrong.reports = wrong.reports[1:]
    assert curves.check(request, wrong) is not None


def test_curve_generator_ground_truth_matches_construction():
    # three concurrent lines and a conic through their point: one X9 point
    request = curves.warmup_request(rng_for("curves", 5, "warmup", 0), set())
    assert request["expected"]["types"] == ["X9"]
    assert request["expected"]["milnor"] == 9
    (point,) = request["expected"]["points"]
    f = {e: Fraction(c) for e, c in _terms(request["input"]).items()}
    third = [A.derivative(A.derivative(A.derivative(f, i), j), k)
             for i in range(3) for j in range(3) for k in range(3)]
    assert all(A.evaluate(g, point) == 0 for g in third)   # multiplicity 4


def _terms(text):
    from octica.parsing import parse_poly

    return parse_poly(text).terms


def test_systems_checker_rejects_wrong_dimension_and_wrong_form():
    request = systems.warmup_request(rng_for("systems", 3, "warmup", 0), set())
    conditions, system = systems.execute(request)
    assert systems.check(request, (conditions, system)) is None
    short = copy.deepcopy(system)
    short.basis = short.basis[1:]
    assert systems.check(request, (conditions, short)) is not None
    # the quadruple point moves: the independent derivative check catches it
    moved = copy.deepcopy(request)
    point = moved["expected"]["checks"][0][1]
    moved["expected"]["checks"][0] = ("order", (point[0] + 1, point[1], point[2]), 4)
    assert systems._form_failure({e: Fraction(c) for e, c in system.basis[0].poly.terms.items()},
                                 moved["expected"]["checks"]) is not None


@pytest.mark.parametrize("template", ["nn_point", "cone_direction"])
def test_systems_checker_rejects_a_system_for_another_tangent(template):
    # a graded piece for the wrong tangent has the right dimension and passes
    # the round trip through satisfies_conditions; the local expansion does not
    (spec,) = [t for t in systems.TEMPLATES if t[0] == template]
    request = systems._graded_request(spec, rng_for("systems", 3, "run", 0))
    assert systems.check(request, systems.execute(request)) is None
    wrong = copy.deepcopy(request)
    cond = wrong["input"]["conditions"][0]
    p = tuple(int(c) for c in cond["point"])
    other = next(A.to_text(A.linear(A.normalize(A.cross(p, e))), systems.NAMES)
                 for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
                 if A.to_text(A.linear(A.normalize(A.cross(p, e))), systems.NAMES) != cond["tangent"])
    cond["tangent"] = other
    conditions, system = systems.execute(wrong)
    assert system.dim_forms == request["expected"]["dim"]
    assert systems.linsys.satisfies_conditions(system.basis[0], conditions)
    reason = systems.check(request, (conditions, system))
    assert reason is not None and "has no" in reason


def _witness_result(key):
    from octica.witnesses import build_witness

    request = {"kind": key, "input": {"key": key, "seed": 7},
               "expected": {"label": catalogue.expected_label(key)}}
    witness = build_witness(key, seed=7)
    totals = {"strata": catalogue.STRATA, "components": catalogue.COMPONENTS}
    graph = SimpleNamespace(nodes=[None] * catalogue.DIAGRAM_NODES)
    return request, (witness, totals, graph, [])


def test_catalogue_checker_rejects_a_profile_that_mislabels_a_point():
    # N_12_pp has a J10 and an X9 point; a profile that calls the J10 point
    # J2,p, with counts and expected label to match, must still be caught
    request, result = _witness_result("N_12_pp")
    assert catalogue.check(request, result) is None
    witness = result[0]
    j10 = next(r for r in witness.profile.reports if r.kind == "J10")
    j10.kind, j10.params = "J2", (1,)
    witness.profile.counts["a"] -= 1
    witness.profile.counts["b"] += 1
    request["expected"]["label"] = witness.profile.label_tuple
    reason = catalogue.check(request, result)
    assert reason is not None and "witness has label (0, 1, 0, 1, 0)" in reason


def test_catalogue_checker_rejects_a_tampered_witness():
    request, result = _witness_result("N_12_pp")
    witness = result[0]
    moved = copy.deepcopy(witness)
    moved.profile.reports[0].point = (Fraction(1), Fraction(2), Fraction(3))   # off the curve
    assert catalogue.check(request, (moved,) + result[1:]) is not None
    other = copy.deepcopy(witness)
    other.curve.poly.terms[(8, 0, 0)] = other.curve.poly.terms.get((8, 0, 0), 0) + 1
    assert catalogue.check(request, (other,) + result[1:]) is not None
    dropped = copy.deepcopy(witness)
    dropped.profile.reports = dropped.profile.reports[1:]
    assert catalogue.check(request, (dropped,) + result[1:]) is not None


def test_witness_labels_read_from_keys_match_the_registry():
    from octica.witnesses import WITNESS_BUILDERS

    for key, (label, _) in WITNESS_BUILDERS.items():
        assert catalogue.expected_label(key) == label.match_tuple(), key


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # d [8, 9.5] overlaps b and is also a child of the root
    starts = [0.0, 1.0, 2.0, 5.0, 8.0]
    ends = [10.0, 4.0, 3.0, 9.0, 9.5]
    parents = [-1, 0, 1, 0, 0]
    assert self_times(starts, ends, parents) == pytest.approx([2.5, 2.0, 1.0, 4.0, 1.5])


def test_recorder_sees_calls_through_from_imports_and_uninstalls():
    import octica.linalg
    import octica.linsys

    original = octica.linsys.kernel_basis
    recorder = SpanRecorder()
    recorder.install([octica.linalg, octica.linsys])
    try:
        octica.linsys.condition_ideal_graded_piece([], 2)
    finally:
        recorder.uninstall()
    assert octica.linsys.kernel_basis is original
    spans = recorder.spans()
    names = [s[0] for s in spans]
    assert names[0] == "linsys.condition_ideal_graded_piece"
    kernel = names.index("linalg.kernel_basis")   # bound by `from .linalg import`
    assert spans[kernel][3] == 0
    agg = aggregate(recorder)
    assert agg["linsys.condition_ideal_graded_piece"]["calls"] == 1
    assert agg["poly.mul"]["calls"] >= 1


def test_recorder_counts_products_in_either_operand_order():
    import octica.poly
    from octica.poly import MultiPoly

    f = MultiPoly.var(("x", "y", "z"), "x")
    recorder = SpanRecorder()
    recorder.install([octica.poly])
    try:
        f * 3, 3 * f, f * f
    finally:
        recorder.uninstall()
    assert MultiPoly.__rmul__ is MultiPoly.__mul__
    assert aggregate(recorder)["poly.mul"]["calls"] == 3


def test_algebra_text_round_trips_through_the_parser():
    f = A.product([A.linear((1, -2, 3)), A.linear((0, 5, -1)),
                   {(2, 0, 0): Fraction(1, 2), (0, 1, 1): Fraction(-3)}], 3)
    assert {e: Fraction(c) for e, c in _terms(A.to_text(f, ("x", "y", "z"))).items()} == f


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "germs",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
