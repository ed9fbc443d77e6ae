"""Workload `catalogue`: build and validate witness octics of the stratum
catalogue, with the catalogue, its totals, the degeneration diagram and the
degree-bound and Milnor-bound verification suites in every request.

The expected label of a witness is read from its key alone: `N_` or `M_<n>_`
gives the degree n of the doubled part, and the body counts the J10 ("1"),
J2,p ("1b"), X9 ("2") and X_p / Y_r,s ("2b") points.  The checker does not
trust the witness's own profile: it confirms that reduced part times doubled
part squared is the octic, and classifies every reported point again from
the octic's local expansion (`point_class`) before it counts the points.  A
point the profile misses altogether is not looked for.  The catalogue has 47
inhabited strata with 78 components, and the simply elliptic diagram 18
nodes.
"""
from __future__ import annotations

import re
from fractions import Fraction

import algebra as A
from octica import strata, verify, witnesses

# The witnesses that build in under 2 s on a 2-core x86 machine, so that a
# round of all of them fits a run.  The other 46 keys take 2 to 65 s each,
# 8 s on average.
QUICK_KEYS = ("N_empty", "N_12_pp", "N_112_ppp", "N_1b1b", "M_4_empty", "M_3_empty",
              "M_2_empty", "M_2_2", "M_1_empty", "M_1_11", "M_1_2", "M_1_2b")
STRATA, COMPONENTS, DIAGRAM_NODES = 47, 78, 18

KEY = re.compile(r"^(?:N|M_(\d))_(empty|(?:[12]b?)+)(?:_p+)?$")


def expected_label(key: str) -> tuple[int, int, int, int, int]:
    match = KEY.match(key)
    if not match:
        raise ValueError(f"unreadable witness key {key!r}")
    n = int(match.group(1) or 0)
    body = re.findall(r"[12]b?", match.group(2)) if match.group(2) != "empty" else []
    return (n, body.count("1"), body.count("1b"), body.count("2"), body.count("2b"))


def _requests(keys, rng, seen: set) -> list[dict]:
    out = []
    for key in keys:
        while True:
            seed = rng.randint(1, 10 ** 6)
            if (key, seed) not in seen:
                break
        seen.add((key, seed))
        out.append({"kind": key, "input": {"key": key, "seed": seed},
                    "expected": {"label": expected_label(key)}})
    return out


def round_requests(rng, seen: set) -> list[dict]:
    requests = _requests(QUICK_KEYS, rng, seen)
    rng.shuffle(requests)
    return requests


def warmup_request(rng, seen: set) -> dict:
    return _requests(["M_2_2"], rng, seen)[0]


def execute(request: dict):
    key, seed = request["input"]["key"], request["input"]["seed"]
    witness = witnesses.build_witness(key, seed=seed)
    records = strata.build_catalogue()
    totals = strata.catalogue_totals(records)
    graph = strata.degeneration_graph()
    suites = [verify.check_degree_bounds(seed=seed), verify.check_milnor_lemma(seed=seed)]
    return witness, totals, graph, suites


def point_class(f: dict, doubled: dict, p) -> str | None:
    """Which label counter the point p of the curve f feeds, from f alone:
    "a" for J10 and "b" for J2,p (a triple point with cone l^3 whose part
    of weight 6, for weight 1 across l and 2 along it, has three or two
    distinct roots), "c" for X9 (four distinct tangents) and "d" for X_p, Y_r,s
    (a quadruple point with a double tangent), "bad" for a point that is not
    half-log-canonical, None for any other point; points of the doubled part
    are non-isolated and count nowhere."""
    if A.evaluate(f, p):
        return "bad"
    if not A.evaluate(doubled, p):
        return None
    # an affine chart at p: r and q complete p to a basis
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    r, q = next((a, b) for a in basis for b in basis if A.det3([p, a, b]))
    g = A.local_expansion(f, p, r, q)
    m = min(i + j for i, j in g)
    cone = [g.get((m - j, j), 0) for j in range(m + 1)]
    worst = A.max_root_multiplicity(cone)
    if m == 4:
        return {1: "c", 2: "d"}.get(worst, "bad")
    if m != 3 or worst != 3:
        return "bad" if m > 4 else None
    if cone[0]:
        # cone c*(s + b*t)^3: put its line at t = 0
        r, q = tuple(Fraction(cone[1], 3 * cone[0]) * a - b for a, b in zip(r, q)), r
        g = A.local_expansion(f, p, r, q)
    if min(i + 2 * j for i, j in g) < 6:
        return None                                   # E6, E7 or E8
    weighted = [g.get((6 - 2 * j, j), 0) for j in range(4)]
    return {1: "a", 2: "b"}.get(A.max_root_multiplicity(weighted), "bad")


def check(request: dict, result) -> str | None:
    witness, totals, graph, suites = result
    want = request["expected"]["label"]
    profile = witness.profile
    if not profile.half_log_canonical:
        return f"{request['input']}: witness profile is not admissible"
    f = {e: Fraction(c) for e, c in witness.curve.poly.terms.items()}
    if not f or any(sum(e) != 8 for e in f):
        return f"{request['input']}: witness is not an octic"
    reduced = {e: Fraction(c) for e, c in profile.reduced_part.terms.items()}
    doubled = {e: Fraction(c) for e, c in profile.doubled_part.terms.items()}
    if not A.proportional(f, A.mul(reduced, A.mul(doubled, doubled))):
        return f"{request['input']}: reduced part times doubled part squared is not the octic"
    points = [A.normalize(rep.point) for rep in profile.reports]
    if len(set(points)) != len(points):
        return f"{request['input']}: a point is reported twice"
    classes = [point_class(f, doubled, p) for p in points]
    if "bad" in classes:
        return f"{request['input']}: an inadmissible point among {points}"
    got = (max(A.degree(doubled), 0),) + tuple(classes.count(c) for c in "abcd")
    if got != want:
        return f"{request['input']}: witness has label {got}, want {want}"
    if (totals["strata"], totals["components"]) != (STRATA, COMPONENTS):
        return f"catalogue totals {totals['strata']} / {totals['components']}"
    if len(graph.nodes) != DIAGRAM_NODES:
        return f"diagram has {len(graph.nodes)} nodes"
    for suite in suites:
        if not suite.all_passed:
            return f"suite {suite.lemma_id} failed: {suite.counterexample}"
    return None
