"""Benchmark for octica.

    python3 bench/run.py --workload systems --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  One process, one client, closed loop: the
next request is sent when the previous one has returned.  Requests come in
rounds of fixed composition generated from the seed, and no input repeats
within a run; rounds run until the summed request time reaches --seconds,
and the round in progress finishes.  Every result is then checked against
ground truth that the benchmark derives itself (see `algebra.py`); a request
that raises or disagrees fails.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics: setup_s (imports plus the median of three set-ups, each
generating the first round and answering one warm-up request), ops_per_s
(correct requests per second of request time), latency_p50_s and
latency_p70_s (the highest percentile with ten requests beyond it in every
run) and peak_rss_mb.  The line before it gives failed_frac.

With --trace 1 the benchmark runs one round untraced and then one round with
a span around every call into the layer modules (`spans.py`), and reports
the per-layer metrics instead; the spans are written to `.bench_out/`.
Counts repeat exactly for a seed.  trace.overhead_frac compares the two
rounds' throughput; process.cpu_s and process.wall_s are those of the
untraced round, so machine noise (wall rising without cpu) can be told apart
from a change in the program.

Which layer metric should move which end-to-end metric, and where:
  poly.*                          p50, ops_per_s     catalogue, germs, curves; little in systems
  linalg.rref, linsys.*           p50, p70           systems (graded pieces); catalogue; idle in germs, curves
  linalg.bareiss, paramfam.*      ops_per_s          systems (the parametric request, a tenth of requests)
  pointsearch.*, curveprofile.*   p50, p70           curves, catalogue; idle in germs, systems
  singclass.*                     ops_per_s          germs; part of curves, catalogue
  witnesses.*                     ops_per_s          catalogue
  parsing, strata, verify         none (controls)    all

Workloads germs and curves run the same way.
"""
from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent

WORKLOADS = ("germs", "curves", "systems", "catalogue")   # each a module of this directory
LAYER_MODULES = ("poly", "linalg", "linsys", "paramfam", "pointsearch", "singclass",
                 "curveprofile", "parsing", "witnesses", "strata", "verify")
SETUP_REPEATS = 3
TRACED_ROUNDS = 1

# layer metric group -> span names (module.function) whose calls it sums
SPAN_GROUPS = {
    "poly.mul": ("poly.mul",),
    "poly.gcd": ("poly.poly_gcd",),
    "poly.resultant": ("poly.resultant",),
    "poly.squarefree": ("poly.squarefree_decomposition", "poly.squarefree_part"),
    "poly.pseudo_remainder": ("poly.pseudo_remainder",),
    "linalg.rref": ("linalg.rref",),
    "linalg.bareiss": ("linalg.bareiss_echelon",),
    "linsys.graded_piece": ("linsys.condition_ideal_graded_piece",),
    "linsys.condition_rows": ("linsys.condition_rows",),
    "paramfam.condition_matrix": ("paramfam.build_condition_matrix",),
    "paramfam.rank": ("paramfam.generic_rank", "paramfam.rank_drop_locus"),
    "paramfam.kernels": ("paramfam.compare_kernels_at",),
    "pointsearch.zeros": ("pointsearch.common_rational_zeros",),
    "curveprofile.profile": ("curveprofile.curve_profile",),
    "singclass.classify": ("singclass.classify",),
    "singclass.milnor": ("singclass.milnor_number",),
    "singclass.intersection": ("singclass.intersection_multiplicity_origin",),
    "witnesses.build": ("witnesses.build_witness",),
    "witnesses.pick_form": ("witnesses.pick_form",),
    "parsing.parse": ("parsing.parse_poly",),
    "strata.catalogue": ("strata.build_catalogue", "strata.catalogue_totals",
                         "strata.degeneration_graph"),
    "verify.suite": ("verify.check_degree_bounds", "verify.check_milnor_lemma"),
}
CALLS = ("poly.mul", "poly.gcd", "poly.resultant", "linalg.rref", "linsys.graded_piece",
         "linalg.bareiss", "pointsearch.zeros", "singclass.classify",
         "singclass.intersection", "witnesses.build")
SELF_TIMES = ("poly.mul", "poly.gcd", "poly.resultant", "poly.squarefree",
              "poly.pseudo_remainder", "linalg.rref", "linsys.condition_rows",
              "linalg.bareiss", "paramfam.condition_matrix", "paramfam.rank",
              "paramfam.kernels", "pointsearch.zeros", "curveprofile.profile",
              "singclass.classify", "singclass.milnor", "singclass.intersection",
              "witnesses.pick_form", "parsing.parse", "strata.catalogue", "verify.suite")


def rng_for(workload: str, seed: int, stream: str, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}/{index}")


class Run:
    """Requests, results and latencies of one pass over some rounds."""

    def __init__(self):
        self.records: list[tuple[dict, object, str | None, float]] = []
        self.busy = 0.0
        self.cpu = 0.0
        self.rounds = 0

    def execute(self, module, request: dict, before=None) -> None:
        if before is not None:
            before(len(self.records))
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out, err = module.execute(request), None
        except Exception as e:  # a failing request is counted, the run goes on
            out, err = None, f"{type(e).__name__}: {e}"
        lat = time.perf_counter() - t0
        self.cpu += time.process_time() - c0
        self.busy += lat
        self.records.append((request, out, err, lat))

    def failures(self, module) -> list[str]:
        out = []
        for request, result, err, _ in self.records:
            if err is None:
                try:
                    err = module.check(request, result)
                except Exception as e:  # a malformed result fails its check
                    err = f"check raised {type(e).__name__}: {e}"
            if err is not None:
                out.append(f"{request['kind']}: {err}")
        return out


def run_rounds(module, make_round, name, seed, stream, seen, *, seconds=None, rounds=None,
               before=None) -> Run:
    run = Run()
    while (rounds is not None and run.rounds < rounds) or (seconds is not None and run.busy < seconds):
        for request in make_round(rng_for(name, seed, stream, run.rounds), seen):
            run.execute(module, request, before)
        run.rounds += 1
    return run


def layer_metrics(recorder, traced: Run, reference: Run) -> dict:
    from spans import aggregate

    agg = aggregate(recorder)

    def total(group, field):
        return sum(agg.get(span, {}).get(field, 0) for span in SPAN_GROUPS[group])

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for g in CALLS:
        m[f"{g}.calls"] = (total(g, "calls"), "count")
    for g in SELF_TIMES:
        m[f"{g}.self_s"] = (total(g, "self_s"), "s")
    zeros, profiles = total("pointsearch.zeros", "calls"), total("curveprofile.profile", "calls")
    m["pointsearch.certified_ratio"] = (ratio(zeros - total("pointsearch.zeros", "uncertified")
                                              - total("pointsearch.zeros", "raised"), zeros), "ratio")
    m["curveprofile.zeros_calls_per_profile"] = (ratio(zeros, profiles), "ratio")
    m["curveprofile.certified_ratio"] = (ratio(profiles - total("curveprofile.profile", "uncertified")
                                               - total("curveprofile.profile", "raised"), profiles), "ratio")
    m["singclass.shear_failures"] = (total("singclass.intersection", "raised"), "count")
    # attempts that reached a profile: curve_profile spans directly under build_witness
    build_id = recorder.name_ids.get("witnesses.build_witness", -2)
    profile_id = recorder.name_ids.get("curveprofile.curve_profile", -2)
    attempts = sum(1 for n, p in zip(recorder.name, recorder.parent)
                   if n == profile_id and p >= 0 and recorder.name[p] == build_id)
    m["witnesses.attempts_per_build"] = (ratio(attempts, total("witnesses.build", "calls")), "ratio")
    m["process.cpu_s"] = (reference.cpu, "s")
    m["process.wall_s"] = (reference.busy, "s")
    traced_ops = len(traced.records) / traced.busy
    reference_ops = len(reference.records) / reference.busy
    m["trace.overhead_frac"] = (1 - traced_ops / reference_ops, "ratio")
    m["trace.spans"] = (len(recorder), "count")
    return m


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "octica" / "__init__.py").is_file():
        print(f"no octica sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))

    name, seed = args.workload, args.seed
    t0 = time.perf_counter()
    module = importlib.import_module(name)
    import_s = time.perf_counter() - t0
    make_round = module.round_requests

    seen: set = set()
    setup = Run()
    setup_times = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        make_round(rng_for(name, seed, "run", 0), set(seen))
        setup.execute(module, module.warmup_request(rng_for(name, seed, "warmup", i), seen))
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    if args.trace:
        from spans import SpanRecorder

        reference = run_rounds(module, make_round, name, seed, "reference", seen, rounds=TRACED_ROUNDS)
        recorder = SpanRecorder()
        recorder.install([importlib.import_module(f"octica.{m}") for m in LAYER_MODULES])
        try:
            measured = run_rounds(module, make_round, name, seed, "run", seen, rounds=TRACED_ROUNDS,
                                  before=lambda i: setattr(recorder, "request", i))
        finally:
            recorder.uninstall()
        metrics = layer_metrics(recorder, measured, reference)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        recorder.write(out_dir / f"trace-{name}-{seed}.tsv")
        checked = [setup, reference, measured]
    else:
        measured = run_rounds(module, make_round, name, seed, "run", seen, seconds=args.seconds)
        checked = [setup, measured]

    per_run = [run.failures(module) for run in checked]
    failures = [f for fails in per_run for f in fails]
    attempted = sum(len(run.records) for run in checked)
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)

    latencies = [r[3] for r in measured.records]
    measured_failed = len(per_run[-1])
    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": ((len(latencies) - measured_failed) / measured.busy, "1/s"),
            "latency_p50_s": (statistics.median(latencies), "s"),
            "latency_p70_s": (percentile(latencies, 70), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(f"workload {name} seed {seed}: {len(latencies)} requests in {measured.rounds} rounds, "
          f"{measured.busy:.3f} s busy, {measured.cpu:.3f} s cpu; "
          f"failed {len(failures)} of {attempted} (failed_frac {len(failures) / attempted:.4f})")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
