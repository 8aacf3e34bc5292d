"""satlink benchmark runner.

Run from the repository root::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 2 --trace 0 --smoke

A run warms every first-use path with a smoke-size pass of all three
workloads, sets the chosen workload up three times (``setup_s`` is the
median), then repeats its timed pass in a closed loop for ``--seconds``
and reports the median pass.  Every pass is checked; a failed check is
printed and counted, and does not stop the run.

With ``--trace 1`` the timed passes alternate between untraced and traced
ones.  The per-layer numbers are span self times over the warm-up, the
last set-up and the median traced pass; the tracing overhead is the
median traced pass minus the median untraced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import asdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("corpus", "matrix", "handover")
N_SETUPS = 3


def _self_s(span):
    return lambda agg: agg.get(span, {}).get("self_s", 0.0)


def _count(span, key):
    return lambda agg: agg.get(span, {}).get("counts", {}).get(key, 0)


def _rate(span, key):
    """``key`` per second of the span's inclusive time."""

    def value(agg):
        a = agg.get(span, {})
        return a["counts"].get(key, 0) / a["total_s"] if a.get("total_s") else 0.0

    return value


def _seconds_per(span, key):
    def value(agg):
        a = agg.get(span, {})
        count = a.get("counts", {}).get(key, 0)
        return a["total_s"] / count if count else 0.0

    return value


def _share(span, key, of):
    def value(agg):
        counts = agg.get(span, {}).get("counts", {})
        return counts.get(key, 0) / counts[of] if counts.get(of) else 0.0

    return value


# name -> (unit, better, value from the per-span aggregate)
PER_LAYER = {
    "flightsim.generate_dataset.s": ("s", "lower", _self_s("flightsim.generate_dataset")),
    "flightsim.generate_dataset.rows_per_s": ("rows/s", "higher", _rate("flightsim.generate_dataset", "rows")),
    "ingest.save_logs.s": ("s", "lower", _self_s("ingest.save_logs")),
    "ingest.parse_logs.s": ("s", "lower", _self_s("ingest.parse_logs")),
    "ingest.parse_logs.rows_per_s": ("rows/s", "higher", _rate("ingest.parse_logs", "rows")),
    "ingest.select.s": ("s", "lower", _self_s("ingest.select")),
    "ingest.join_weather.s": ("s", "lower", _self_s("ingest.join_weather")),
    "ingest.join_weather.rows": ("count", "higher", _count("ingest.join_weather", "rows")),
    "ingest.join_weather.dropped": ("share", "lower", _share("ingest.join_weather", "dropped", "rows")),
    "ingest.encode_features.s": ("s", "lower", _self_s("ingest.encode_features")),
    "ingest.encode_features.rows_per_s": ("rows/s", "higher", _rate("ingest.encode_features", "rows")),
    "ingest.split_by_flight.s": ("s", "lower", _self_s("ingest.split_by_flight")),
    "cli.build_experiment_dataset.s": ("s", "lower", _self_s("cli.build_experiment_dataset")),
    "cruise.model.train_gbm.s": ("s", "lower", _self_s("cruise.model.train_gbm")),
    "cruise.model.train_gbm.s_per_tree": ("s", "lower", _seconds_per("cruise.model.train_gbm", "trees")),
    "cruise.model.train_gbm.nodes": ("count", "lower", _count("cruise.model.train_gbm", "nodes")),
    "approach.model.train_gbm.s": ("s", "lower", _self_s("approach.model.train_gbm")),
    "approach.model.train_gbm.s_per_tree": ("s", "lower", _seconds_per("approach.model.train_gbm", "trees")),
    "approach.model.train_gbm.nodes": ("count", "lower", _count("approach.model.train_gbm", "nodes")),
    "regress.model.train_regressor.s": ("s", "lower", _self_s("regress.model.train_regressor")),
    "regress.model.train_regressor.nodes": ("count", "lower", _count("regress.model.train_regressor", "nodes")),
    "cruise.model.evaluate_classifier.s": ("s", "lower", _self_s("cruise.model.evaluate_classifier")),
    "approach.model.evaluate_classifier.s": ("s", "lower", _self_s("approach.model.evaluate_classifier")),
    "regress.model.eval_regressor.s": ("s", "lower", _self_s("regress.model.eval_regressor")),
    "flightsim.synth_cnr.s": ("s", "lower", _self_s("flightsim.synth_cnr")),
    "handover.forecast_route.s": ("s", "lower", _self_s("handover.forecast_route")),
    "handover.forecast_route.minutes_per_s": ("min/s", "higher", _rate("handover.forecast_route", "rows")),
    "model.predict_labels.s": ("s", "lower", _self_s("model.predict_labels")),
    "handover.simulate_handover.s": ("s", "lower", _self_s("handover.simulate_handover")),
    "handover.simulate_handover.switches": ("count", "lower", _count("handover.simulate_handover", "switches")),
    "handover.simulate_handover.steps": ("count", "higher", _count("handover.simulate_handover", "steps")),
    "handover.simulate_handover.baseline_outage_minutes": (
        "count", "lower", _count("handover.simulate_handover", "baseline_outage_minutes")
    ),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="satlink benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def git_sha():
    """HEAD commit of the checkout, read from ``.git`` itself; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            print(f"workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_one(args, work_dir: str) -> int:
    import numpy as np

    import workloads as wl
    from spans import Tracer

    workload = wl.WORKLOADS[args.workload]
    sizes = wl.SMOKE if args.smoke else wl.FULL
    tracer = Tracer(enabled=bool(args.trace))
    problems: list[str] = []

    def traced(unit: str, fn, *fn_args):
        tracer.unit = unit
        with tracer.patched(wl.INNER_SPANS):
            return fn(*fn_args)

    # Warm-up: a smoke-size pass of every workload, so first-use costs
    # (imports, lazy caches) land here and every layer is touched once.
    for other in wl.WORKLOADS.values():
        try:
            state = traced("warmup", other.setup, tracer, wl.SMOKE, args.seed, os.path.join(work_dir, "warmup", other.name))
            warm = other.check(state, traced("warmup", other.run, tracer, state))
        except Exception:  # reported like a failed check; the run goes on
            traceback.print_exc()
            problems.append(f"warm-up {other.name} raised")
            continue
        problems += [f"warm-up {other.name}: {m}" for ms in warm.failures.values() for m in ms]

    setup_s = []
    for i in range(N_SETUPS):
        state = None
        gc.collect()
        started = perf_counter()
        state = traced(f"setup{i}", workload.setup, tracer, sizes, args.seed, os.path.join(work_dir, f"setup{i}"))
        setup_s.append(perf_counter() - started)

    walls = {False: [], True: []}  # traced? -> pass wall seconds
    units = {False: [], True: []}
    results = {False: [], True: []}
    attempted = failed = 0
    loop_started = perf_counter()
    per_pass = []  # pass + check seconds, to decide whether another pass fits
    i = 0
    while True:
        trace_this = bool(args.trace) and i % 2 == 1
        tracer.enabled = trace_this
        unit = f"pass{i}"
        # Each pass starts from the same heap: the last pass's output freed
        # and collected outside the timed part.
        out = None
        gc.collect()
        pass_started = perf_counter()
        try:
            out = traced(unit, workload.run, tracer, state)
            wall = perf_counter() - pass_started
            tracer.enabled = False
            result = workload.check(state, out)
        except Exception:  # a crash fails the whole pass; the run goes on
            tracer.enabled = False
            traceback.print_exc()
            wall, result = None, wl.PassResult(ops=1, failures={"*": ["pass raised"]})
        if wall is not None:
            walls[trace_this].append(wall)
            units[trace_this].append(unit)
            results[trace_this].append(result)
        attempted += result.ops
        failed += result.failed_ops
        for messages in result.failures.values():
            problems += [f"pass {i}: {m}" for m in messages]
        per_pass.append(perf_counter() - pass_started)
        i += 1
        elapsed = perf_counter() - loop_started
        enough = i >= (2 if args.trace else 1)
        if enough and elapsed + statistics.median(per_pass) > args.seconds:
            break
        if i >= 2 and not (walls[False] or walls[True]):
            break  # every pass crashed; more of them will not help

    for p in problems:
        print(f"CHECK FAILED {p}")
    if not walls[False] or (args.trace and not walls[True]):
        print("not enough passes completed", file=sys.stderr)
        return 1

    every = results[False] + results[True]
    summary = named_metrics(workload.name, results[False], walls[False], setup_s, attempted, failed)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "sizes": asdict(sizes),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "setup_s": setup_s,
        "pass_s": walls[False],
        "traced_pass_s": walls[True],
        "named": summary,
        "outputs": every[-1].quality,
        "fingerprints": every[0].fingerprints,
        "fingerprints_agree": all(r.fingerprints == every[0].fingerprints for r in every),
        "failed_checks": problems,
    }
    for name, (value, unit) in summary.items():
        print(f"{workload.name:<9} {name:<22} {value:>14.6g} {unit}")
    print("detail " + json.dumps(detail, sort_keys=True))

    if args.trace:
        keep = {"warmup", f"setup{N_SETUPS - 1}", units[True][walls[True].index(statistics.median_low(walls[True]))]}
        agg = tracer.self_times(keep)
        metrics = {name: {"value": fn(agg), "unit": unit} for name, (unit, _, fn) in PER_LAYER.items()}
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.spans"] = {"value": sum(a["calls"] for a in agg.values()), "unit": "count"}
        os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
        tracer.write(os.path.join(ROOT, ".perfbench_out", f"spans-{workload.name}-seed{args.seed}.json"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "pass_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def named_metrics(name, untraced, pass_walls, setup_s, attempted, failed) -> dict:
    """The workload's own metrics, printed by name: name -> (value, unit)."""
    out = {"setup_s": (statistics.median(setup_s), "s")}
    last = untraced[-1].quality
    if name == "corpus":
        out["corpus_s"] = (statistics.median(pass_walls), "s")
    elif name == "matrix":
        for part in ("cruise_s", "approach_s", "regress_s"):
            out[part] = (statistics.median(r.seconds[part][0] for r in untraced), "s")
        out["wf1_cruise"] = (last["wf1_cruise"], "wF1")
        out["wf1_approach"] = (last["wf1_approach"], "wF1")
        out["mae_db"] = (last["mae_db"], "dB")
    else:
        flights_ms = [1e3 * s for r in untraced for s in r.seconds["flight_s"]]
        deciles = statistics.quantiles(flights_ms, n=10, method="inclusive")
        out["flight_p50_ms"] = (statistics.median(flights_ms), "ms")
        out["flight_p90_ms"] = (deciles[-1], "ms")
        out["flight_samples"] = (len(flights_ms), "count")
        out["outage_minutes"] = (last["outage_minutes"], "min")
        out["ceiling_outage_minutes"] = (last["ceiling_outage_minutes"], "min")
        out["baseline_outage_minutes"] = (last["baseline_outage_minutes"], "min")
    out["peak_rss_mb"] = (peak_rss_mb(), "MB")
    out["error_rate"] = (failed / attempted if attempted else 1.0, "share")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "satlink", "__init__.py")):
        print(f"satlink sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # One thread: the benchmark's workloads are single-threaded closed loops.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        return run_one(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
