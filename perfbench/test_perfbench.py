"""Tests of the benchmark itself, at smoke size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from datetime import datetime, timedelta, timezone

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from satlink.handover import HoEvent, HoReport  # noqa: E402
from satlink.ingest import CnrCategory  # noqa: E402
from spans import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)

WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAMED = {
    "corpus": {"setup_s", "corpus_s"},
    "matrix": {"setup_s", "cruise_s", "approach_s", "regress_s", "wf1_cruise", "wf1_approach", "mae_db"},
    "handover": {"setup_s", "flight_p50_ms", "flight_p90_ms", "outage_minutes"},
}


def run(workload, seed=1, trace=0, cwd=ROOT):
    cmd = [
        sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[len("detail "):])
    return json.loads(lines[-1]), detail


@pytest.fixture(scope="module")
def smoke():
    return {w: parse(run(w)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_and_passes_every_check(smoke, workload):
    result, detail = smoke[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert NAMED[workload] | {"peak_rss_mb", "error_rate"} <= set(detail["named"])
    assert detail["named"]["error_rate"][0] == 0
    assert detail["failed_checks"] == [] and detail["fingerprints_agree"]
    for key in ("python", "numpy", "nproc", "git_sha", "seed", "sizes"):
        assert key in detail


def test_traced_run_reports_every_per_layer_metric():
    result, _ = parse(run("handover", trace=1))
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want


def test_fingerprints_repeat_across_processes_and_follow_the_seed(smoke):
    for workload in WORKLOADS:
        assert parse(run(workload))[1]["fingerprints"] == smoke[workload][1]["fingerprints"]
    other = parse(run("corpus", seed=2))[1]["fingerprints"]
    assert other["dataset"] != smoke["corpus"][1]["fingerprints"]["dataset"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run("corpus", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""


def test_corpus_check_counts_a_wrong_funnel_as_failed(tmp_path):
    tracer = Tracer(enabled=False)
    state = wl.corpus_setup(tracer, wl.SMOKE, 3, str(tmp_path))
    out = wl.corpus_run(tracer, state)
    assert wl.corpus_check(state, out).failed_ops == 0
    out["funnel"]["cruise_labeled"] += 1
    result = wl.corpus_check(state, out)
    assert result.failed_ops == result.ops


def _minutes(n):
    t0 = datetime(2023, 3, 1, tzinfo=timezone.utc)

    class Row:
        def __init__(self, i):
            self.log_date = t0 + timedelta(minutes=i)
            self.satellite_id = "A"

    return [Row(i) for i in range(n)]


def test_switch_check_flags_each_broken_guarantee():
    BAD, MEDIUM = CnrCategory.BAD, CnrCategory.MEDIUM
    rows = _minutes(30)
    preds = [{"A": BAD, "B": MEDIUM} for _ in rows]

    def report(*switches):
        events = [HoEvent(rows[m].log_date, a, b, "") for m, a, b in switches]
        return HoReport(switches=events, steps=len(rows), outage_minutes=None, baseline_outage_minutes=None)

    policy = wl.POLICY
    assert checks.switch_failures(rows, preds, report((2, "A", "B")), policy) == []
    assert "degraded" in checks.switch_failures(rows, preds, report((1, "A", "B")), policy)[0]
    level = [{"A": BAD, "B": BAD} for _ in rows]
    assert "better" in checks.switch_failures(rows, level, report((2, "A", "B")), policy)[0]
    found = checks.switch_failures(rows, preds, report((2, "A", "B"), (11, "B", "A")), policy)
    assert any("after the last" in m for m in found)


def test_outage_check_recounts_from_the_switch_log():
    rows = _minutes(4)
    truth = {"A": [None, 3.0, 12.0, 12.0], "B": [12.0, 12.0, 2.0, 12.0]}
    event = HoEvent(rows[1].log_date, "A", "B", "")
    good = HoReport([event], 4, outage_minutes=2, baseline_outage_minutes=2)
    assert checks.outage_failures(rows, good, truth) == []
    wrong = HoReport([event], 4, outage_minutes=1, baseline_outage_minutes=2)
    assert checks.outage_failures(rows, wrong, truth)
