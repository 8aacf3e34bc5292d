"""Output checks that do not trust the code they check.

The row funnel is recounted from the raw CSV text with the csv module
alone, and handover switches are re-derived from the predictions the
policy saw.  Each function returns a list of failure messages; an empty
list means the output passed.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import os
from typing import Mapping, Sequence

import numpy as np

# Column positions in the flight-log CSV (see satlink.ingest.LOG_CSV_COLUMNS).
_FLIGHT, _DEP, _ARR, _ALT, _CNR = 1, 4, 5, 10, 12


def dataset_fingerprint(out_dir: str) -> str:
    """SHA-256 over every flight CSV plus ``manifest.json``, by relative path."""
    paths = sorted(glob.glob(os.path.join(out_dir, "flights", "*.csv")))
    paths.append(os.path.join(out_dir, "manifest.json"))
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            body = hashlib.sha256(fh.read()).digest()
        digest.update(os.path.relpath(path, out_dir).encode() + b"\0" + body)
    return digest.hexdigest()


def file_fingerprint(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def recount_funnel(out_dir: str, top_k: int, cruise_min_m: float, approach_max_m: float) -> dict:
    """Row counts at each selection step, from the raw CSV text.

    Mirrors the selection the corpus workload asks satlink for: the
    ``top_k`` routes by row count (ties by route key), then the strict
    altitude cuts, then rows with a CNR value.
    """
    rows: list[tuple[tuple[str, str], float, bool]] = []
    per_flight: dict[str, int] = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "flights", "*.csv"))):
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for fields in reader:
                per_flight[fields[_FLIGHT]] = per_flight.get(fields[_FLIGHT], 0) + 1
                rows.append(((fields[_DEP], fields[_ARR]), float(fields[_ALT]), fields[_CNR] != ""))
    route_rows: dict[tuple[str, str], int] = {}
    for route, _, _ in rows:
        route_rows[route] = route_rows.get(route, 0) + 1
    keep = set(sorted(route_rows, key=lambda r: (-route_rows[r], r))[:top_k])
    routed = [(alt, has_cnr) for route, alt, has_cnr in rows if route in keep]
    return {
        "parsed": len(rows),
        "per_flight": per_flight,
        "routed": len(routed),
        "cruise_cut": sum(1 for alt, _ in routed if alt > cruise_min_m),
        "cruise_labeled": sum(1 for alt, has in routed if alt > cruise_min_m and has),
        "approach_cut": sum(1 for alt, _ in routed if alt < approach_max_m),
        "approach_labeled": sum(1 for alt, has in routed if alt < approach_max_m and has),
    }


def split_failures(name: str, encoded: int, train, test) -> list[str]:
    """Train and test together hold every encoded row, with no flight on both sides."""
    out = []
    if train.n_rows + test.n_rows != encoded:
        out.append(f"{name}: train {train.n_rows} + test {test.n_rows} != encoded {encoded}")
    shared = set(train.flight_ids.tolist()) & set(test.flight_ids.tolist())
    if shared:
        out.append(f"{name}: {len(shared)} flights on both sides of the split")
    return out


def monotone_loss_failures(name: str, losses: Sequence[float]) -> list[str]:
    steps = np.diff(np.asarray(losses, dtype=np.float64))
    if steps.size and float(steps.max()) > 1e-9:
        return [f"{name}: training loss rose by {float(steps.max()):.3g} in some round"]
    return []


def switch_failures(records, predictions, report, policy) -> list[str]:
    """Re-derive the policy's guarantees for every switch in ``report``.

    Each switch must come at least ``min_dwell_s`` after the previous one,
    follow ``consecutive_k`` minutes in which the satellite it leaves was
    predicted below the degrade threshold, and go to a satellite predicted
    strictly better at that minute.
    """
    out = []
    minute_of = {r.log_date: i for i, r in enumerate(records)}
    previous = None
    for event in report.switches:
        m = minute_of.get(event.time)
        if m is None:
            out.append(f"switch at {event.time} is not a logged minute")
            continue
        if previous is not None and (event.time - previous).total_seconds() < policy.min_dwell_s:
            out.append(f"switch at {event.time} only {(event.time - previous).total_seconds():.0f}s after the last")
        window = range(m - policy.consecutive_k + 1, m + 1)
        if window.start < 0 or any(
            predictions[j][event.from_satellite] >= policy.degrade_threshold for j in window
        ):
            out.append(f"switch at {event.time} without {policy.consecutive_k} degraded minutes")
        if not predictions[m][event.to_satellite] > predictions[m][event.from_satellite]:
            out.append(f"switch at {event.time} to a satellite not predicted better")
        previous = event.time
    return out


BAD_BELOW_DB = 6.0  # the paper's Bad category: CNR under 6 dB


def outage_failures(records, report, truth: Mapping[str, Sequence]) -> list[str]:
    """Recount outage minutes (truly Bad or unmeasured) from the switch log."""

    def down(value) -> bool:
        return value is None or value < BAD_BELOW_DB

    initial = records[0].satellite_id
    switch_to = {e.time: e.to_satellite for e in report.switches}
    serving, outage = initial, 0
    for i, r in enumerate(records):
        serving = switch_to.get(r.log_date, serving)
        outage += down(truth[serving][i])
    baseline = sum(down(v) for v in truth[initial])
    out = []
    if (report.outage_minutes, report.baseline_outage_minutes) != (outage, baseline):
        out.append(
            f"outage {report.outage_minutes}/{report.baseline_outage_minutes} "
            f"!= recount {outage}/{baseline}"
        )
    return out
