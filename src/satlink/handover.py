"""Proactive satellite handover driven by predicted CNR categories.

The policy is consecutive-count hysteresis with a dwell time: a switch is
proposed only after the serving satellite's predicted category has been
below the degrade threshold for ``consecutive_k`` minutes in a row, at
least ``min_dwell_s`` seconds have passed since the previous switch, and
some other satellite is predicted strictly better.  This is deliberately
the smallest policy family that acts before an outage without ping-ponging
between beams.

Predictions are an ``int8`` grid of (minutes, satellites), satellites
sorted and -1 for no prediction.  Per-minute category maps given to
:func:`simulate_handover` are converted to it through one table keyed by
identity, so a value that is not a :class:`CnrCategory` member (an equal
int, a bool, a float, ``None``) raises ``ValueError`` naming its minute and
satellite, and a row that is not a mapping with ``str`` satellite ids
raises ``ValueError`` naming its minute.  :func:`forecast_route` returns
the grid as one category map per distinct row, copied for each minute.  A record list is converted to
columns once, on entry.  The forecast labels each distinct input
once: satellites share a model's labels unless some tree of it reads
``satellite_id``.  The policy is a scan that jumps from switch to switch
over whole-flight columns (degraded runs, the next minute a switch is
earned), so a switch costs a few lookups, not a pass over the flight.
"""

from __future__ import annotations

import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Optional, Sequence

import numpy as np

from .ingest import (
    CATEGORY_EDGES_DB,
    CnrCategory,
    FeatureMatrix,
    FlightLogRecord,
    LogColumns,
    Vocabulary,
    encode_features,
)
from .model.gbm import GbmModel, predict_labels
from .weather import _EPOCH, WeatherProvider, _format_utc, _utc_seconds


@dataclass(frozen=True)
class HoPolicy:
    """Hysteresis knobs.  ``degrade_threshold`` is the category the serving
    satellite must stay at or above; predictions strictly below it count as
    degraded minutes."""

    degrade_threshold: CnrCategory = CnrCategory.WEAK
    consecutive_k: int = 3
    min_dwell_s: float = 600.0
    horizon_min: int = 10

    def __post_init__(self) -> None:
        for name in ("consecutive_k", "horizon_min"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an int >= 1: {value!r}")
        dwell = self.min_dwell_s
        if isinstance(dwell, bool) or not isinstance(dwell, numbers.Real) or not dwell >= 0:  # NaN as well
            raise ValueError(f"min_dwell_s must be a number >= 0: {dwell!r}")
        if self.horizon_min < self.consecutive_k:
            raise ValueError(
                f"horizon_min ({self.horizon_min}) must cover consecutive_k "
                f"({self.consecutive_k})"
            )


@dataclass(frozen=True)
class HoEvent:
    time: datetime
    from_satellite: str
    to_satellite: str
    reason: str


def _forecast_codes(
    model_by_sat: Mapping[str, GbmModel],
    waypoints: LogColumns | Sequence[FlightLogRecord],
    weather: Optional[WeatherProvider] = None,
    weather_model_by_sat: Optional[Mapping[str, GbmModel]] = None,
) -> tuple[list[str], np.ndarray]:
    """:func:`forecast_route` as the sorted satellites and an ``int8`` grid."""
    if not model_by_sat:
        raise ValueError("at least one satellite model is required")
    if not isinstance(waypoints, LogColumns):
        waypoints = LogColumns.from_records(waypoints)
    if (np.diff(waypoints.epoch_s) <= 0).any():
        raise ValueError("waypoints must be strictly time-ordered")
    sats = sorted(model_by_sat)
    codes = np.full((len(waypoints), len(sats)), -1, dtype=np.int8)

    wx_models = {
        sat: m for sat, m in (weather_model_by_sat or {}).items()
        if weather is not None and sat in model_by_sat and m is not None
    }
    parts: dict[str, tuple[np.ndarray, LogColumns, Optional[np.ndarray]]] = {
        "all": (np.arange(len(waypoints)), waypoints, None)
    }
    if wx_models:
        cells = weather.cells_at(waypoints.epoch_s.astype(float), waypoints.latitude_deg, waypoints.longitude_deg)
        gap = np.isnan(cells).any(axis=1)
        covered, uncovered = np.flatnonzero(~gap), np.flatnonzero(gap)
        parts["covered"] = (covered, waypoints.take(covered), cells[covered])
        parts["uncovered"] = (uncovered, waypoints.take(uncovered), None)

    # One encoding per part of the route and distinct vocabulary.
    encoded: dict[str, list[tuple[Optional[Vocabulary], FeatureMatrix]]] = {}

    def encode(part: str, vocab: Optional[Vocabulary]) -> FeatureMatrix:
        for seen, matrix in encoded.setdefault(part, []):
            if seen == vocab:
                return matrix
        _, rows, cells = parts[part]
        matrix, _ = encode_features(rows, vocab=vocab, cells=cells, for_prediction=True)
        encoded[part].append((vocab, matrix))
        return matrix

    # One labelling per (part, model, satellite code); the code is None
    # when no tree of the model reads satellite_id, so those satellites
    # share one.  Models are keyed by identity for the length of this call.
    labels: dict[tuple[str, int, Optional[int]], np.ndarray] = {}
    for j, sat in enumerate(sats):
        if sat in wx_models:
            plan = [("covered", wx_models[sat]), ("uncovered", model_by_sat[sat])]
        else:
            plan = [("all", model_by_sat[sat])]
        for part, model in plan:
            index = parts[part][0]
            if not len(index):
                continue
            column = model.columns.index("satellite_id")
            code = model.vocab.encode("satellite_id", sat) if column in model.features_read else None
            key = (part, id(model), code)
            if key not in labels:
                matrix = encode(part, model.vocab)
                if code is not None:
                    matrix.X[:, column] = code
                labels[key] = predict_labels(model, matrix)
            codes[index, j] = labels[key]
    return sats, codes


def forecast_route(
    model_by_sat: Mapping[str, GbmModel],
    waypoints: LogColumns | Sequence[FlightLogRecord],
    weather: Optional[WeatherProvider] = None,
    weather_model_by_sat: Optional[Mapping[str, GbmModel]] = None,
) -> list[dict[str, CnrCategory]]:
    """Predicted category per (waypoint, satellite).

    Waypoints are prediction-mode rows, so their CNR field is ignored.
    When a weather provider and weather-augmented models are supplied,
    waypoints inside weather coverage are scored with the augmented model
    and the rest fall back to the weather-free one.
    """
    sats, codes = _forecast_codes(model_by_sat, waypoints, weather, weather_model_by_sat)
    categories = list(CnrCategory)
    rows = list(map(tuple, codes.tolist()))
    # One map per distinct code row; each waypoint gets its own copy.
    maps = {row: {sat: categories[c] for sat, c in zip(sats, row) if c >= 0} for row in set(rows)}
    return [maps[row].copy() for row in rows]


@dataclass
class HoReport:
    """Outcome of simulating the policy over one flight."""

    switches: list[HoEvent]
    steps: int
    outage_minutes: Optional[int]
    baseline_outage_minutes: Optional[int]

    def to_dict(self) -> dict:
        times = _format_utc(_utc_seconds(e.time for e in self.switches))
        return {
            "switches": [
                {"t": t, "from": e.from_satellite, "to": e.to_satellite, "reason": e.reason}
                for t, e in zip(times, self.switches)
            ],
            "outage_minutes": self.outage_minutes,
            "baseline_outage_minutes": self.baseline_outage_minutes,
        }


def _scan(
    sats: list[str], codes: np.ndarray, epoch_s: np.ndarray, serving: int, policy: HoPolicy
) -> tuple[np.ndarray, list[HoEvent]]:
    """The serving column after every minute of the policy over the grid,
    from column ``serving``, and its switches.  Raises ``ValueError`` where a
    fold over the minutes would: at the first minute whose serving satellite
    has no prediction, or whose time is not after the previous minute's."""
    n, k = len(codes), policy.consecutive_k
    stale = np.flatnonzero(np.diff(epoch_s) <= 0)
    end = int(stale[0]) + 1 if stale.size else n
    grid, minutes = codes[:end], np.arange(end)[:, None]
    # Per satellite: degraded runs from the flight start, and the next minute
    # it could switch, to the minute's best satellite (lowest column on ties).
    # A missing prediction counts as degraded here; the loop raises first.
    run = minutes - np.maximum.accumulate(np.where(grid >= policy.degrade_threshold, minutes, -1), axis=0)
    ready = (run >= k) & (grid.max(axis=1, keepdims=True) > grid)
    next_ready = np.minimum.accumulate(np.where(ready, minutes, end)[::-1], axis=0)[::-1]
    top = grid.argmax(axis=1)
    dwell_end = np.searchsorted(epoch_s[:end], epoch_s[:end] + policy.min_dwell_s)

    def utc(minute: int) -> datetime:
        return _EPOCH + timedelta(seconds=int(epoch_s[minute]))

    labels = [c.label for c in CnrCategory]
    served = np.empty(n, dtype=np.intp)
    events: list[HoEvent] = []
    first = 0  # the first minute of the serving satellite
    while True:
        # The run counts only the serving satellite's own minutes, and a
        # switch waits out the dwell time after the previous one.
        earliest = max(first + k - 1, dwell_end[first - 1] if events else 0)
        minute = int(next_ready[earliest, serving]) if earliest < end else end
        if (codes[first : minute + 1, serving] < 0).any():
            raise ValueError(f"no prediction for serving satellite {sats[serving]!r}")
        served[first:minute] = serving
        if minute == n:
            return served, events
        if minute == end:
            raise ValueError(f"step time {utc(end).isoformat()} not after last step {utc(end - 1).isoformat()}")
        target, degraded = int(top[minute]), min(int(run[minute, serving]), minute - first + 1)
        reason = (
            f"serving {sats[serving]} predicted {labels[codes[minute, serving]]} for {degraded} consecutive "
            f"minutes; {sats[target]} predicted {labels[codes[minute, target]]}"
        )
        events.append(HoEvent(utc(minute), sats[serving], sats[target], reason))
        served[minute] = serving = target
        first = minute + 1


#: The grid code of each prediction value, keyed by identity, so only the
#: members of CnrCategory have one (an int, bool or float equal to a member
#: has none); ``_NO_PREDICTION`` stands in for a satellite a row lacks.
_NO_PREDICTION = object()
_CODE_OF = {id(c): c.value for c in CnrCategory} | {id(_NO_PREDICTION): -1}


def _is_prediction_row(row: object) -> bool:
    return isinstance(row, Mapping) and all(isinstance(sat, str) for sat in row)


def _prediction_codes(predictions: Sequence[Mapping[str, CnrCategory]]) -> tuple[list[str], np.ndarray]:
    """Injected predictions as the sorted satellites and an ``int8`` grid.
    Raises ``ValueError`` naming the first minute whose row is not a mapping
    with ``str`` satellite ids, or else the first minute (and its satellite)
    with a value that is not a :class:`CnrCategory`."""
    n = len(predictions)
    code, missing = _CODE_OF.get, _NO_PREDICTION  # locals: the loop runs once per cell
    try:
        sats = sorted(set().union(*predictions))
        if not all(isinstance(sat, str) for sat in sats):
            raise TypeError("satellite ids must be str")
        flat = [code(id(row.get(sat, missing))) for sat in sats for row in predictions]
    except (TypeError, AttributeError):
        # Rows are checked only here, so well-formed ones cost no per-row check.
        minute = next((m for m, row in enumerate(predictions) if not _is_prediction_row(row)), None)
        if minute is None:
            raise
        row = predictions[minute]
        raise ValueError(f"prediction row at minute {minute} is not a mapping with str satellite ids: {row!r}") from None
    try:
        codes = np.fromiter(flat, dtype=np.int8, count=len(flat))
    except TypeError:  # a None: some value has no code
        minute, j = min((i % n, i // n) for i, c in enumerate(flat) if c is None)
        value = predictions[minute][sats[j]]
        raise ValueError(f"prediction for {sats[j]!r} at minute {minute} is not a CnrCategory: {value!r}") from None
    return sats, codes.reshape(len(sats), n).T


def simulate_handover(
    records: LogColumns | Sequence[FlightLogRecord],
    model_by_sat: Optional[Mapping[str, GbmModel]] = None,
    policy: HoPolicy = HoPolicy(),
    truth: Optional[Mapping[str, Sequence[Optional[float]]]] = None,
    predictions: Optional[Sequence[Mapping[str, CnrCategory]]] = None,
    weather: Optional[WeatherProvider] = None,
    weather_model_by_sat: Optional[Mapping[str, GbmModel]] = None,
    initial_satellite: Optional[str] = None,
) -> HoReport:
    """Run the policy over a flight and account its outage minutes.

    Predictions come either from per-satellite models (via
    :func:`forecast_route`) or are injected directly through
    ``predictions`` (e.g. ground truth, for policy-ceiling studies): one
    mapping per minute with ``str`` satellite ids and :class:`CnrCategory`
    members as values.  When ``truth`` maps satellite id to the per-minute true CNR, the report
    counts the minutes the chosen serving satellite was truly Bad or
    unmeasurable, alongside the same count for a never-switching baseline;
    it must then cover the initial satellite and every satellite served.
    """
    if (model_by_sat is None) == (predictions is None):
        raise ValueError("provide exactly one of model_by_sat or predictions")
    if predictions is None:
        if not isinstance(records, LogColumns):
            records = LogColumns.from_records(records)
        sats, codes = _forecast_codes(model_by_sat, records, weather, weather_model_by_sat)
    elif len(predictions) != len(records):
        raise ValueError(f"{len(predictions)} prediction rows for {len(records)} records")
    else:
        sats, codes = _prediction_codes(predictions)

    if not len(records):
        return HoReport(switches=[], steps=0, outage_minutes=None, baseline_outage_minutes=None)
    initial = initial_satellite or records[0].satellite_id
    if initial not in sats:
        raise ValueError(f"no prediction for serving satellite {initial!r}")
    epoch_s = records.epoch_s if isinstance(records, LogColumns) else _utc_seconds(r.log_date for r in records)
    served, events = _scan(sats, codes, epoch_s, sats.index(initial), policy)

    outage = baseline_outage = None
    if truth is not None:
        # No measurement (None, NaN) means no usable link; count it with the Bad minutes.
        cnr = {sat: np.array(values, dtype=float) for sat, values in truth.items()}
        for sat, v in cnr.items():
            if v.shape != (len(served),) or np.isinf(v).any():
                raise ValueError(f"truth for {sat} needs one finite CNR or None per minute")
        for sat in [initial] + [sats[c] for c in np.unique(served).tolist()]:
            if sat not in cnr:
                raise ValueError(f"truth has no CNR for satellite {sat!r}, which the policy serves")
        down = {
            sat: np.isnan(v) | (np.searchsorted(CATEGORY_EDGES_DB, v, side="right") == CnrCategory.BAD)
            for sat, v in cnr.items()
        }
        outage = sum(int(down[sats[c]][served == c].sum()) for c in np.unique(served).tolist())
        baseline_outage = int(down[initial].sum())

    return HoReport(events, len(records), outage, baseline_outage)
