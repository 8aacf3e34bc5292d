"""Proactive satellite handover driven by predicted CNR categories.

The policy is consecutive-count hysteresis with a dwell time: a switch is
proposed only after the serving satellite's predicted category has been
below the degrade threshold for ``consecutive_k`` minutes in a row, at
least ``min_dwell_s`` seconds have passed since the previous switch, and
some other satellite is predicted strictly better.  This is deliberately
the smallest policy family that acts before an outage without ping-ponging
between beams.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Mapping, Optional, Sequence

import numpy as np

from .ingest import (
    CATEGORY_EDGES_DB,
    CnrCategory,
    FeatureMatrix,
    FlightLogRecord,
    LogColumns,
    Vocabulary,
    _columns,
    encode_features,
)
from .model.gbm import GbmModel, predict_labels
from .weather import WeatherCell, WeatherProvider, _format_utc, _utc_seconds


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
        if self.consecutive_k < 1:
            raise ValueError(f"consecutive_k must be >= 1: {self.consecutive_k}")
        if self.min_dwell_s < 0:
            raise ValueError(f"min_dwell_s must be >= 0: {self.min_dwell_s}")
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


@dataclass(frozen=True, slots=True)
class HoDecision:
    switch: bool
    target: Optional[str] = None
    reason: str = ""


#: The decision of every step that does not switch; decisions are immutable.
_STAY = HoDecision(switch=False)


@dataclass(frozen=True, slots=True)
class HoState:
    """Immutable handover state; :func:`step` returns an updated copy."""

    serving_satellite: str
    last_switch_time: Optional[datetime] = None
    degraded_run: int = 0
    event_log: tuple[HoEvent, ...] = ()
    last_step_time: Optional[datetime] = None


def step(
    state: HoState,
    t: datetime,
    categories: Mapping[str, CnrCategory],
    policy: HoPolicy,
) -> tuple[HoState, HoDecision]:
    """Advance the state machine by one minute of predictions.

    ``categories`` maps satellite id to the predicted category at time
    ``t`` and must include the serving satellite.  Pure function: replaying
    the same inputs reproduces the same states and event log.
    """
    if state.serving_satellite not in categories:
        raise ValueError(f"no prediction for serving satellite {state.serving_satellite!r}")
    if state.last_step_time is not None and t <= state.last_step_time:
        raise ValueError(
            f"step time {t.isoformat()} not after last step {state.last_step_time.isoformat()}"
        )

    serving_cat = categories[state.serving_satellite]
    degraded = serving_cat < policy.degrade_threshold
    run = state.degraded_run + 1 if degraded else 0

    dwell_ok = (
        state.last_switch_time is None
        or (t - state.last_switch_time).total_seconds() >= policy.min_dwell_s
    )
    if run >= policy.consecutive_k and dwell_ok:
        better = {
            sat: cat
            for sat, cat in categories.items()
            if sat != state.serving_satellite and cat > serving_cat
        }
        if better:
            best_cat = max(better.values())
            target = min(sat for sat, cat in better.items() if cat == best_cat)
            reason = (
                f"serving {state.serving_satellite} predicted {serving_cat.label} "
                f"for {run} consecutive minutes; {target} predicted {best_cat.label}"
            )
            event = HoEvent(t, state.serving_satellite, target, reason)
            new_state = HoState(
                serving_satellite=target,
                last_switch_time=t,
                degraded_run=0,
                event_log=state.event_log + (event,),
                last_step_time=t,
            )
            return new_state, HoDecision(switch=True, target=target, reason=reason)

    kept = HoState(
        serving_satellite=state.serving_satellite,
        last_switch_time=state.last_switch_time,
        degraded_run=run,
        event_log=state.event_log,
        last_step_time=t,
    )
    return kept, _STAY


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
    if not model_by_sat:
        raise ValueError("at least one satellite model is required")
    waypoints = _columns(waypoints)
    if (np.diff(waypoints.epoch_s) <= 0).any():
        raise ValueError("waypoints must be strictly time-ordered")
    grid: list[dict[str, CnrCategory]] = [{} for _ in range(len(waypoints))]
    if not grid:
        return grid

    wx_models = {
        sat: m for sat, m in (weather_model_by_sat or {}).items()
        if weather is not None and sat in model_by_sat and m is not None
    }
    parts: dict[str, tuple[list[int], LogColumns, Optional[list[WeatherCell]]]] = {
        "all": (list(range(len(waypoints))), waypoints, None)
    }
    if wx_models:
        cells = weather.cells_at(waypoints.epoch_s.astype(float), waypoints.latitude_deg, waypoints.longitude_deg)
        covered = [i for i, c in enumerate(cells) if c is not None]
        uncovered = [i for i, c in enumerate(cells) if c is None]
        parts["covered"] = (covered, waypoints.take(covered), [cells[i] for i in covered])
        parts["uncovered"] = (uncovered, waypoints.take(uncovered), None)

    # One encoding per part of the route and distinct vocabulary; only the
    # satellite column differs between satellites.
    encoded: dict[str, list[tuple[Optional[Vocabulary], FeatureMatrix]]] = {}

    def encode(part: str, vocab: Optional[Vocabulary]) -> FeatureMatrix:
        for seen, matrix in encoded.setdefault(part, []):
            if seen == vocab:
                return matrix
        _, rows, cells = parts[part]
        matrix, _ = encode_features(rows, vocab=vocab, cells=cells, for_prediction=True)
        encoded[part].append((vocab, matrix))
        return matrix

    categories = list(CnrCategory)
    for sat in sorted(model_by_sat):
        if sat in wx_models:
            plan = [("covered", wx_models[sat]), ("uncovered", model_by_sat[sat])]
        else:
            plan = [("all", model_by_sat[sat])]
        for part, model in plan:
            index = parts[part][0]
            if not index:
                continue
            matrix = encode(part, model.vocab)
            matrix.X[:, matrix.columns.index("satellite_id")] = model.vocab.encode("satellite_id", sat)
            for i, label in zip(index, predict_labels(model, matrix).tolist()):
                grid[i][sat] = categories[label]
    return grid


@dataclass
class HoReport:
    """Outcome of simulating the policy over one flight."""

    switches: list[HoEvent]
    steps: int
    outage_minutes: Optional[int]
    baseline_outage_minutes: Optional[int]
    final_state: Optional[HoState] = None

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
    ``predictions`` (e.g. ground truth, for policy-ceiling studies).  When
    ``truth`` maps satellite id to the per-minute true CNR, the report
    counts the minutes the chosen serving satellite was truly Bad or
    unmeasurable, alongside the same count for a never-switching baseline.
    """
    if (model_by_sat is None) == (predictions is None):
        raise ValueError("provide exactly one of model_by_sat or predictions")
    if predictions is None:
        predictions = forecast_route(model_by_sat, records, weather, weather_model_by_sat)
    elif len(predictions) != len(records):
        raise ValueError(f"{len(predictions)} prediction rows for {len(records)} records")

    if not len(records):
        return HoReport(switches=[], steps=0, outage_minutes=None, baseline_outage_minutes=None)
    initial = initial_satellite or records[0].satellite_id
    state = HoState(serving_satellite=initial)
    serving = []
    for record, categories in zip(records, predictions):
        state, _ = step(state, record.log_date, categories, policy)
        serving.append(state.serving_satellite)

    outage = baseline_outage = None
    if truth is not None:
        # No measurement (None, NaN) means no usable link; count it with the Bad minutes.
        cnr = {sat: np.array(values, dtype=float) for sat, values in truth.items()}
        for sat, v in cnr.items():
            if v.shape != (len(serving),) or np.isinf(v).any():
                raise ValueError(f"truth for {sat} needs one finite CNR or None per minute")
        down = {
            sat: (np.isnan(v) | (np.searchsorted(CATEGORY_EDGES_DB, v, side="right") == CnrCategory.BAD)).tolist()
            for sat, v in cnr.items()
        }
        outage = sum(down[sat][i] for i, sat in enumerate(serving))
        baseline_outage = sum(down[initial])

    return HoReport(
        switches=list(state.event_log),
        steps=len(records),
        outage_minutes=outage,
        baseline_outage_minutes=baseline_outage,
        final_state=state,
    )
