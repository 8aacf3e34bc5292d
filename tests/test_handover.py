import re
from dataclasses import dataclass, replace
from pathlib import Path
from datetime import datetime, timedelta, timezone
from time import perf_counter
from typing import Mapping, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satlink import handover
from satlink.cli import load_records
from satlink.handover import (
    HoEvent,
    HoPolicy,
    _forecast_codes,
    _scan,
    forecast_route,
    simulate_handover,
)
from satlink.ingest import (
    UNKNOWN_ID,
    CnrCategory,
    LogColumns,
    bin_cnr,
    encode_features,
    filter_altitude,
    labeled,
    parse_logs,
)
from satlink.model import GbmHyperParams, predict_labels, train_gbm
from satlink.weather import CoverageGapError, SyntheticWeather

from test_ingest import as_log, record

T0 = datetime(2023, 3, 5, 8, 0, tzinfo=timezone.utc)

BAD, WEAK, MEDIUM, GOOD = CnrCategory


def minute(i):
    return T0 + timedelta(minutes=i)


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
    """Advance the policy by one minute of predictions: the reference fold
    for the scan in ``simulate_handover``.

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


def reference_simulate(times, predictions, policy, initial, truth=None):
    """``simulate_handover`` as a fold of :func:`step`: the serving
    satellite after every minute, the events, and the outage and baseline
    minutes when ``truth`` is given."""
    state = HoState(serving_satellite=initial)
    serving = []
    for t, categories in zip(times, predictions):
        state, _ = step(state, t, categories, policy)
        serving.append(state.serving_satellite)
    outage = baseline = None
    if truth is not None:
        down = {
            sat: [v is None or bin_cnr(v) == CnrCategory.BAD for v in values] for sat, values in truth.items()
        }
        outage = sum(down[sat][i] for i, sat in enumerate(serving))
        baseline = sum(down[initial])
    return serving, list(state.event_log), outage, baseline


def run_steps(categories_per_minute, policy, serving="A"):
    state = HoState(serving_satellite=serving)
    decisions = []
    for i, cats in enumerate(categories_per_minute):
        state, decision = step(state, minute(i), cats, policy)
        decisions.append(decision)
    return state, decisions


class TestStep:
    def test_healthy_prediction_keeps_counter_at_zero(self):
        policy = HoPolicy()
        state, decisions = run_steps([{"A": GOOD, "B": GOOD}] * 5, policy)
        assert state.degraded_run == 0
        assert all(not d.switch for d in decisions)
        assert state.event_log == ()

    def test_switch_exactly_on_kth_consecutive_degraded_minute(self):
        policy = HoPolicy(consecutive_k=3, min_dwell_s=0.0)
        grid = [{"A": BAD, "B": MEDIUM}] * 5
        state, decisions = run_steps(grid, policy)
        assert [d.switch for d in decisions] == [False, False, True, False, False]
        assert state.serving_satellite == "B"
        assert state.event_log[0].time == minute(2)

    def test_interrupted_run_resets_counter(self):
        policy = HoPolicy(consecutive_k=3, min_dwell_s=0.0)
        grid = [
            {"A": BAD, "B": MEDIUM},
            {"A": BAD, "B": MEDIUM},
            {"A": WEAK, "B": MEDIUM},
            {"A": BAD, "B": MEDIUM},
            {"A": BAD, "B": MEDIUM},
        ]
        state, decisions = run_steps(grid, policy)
        assert all(not d.switch for d in decisions)
        assert state.degraded_run == 2

    def test_no_switch_when_no_alternative_is_better(self):
        policy = HoPolicy(consecutive_k=2, min_dwell_s=0.0)
        state, decisions = run_steps([{"A": BAD, "B": BAD}] * 10, policy)
        assert all(not d.switch for d in decisions)
        assert state.serving_satellite == "A"
        assert state.degraded_run == 10

    def test_dwell_time_suppresses_rapid_reswitch(self):
        policy = HoPolicy(consecutive_k=1, min_dwell_s=600.0, horizon_min=10)
        # A degrades, switch to B at t0; B degrades immediately after, but
        # the second switch must wait out the 10 minute dwell.
        grid = [{"A": BAD, "B": MEDIUM}]
        grid += [{"A": MEDIUM, "B": BAD}] * 12
        state, decisions = run_steps(grid, policy)
        switch_minutes = [i for i, d in enumerate(decisions) if d.switch]
        assert switch_minutes == [0, 10]
        gaps = [
            (b.time - a.time).total_seconds()
            for a, b in zip(state.event_log, state.event_log[1:])
        ]
        assert all(g >= policy.min_dwell_s for g in gaps)

    def test_target_is_best_category_with_lexicographic_ties(self):
        policy = HoPolicy(consecutive_k=1, min_dwell_s=0.0)
        state, _ = run_steps([{"A": BAD, "C": MEDIUM, "B": MEDIUM, "D": WEAK}], policy)
        assert state.serving_satellite == "B"

    def test_unknown_serving_satellite_rejected(self):
        with pytest.raises(ValueError, match="serving"):
            step(HoState("X"), minute(0), {"A": GOOD}, HoPolicy())

    def test_time_must_advance_past_last_event(self):
        policy = HoPolicy(consecutive_k=1, min_dwell_s=0.0)
        state, _ = step(HoState("A"), minute(0), {"A": BAD, "B": GOOD}, policy)
        with pytest.raises(ValueError, match="not after"):
            step(state, minute(0), {"B": GOOD}, policy)

    def test_time_must_advance_before_any_switch(self):
        policy = HoPolicy()
        state, _ = step(HoState("A"), minute(5), {"A": GOOD}, policy)
        assert state.event_log == () and state.last_step_time == minute(5)
        for earlier in (minute(0), minute(5)):
            with pytest.raises(ValueError, match="not after last step"):
                step(state, earlier, {"A": GOOD}, policy)

    def test_step_is_pure_and_replayable(self):
        policy = HoPolicy(consecutive_k=2, min_dwell_s=0.0)
        grid = [
            {"A": BAD, "B": MEDIUM},
            {"A": BAD, "B": MEDIUM},
            {"A": GOOD, "B": MEDIUM},
        ]
        a_state, _ = run_steps(grid, policy)
        b_state, _ = run_steps(grid, policy)
        assert a_state == b_state

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            HoPolicy(consecutive_k=0)
        with pytest.raises(ValueError):
            HoPolicy(min_dwell_s=-1.0)
        with pytest.raises(ValueError):
            HoPolicy(consecutive_k=5, horizon_min=3)
        for k in (2.5, 3.0, True):
            with pytest.raises(ValueError, match="consecutive_k must be an int"):
                HoPolicy(consecutive_k=k)
        with pytest.raises(ValueError, match="min_dwell_s"):
            HoPolicy(min_dwell_s=float("nan"))
        for horizon in ("10", 10.0, None, True, 0):
            with pytest.raises(ValueError, match="horizon_min must be an int"):
                HoPolicy(horizon_min=horizon)


@st.composite
def step_cases(draw):
    """A policy and per-minute categories for 1-3 satellites, with steps
    one to three minutes apart."""
    sats = ["A", "B", "C"][: draw(st.integers(1, 3))]
    k = draw(st.integers(1, 4))
    policy = HoPolicy(
        degrade_threshold=draw(st.sampled_from(list(CnrCategory))),
        consecutive_k=k,
        min_dwell_s=draw(st.sampled_from([0.0, 60.0, 150.0, 600.0, float("inf")])),
        horizon_min=max(k, 10),
    )
    n = draw(st.integers(0, 80))
    offsets = np.cumsum(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))).tolist()
    cats = st.sampled_from(list(CnrCategory))
    grid = [{sat: draw(cats) for sat in sats} for _ in range(n)]
    return policy, [minute(m) for m in offsets], grid


def replay(policy, times, grid):
    state = HoState(serving_satellite="A")
    serving, decisions = [], []
    for t, cats in zip(times, grid):
        serving.append(state.serving_satellite)
        state, decision = step(state, t, cats, policy)
        decisions.append(decision)
    return state, serving, decisions


class TestStepProperties:
    @settings(max_examples=300, deadline=None)
    @given(step_cases())
    def test_switches_exactly_when_earned(self, case):
        policy, times, grid = case
        state, serving, decisions = replay(policy, times, grid)
        events = iter(state.event_log)
        previous = None  # step of the last switch
        for i, decision in enumerate(decisions):
            sat = serving[i]
            run = 0
            while i - run > (-1 if previous is None else previous) and grid[i - run][sat] < policy.degrade_threshold:
                run += 1
            dwell = None if previous is None else (times[i] - times[previous]).total_seconds()
            better = {s: c for s, c in grid[i].items() if s != sat and c > grid[i][sat]}
            earned = run >= policy.consecutive_k and (dwell is None or dwell >= policy.min_dwell_s) and better
            assert decision.switch == bool(earned), i
            if decision.switch:
                # Degraded for consecutive_k minutes, past the dwell time,
                # to the best strictly better satellite (lowest id on ties).
                event = next(events)
                assert (event.time, event.from_satellite, event.to_satellite) == (times[i], sat, decision.target)
                assert grid[i][event.to_satellite] > grid[i][sat]
                best = max(better.values())
                assert event.to_satellite == min(s for s, c in better.items() if c == best)
                previous = i
        assert next(events, None) is None
        assert replay(policy, times, grid) == (state, serving, decisions)


def two_satellite_flight(n_minutes=40):
    """Satellite A healthy then hard down mid-route; B Medium throughout."""
    records = [record(minute=i, flight_id="HO1", sat="A", duration_min=n_minutes) for i in range(n_minutes)]
    truth = {
        "A": [16.0] * 10 + [3.0] * (n_minutes - 10),
        "B": [12.0] * n_minutes,
    }
    predictions = [
        {"A": GOOD if i < 10 else BAD, "B": MEDIUM} for i in range(n_minutes)
    ]
    return records, truth, predictions


class TestSimulate:
    def test_single_satellite_never_switches(self):
        records = [record(minute=i, flight_id="S1", sat="A") for i in range(20)]
        predictions = [{"A": BAD} for _ in range(20)]
        report = simulate_handover(records, predictions=predictions, policy=HoPolicy(min_dwell_s=0.0))
        assert report.switches == []

    def test_oracle_predictions_beat_never_switching(self):
        records, truth, predictions = two_satellite_flight()
        policy = HoPolicy(consecutive_k=3, min_dwell_s=600.0)
        report = simulate_handover(records, predictions=predictions, policy=policy, truth=truth)
        assert len(report.switches) == 1
        assert report.switches[0].to_satellite == "B"
        # Outage only while the counter was filling; baseline rides A down.
        assert report.outage_minutes == 2
        assert report.baseline_outage_minutes == 30
        assert report.outage_minutes < report.baseline_outage_minutes

    def test_infinite_dwell_allows_at_most_one_switch(self):
        records, truth, predictions = two_satellite_flight()
        # Flip predictions back and forth to invite ping-pong.
        predictions = [
            {"A": BAD if i % 4 < 2 else MEDIUM, "B": BAD if i % 4 >= 2 else MEDIUM}
            for i in range(len(records))
        ]
        policy = HoPolicy(consecutive_k=1, min_dwell_s=float("inf"), horizon_min=1)
        report = simulate_handover(records, predictions=predictions, policy=policy, truth=truth)
        assert len(report.switches) <= 1

    def test_missing_truth_counts_as_outage(self):
        records = [record(minute=i, flight_id="S1", sat="A") for i in range(3)]
        predictions = [{"A": GOOD}] * 3
        truth = {"A": [16.0, None, 16.0]}
        report = simulate_handover(records, predictions=predictions, truth=truth)
        assert report.outage_minutes == 1

    def test_outage_is_a_truly_bad_or_unmeasured_minute(self):
        # Bad is below 6 dB; 6 dB itself is Weak.
        records = [record(minute=i, flight_id="S1", sat="A") for i in range(4)]
        truth = {"A": [6.0, float(np.nextafter(6.0, 0.0)), None, float("nan")]}
        report = simulate_handover(records, predictions=[{"A": GOOD}] * 4, truth=truth)
        assert (report.outage_minutes, report.baseline_outage_minutes) == (3, 3)

    def test_truth_needs_one_finite_value_or_none_per_minute(self):
        records, truth, predictions = two_satellite_flight()
        for bad in ({**truth, "B": truth["B"][:-1]}, {**truth, "B": [float("inf")] * len(records)}):
            with pytest.raises(ValueError, match="truth for B"):
                simulate_handover(records, predictions=predictions, truth=bad)

    def test_report_json_shape(self):
        records, truth, predictions = two_satellite_flight()
        report = simulate_handover(
            records, predictions=predictions, policy=HoPolicy(min_dwell_s=0.0), truth=truth
        )
        payload = report.to_dict()
        assert set(payload) == {"switches", "outage_minutes", "baseline_outage_minutes"}
        assert payload["switches"][0].keys() == {"t", "from", "to", "reason"}

    def test_requires_exactly_one_prediction_source(self):
        records = [record(minute=0, flight_id="S1", sat="A")]
        with pytest.raises(ValueError, match="exactly one"):
            simulate_handover(records)

    def test_truth_must_cover_every_satellite_served(self):
        records, truth, predictions = two_satellite_flight()
        policy = HoPolicy(min_dwell_s=0.0)
        for partial, missing in (({"A": truth["A"]}, "'B'"), ({"B": truth["B"]}, "'A'")):
            with pytest.raises(ValueError, match=f"truth has no CNR for satellite {missing}"):
                simulate_handover(records, predictions=predictions, policy=policy, truth=partial)

    def test_missing_prediction_raises_only_while_serving(self):
        records = [record(minute=i, flight_id="S1", sat="A") for i in range(8)]
        predictions = [{"A": BAD, "B": MEDIUM}] * 2 + [{"B": MEDIUM}] * 6
        policy = HoPolicy(consecutive_k=1, min_dwell_s=0.0)
        report = simulate_handover(records, predictions=predictions, policy=policy)
        assert [(e.time, e.to_satellite) for e in report.switches] == [(minute(0), "B")]
        with pytest.raises(ValueError, match="no prediction for serving satellite 'A'"):
            simulate_handover(records, predictions=predictions, policy=replace(policy, consecutive_k=3))

    def test_initial_satellite_without_predictions_rejected(self):
        records, _, predictions = two_satellite_flight()
        with pytest.raises(ValueError, match="no prediction for serving satellite 'X'"):
            simulate_handover(records, predictions=predictions, initial_satellite="X")

    @pytest.mark.parametrize("value", [7, 2.5, True, "GOOD", None, 3, np.int8(2), float("nan")])
    def test_prediction_values_must_be_categories(self, value):
        records = [record(minute=i, flight_id="S1", sat="A", duration_min=5) for i in range(5)]
        predictions = [{"A": GOOD, "B": WEAK} for _ in range(5)]
        predictions[3]["B"] = value
        message = f"prediction for 'B' at minute 3 is not a CnrCategory: {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate_handover(records, predictions=predictions, policy=HoPolicy(consecutive_k=1))

    def test_first_minute_with_a_bad_value_is_named(self):
        records = [record(minute=i, flight_id="S1", sat="A", duration_min=5) for i in range(5)]
        predictions = [{"A": GOOD, "B": WEAK} for _ in range(5)]
        predictions[4]["A"], predictions[2]["B"], predictions[2]["C"] = 1, 1.0, None
        with pytest.raises(ValueError, match=re.escape("prediction for 'B' at minute 2 is not a CnrCategory: 1.0")):
            simulate_handover(records, predictions=predictions)

    def test_records_are_converted_once(self, monkeypatch, sat_models):
        """A record list with models becomes columns on entry; the forecast
        and the policy both read those columns."""
        conversions = []
        from_records, utc_seconds_of = LogColumns.from_records.__func__, handover._utc_seconds

        def counting(cls, records):
            conversions.append("from_records")
            return from_records(cls, records)

        def utc_seconds(times):
            conversions.append("_utc_seconds")
            return utc_seconds_of(times)

        records = [record(minute=i, flight_id="S1", sat="A", lat=float(i), cnr=None) for i in range(30)]
        columns = as_log(records)
        expected = simulate_handover(records, model_by_sat=sat_models)
        monkeypatch.setattr(LogColumns, "from_records", classmethod(counting))
        monkeypatch.setattr(handover, "_utc_seconds", utc_seconds)
        assert simulate_handover(records, model_by_sat=sat_models) == expected
        assert conversions == ["from_records"]
        conversions.clear()
        assert simulate_handover(columns, model_by_sat=sat_models) == expected
        assert conversions == []


@st.composite
def flight_cases(draw):
    """A policy, minutes, per-minute predictions and true CNR of 1-3
    satellites, and the initial satellite.  Minutes are one to three
    apart, with now and then one that does not advance; one satellite may
    miss its prediction at up to two minutes, and the initial satellite
    may have none at all."""
    sats = ["A", "B", "C"][: draw(st.integers(1, 3))]
    k = draw(st.integers(1, 4))
    policy = HoPolicy(
        degrade_threshold=draw(st.sampled_from([BAD, WEAK, MEDIUM, MEDIUM, GOOD, GOOD])),
        consecutive_k=k,
        min_dwell_s=draw(st.sampled_from([0.0, 60.0, 120.0, 150.0, 180.0, 600.0, float("inf")])),
        horizon_min=max(k, 10),
    )
    n = draw(st.integers(1, 80))
    gaps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    if n > 1 and draw(st.integers(0, 4)) == 0:
        gaps[draw(st.integers(1, n - 1))] = draw(st.integers(-1, 0))
    cats = st.sampled_from(list(CnrCategory))
    grid = [{sat: draw(cats) for sat in sats} for _ in range(n)]
    gappy = draw(st.sampled_from(sats))  # the satellite whose predictions have holes
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        del grid[i][gappy]
    cnr = st.sampled_from([None, 3.0, 8.0, 12.0, 16.0])
    truth = {sat: [draw(cnr) for _ in range(n)] for sat in sats}
    initial = draw(st.sampled_from(sats * 3 + ["X"]))
    return policy, (5 + np.cumsum(gaps)).tolist(), grid, truth, initial


class TestScanEqualsReferenceFold:
    @settings(max_examples=300, deadline=None)
    @given(flight_cases())
    def test_same_serving_events_and_outages(self, case):
        policy, minutes, grid, truth, initial = case
        records = [record(minute=m, flight_id="EQ", sat="A") for m in minutes]
        times = [r.log_date for r in records]
        run = lambda: simulate_handover(
            records, predictions=grid, policy=policy, truth=truth, initial_satellite=initial
        )
        try:
            serving, events, outage, baseline = reference_simulate(times, grid, policy, initial, truth)
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                run()
            assert str(raised.value) == str(error)
            return
        report = run()
        assert report.switches == events
        assert [e.reason for e in report.switches] == [e.reason for e in events]
        assert (report.outage_minutes, report.baseline_outage_minutes) == (outage, baseline)
        sats = sorted(set().union(*grid))
        codes = np.array([[row.get(sat, -1) for sat in sats] for row in grid], dtype=np.int8)
        served, _ = _scan(sats, codes, np.array(minutes) * 60, sats.index(initial), policy)
        assert [sats[c] for c in served.tolist()] == serving

    def test_switching_every_minute_is_no_slower_than_the_fold(self):
        n = 20_000
        one = LogColumns.from_records([record(minute=0, flight_id="LONG", sat="A", duration_min=n)])
        columns = replace(one.take(np.zeros(n, dtype=int)), epoch_s=one.epoch_s[0] + 60 * np.arange(n))
        grid = [{"A": BAD, "B": GOOD}, {"A": GOOD, "B": BAD}] * (n // 2)
        policy = HoPolicy(consecutive_k=1, min_dwell_s=0.0, horizon_min=1)
        started = perf_counter()
        _, events, _, _ = reference_simulate([minute(i) for i in range(n)], grid, policy, "A")
        fold_s = perf_counter() - started
        started = perf_counter()
        report = simulate_handover(columns, predictions=grid, policy=policy)
        scan_s = perf_counter() - started
        assert len(report.switches) == n
        assert report.switches == events
        assert scan_s <= fold_s, (scan_s, fold_s)


@pytest.fixture(scope="module")
def sat_models():
    rng = np.random.default_rng(8)
    # CNR pattern differs by satellite so the models disagree.
    records = []
    for i in range(240):
        lat = float(rng.uniform(-40, 60))
        for sat, shift in (("A", 0.0), ("B", 5.0)):
            cnr = 4.0 + (12.0 if lat + shift > 10.0 else 3.0) + float(rng.uniform(0, 0.5))
            records.append(
                record(
                    minute=i,
                    flight_id=f"F{i % 6}",
                    lat=lat,
                    sat=sat,
                    cnr=min(cnr, 20.0),
                    duration_min=600,
                )
            )
    matrix, _ = encode_features(as_log(records))
    model = train_gbm(matrix, GbmHyperParams(n_rounds=30, max_depth=3))
    return {"A": model, "B": model}


@pytest.fixture(scope="module")
def blind_model():
    """A model of one satellite's rows, so no tree reads satellite_id."""
    rng = np.random.default_rng(10)
    records = []
    for i in range(240):
        lat = float(rng.uniform(-40, 60))
        cnr = 4.0 + (12.0 if lat > 10.0 else 3.0) + float(rng.uniform(0, 0.5))
        records.append(record(minute=i, flight_id=f"F{i % 6}", lat=lat, sat="A", cnr=cnr, duration_min=600))
    return train_gbm(encode_features(as_log(records))[0], GbmHyperParams(n_rounds=10, max_depth=3))


def reference_forecast_route(model_by_sat, waypoints, weather=None, weather_model_by_sat=None):
    """Copy-per-satellite forecast: every satellite re-labels a copy of
    every waypoint, looks up its weather and encodes it; the reference
    for ``forecast_route``."""
    grid = [{} for _ in waypoints]
    for sat in sorted(model_by_sat):
        rows = [replace(r, satellite_id=sat, cnr_db=None) for r in waypoints]
        wx_model = (weather_model_by_sat or {}).get(sat)
        parts = [(range(len(rows)), model_by_sat[sat], None)]
        if weather is not None and wx_model is not None:
            cells = []
            for r in rows:
                try:
                    cells.append(weather.cell_at(r.log_date, r.position).values)
                except CoverageGapError:
                    cells.append(None)
            covered = [i for i, c in enumerate(cells) if c is not None]
            uncovered = [i for i, c in enumerate(cells) if c is None]
            parts = [(covered, wx_model, [cells[i] for i in covered]), (uncovered, model_by_sat[sat], None)]
        for index, model, part_cells in parts:
            if not index:
                continue
            matrix, _ = encode_features(
                as_log([rows[i] for i in index]), vocab=model.vocab, cells=part_cells, for_prediction=True
            )
            for i, label in zip(index, predict_labels(model, matrix)):
                grid[i][sat] = CnrCategory(int(label))
    return grid


class PartialCoverage:
    """Synthetic weather with a coverage gap every third minute."""

    def __init__(self, inner):
        self.inner = inner

    def cell_at(self, t, p):
        if t.minute % 3 == 0:
            raise CoverageGapError(f"no cell at {t.isoformat()}")
        return self.inner.cell_at(t, p)

    def cells_at(self, epoch_s, lat_deg, lon_deg):
        cells = self.inner.cells_at(epoch_s, lat_deg, lon_deg)
        cells[np.asarray(epoch_s) // 60 % 3 == 0] = np.nan
        return cells


@pytest.fixture(scope="module")
def demo_forecast_setup(small_corpus):
    """Per-satellite models of the demo corpus with different vocabularies
    (two satellites share one), weather twins for two of them, and one
    held-out demo flight as waypoints."""
    records = load_records(small_corpus["dir"])
    flights = sorted({r.flight_id for r in records})
    held_out = [r for r in records if r.flight_id == flights[0]]
    hp = GbmHyperParams(n_rounds=10, max_depth=4, learning_rate=0.5)

    def fit(flight_ids, weather=None):
        rows = labeled(as_log([r for r in records if r.flight_id in flight_ids]))
        cells = None
        if weather is not None:
            rows = filter_altitude(rows, max_m=3000.0)
            cells = [weather.cell_at(r.log_date, r.position).values for r in rows]
        return train_gbm(encode_features(rows, cells=cells)[0], hp)

    provider = SyntheticWeather(6.0, 13)
    odd, even = set(flights[1::2]), set(flights[2::2])
    shared = fit(odd)
    models = {"I5F1": shared, "I5F2": fit(even), "I5F3": shared}
    assert models["I5F1"].vocab != models["I5F2"].vocab
    wx_models = {"I5F1": fit(odd, provider), "I5F2": fit(even, provider)}
    return models, wx_models, PartialCoverage(provider), held_out


class TestForecastRoute:
    def test_empty_waypoints_give_empty_grid(self, sat_models):
        assert forecast_route(sat_models, []) == []

    def test_grid_matches_per_row_predictions(self, sat_models):
        rng = np.random.default_rng(9)
        waypoints = [
            record(minute=i, flight_id="PLAN", lat=float(rng.uniform(-40, 60)), cnr=None)
            for i in range(50)
        ]
        grid = forecast_route(sat_models, waypoints)
        for sat in ("A", "B"):
            rows = [replace(wp, satellite_id=sat) for wp in waypoints]
            matrix, _ = encode_features(as_log(rows), vocab=sat_models[sat].vocab, for_prediction=True)
            assert [g[sat] for g in grid] == predict_labels(sat_models[sat], matrix).tolist()

    def test_waypoints_must_be_time_ordered(self, sat_models):
        waypoints = [record(minute=1, cnr=None), record(minute=0, cnr=None)]
        with pytest.raises(ValueError, match="time-ordered"):
            forecast_route(sat_models, waypoints)

    def test_weather_gap_falls_back_to_base_model(self, sat_models):
        from datetime import timedelta
        from satlink.weather import SyntheticWeather, synth_weather_field

        # Weather-augmented twin of the base models, trained on joined rows.
        provider = SyntheticWeather(10.0, 4)
        rng = np.random.default_rng(21)
        train_rows = []
        cells = []
        for i in range(200):
            r = record(
                minute=i,
                flight_id=f"F{i % 5}",
                lat=float(rng.uniform(8.0, 12.0)),
                lon=float(rng.uniform(18.0, 22.0)),
                cnr=float(rng.uniform(4.0, 12.0)),
                duration_min=600,
            )
            train_rows.append(r)
            cells.append(provider.cell_at(r.log_date, r.position).values)
        matrix, _ = encode_features(as_log(train_rows), cells=cells)
        wx_model = train_gbm(matrix, GbmHyperParams(n_rounds=10, max_depth=3))
        wx_models = {"A": wx_model, "B": wx_model}

        # Field covering only the first waypoint's area and hour.
        base_hour = record(minute=0).log_date.replace(minute=0)
        field = synth_weather_field(
            (9.5, 10.5, 19.5, 20.5), (base_hour, base_hour + timedelta(hours=1)), 10.0, 4
        )
        inside = record(minute=0, flight_id="PLAN", lat=10.0, lon=20.0, cnr=None)
        outside = record(minute=1, flight_id="PLAN", lat=50.0, lon=-120.0, cnr=None)
        grid = forecast_route(sat_models, [inside, outside], weather=field, weather_model_by_sat=wx_models)
        assert set(grid[0]) == set(grid[1]) == {"A", "B"}

        # The covered waypoint reproduces the weather model's prediction,
        # the uncovered one the base model's.
        cell = field.cell_at(inside.log_date, inside.position)
        m_in, _ = encode_features(
            as_log([replace(inside, satellite_id="A")]), vocab=wx_model.vocab, cells=[cell.values], for_prediction=True
        )
        assert grid[0]["A"] == predict_labels(wx_model, m_in)[0]
        m_out, _ = encode_features(
            as_log([replace(outside, satellite_id="A")]), vocab=sat_models["A"].vocab, for_prediction=True
        )
        assert grid[1]["A"] == predict_labels(sat_models["A"], m_out)[0]

    def test_matches_copy_per_satellite_reference(self, demo_forecast_setup):
        models, _, _, waypoints = demo_forecast_setup
        grid = forecast_route(models, waypoints)
        assert grid == reference_forecast_route(models, waypoints)
        assert any(len(set(g.values())) > 1 for g in grid)

    def test_weather_path_matches_copy_per_satellite_reference(self, demo_forecast_setup):
        models, wx_models, weather, waypoints = demo_forecast_setup
        covered = [wp.log_date.minute % 3 != 0 for wp in waypoints]
        assert any(covered) and not all(covered)
        grid = forecast_route(models, waypoints, weather, wx_models)
        assert grid == reference_forecast_route(models, waypoints, weather, wx_models)
        assert grid != forecast_route(models, waypoints)


def reference_rows(sats, codes):
    """A forecast grid as one dictcomp per row: the rows ``forecast_route`` returns."""
    return [{sat: CnrCategory(c) for sat, c in zip(sats, row) if c >= 0} for row in codes.tolist()]


@st.composite
def code_grids(draw):
    """Sorted satellites and an ``int8`` grid of codes with -1 holes, few
    distinct rows among many, and no rows at all now and then."""
    sats = ["A", "B", "C", "D"][: draw(st.integers(0, 4))]
    codes = st.lists(st.integers(-1, 3), min_size=len(sats), max_size=len(sats))
    distinct = draw(st.lists(codes, min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(distinct), max_size=40))
    return sats, np.array(rows, dtype=np.int8).reshape(len(rows), len(sats))


class TestForecastRows:
    @settings(max_examples=200, deadline=None)
    @given(code_grids())
    def test_rows_equal_per_row_oracle_and_are_independent(self, case):
        sats, codes = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(handover, "_forecast_codes", lambda *args: (sats, codes))
            grid = forecast_route(dict.fromkeys(sats), [])
        expected = reference_rows(sats, codes)
        assert grid == expected
        assert all(type(c) is CnrCategory for row in grid for c in row.values())
        for i, row in enumerate(grid):
            row.clear()
            assert grid[i + 1 :] == expected[i + 1 :]

    def test_weather_split_rows_equal_per_row_oracle(self, demo_forecast_setup):
        models, wx_models, weather, waypoints = demo_forecast_setup
        sats, codes = _forecast_codes(models, waypoints, weather, wx_models)
        assert len(np.unique(codes, axis=0)) > 1
        assert forecast_route(models, waypoints, weather, wx_models) == reference_rows(sats, codes)

    def test_changing_one_row_leaves_the_others(self, sat_models):
        grid = forecast_route(sat_models, plan_waypoints())
        before = [dict(row) for row in grid]
        assert before.count(before[0]) > 1
        grid[0]["A"] = grid[0]["B"] = BAD
        grid[0]["Z"] = GOOD
        assert grid[1:] == before[1:]


def reads_satellite(model):
    column = model.columns.index("satellite_id")
    return any((tree.feature == column).any() for trees in model.trees for tree in trees)


def label_keys(model_by_sat, wx_models=None):
    """The distinct (part, model, satellite code) inputs of a forecast whose
    route has waypoints inside and outside weather coverage."""
    keys = set()
    for sat in model_by_sat:
        if sat in (wx_models or {}):
            plan = [("covered", wx_models[sat]), ("uncovered", model_by_sat[sat])]
        else:
            plan = [("all", model_by_sat[sat])]
        for part, model in plan:
            code = model.vocab.encode("satellite_id", sat) if reads_satellite(model) else None
            keys.add((part, id(model), code))
    return keys


def plan_waypoints(n=50, seed=9):
    rng = np.random.default_rng(seed)
    return [record(minute=i, flight_id="PLAN", lat=float(rng.uniform(-40, 60)), cnr=None) for i in range(n)]


class TestForecastSharing:
    """Each distinct (part, model, satellite code) is labelled once."""

    def forecast_calls(self, monkeypatch, models, waypoints, weather=None, wx_models=None):
        calls = []

        def counting(model, matrix):
            calls.append(model)
            return predict_labels(model, matrix)

        monkeypatch.setattr(handover, "predict_labels", counting)
        sats, codes = _forecast_codes(models, waypoints, weather, wx_models)
        monkeypatch.undo()
        expected = reference_forecast_route(models, waypoints, weather, wx_models)
        assert codes.tolist() == [[int(row[sat]) for sat in sats] for row in expected]
        assert forecast_route(models, waypoints, weather, wx_models) == expected
        assert len(calls) == len(label_keys(models, wx_models))
        return len(calls)

    def test_no_tree_reads_satellite_id(self, monkeypatch, blind_model):
        assert not reads_satellite(blind_model)
        models = dict.fromkeys("ABC", blind_model)
        assert self.forecast_calls(monkeypatch, models, plan_waypoints()) == 1

    def test_some_trees_read_satellite_id(self, monkeypatch, sat_models):
        assert reads_satellite(sat_models["A"])
        assert self.forecast_calls(monkeypatch, sat_models, plan_waypoints()) == 2

    def test_unknown_satellites_share_the_unknown_code(self, monkeypatch, sat_models):
        model = sat_models["A"]
        assert model.vocab.encode("satellite_id", "Y") == model.vocab.encode("satellite_id", "Z") == UNKNOWN_ID
        models = dict.fromkeys("ABYZ", model)
        assert self.forecast_calls(monkeypatch, models, plan_waypoints()) == 3

    def test_different_models_per_satellite(self, monkeypatch, sat_models, blind_model):
        # D's model keeps B's vocabulary object but predicts otherwise.
        reversed_priors = replace(blind_model, base_score=blind_model.base_score[::-1].copy())
        models = {"A": sat_models["A"], "B": blind_model, "C": blind_model, "D": reversed_priors}
        assert self.forecast_calls(monkeypatch, models, plan_waypoints()) == 3
        waypoints = plan_waypoints()
        assert forecast_route({"B": blind_model}, waypoints) != forecast_route({"B": reversed_priors}, waypoints)

    def test_weather_models_for_some_satellites(self, monkeypatch, demo_forecast_setup):
        models, wx_models, weather, waypoints = demo_forecast_setup
        assert not any(map(reads_satellite, [*models.values(), *wx_models.values()]))
        assert self.forecast_calls(monkeypatch, models, waypoints, weather, wx_models) == 5
        # I5F1 and I5F3 share both their models, I5F2 has no weather model.
        shared = dict.fromkeys(["I5F1", "I5F3"], wx_models["I5F1"])
        assert self.forecast_calls(monkeypatch, models, waypoints, weather, shared) == 3

    def test_features_read_is_every_split_feature(self, sat_models, blind_model, demo_forecast_setup):
        models, wx_models, _, _ = demo_forecast_setup
        for model in [sat_models["A"], blind_model, *models.values(), *wx_models.values()]:
            brute = {
                column for column in range(len(model.columns))
                if any((tree.feature == column).any() for trees in model.trees for tree in trees)
            }
            assert model.features_read == brute
        column = blind_model.columns.index("satellite_id")
        assert column in sat_models["A"].features_read and column not in blind_model.features_read


class TestColumnsInput:
    def test_columns_and_records_give_equal_reports(self, small_corpus, demo_forecast_setup):
        """The hosim path: parsed columns and the same rows as records."""
        models, wx_models, weather, _ = demo_forecast_setup
        flight = sorted(Path(small_corpus["dir"], "flights").glob("*.csv"))[0]
        columns = parse_logs([str(flight)])
        records = columns.to_records()
        sats = sorted(models)
        assert records[0].satellite_id in sats
        # Each satellite in turn is Bad for 20 minutes while the others are Good.
        predictions = [
            {sat: BAD if i // 20 % 3 == j else GOOD for j, sat in enumerate(sats)} for i in range(len(records))
        ]
        rng = np.random.default_rng(12)
        truth = {sat: rng.uniform(0.0, 20.0, len(records)).tolist() for sat in sats}
        sources = (
            {"model_by_sat": models, "weather": weather, "weather_model_by_sat": wx_models},
            {"predictions": predictions},
        )
        for source in sources:
            from_columns = simulate_handover(columns, truth=truth, **source)
            from_records = simulate_handover(records, truth=truth, **source)
            assert from_columns == from_records
            assert [e.time for e in from_columns.switches] == [e.time for e in from_records.switches]
            assert from_columns.to_dict() == from_records.to_dict()
        assert from_columns.switches
