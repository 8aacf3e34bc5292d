from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satlink.cli import load_records
from satlink.handover import (
    HoPolicy,
    HoState,
    forecast_route,
    simulate_handover,
    step,
)
from satlink.ingest import CnrCategory, encode_features, filter_altitude, labeled
from satlink.model import GbmHyperParams, predict_category, predict_labels, train_gbm
from satlink.weather import CoverageGapError, SyntheticWeather

from test_ingest import record

T0 = datetime(2023, 3, 5, 8, 0, tzinfo=timezone.utc)

BAD, WEAK, MEDIUM, GOOD = CnrCategory


def minute(i):
    return T0 + timedelta(minutes=i)


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
    matrix, _ = encode_features(records)
    model = train_gbm(matrix, GbmHyperParams(n_rounds=30, max_depth=3))
    return {"A": model, "B": model}


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
                    cells.append(weather.cell_at(r.log_date, r.position))
                except CoverageGapError:
                    cells.append(None)
            covered = [i for i, c in enumerate(cells) if c is not None]
            uncovered = [i for i, c in enumerate(cells) if c is None]
            parts = [(covered, wx_model, [cells[i] for i in covered]), (uncovered, model_by_sat[sat], None)]
        for index, model, part_cells in parts:
            if not index:
                continue
            matrix, _ = encode_features(
                [rows[i] for i in index], vocab=model.vocab, cells=part_cells, for_prediction=True
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
        minutes = (np.asarray(epoch_s) // 60 % 60).tolist()
        cells = self.inner.cells_at(epoch_s, lat_deg, lon_deg)
        return [None if minute % 3 == 0 else cell for minute, cell in zip(minutes, cells)]


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
        rows = labeled([r for r in records if r.flight_id in flight_ids])
        cells = None
        if weather is not None:
            rows = filter_altitude(rows, max_m=3000.0)
            cells = [weather.cell_at(r.log_date, r.position) for r in rows]
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
            matrix, _ = encode_features(rows, vocab=sat_models[sat].vocab, for_prediction=True)
            expected = predict_category(sat_models[sat], matrix)
            assert [g[sat] for g in grid] == expected

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
            cells.append(provider.cell_at(r.log_date, r.position))
        matrix, _ = encode_features(train_rows, cells=cells)
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
        cell = field.lookup_nearest(inside.log_date, inside.position)
        m_in, _ = encode_features(
            [replace(inside, satellite_id="A")], vocab=wx_model.vocab, cells=[cell], for_prediction=True
        )
        assert grid[0]["A"] == predict_category(wx_model, m_in)[0]
        m_out, _ = encode_features(
            [replace(outside, satellite_id="A")], vocab=sat_models["A"].vocab, for_prediction=True
        )
        assert grid[1]["A"] == predict_category(sat_models["A"], m_out)[0]

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
