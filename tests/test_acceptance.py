"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The synthetic corpus used for the end-to-end criteria (210 flights,
~127k labeled rows) is generated once per session with the frozen default
link parameters.
"""

import json
import time
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest

from satlink.cli import ExperimentSpec, build_experiment_dataset, load_records, run_experiment
from satlink.flightsim import (
    DEFAULT_LINK_PARAMS,
    WeatherSpec,
    demo_config,
    demo_route_plans,
    demo_satellites,
    generate_dataset,
    sample_cnr_population,
)
from satlink.geometry import GeoPosition, GeoSatellite, geo_look_angles, haversine_m
from satlink.handover import HoPolicy, simulate_handover
from satlink.ingest import (
    CnrCategory,
    LogColumns,
    bin_cnr,
    join_weather,
    split_by_flight,
)
from satlink.model import (
    GbmHyperParams,
    confusion_matrix,
    eval_regressor,
    evaluate_classifier,
    load_model,
    predict_labels,
    predict_proba,
    predict_value,
    report_from_confusion,
    save_model,
    train_gbm,
    train_regressor,
)
from satlink.weather import synth_weather_field

from conftest import separable_toy
from test_geometry import oracle_elevation_deg
from test_gbm import exact_greedy_split
from test_ingest import record
from test_metrics import oracle_rates

BIG_HP = GbmHyperParams(n_rounds=120, max_depth=6, learning_rate=0.15)
CORPUS_WEATHER = WeatherSpec(storm_density=8.0, seed=77)


def train_checked(train_fn, matrix, hp):
    """Train and enforce the monotone-training-loss property on every run."""
    model = train_fn(matrix, hp)
    losses = np.array(model.train_loss)
    assert np.all(np.diff(losses) <= 1e-9), "training loss increased between rounds"
    return model


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """>=200 flights generated with the frozen default link parameters."""
    out_dir = tmp_path_factory.mktemp("acceptance_corpus")
    config = demo_config(
        flights_per_route=35,
        seed=2023,
        weather=CORPUS_WEATHER,
        climb_rate_mps=3.0,
        descent_rate_mps=2.5,
    )
    started = time.perf_counter()
    manifest = generate_dataset(config, str(out_dir))
    records = load_records(str(out_dir))
    seconds = time.perf_counter() - started
    assert manifest["flights"] >= 200
    assert manifest["labeled_rows"] >= 100_000
    return {
        "dir": str(out_dir),
        "config": config,
        "manifest": manifest,
        "records": records,
        "seconds": seconds,
    }


@pytest.fixture(scope="module")
def high_alt_run(corpus):
    """High-altitude classifier shared by criteria 5 and 6."""
    started = time.perf_counter()
    spec = ExperimentSpec(name="alt>6000", min_altitude_m=6000, hyperparams=BIG_HP, seed=7)
    matrix, _ = build_experiment_dataset(corpus["records"], spec)
    train, test = split_by_flight(matrix, spec.test_fraction, spec.seed)
    model = train_checked(train_gbm, train, BIG_HP)
    report = evaluate_classifier(model, test)
    return {
        "spec": spec,
        "train": train,
        "test": test,
        "model": model,
        "report": report,
        "seconds": time.perf_counter() - started,
    }


def test_c01_binning_exhaustive_sweep():
    def piecewise(v):
        if v < 6.0:
            return CnrCategory.BAD
        if v < 10.0:
            return CnrCategory.WEAK
        if v < 15.0:
            return CnrCategory.MEDIUM
        return CnrCategory.GOOD

    started = time.perf_counter()
    for i in range(2001):
        v = round(i * 0.01, 2)
        assert bin_cnr(v) is piecewise(v), v
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\n[C1] binning sweep 0.00..20.00 step 0.01 matches piecewise oracle ({elapsed*1e3:.0f} ms): PASS")


def test_c02_geometry_matches_vector_oracle():
    rng = np.random.default_rng(20230710)
    worst = 0.0
    for _ in range(1000):
        p = GeoPosition(rng.uniform(-85.0, 85.0), rng.uniform(-180.0, 180.0), rng.uniform(0.0, 13000.0))
        sat = GeoSatellite("S", rng.uniform(-180.0, 180.0))
        got = geo_look_angles(p, sat).elevation_deg
        want = oracle_elevation_deg(p, sat)
        worst = max(worst, abs(got - want))
    assert worst <= 1e-6
    for slot in (0.0, 62.6, -55.0, 179.6):
        assert geo_look_angles(GeoPosition(0.0, slot), GeoSatellite("S", slot)).elevation_deg == 90.0
    print(f"[C2] look angles within {worst:.2e} deg of the ECEF oracle; zenith exact: PASS")


def test_c03_metrics_match_brute_force_oracle():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        cm = rng.integers(0, 60, size=(4, 4))
        if cm.sum() == 0:
            cm[0, 0] = 1
        report = report_from_confusion(cm)
        p, r, f1, weighted, macro, acc = oracle_rates(cm.tolist())
        for got, want in [
            (report.precision, p),
            (report.recall, r),
            (report.f1, f1),
            ([report.weighted_f1], [weighted]),
            ([report.macro_f1], [macro]),
            ([report.accuracy], [acc]),
        ]:
            worst = max(worst, float(np.max(np.abs(np.asarray(got) - np.asarray(want)))))
    assert worst <= 1e-12
    print(f"[C3] weighted/macro F1, precision, recall within {worst:.1e} of oracle on 100 matrices: PASS")


def test_c04_learner_sanity():
    toy = separable_toy()
    model = train_checked(train_gbm, toy, GbmHyperParams(n_rounds=50))
    accuracy = float(np.mean(predict_labels(model, toy) == toy.y))
    assert accuracy == 1.0

    rng = np.random.default_rng(31)
    for _ in range(5):
        X = np.round(rng.normal(size=(30, 2)), 3)
        y = rng.integers(0, 2, 30)
        from conftest import make_matrix

        hp = GbmHyperParams(n_rounds=1, max_depth=1, min_child_weight=0.25)
        small = train_checked(train_gbm, make_matrix(X, y=y), hp)
        counts = np.bincount(y, minlength=4).astype(float)
        priors = np.clip(counts / counts.sum(), 1e-12, None)
        p0 = np.exp(np.log(priors))[0] / np.exp(np.log(priors)).sum()
        g = np.full(30, p0) - (y == 0)
        h = np.full(30, p0 * (1.0 - p0))
        want = exact_greedy_split(X, g, h, hp.l2_lambda, hp.min_child_weight)
        tree = small.trees[0][0]
        assert (int(tree.feature[0]), float(tree.threshold[0])) == (want[0], pytest.approx(want[1]))
    print(f"[C4] toy accuracy 1.0 in <=50 rounds; loss monotone; first split matches exact-greedy oracle: PASS")


def test_c05_end_to_end_directional_replication(corpus, high_alt_run):
    started = time.perf_counter()
    low_spec = ExperimentSpec(name="alt<3000", max_altitude_m=3000, hyperparams=BIG_HP, seed=7)
    low_report, low_model = run_experiment(corpus["records"], low_spec)
    assert np.all(np.diff(np.array(low_model.train_loss)) <= 1e-9)

    wx_spec = ExperimentSpec(
        name="alt<3000 +weather",
        max_altitude_m=3000,
        weather={"storm_density": CORPUS_WEATHER.storm_density, "seed": CORPUS_WEATHER.seed},
        hyperparams=BIG_HP,
        seed=7,
    )
    wx_report, wx_model = run_experiment(corpus["records"], wx_spec)
    assert np.all(np.diff(np.array(wx_model.train_loss)) <= 1e-9)

    high_f1 = high_alt_run["report"].weighted_f1
    low_f1 = low_report.eval_report.weighted_f1
    wx_f1 = wx_report.eval_report.weighted_f1
    assert high_f1 >= 0.90, f"high-altitude weighted F1 {high_f1:.4f} < 0.90"
    assert low_f1 < high_f1, f"low-altitude {low_f1:.4f} not below high-altitude {high_f1:.4f}"
    assert wx_f1 - low_f1 >= 0.01, f"weather gain {wx_f1 - low_f1:.4f} < 0.01"

    elapsed = (
        corpus["seconds"]
        + high_alt_run["seconds"]
        + (time.perf_counter() - started)
    )
    assert elapsed <= 300.0, f"end-to-end pipeline took {elapsed:.0f}s > 5 min"
    print(
        f"[C5] {corpus['manifest']['flights']} flights / {corpus['manifest']['labeled_rows']} rows; "
        f"wF1 high={high_f1:.4f} low={low_f1:.4f} low+wx={wx_f1:.4f} "
        f"(gain {wx_f1 - low_f1:+.4f}) in {elapsed:.0f}s: PASS"
    )


def test_c06_regression_pivot(high_alt_run):
    train, test = high_alt_run["train"], high_alt_run["test"]
    regressor = train_checked(train_regressor, train, BIG_HP)
    mse, mae = eval_regressor(regressor, test)

    predicted_db = np.clip(predict_value(regressor, test), 0.0, 20.0)
    via_regression = report_from_confusion(
        confusion_matrix(test.y, [int(bin_cnr(float(v))) for v in predicted_db])
    )
    direct_f1 = high_alt_run["report"].weighted_f1
    assert direct_f1 >= via_regression.weighted_f1
    print(
        f"[C6] regressor MSE={mse:.4f} dB^2 MAE={mae:.4f} dB; direct wF1 {direct_f1:.5f} >= "
        f"categorize-regressor wF1 {via_regression.weighted_f1:.5f}: PASS"
    )


def test_c07_weather_join_oracle():
    base = record(minute=0).log_date.replace(minute=0)
    field = synth_weather_field((9.0, 11.0, 19.0, 21.0), (base, base + timedelta(hours=4)), 20.0, 5)

    hours = np.array([int(c.hour_utc.timestamp()) for c in field], dtype=np.int64)
    lats = np.array([c.grid_lat_deg for c in field])
    lons = np.array([c.grid_lon_deg for c in field])
    cells = list(field)

    def oracle(t, p):
        # Global lexicographic minimization over every cell, independent of
        # the two-stage implementation.
        dt = np.abs(t.timestamp() - hours)
        lat1 = np.radians(p.latitude_deg)
        lat2 = np.radians(lats)
        h = np.sin((lat2 - lat1) / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(
            np.radians(lons - p.longitude_deg) / 2
        ) ** 2
        dist = 2 * 6_371_000.0 * np.arcsin(np.minimum(1.0, np.sqrt(h)))
        order = np.lexsort((lons, lats, dist, hours, dt))
        return cells[int(order[0])]

    rng = np.random.default_rng(606)
    records = [
        record(
            minute=int(rng.integers(0, 200)),
            flight_id=f"F{i}",
            lat=float(rng.uniform(9.0, 10.9)),
            lon=float(rng.uniform(19.0, 20.9)),
            alt=float(rng.uniform(500, 2500)),
        )
        for i in range(1000)
    ]
    result = join_weather(LogColumns.from_records(records), field)
    assert result.report.dropped == 0
    worst_m = 0.0
    for rec, values in zip(result.records, result.cells.tolist()):
        cell = oracle(rec.log_date, rec.position)
        assert values == list(cell.values)
        assert field.cell_at(rec.log_date, rec.position) == cell
        worst_m = max(
            worst_m, haversine_m(rec.position, GeoPosition(cell.grid_lat_deg, cell.grid_lon_deg))
        )
    assert worst_m <= 7_900.0
    print(f"[C7] 1000 joins match brute-force oracle; max center distance {worst_m/1000:.2f} km <= 7.9 km: PASS")


def test_c08_handover_properties():
    BAD, WEAK, MEDIUM, GOOD = CnrCategory
    policy = HoPolicy(degrade_threshold=WEAK, consecutive_k=3, min_dwell_s=600.0)

    # Randomized stress run: verify the two safety properties structurally.
    rng = np.random.default_rng(44)
    sats = ["A", "B", "C"]
    n = 600
    grid = [
        {s: CnrCategory(int(rng.choice([0, 0, 1, 2, 3]))) for s in sats} for _ in range(n)
    ]
    records = [record(minute=i, flight_id="STRESS", sat="A", duration_min=n) for i in range(n)]
    report = simulate_handover(records, predictions=grid, policy=policy)
    assert report.switches, "stress scenario produced no switches to check"
    times = [e.time for e in report.switches]
    gaps = [(b - a).total_seconds() for a, b in zip(times, times[1:])]
    assert all(g >= policy.min_dwell_s for g in gaps)
    t0 = records[0].log_date
    for event in report.switches:
        m = int((event.time - t0).total_seconds() // 60)
        window = range(m - policy.consecutive_k + 1, m + 1)
        assert all(grid[j][event.from_satellite] < policy.degrade_threshold for j in window)

    # Constructed two-satellite degradation with oracle predictions.
    n = 40
    records = [record(minute=i, flight_id="HO1", sat="A", duration_min=n) for i in range(n)]
    truth = {"A": [16.0] * 10 + [3.0] * (n - 10), "B": [12.0] * n}
    oracle_pred = [{"A": GOOD if i < 10 else BAD, "B": MEDIUM} for i in range(n)]
    result = simulate_handover(records, predictions=oracle_pred, policy=policy, truth=truth)
    assert result.outage_minutes < result.baseline_outage_minutes
    print(
        f"[C8] dwell/consecutive-k respected over {len(report.switches)} switches; oracle policy outage "
        f"{result.outage_minutes} min < baseline {result.baseline_outage_minutes} min: PASS"
    )


def test_c09_determinism_and_serialization(tmp_path, high_alt_run):
    config = demo_config(flights_per_route=1, seed=55, weather=WeatherSpec(5.0, 3))
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    generate_dataset(config, str(a_dir))
    generate_dataset(config, str(b_dir))
    a_files = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file())
    b_files = sorted(p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file())
    assert a_files == b_files
    for rel in a_files:
        assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes(), rel

    spec = ExperimentSpec(name="det", min_altitude_m=6000, hyperparams=GbmHyperParams(n_rounds=25), seed=3)
    records_a = load_records(str(a_dir))
    records_b = load_records(str(b_dir))
    report_a, model_a = run_experiment(records_a, spec)
    report_b, model_b = run_experiment(records_b, spec)
    pa, pb = tmp_path / "ma.json", tmp_path / "mb.json"
    save_model(model_a, pa)
    save_model(model_b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    assert json.dumps(report_a.to_dict(), sort_keys=True) == json.dumps(report_b.to_dict(), sort_keys=True)

    # Round trip on the big high-altitude model, 1000 rows.
    big_path = tmp_path / "big.json"
    save_model(high_alt_run["model"], big_path)
    loaded = load_model(big_path)
    rows = high_alt_run["test"].take(np.arange(1000))
    assert np.array_equal(predict_proba(high_alt_run["model"], rows), predict_proba(loaded, rows))
    print("[C9] byte-identical datasets, models and reports; round-trip predictions bit-identical: PASS")


def test_c10_distribution_calibration():
    population = sample_cnr_population(
        [plan.route for plan in demo_route_plans()],
        demo_satellites(),
        DEFAULT_LINK_PARAMS,
        1_000_000,
        seed=606,
    )
    mean = float(population.mean())
    assert 8.82 - 0.3 <= mean <= 8.82 + 0.3, f"CNR mean {mean:.3f} outside 8.82 +/- 0.3"
    print(f"[C10] default-parameter CNR mean {mean:.4f} dB within 8.82 +/- 0.3 over 1e6 samples: PASS")
