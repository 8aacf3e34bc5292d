"""The three benchmark workloads: their inputs, set-up, timed pass and checks.

Every input comes from ``demo_config`` in the acceptance-corpus shape (the
6 demo routes, ``WeatherSpec(8.0, 77)``, climb 3.0 m/s, descent 2.5 m/s)
with the corpus seed taken from the benchmark's ``--seed``.  satlink sees
only those generated inputs.  Each workload is one thread in a closed
loop: every call starts after the previous one returned.

* ``corpus``   -- the data path: generate, parse, select, weather join,
  encode and split.  No model is trained.
* ``matrix``   -- the paper's experiment rows (cruise, approach + weather,
  regress) from parsed records to evaluated models.
* ``handover`` -- per held-out flight: forecast all three satellites with
  a trained classifier, then run the handover policy.  No training and no
  weather join in the timed part.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

import satlink.cli
import satlink.flightsim
import satlink.handover
from satlink.cli import ExperimentSpec, build_experiment_dataset, load_records
from satlink.flightsim import (
    DEFAULT_LINK_PARAMS,
    WeatherSpec,
    demo_config,
    demo_satellites,
    generate_dataset,
    synth_cnr,
)
from satlink.handover import HoPolicy, forecast_route, simulate_handover
from satlink.ingest import (
    CnrCategory,
    bin_cnr,
    encode_features,
    filter_altitude,
    join_weather,
    labeled,
    split_by_flight,
    top_routes,
)
from satlink.model import (
    GbmHyperParams,
    eval_regressor,
    evaluate_classifier,
    save_model,
    train_gbm,
    train_regressor,
)
from satlink.weather import SyntheticWeather

from checks import (
    dataset_fingerprint,
    file_fingerprint,
    monotone_loss_failures,
    outage_failures,
    recount_funnel,
    split_failures,
    switch_failures,
)
from spans import Tracer

WEATHER = WeatherSpec(storm_density=8.0, seed=77)
CLIMB_MPS, DESCENT_MPS = 3.0, 2.5
TOP_ROUTES = 5
CRUISE_MIN_M, APPROACH_MAX_M = 6000.0, 3000.0
TEST_FRACTION, SPLIT_SEED = 0.2, 7
WF1_CRUISE_FLOOR = 0.90  # acceptance criterion C5
# configs/demo_hosim.json's policy.
POLICY = HoPolicy(
    degrade_threshold=CnrCategory.WEAK, consecutive_k=3, min_dwell_s=600.0, horizon_min=10
)


@dataclass(frozen=True)
class Sizes:
    """How much work one set-up and one timed pass do."""

    corpus_flights_per_route: int
    matrix_flights_per_route: int
    matrix_rounds: int
    handover_train_flights_per_route: int
    handover_flights_per_route: int
    handover_rounds: int


# At the acceptance size (35 flights per route, 120 rounds) one matrix pass
# takes about 45 s, longer than a whole run.  These sizes keep cruise in
# the bandwidth-bound regime (tens of thousands of training rows) and
# approach in the overhead-bound one (low thousands), and give ~100+
# flight latencies per handover run.
FULL = Sizes(
    corpus_flights_per_route=10,
    matrix_flights_per_route=10,
    matrix_rounds=20,
    handover_train_flights_per_route=3,
    handover_flights_per_route=6,
    handover_rounds=30,
)
# Two flights per route keep both altitude bands multi-class on every seed
# tried (0-399); one flight per route left single-class approach rows.
SMOKE = Sizes(
    corpus_flights_per_route=1,
    matrix_flights_per_route=2,
    matrix_rounds=3,
    handover_train_flights_per_route=1,
    handover_flights_per_route=1,
    handover_rounds=2,
)


def corpus_config(flights_per_route: int, seed: int):
    return demo_config(
        flights_per_route=flights_per_route,
        seed=seed,
        weather=WEATHER,
        climb_rate_mps=CLIMB_MPS,
        descent_rate_mps=DESCENT_MPS,
    )


def derived_seed(seed: int, purpose: int) -> int:
    """A corpus seed for another purpose that no ``--seed`` value collides with."""
    return int(np.random.SeedSequence((seed, purpose)).generate_state(1, np.uint32)[0])


def hyperparams(rounds: int) -> GbmHyperParams:
    return GbmHyperParams(n_rounds=rounds, max_depth=6, learning_rate=0.15)


def cruise_spec(rounds: int) -> ExperimentSpec:
    return ExperimentSpec(
        name="cruise", min_altitude_m=CRUISE_MIN_M, hyperparams=hyperparams(rounds), seed=SPLIT_SEED
    )


def approach_spec(rounds: int) -> ExperimentSpec:
    return ExperimentSpec(
        name="approach",
        max_altitude_m=APPROACH_MAX_M,
        weather={"storm_density": WEATHER.storm_density, "seed": WEATHER.seed},
        hyperparams=hyperparams(rounds),
        seed=SPLIT_SEED,
    )


# --- span counters: (args, kwargs, result) -> counts -------------------------


def _rows_in(args, kwargs, result) -> dict:
    return {"rows": len(args[0])}


def _rows_out(args, kwargs, result) -> dict:
    return {"rows": len(result)}


def _waypoints(args, kwargs, result) -> dict:
    return {"rows": len(args[1])}


def _manifest_rows(args, kwargs, result) -> dict:
    return {"rows": result["rows"]}


def _join_counts(args, kwargs, result) -> dict:
    return {"rows": result.report.total, "dropped": result.report.dropped}


def _tree_counts(args, kwargs, model) -> dict:
    return {
        "trees": sum(len(trees) for trees in model.trees),
        "nodes": sum(t.feature.size for trees in model.trees for t in trees),
    }


def _handover_counts(args, kwargs, report) -> dict:
    return {
        "steps": report.steps,
        "switches": len(report.switches),
        "baseline_outage_minutes": report.baseline_outage_minutes,
    }


# satlink-internal calls that traced units turn into child spans.
INNER_SPANS = [
    (satlink.flightsim, "save_logs", "ingest.save_logs", None),
    (satlink.cli, "top_routes", "ingest.select", None),
    (satlink.cli, "filter_altitude", "ingest.select", None),
    (satlink.cli, "labeled", "ingest.select", None),
    (satlink.cli, "join_weather", "ingest.join_weather", _join_counts),
    (satlink.cli, "encode_features", "ingest.encode_features", _rows_in),
    (satlink.handover, "encode_features", "ingest.encode_features", _rows_in),
    (satlink.handover, "predict_labels", "model.predict_labels", None),
]


# --- results -----------------------------------------------------------------


@dataclass
class PassResult:
    """What one timed pass produced, plus what its checks found."""

    ops: int
    failures: dict[str, list[str]] = field(default_factory=dict)  # op -> messages
    seconds: dict[str, list[float]] = field(default_factory=dict)  # named sub-timings
    quality: dict[str, float] = field(default_factory=dict)
    fingerprints: dict[str, str] = field(default_factory=dict)

    def fail(self, op: str, messages: list[str]) -> None:
        if messages:
            self.failures.setdefault(op, []).extend(messages)

    @property
    def failed_ops(self) -> int:
        if "*" in self.failures:
            return self.ops
        return len(self.failures)


@dataclass
class Workload:
    name: str
    setup: Callable  # (tracer, sizes, seed, work_dir) -> state
    run: Callable  # (tracer, state) -> output, the timed part
    check: Callable  # (state, output) -> PassResult, untimed


# --- corpus --------------------------------------------------------------------


@dataclass
class CorpusState:
    config: object
    out_dir: str
    recount: dict | None = None
    fingerprint: str | None = None


def corpus_pipeline(tr: Tracer, config, out_dir: str) -> dict:
    """Generation config -> CSVs -> records -> selected rows -> split matrices."""
    manifest = tr.call(
        "flightsim.generate_dataset", generate_dataset, config, out_dir, counts=_manifest_rows
    )
    records = tr.call("ingest.parse_logs", load_records, out_dir, counts=_rows_out)
    _, routed = tr.call("ingest.select", top_routes, records, TOP_ROUTES)
    cruise_cut = tr.call("ingest.select", filter_altitude, routed, CRUISE_MIN_M, None)
    cruise = tr.call("ingest.select", labeled, cruise_cut)
    approach_cut = tr.call("ingest.select", filter_altitude, routed, None, APPROACH_MAX_M)
    approach = tr.call("ingest.select", labeled, approach_cut)
    joined = tr.call(
        "ingest.join_weather",
        join_weather,
        approach,
        SyntheticWeather(WEATHER.storm_density, WEATHER.seed),
        counts=_join_counts,
    )
    cruise_m, _ = tr.call("ingest.encode_features", encode_features, cruise, counts=_rows_in)
    approach_m, _ = tr.call(
        "ingest.encode_features", encode_features, joined.records, cells=joined.cells, counts=_rows_in
    )
    split = lambda m: tr.call("ingest.split_by_flight", split_by_flight, m, TEST_FRACTION, SPLIT_SEED)
    return {
        "manifest": manifest,
        "records": records,
        "funnel": {
            "parsed": len(records),
            "routed": len(routed),
            "cruise_cut": len(cruise_cut),
            "cruise_labeled": len(cruise),
            "approach_cut": len(approach_cut),
            "approach_labeled": len(approach),
            "joined": joined.report.attached,
            "dropped": joined.report.dropped,
        },
        "cruise": (cruise_m, *split(cruise_m)),
        "approach": (approach_m, *split(approach_m)),
    }


def corpus_setup(tr: Tracer, sizes: Sizes, seed: int, work_dir: str) -> CorpusState:
    # The timed part starts from a generation config, so set-up only primes
    # the data path: one flight per route, through every step.
    corpus_pipeline(tr, corpus_config(1, derived_seed(seed, 1)), os.path.join(work_dir, "prime"))
    return CorpusState(
        config=corpus_config(sizes.corpus_flights_per_route, seed),
        out_dir=os.path.join(work_dir, "corpus"),
    )


def corpus_run(tr: Tracer, state: CorpusState) -> dict:
    return corpus_pipeline(tr, state.config, state.out_dir)


def corpus_check(state: CorpusState, out: dict) -> PassResult:
    manifest, funnel = out["manifest"], out["funnel"]
    result = PassResult(ops=manifest["flights"])
    result.fingerprints["dataset"] = fingerprint = dataset_fingerprint(state.out_dir)
    if state.fingerprint is None:
        state.fingerprint = fingerprint
        state.recount = recount_funnel(state.out_dir, TOP_ROUTES, CRUISE_MIN_M, APPROACH_MAX_M)
    elif fingerprint != state.fingerprint:
        result.fail("*", ["dataset bytes differ from the first pass"])
    recount = state.recount

    if manifest["rows"] != funnel["parsed"]:
        result.fail("*", [f"manifest rows {manifest['rows']} != parsed {funnel['parsed']}"])
    parsed_per_flight: dict[str, int] = {}
    for r in out["records"]:
        parsed_per_flight[r.flight_id] = parsed_per_flight.get(r.flight_id, 0) + 1
    for entry in manifest["files"]:
        fid = entry["flight_id"]
        counts = (entry["rows"], parsed_per_flight.get(fid, 0), recount["per_flight"].get(fid, 0))
        if len(set(counts)) != 1:
            result.fail(fid, [f"{fid}: manifest/parsed/recount rows {counts}"])
    for key in ("parsed", "routed", "cruise_cut", "cruise_labeled", "approach_cut", "approach_labeled"):
        if funnel[key] != recount[key]:
            result.fail("*", [f"funnel {key}: satlink {funnel[key]} != recount {recount[key]}"])
    if funnel["joined"] + funnel["dropped"] != funnel["approach_labeled"]:
        result.fail("*", ["joined + dropped != labeled approach rows"])
    for name, encoded_want in (("cruise", funnel["cruise_labeled"]), ("approach", funnel["joined"])):
        matrix, train, test = out[name]
        if matrix.n_rows != encoded_want:
            result.fail("*", [f"{name}: encoded {matrix.n_rows} != selected {encoded_want}"])
        result.fail("*", split_failures(name, matrix.n_rows, train, test))
    result.quality.update(
        rows=funnel["parsed"],
        cruise_rows=out["cruise"][0].n_rows,
        approach_rows=out["approach"][0].n_rows,
        joined_rows=funnel["joined"],
    )
    return result


# --- matrix --------------------------------------------------------------------


@dataclass
class MatrixState:
    records: list
    sizes: Sizes
    model_path: str
    fingerprints: dict
    cruise_fingerprint: str | None = None


def matrix_setup(tr: Tracer, sizes: Sizes, seed: int, work_dir: str) -> MatrixState:
    data_dir = os.path.join(work_dir, "data")
    tr.call(
        "flightsim.generate_dataset",
        generate_dataset,
        corpus_config(sizes.matrix_flights_per_route, seed),
        data_dir,
        counts=_manifest_rows,
    )
    records = tr.call("ingest.parse_logs", load_records, data_dir, counts=_rows_out)
    return MatrixState(
        records=records,
        sizes=sizes,
        model_path=os.path.join(work_dir, "cruise_model.json"),
        fingerprints={"dataset": dataset_fingerprint(data_dir)},
    )


def _classifier_row(tr: Tracer, records, spec: ExperimentSpec):
    matrix, _ = tr.call("cli.build_experiment_dataset", build_experiment_dataset, records, spec)
    train, test = tr.call(
        "ingest.split_by_flight", split_by_flight, matrix, spec.test_fraction, spec.seed
    )
    model = tr.call(
        f"{spec.name}.model.train_gbm", train_gbm, train, spec.hyperparams, counts=_tree_counts
    )
    report = tr.call(f"{spec.name}.model.evaluate_classifier", evaluate_classifier, model, test)
    return train, test, model, report


def matrix_run(tr: Tracer, state: MatrixState) -> dict:
    out: dict = {"seconds": {}}
    for spec in (cruise_spec(state.sizes.matrix_rounds), approach_spec(state.sizes.matrix_rounds)):
        started = perf_counter()
        with tr.span(spec.name):
            out[spec.name] = _classifier_row(tr, state.records, spec)
        out["seconds"][f"{spec.name}_s"] = perf_counter() - started

    started = perf_counter()
    train, test = out["cruise"][0], out["cruise"][1]
    with tr.span("regress"):
        regressor = tr.call(
            "regress.model.train_regressor",
            train_regressor,
            train,
            hyperparams(state.sizes.matrix_rounds),
            counts=_tree_counts,
        )
        mse, mae = tr.call("regress.model.eval_regressor", eval_regressor, regressor, test)
    out["seconds"]["regress_s"] = perf_counter() - started
    out["regress"] = (regressor, mse, mae)
    return out


def matrix_check(state: MatrixState, out: dict) -> PassResult:
    result = PassResult(ops=3, seconds={k: [v] for k, v in out["seconds"].items()})
    result.fingerprints.update(state.fingerprints)
    _, _, cruise_model, cruise_report = out["cruise"]
    _, _, approach_model, approach_report = out["approach"]
    regressor, _, mae = out["regress"]

    result.fail("cruise", monotone_loss_failures("cruise", cruise_model.train_loss))
    if not cruise_report.weighted_f1 >= WF1_CRUISE_FLOOR:
        result.fail("cruise", [f"cruise wF1 {cruise_report.weighted_f1:.4f} < {WF1_CRUISE_FLOOR}"])
    save_model(cruise_model, state.model_path)
    result.fingerprints["cruise_model"] = fingerprint = file_fingerprint(state.model_path)
    if state.cruise_fingerprint is None:
        state.cruise_fingerprint = fingerprint
    elif fingerprint != state.cruise_fingerprint:
        result.fail("cruise", ["cruise model bytes differ from the first pass"])

    result.fail("approach", monotone_loss_failures("approach", approach_model.train_loss))
    if not 0.0 <= approach_report.weighted_f1 <= 1.0:
        result.fail("approach", [f"approach wF1 {approach_report.weighted_f1} outside [0, 1]"])
    result.fail("regress", monotone_loss_failures("regress", regressor.train_loss))
    if not (math.isfinite(mae) and mae > 0.0):
        result.fail("regress", [f"regressor MAE {mae} is not a positive number"])

    result.quality.update(
        wf1_cruise=cruise_report.weighted_f1,
        wf1_approach=approach_report.weighted_f1,
        mae_db=mae,
        cruise_train_rows=out["cruise"][0].n_rows,
        approach_train_rows=out["approach"][0].n_rows,
    )
    return result


# --- handover ------------------------------------------------------------------


@dataclass
class HandoverState:
    models: dict
    flights: list  # [(records, truth, oracle predictions)]
    fingerprints: dict


def _truth(records, sats, weather, rng) -> dict:
    """True CNR per satellite and minute, as the link model would measure it."""
    ceiling = DEFAULT_LINK_PARAMS.troposphere_ceiling_m
    cells = [
        weather.cell_at(r.log_date, r.position) if r.altitude_m < ceiling else None for r in records
    ]
    return {
        sat.satellite_id: [
            synth_cnr(r.position, sat, cell, DEFAULT_LINK_PARAMS, rng)
            for r, cell in zip(records, cells)
        ]
        for sat in sats
    }


def _by_flight(records) -> list[list]:
    flights: dict[str, list] = {}
    for r in records:
        flights.setdefault(r.flight_id, []).append(r)
    return list(flights.values())


def handover_setup(tr: Tracer, sizes: Sizes, seed: int, work_dir: str) -> HandoverState:
    train_dir, flights_dir = os.path.join(work_dir, "train"), os.path.join(work_dir, "flights")
    spec = cruise_spec(sizes.handover_rounds)
    tr.call(
        "flightsim.generate_dataset",
        generate_dataset,
        corpus_config(sizes.handover_train_flights_per_route, derived_seed(seed, 2)),
        train_dir,
        counts=_manifest_rows,
    )
    train_records = tr.call("ingest.parse_logs", load_records, train_dir, counts=_rows_out)
    matrix, _ = tr.call("cli.build_experiment_dataset", build_experiment_dataset, train_records, spec)
    model = tr.call("cruise.model.train_gbm", train_gbm, matrix, spec.hyperparams, counts=_tree_counts)
    model_path = os.path.join(work_dir, "cruise_model.json")
    save_model(model, model_path)

    tr.call(
        "flightsim.generate_dataset",
        generate_dataset,
        corpus_config(sizes.handover_flights_per_route, seed),
        flights_dir,
        counts=_manifest_rows,
    )
    held_out = tr.call("ingest.parse_logs", load_records, flights_dir, counts=_rows_out)
    sats = demo_satellites()
    weather = SyntheticWeather(WEATHER.storm_density, WEATHER.seed)
    rng = np.random.default_rng(derived_seed(seed, 3))
    flights = []
    with tr.span("flightsim.synth_cnr"):
        for records in _by_flight(held_out):
            truth = _truth(records, sats, weather, rng)
            oracle = [
                {s: CnrCategory.BAD if v[i] is None else bin_cnr(v[i]) for s, v in truth.items()}
                for i in range(len(records))
            ]
            flights.append((records, truth, oracle))
    state = HandoverState(
        models={sat.satellite_id: model for sat in sats},
        flights=flights,
        fingerprints={
            "train_dataset": dataset_fingerprint(train_dir),
            "dataset": dataset_fingerprint(flights_dir),
            "cruise_model": file_fingerprint(model_path),
        },
    )
    # One untimed flight, so the timed part starts warm.
    _handover_flight(tr, state.models, *flights[0])
    return state


def _handover_flight(tr: Tracer, models, records, truth, oracle):
    grid = tr.call("handover.forecast_route", forecast_route, models, records, counts=_waypoints)
    report = tr.call(
        "handover.simulate_handover",
        simulate_handover,
        records,
        predictions=grid,
        truth=truth,
        policy=POLICY,
        counts=_handover_counts,
    )
    # The same policy fed the true categories: the model predicts the
    # serving satellite's own category only, so model-driven runs rarely
    # switch, and this replay keeps the switching branch exercised.
    ceiling = tr.call(
        "handover.simulate_handover",
        simulate_handover,
        records,
        predictions=oracle,
        truth=truth,
        policy=POLICY,
        counts=_handover_counts,
    )
    return grid, report, ceiling


def handover_run(tr: Tracer, state: HandoverState) -> dict:
    latencies, results = [], []
    for flight in state.flights:
        started = perf_counter()
        results.append(_handover_flight(tr, state.models, *flight))
        latencies.append(perf_counter() - started)
    return {"latencies": latencies, "results": results}


def handover_check(state: HandoverState, out: dict) -> PassResult:
    result = PassResult(ops=len(state.flights), seconds={"flight_s": out["latencies"]})
    result.fingerprints.update(state.fingerprints)
    totals = {"outage_minutes": 0, "baseline_outage_minutes": 0, "ceiling_outage_minutes": 0}
    switches = 0
    for (records, truth, oracle), (grid, report, ceiling) in zip(state.flights, out["results"]):
        fid = records[0].flight_id
        messages = []
        for predictions, rep in ((grid, report), (oracle, ceiling)):
            messages += switch_failures(records, predictions, rep, POLICY)
            messages += outage_failures(records, rep, truth)
        result.fail(fid, [f"{fid}: {m}" for m in messages])
        totals["outage_minutes"] += report.outage_minutes
        totals["baseline_outage_minutes"] += report.baseline_outage_minutes
        totals["ceiling_outage_minutes"] += ceiling.outage_minutes
        switches += len(report.switches) + len(ceiling.switches)
    result.quality.update(totals, switches=switches)
    return result


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus", corpus_setup, corpus_run, corpus_check),
        Workload("matrix", matrix_setup, matrix_run, matrix_check),
        Workload("handover", handover_setup, handover_run, handover_check),
    )
}
