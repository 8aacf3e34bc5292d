"""Command-line entry point.

Subcommands mirror the experiment pipeline end to end::

    satlink generate --config gen.json --out data/
    satlink train    --config spec.json --data data/ --out model.json
    satlink eval     --model model.json --data data/ [--config spec.json]
    satlink matrix   --config matrix.json --data data/ [--out table.json]
    satlink forecast --config models.json --plan plan.csv [--out grid.json]
    satlink hosim    --config hosim.json --data flight.csv [--out report.json]

All configs are JSON.  Written artifacts are deterministic for a fixed
config and seed; wall-clock timings appear only on the printed tables.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import os
import sys
import time
from dataclasses import dataclass
from datetime import timedelta
from typing import Optional, Sequence

from .flightsim import ConfigError, GenerationConfig, generate_dataset
from .handover import HoPolicy, forecast_route, simulate_handover
from .ingest import (
    CnrCategory,
    FlightLogRecord,
    LogColumns,
    encode_features,
    filter_altitude,
    join_weather,
    labeled,
    parse_logs,
    split_by_flight,
    top_routes,
)
from .model import (
    EvalReport,
    GbmHyperParams,
    GbmModel,
    evaluate_classifier,
    load_model,
    save_model,
    train_gbm,
)
from .weather import (
    SyntheticWeather,
    WeatherCell,
    WeatherProvider,
    _format_utc,
    load_weather_csv,
    save_weather_csv,
    synth_weather_field,
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One row of the experiment matrix: dataset selection, stratification,
    optional weather augmentation, and training settings."""

    name: str = ""
    top_routes: Optional[int] = None  # None = all flights
    min_altitude_m: Optional[float] = None
    max_altitude_m: Optional[float] = None
    weather: Optional[dict] = None  # {"storm_density","seed"} or {"csv": path}
    satellite: Optional[str] = None
    hyperparams: GbmHyperParams = GbmHyperParams()
    test_fraction: float = 0.2
    seed: int = 0

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        dataset = data.get("dataset", "all")
        if dataset == "all":
            top_k = None
        elif isinstance(dataset, dict) and "top_routes" in dataset:
            top_k = int(dataset["top_routes"])
        else:
            raise ValueError(f'dataset must be "all" or {{"top_routes": k}}, got {dataset!r}')
        weather = data.get("weather")
        if weather is not None and not (
            ("storm_density" in weather and "seed" in weather) or "csv" in weather
        ):
            raise ValueError(f"weather must name a synthetic source or a csv: {weather!r}")
        return cls(
            name=data.get("name", ""),
            top_routes=top_k,
            min_altitude_m=data.get("min_altitude_m"),
            max_altitude_m=data.get("max_altitude_m"),
            weather=weather,
            satellite=data.get("satellite"),
            hyperparams=GbmHyperParams(**data.get("hyperparams", {})),
            test_fraction=float(data.get("test_fraction", 0.2)),
            seed=int(data.get("seed", 0)),
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dataset": "all" if self.top_routes is None else {"top_routes": self.top_routes},
            "min_altitude_m": self.min_altitude_m,
            "max_altitude_m": self.max_altitude_m,
            "weather": self.weather,
            "satellite": self.satellite,
            "hyperparams": dataclasses.asdict(self.hyperparams),
            "test_fraction": self.test_fraction,
            "seed": self.seed,
        }


@dataclass
class ExperimentReport:
    spec: ExperimentSpec
    rows: int
    train_rows: int
    test_rows: int
    eval_report: EvalReport
    wall_seconds: float

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "rows": self.rows,
            "train_rows": self.train_rows,
            "test_rows": self.test_rows,
            "eval": self.eval_report.to_dict(),
        }


def weather_provider_from_spec(weather: Optional[dict]) -> Optional[WeatherProvider]:
    if weather is None:
        return None
    if "csv" in weather:
        return load_weather_csv(weather["csv"])
    return SyntheticWeather(float(weather["storm_density"]), int(weather["seed"]))


def select_rows(
    records: LogColumns | Sequence[FlightLogRecord], spec: ExperimentSpec, provider: Optional[WeatherProvider]
) -> tuple[LogColumns, Optional[list[WeatherCell]]]:
    """The spec's row selection, shared by training and evaluation: route
    cut, altitude cut, satellite, labeled rows, then a weather join when
    ``provider`` is given.  Returns the rows and their cells (``None``
    without a join); raises ``ValueError`` when no row is left."""
    selected = records
    if spec.top_routes is not None:
        _, selected = top_routes(selected, spec.top_routes)
    selected = filter_altitude(selected, spec.min_altitude_m, spec.max_altitude_m)
    if spec.satellite is not None:
        selected = selected.take(selected.satellite_id == spec.satellite)
    selected = labeled(selected)
    cells = None
    if provider is not None:
        joined = join_weather(selected, provider)
        selected, cells = joined.records, joined.cells
    if not len(selected):
        raise ValueError(f"experiment {spec.name!r} selects no labeled rows")
    return selected, cells


def build_experiment_dataset(records: LogColumns | Sequence[FlightLogRecord], spec: ExperimentSpec):
    """Apply the spec's selection pipeline; returns (matrix, vocab)."""
    selected, cells = select_rows(records, spec, weather_provider_from_spec(spec.weather))
    return encode_features(selected, cells=cells)


def run_experiment(
    records: LogColumns | Sequence[FlightLogRecord], spec: ExperimentSpec
) -> tuple[ExperimentReport, GbmModel]:
    """Filter, split per flight, train, and evaluate one experiment row."""
    started = time.perf_counter()
    matrix, _ = build_experiment_dataset(records, spec)
    train, test = split_by_flight(matrix, spec.test_fraction, spec.seed)
    model = train_gbm(train, spec.hyperparams)
    report = evaluate_classifier(model, test)
    return (
        ExperimentReport(
            spec=spec,
            rows=matrix.n_rows,
            train_rows=train.n_rows,
            test_rows=test.n_rows,
            eval_report=report,
            wall_seconds=time.perf_counter() - started,
        ),
        model,
    )


def load_records(data_dir: str) -> LogColumns:
    """All flight logs under ``data_dir`` (or its ``flights/`` subdir)."""
    flights_dir = os.path.join(data_dir, "flights")
    root = flights_dir if os.path.isdir(flights_dir) else data_dir
    paths = sorted(glob.glob(os.path.join(root, "*.csv")))
    if not paths:
        raise FileNotFoundError(f"no flight CSVs under {data_dir}")
    return parse_logs(paths)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _matrix_table(reports: list[ExperimentReport]) -> str:
    header = f"{'idx':>3}  {'name':<34} {'rows':>8} {'wF1':>7} {'macroF1':>7} {'acc':>6} {'sec':>7}"
    lines = [header, "-" * len(header)]
    for i, rep in enumerate(reports, start=1):
        e = rep.eval_report
        lines.append(
            f"{i:>3}  {rep.spec.name[:34]:<34} {rep.rows:>8} {e.weighted_f1:>7.4f} "
            f"{e.macro_f1:>7.4f} {e.accuracy:>6.4f} {rep.wall_seconds:>7.1f}"
        )
    return "\n".join(lines)


def cmd_generate(args: argparse.Namespace) -> int:
    raw = _load_json(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    config = GenerationConfig.from_dict(raw)
    manifest = generate_dataset(config, args.out)
    export = raw.get("weather_export")
    if export is not None:
        if config.weather is None:
            raise ValueError("weather_export requires a weather block in the config")
        field = synth_weather_field(
            tuple(export["bounds"]),
            (config.start_date, config.start_date + timedelta(hours=int(export["hours"]))),
            config.weather.storm_density,
            config.weather.seed,
        )
        save_weather_csv(field, os.path.join(args.out, "weather.csv"))
        print(f"wrote weather.csv with {len(field)} cells", file=sys.stderr)
    _emit(manifest, None)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    spec = ExperimentSpec.from_dict(_load_json(args.config))
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    records = load_records(args.data)
    report, model = run_experiment(records, spec)
    save_model(model, args.out)
    _emit(report.to_dict(), args.report or args.out + ".report.json")
    print(report.eval_report.to_text())
    print(f"model -> {args.out}  ({report.train_rows} train / {report.test_rows} test rows, "
          f"{report.wall_seconds:.1f}s)")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    records = load_records(args.data)
    spec = ExperimentSpec.from_dict(_load_json(args.config)) if args.config else ExperimentSpec()
    provider = None
    if "precip_mmh" in model.columns:
        provider = weather_provider_from_spec(spec.weather)
        if provider is None:
            raise ValueError("model was trained with weather columns; spec must name a weather source")
    selected, cells = select_rows(records, spec, provider)
    matrix, _ = encode_features(selected, vocab=model.vocab, cells=cells)
    report = evaluate_classifier(model, matrix)
    _emit(report.to_dict(), args.out)
    print(report.to_text(), file=sys.stderr)
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    config = _load_json(args.config)
    specs = [ExperimentSpec.from_dict(row) for row in config.get("rows", [])]
    if args.seed is not None:
        specs = [dataclasses.replace(spec, seed=args.seed) for spec in specs]
    records = load_records(args.data) if specs else []
    reports = [run_experiment(records, spec)[0] for spec in specs]
    payload = {"rows": [rep.to_dict() for rep in reports]}
    _emit(payload, args.out)
    print(_matrix_table(reports), file=sys.stderr)
    return 0


def _models_from_config(config: dict) -> tuple[dict, dict, Optional[WeatherProvider]]:
    model_by_sat = {sat: load_model(path) for sat, path in config.get("models", {}).items()}
    weather_model_by_sat = {
        sat: load_model(path) for sat, path in config.get("weather_models", {}).items()
    }
    provider = weather_provider_from_spec(config.get("weather"))
    return model_by_sat, weather_model_by_sat, provider


def cmd_forecast(args: argparse.Namespace) -> int:
    config = _load_json(args.config)
    model_by_sat, weather_model_by_sat, provider = _models_from_config(config)
    waypoints = parse_logs([args.plan])
    grid = forecast_route(model_by_sat, waypoints, provider, weather_model_by_sat or None)
    columns = zip(
        _format_utc(waypoints.epoch_s),
        waypoints.latitude_deg.tolist(),
        waypoints.longitude_deg.tolist(),
        waypoints.altitude_m.tolist(),
        grid,
    )
    payload = {
        "waypoints": [
            {
                "t": t,
                "latitude": lat,
                "longitude": lon,
                "altitude_m": alt,
                "categories": {sat: cat.label for sat, cat in row.items()},
            }
            for t, lat, lon, alt, row in columns
        ]
    }
    _emit(payload, args.out)
    return 0


def _policy_from_dict(data: dict) -> HoPolicy:
    kwargs = dict(data)
    if "degrade_threshold" in kwargs:
        kwargs["degrade_threshold"] = CnrCategory[str(kwargs["degrade_threshold"]).upper()]
    return HoPolicy(**kwargs)


def cmd_hosim(args: argparse.Namespace) -> int:
    config = _load_json(args.config)
    model_by_sat, weather_model_by_sat, provider = _models_from_config(config)
    policy = _policy_from_dict(config.get("policy", {}))
    records = parse_logs([args.data])
    truth = None
    if args.truth:
        raw = _load_json(args.truth)
        truth = {sat: [None if v is None else float(v) for v in vals] for sat, vals in raw.items()}
    report = simulate_handover(
        records,
        model_by_sat=model_by_sat,
        policy=policy,
        truth=truth,
        weather=provider,
        weather_model_by_sat=weather_model_by_sat or None,
    )
    _emit(report.to_dict(), args.out)
    print(
        f"{len(report.switches)} switches over {report.steps} minutes"
        + (
            f"; outage {report.outage_minutes} vs baseline {report.baseline_outage_minutes}"
            if report.outage_minutes is not None
            else ""
        ),
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satlink",
        description="Synthetic GEO-link datasets, CNR-category models, and handover simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic flight-log dataset")
    p.add_argument("--config", required=True, help="generation config JSON")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one experiment row and save the model")
    p.add_argument("--config", required=True, help="experiment spec JSON")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="model output path")
    p.add_argument("--report", default=None, help="report JSON path (default: <out>.report.json)")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="optional experiment spec for filtering")
    p.add_argument("--out", default=None, help="report JSON path (default: stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("matrix", help="run a whole experiment matrix")
    p.add_argument("--config", required=True, help='{"rows": [spec, ...]} JSON')
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="table JSON path (default: stdout)")
    p.add_argument("--seed", type=int, default=None, help="override every row's seed")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("forecast", help="predict the category grid along a flight plan")
    p.add_argument("--config", required=True, help="models/weather config JSON")
    p.add_argument("--plan", required=True, help="flight-plan CSV (log schema, CNR may be empty)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("hosim", help="simulate the handover policy over a flight")
    p.add_argument("--config", required=True, help="models/policy config JSON")
    p.add_argument("--data", required=True, help="flight CSV")
    p.add_argument("--truth", default=None, help="per-satellite true CNR JSON")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_hosim)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, LookupError, OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
