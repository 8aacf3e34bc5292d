import hashlib
import json
from pathlib import Path

import pytest

from satlink.cli import ExperimentSpec, _models_from_config, _policy_from_dict, main
from satlink.flightsim import GenerationConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SMALL_HP = {"n_rounds": 10, "max_depth": 3}

#: What ``forecast`` and ``hosim`` write for the small corpus with the
#: demo config; see ``test_demo_hosim_config_writes_pinned_bytes``.
DEMO_HOSIM_SHA256 = {
    "forecast": "bd2f28a05dc3e8d3ca911cb0ea4ea410b47eb0b98a0922c49009c688ae6029de",
    "hosim": "b0b78eacbe9125356e946890d958582b712121ecee9e6b4553132a1d4a06f6a1",
}


@pytest.fixture()
def gen_config(tmp_path):
    raw = {
        "seed": 31,
        "flights_per_route": 1,
        "start_date": "2023-03-01T00:00:00Z",
        "span_days": 5,
        "routes": [
            {
                "departure_airport": "SIN",
                "arrival_airport": "LHR",
                "departure": [1.359, 103.989, 7.0],
                "arrival": [51.470, -0.454, 25.0],
                "cruise_altitude_m": 11000,
                "ground_speed_mps": 250,
                "airline_code": "SQ",
                "tail_numbers": ["9V-SKA"],
            },
            {
                "departure_airport": "LHR",
                "arrival_airport": "DXB",
                "departure": [51.470, -0.454, 25.0],
                "arrival": [25.253, 55.365, 19.0],
                "cruise_altitude_m": 10500,
                "ground_speed_mps": 245,
                "airline_code": "BA",
                "tail_numbers": ["G-XWBA"],
            },
        ],
        "satellites": [
            {"satellite_id": "I5F1", "slot_longitude_deg": 62.6},
            {"satellite_id": "I5F2", "slot_longitude_deg": -55.0},
        ],
        "weather": {"storm_density": 5.0, "seed": 3},
        "weather_export": {"bounds": [51.0, 51.5, -1.0, 0.0], "hours": 2},
    }
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(raw))
    return path


class TestGenerate:
    def test_generate_writes_dataset_and_weather_export(self, gen_config, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["generate", "--config", str(gen_config), "--out", str(out)]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["flights"] == 2
        assert (out / "manifest.json").exists()
        assert (out / "weather.csv").exists()
        assert len(list((out / "flights").glob("*.csv"))) == 2

    def test_generate_is_deterministic(self, gen_config, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["generate", "--config", str(gen_config), "--out", str(a)])
        main(["generate", "--config", str(gen_config), "--out", str(b)])
        capsys.readouterr()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
        for fa in sorted((a / "flights").glob("*.csv")):
            assert fa.read_bytes() == (b / "flights" / fa.name).read_bytes()

    def test_missing_config_is_a_clean_error(self, tmp_path, capsys):
        code = main(["generate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--config", "x.json"])
        assert exc.value.code == 2


@pytest.fixture()
def trained_model(small_corpus, tmp_path):
    spec = {
        "name": "high",
        "dataset": "all",
        "min_altitude_m": 6000,
        "hyperparams": SMALL_HP,
        "test_fraction": 0.34,
        "seed": 5,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    model_path = tmp_path / "model.json"
    report_path = tmp_path / "report.json"
    code = main([
        "train",
        "--config", str(spec_path),
        "--data", small_corpus["dir"],
        "--out", str(model_path),
        "--report", str(report_path),
    ])
    assert code == 0
    return {"model": model_path, "report": report_path, "spec": spec_path}


class TestTrainEval:
    def test_train_writes_model_and_report(self, trained_model, capsys):
        report = json.loads(trained_model["report"].read_text())
        assert "weighted_f1" in report["eval"]
        assert report["rows"] == report["train_rows"] + report["test_rows"]
        assert "seconds" not in report  # report files stay byte-reproducible

    def test_repeated_train_is_byte_identical(self, trained_model, small_corpus, tmp_path, capsys):
        again = tmp_path / "model2.json"
        code = main([
            "train",
            "--config", str(trained_model["spec"]),
            "--data", small_corpus["dir"],
            "--out", str(again),
        ])
        assert code == 0
        assert again.read_bytes() == trained_model["model"].read_bytes()

    def test_spec_filtering_everything_is_explicit_error(self, small_corpus, tmp_path, capsys):
        spec = tmp_path / "empty.json"
        spec.write_text(json.dumps({"name": "void", "min_altitude_m": 20000, "hyperparams": SMALL_HP}))
        code = main([
            "train", "--config", str(spec), "--data", small_corpus["dir"],
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1
        assert "no labeled rows" in capsys.readouterr().err

    def test_eval_saved_model(self, trained_model, small_corpus, tmp_path, capsys):
        out = tmp_path / "eval.json"
        code = main([
            "eval",
            "--model", str(trained_model["model"]),
            "--data", small_corpus["dir"],
            "--config", str(trained_model["spec"]),
            "--out", str(out),
        ])
        assert code == 0
        assert 0.0 <= json.loads(out.read_text())["weighted_f1"] <= 1.0


def train_and_eval(spec, data_dir, tmp_path, eval_spec=None):
    """Train ``spec`` and evaluate the model on the same data with
    ``eval_spec`` (default: the training spec); returns (train report,
    eval exit code, eval report or None)."""
    spec_path, eval_path = tmp_path / "spec.json", tmp_path / "eval_spec.json"
    spec_path.write_text(json.dumps(spec))
    eval_path.write_text(json.dumps(spec if eval_spec is None else eval_spec))
    model, report, out = tmp_path / "m.json", tmp_path / "r.json", tmp_path / "e.json"
    assert main(["train", "--config", str(spec_path), "--data", data_dir, "--out", str(model), "--report", str(report)]) == 0
    code = main(["eval", "--model", str(model), "--data", data_dir, "--config", str(eval_path), "--out", str(out)])
    return json.loads(report.read_text()), code, json.loads(out.read_text()) if code == 0 else None


class TestEvalSelection:
    """``eval`` selects rows as ``train`` does."""

    @pytest.mark.parametrize(
        "spec",
        [
            {"name": "high", "min_altitude_m": 6000, "hyperparams": SMALL_HP, "test_fraction": 0.34, "seed": 5},
            {"name": "low+wx", "max_altitude_m": 3000, "weather": {"storm_density": 6.0, "seed": 13},
             "hyperparams": SMALL_HP, "seed": 5},
        ],
    )
    def test_eval_with_the_training_spec_sees_the_training_rows(self, spec, small_corpus, tmp_path, capsys):
        report, code, evaluated = train_and_eval(spec, small_corpus["dir"], tmp_path)
        assert code == 0
        assert evaluated["n_rows"] == report["rows"]

    def test_weather_model_without_weather_source_is_named_error(self, small_corpus, tmp_path, capsys):
        spec = {"name": "low+wx", "max_altitude_m": 3000, "weather": {"storm_density": 6.0, "seed": 13},
                "hyperparams": SMALL_HP, "seed": 5}
        no_weather = {k: v for k, v in spec.items() if k != "weather"}
        _, code, _ = train_and_eval(spec, small_corpus["dir"], tmp_path, eval_spec=no_weather)
        assert code == 1
        assert "model was trained with weather columns; spec must name a weather source" in capsys.readouterr().err


class TestShippedConfigs:
    """Each file under configs/ parses with the parser its subcommand uses."""

    def load(self, name):
        return json.loads((CONFIGS / name).read_text())

    def test_every_config_is_covered(self):
        assert sorted(p.name for p in CONFIGS.glob("*.json")) == [
            "demo_experiment.json", "demo_generation.json", "demo_hosim.json", "demo_matrix.json",
        ]

    def test_generation_config(self):
        config = GenerationConfig.from_dict(self.load("demo_generation.json"))
        assert config.routes and config.satellites and config.weather is not None

    def test_experiment_config(self):
        assert ExperimentSpec.from_dict(self.load("demo_experiment.json")).name

    def test_matrix_rows(self):
        rows = self.load("demo_matrix.json")["rows"]
        assert rows
        assert all(ExperimentSpec.from_dict(row).name for row in rows)

    def test_hosim_policy(self):
        config = self.load("demo_hosim.json")
        assert config["models"]
        _policy_from_dict(config["policy"])


class TestMatrix:
    def test_three_row_matrix(self, small_corpus, tmp_path, capsys):
        config = tmp_path / "matrix.json"
        config.write_text(json.dumps({"rows": [
            {"name": "high", "min_altitude_m": 6000, "hyperparams": SMALL_HP, "seed": 5},
            {"name": "low", "max_altitude_m": 3000, "hyperparams": SMALL_HP, "seed": 5},
            {"name": "low+wx", "max_altitude_m": 3000,
             "weather": {"storm_density": 6.0, "seed": 13},
             "hyperparams": SMALL_HP, "seed": 5},
        ]}))
        out = tmp_path / "table.json"
        code = main(["matrix", "--config", str(config), "--data", small_corpus["dir"], "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 3
        assert [r["spec"]["name"] for r in rows] == ["high", "low", "low+wx"]

    def test_per_satellite_row(self, small_corpus, tmp_path, capsys):
        config = tmp_path / "matrix.json"
        config.write_text(json.dumps({"rows": [
            {"name": "I5F1 high", "min_altitude_m": 6000, "satellite": "I5F1",
             "hyperparams": SMALL_HP, "seed": 5},
        ]}))
        code = main(["matrix", "--config", str(config), "--data", small_corpus["dir"]])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows[0]["spec"]["satellite"] == "I5F1"

    def test_empty_matrix_is_success(self, tmp_path, capsys):
        config = tmp_path / "matrix.json"
        config.write_text(json.dumps({"rows": []}))
        code = main(["matrix", "--config", str(config), "--data", str(tmp_path)])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"rows": []}

    def test_row_size_matches_independent_filter_recount(self, small_corpus, tmp_path, capsys):
        from satlink.cli import load_records
        from satlink.ingest import filter_altitude, labeled

        config = tmp_path / "matrix.json"
        config.write_text(json.dumps({"rows": [
            {"name": "high", "min_altitude_m": 6000, "hyperparams": SMALL_HP, "seed": 5},
        ]}))
        code = main(["matrix", "--config", str(config), "--data", small_corpus["dir"]])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        recount = len(labeled(filter_altitude(load_records(small_corpus["dir"]), min_m=6000)))
        assert rows[0]["rows"] == recount


class TestForecastHosim:
    def models_config(self, trained_model, tmp_path):
        config = tmp_path / "models.json"
        config.write_text(json.dumps({
            "models": {sat: str(trained_model["model"]) for sat in ("I5F1", "I5F2", "I5F3")},
            "policy": {"degrade_threshold": "Weak", "consecutive_k": 3, "min_dwell_s": 600},
        }))
        return config

    def test_forecast_empty_plan_gives_empty_grid(self, trained_model, tmp_path, capsys):
        from satlink.ingest import LOG_CSV_COLUMNS

        plan = tmp_path / "plan.csv"
        plan.write_text(",".join(LOG_CSV_COLUMNS) + "\n")
        code = main([
            "forecast", "--config", str(self.models_config(trained_model, tmp_path)),
            "--plan", str(plan),
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"waypoints": []}

    def test_forecast_and_hosim_over_a_real_flight(self, trained_model, small_corpus, tmp_path, capsys):
        flight = sorted(Path(small_corpus["dir"], "flights").glob("*.csv"))[0]
        config = self.models_config(trained_model, tmp_path)
        code = main(["forecast", "--config", str(config), "--plan", str(flight)])
        assert code == 0
        grid = json.loads(capsys.readouterr().out)["waypoints"]
        assert grid and set(grid[0]["categories"]) == {"I5F1", "I5F2", "I5F3"}

        out = tmp_path / "ho.json"
        code = main(["hosim", "--config", str(config), "--data", str(flight), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report) == {"switches", "outage_minutes", "baseline_outage_minutes"}

    def test_demo_hosim_config_writes_pinned_bytes(self, trained_model, small_corpus, tmp_path, capsys):
        """``forecast`` and ``hosim`` with ``configs/demo_hosim.json`` over
        every flight of the small corpus: the bytes they write are pinned."""
        from satlink.ingest import parse_logs

        config = json.loads((CONFIGS / "demo_hosim.json").read_text())
        config["models"] = {sat: str(trained_model["model"]) for sat in config["models"]}
        config_path = tmp_path / "hosim.json"
        config_path.write_text(json.dumps(config))
        digests = {"forecast": hashlib.sha256(), "hosim": hashlib.sha256()}
        for flight in sorted(Path(small_corpus["dir"], "flights").glob("*.csv")):
            cnr = [None if v != v else v for v in parse_logs([str(flight)]).cnr_db.tolist()]
            truth = tmp_path / "truth.json"
            truth.write_text(json.dumps({"I5F1": cnr, "I5F2": cnr[::-1], "I5F3": [12.0] * len(cnr)}))
            out = tmp_path / "out.json"
            assert main(["forecast", "--config", str(config_path), "--plan", str(flight), "--out", str(out)]) == 0
            digests["forecast"].update(out.read_bytes())
            args = ["--config", str(config_path), "--data", str(flight), "--truth", str(truth), "--out", str(out)]
            assert main(["hosim", *args]) == 0
            digests["hosim"].update(out.read_bytes())
        assert {name: d.hexdigest() for name, d in digests.items()} == DEMO_HOSIM_SHA256

    def test_satellites_naming_one_file_share_one_model(self, trained_model, tmp_path):
        config = json.loads(self.models_config(trained_model, tmp_path).read_text())
        config["weather_models"] = {"I5F1": str(trained_model["model"])}
        model_by_sat, wx_models, _ = _models_from_config(config)
        assert len({id(m) for m in [*model_by_sat.values(), *wx_models.values()]}) == 1

    @pytest.mark.parametrize("policy, named", [
        ({"foo": 1}, "unknown policy key(s): foo"),
        ({"consecutive_k": 3, "min_dwel_s": 600}, "min_dwel_s"),
        ({"min_dwell_s": "600"}, "min_dwell_s must be a number"),
        ({"min_dwell_s": None}, "min_dwell_s must be a number"),
        ({"horizon_min": "10"}, "horizon_min must be an int"),
        ({"horizon_min": 10.5}, "horizon_min must be an int"),
        ({"degrade_threshold": "terrible"}, "expected one of Bad, Weak, Medium, Good"),
    ])
    def test_hosim_reports_a_bad_policy_as_an_error(self, policy, named, trained_model, small_corpus, tmp_path, capsys):
        config = self.models_config(trained_model, tmp_path)
        config.write_text(json.dumps({**json.loads(config.read_text()), "policy": policy}))
        flight = sorted(Path(small_corpus["dir"], "flights").glob("*.csv"))[0]
        code = main(["hosim", "--config", str(config), "--data", str(flight)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("truth, named", [
        ([1.0], "must be an object, got list"),
        ({"I5F1": 7.5}, "truth for I5F1 must be a list"),
        ({"I5F1": [[1.0]]}, "truth for I5F1 must be a list of CNR values or null"),
        ({"I5F1": [1.0, "2.0"]}, "truth for I5F1 must be a list of CNR values or null"),
    ])
    def test_hosim_truth_must_map_satellites_to_lists(self, truth, named, trained_model, small_corpus, tmp_path, capsys):
        config = self.models_config(trained_model, tmp_path)
        flight = sorted(Path(small_corpus["dir"], "flights").glob("*.csv"))[0]
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(truth))
        code = main(["hosim", "--config", str(config), "--data", str(flight), "--truth", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    def test_policy_keeps_horizon_min(self):
        assert _policy_from_dict({"horizon_min": 12}).horizon_min == 12

    def test_unknown_model_path_is_file_error(self, tmp_path, capsys):
        config = tmp_path / "models.json"
        config.write_text(json.dumps({"models": {"I5F1": str(tmp_path / "missing.json")}}))
        plan = tmp_path / "plan.csv"
        plan.write_text("x\n")
        code = main(["forecast", "--config", str(config), "--plan", str(plan)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestConfigShapes:
    """A config of the wrong JSON shape is one ``error:`` line and exit 1."""

    @pytest.mark.parametrize("command, flags", [
        ("train", ["--data", "--out"]),
        ("matrix", ["--data"]),
        ("generate", ["--out"]),
        ("forecast", ["--plan"]),
        ("hosim", ["--data"]),
    ])
    def test_a_config_that_is_not_an_object_is_an_error(self, command, flags, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        paths = [arg for flag in flags for arg in (flag, str(tmp_path / flag.strip("-")))]
        assert main([command, "--config", str(config), *paths]) == 1
        assert capsys.readouterr().err == f"error: {config} must be an object, got list\n"

    @pytest.mark.parametrize("command, config, named", [
        *(
            (command, config, named)
            for command in ("hosim", "forecast")
            for config, named in [
                ({"models": ["x"]}, "models must be an object, got list"),
                ({"weather_models": "x"}, "weather_models must be an object, got str"),
                ({"weather": [1]}, "weather must be an object, got list"),
                ({"models": {"I5F1": 5}}, "model path for I5F1 must be a string: 5"),
                ({"model": {}}, "unknown hosim/forecast config key(s): model"),
            ]
        ),
        ("hosim", {"policy": [3]}, "policy must be an object, got list"),
    ])
    def test_models_config_parts_must_have_their_shape(self, command, config, named, tmp_path, capsys):
        path = tmp_path / "models.json"
        path.write_text(json.dumps(config))
        flag = "--data" if command == "hosim" else "--plan"
        assert main([command, "--config", str(path), flag, str(tmp_path / "flight.csv")]) == 1
        assert capsys.readouterr().err == f"error: {named}\n"

    def test_matrix_rows_must_be_objects(self, tmp_path, capsys):
        config = tmp_path / "matrix.json"
        config.write_text(json.dumps({"rows": [{"name": "ok"}, ["min_altitude_m", 6000]]}))
        code = main(["matrix", "--config", str(config), "--data", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: rows[1] must be an object, got list\n"

    def test_weather_export_must_be_an_object_and_is_checked_before_generating(self, gen_config, tmp_path, capsys):
        raw = json.loads(gen_config.read_text())
        gen_config.write_text(json.dumps({**raw, "weather_export": [51.0, 51.5]}))
        out = tmp_path / "data"
        code = main(["generate", "--config", str(gen_config), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: weather_export must be an object, got list\n"
        assert not out.exists()

    @pytest.mark.parametrize("export, named", [
        ({"bounds": [51.0, 51.5, -1.0, 0.0], "hours": None}, "hours must be a positive integer, got None"),
        ({"bounds": [51.0, 51.5, -1.0, 0.0], "hours": 2.5}, "weather_export hours must be a positive integer, got 2.5"),
        ({"bounds": [51.0, 51.5, -1.0, 0.0]}, "weather_export hours must be a positive integer, got None"),
        ({"bounds": [51.0, 51.5], "hours": 2}, "weather_export bounds must be 4 numbers"),
        ({"bounds": [51.0, "51.5", -1.0, 0.0], "hours": 2}, "weather_export bounds must be 4 numbers"),
        ({"bounds": [51.5, 51.0, -1.0, 0.0], "hours": 2}, "empty bounds"),
        ({"bounds": [51.0, 51.5, -1.0, 0.0], "hours": 2, "hour": 3}, "unknown weather_export key(s): hour"),
    ])
    def test_weather_export_values_are_checked_before_generating(self, export, named, gen_config, tmp_path, capsys):
        raw = json.loads(gen_config.read_text())
        gen_config.write_text(json.dumps({**raw, "weather_export": export}))
        out = tmp_path / "data"
        assert main(["generate", "--config", str(gen_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, value, named", [
        ("min_altitude_m", "6000", "min_altitude_m must be a number or null, got '6000'"),
        ("max_altitude_m", [1], "max_altitude_m must be a number or null, got [1]"),
        ("name", 5, "name must be a string, got 5"),
        ("satellite", 1, "satellite must be a string or null, got 1"),
        ("seed", 2.9, "seed must be an integer, got 2.9"),
        ("seed", True, "seed must be an integer, got True"),
        ("test_fraction", "0.3", "test_fraction must be a number in (0, 1), got '0.3'"),
        ("test_fraction", 1.5, "test_fraction must be a number in (0, 1), got 1.5"),
        ("test_fraction", 0, "test_fraction must be a number in (0, 1), got 0"),
        ("dataset", {"top_routes": True}, "dataset top_routes must be an integer >= 1, got True"),
        ("dataset", {"top_routes": 2.0}, "dataset top_routes must be an integer >= 1, got 2.0"),
        ("dataset", {"top_routes": 0}, "dataset top_routes must be an integer >= 1, got 0"),
        ("weather", {"storm_density": "x", "seed": 1}, "weather storm_density must be a finite number >= 0, got 'x'"),
        ("weather", {"storm_density": -1.0, "seed": 1}, "weather storm_density must be a finite number >= 0, got -1.0"),
        ("weather", {"storm_density": 2.0, "seed": 1.5}, "weather seed must be an integer >= 0, got 1.5"),
        ("weather", {"storm_density": 2.0, "seed": -1}, "weather seed must be an integer >= 0, got -1"),
        ("weather", {"storm_density": float("inf"), "seed": 1}, "weather storm_density must be a finite number >= 0, got inf"),
        ("weather", {"csv": 0}, "weather csv must be a path string, got 0"),
        ("weather", {"storm_density": 1.0, "seed": 1, "sed": 2}, "unknown weather key(s): sed"),
        ("weather", {"csv": "w.csv", "seed": 1}, "unknown weather key(s): seed"),
        ("dataset", {"top_routes": 2, "top": 3}, "unknown dataset key(s): top"),
    ])
    def test_train_reports_a_spec_value_of_the_wrong_type(self, key, value, named, small_corpus, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"name": "typed", "hyperparams": SMALL_HP, key: value}))
        out = tmp_path / "m.json"
        assert main(["train", "--config", str(spec), "--data", small_corpus["dir"], "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()

    def test_generate_names_a_misspelt_key(self, gen_config, tmp_path, capsys):
        raw = json.loads(gen_config.read_text())
        gen_config.write_text(json.dumps({**raw, "climb_rate": 3.0}))
        code = main(["generate", "--config", str(gen_config), "--out", str(tmp_path / "data")])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown key(s): climb_rate\n"


class TestExperimentSpec:
    def test_round_trips_through_dict(self):
        spec = ExperimentSpec.from_dict({
            "name": "x", "dataset": {"top_routes": 5}, "min_altitude_m": 6000,
            "weather": {"storm_density": 2.0, "seed": 1}, "satellite": "I5F1",
            "hyperparams": {"n_rounds": 7}, "test_fraction": 0.3, "seed": 4,
        })
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_rejects_unknown_dataset_selector(self):
        with pytest.raises(ValueError, match="dataset"):
            ExperimentSpec.from_dict({"dataset": "some"})

    def test_rejects_malformed_weather(self):
        for weather in ({"wrong": 1}, ["storm_density", "seed"]):
            with pytest.raises(ValueError, match="weather"):
                ExperimentSpec.from_dict({"weather": weather})

    def test_rejects_unknown_hyperparams_key_by_name(self):
        with pytest.raises(ValueError, match="unknown hyperparams key.*n_round"):
            ExperimentSpec.from_dict({"hyperparams": {"n_round": 5}})

    def test_rejects_unknown_spec_key_by_name(self):
        with pytest.raises(ValueError, match=r"unknown experiment key\(s\): min_altitude$"):
            ExperimentSpec.from_dict({"min_altitude": 6000})

    def test_train_reports_a_misspelt_spec_key_as_an_error(self, small_corpus, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"name": "typo", "min_altitude": 6000, "hyperparams": SMALL_HP}))
        code = main([
            "train", "--config", str(spec), "--data", small_corpus["dir"], "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "min_altitude" in err
        assert not (tmp_path / "m.json").exists()

    def test_rejects_hyperparams_that_are_not_an_object(self):
        with pytest.raises(ValueError, match="hyperparams must be an object"):
            ExperimentSpec.from_dict({"hyperparams": [5]})

    @pytest.mark.parametrize("hyperparams", [{"n_round": 5}, {"n_bins": 2.5}])
    def test_train_reports_a_bad_hyperparams_key_as_an_error(self, hyperparams, small_corpus, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"name": "bad", "hyperparams": hyperparams}))
        code = main([
            "train", "--config", str(spec), "--data", small_corpus["dir"], "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1
        assert next(iter(hyperparams)) in capsys.readouterr().err
