import hashlib
import json
import math
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from satlink.flightsim import (
    AntipodalRouteError,
    ConfigError,
    DEFAULT_LINK_PARAMS,
    GenerationConfig,
    LinkModelParams,
    RouteSpec,
    WeatherSpec,
    demo_config,
    demo_route_plans,
    demo_satellites,
    generate_dataset,
    generate_flight,
    great_circle_path,
    sample_cnr_population,
    synth_cnr,
)
from satlink.geometry import GeoPosition, GeoSatellite, geo_look_angles
from satlink.weather import SyntheticWeather, WeatherCell

T0 = datetime(2023, 3, 5, 8, 0, tzinfo=timezone.utc)


def route(dep, arr, dep_iata="AAA", arr_iata="BBB", cruise=11000.0, speed=250.0):
    return RouteSpec(
        departure_airport=dep_iata,
        arrival_airport=arr_iata,
        departure_pos=dep,
        arrival_pos=arr,
        cruise_altitude_m=cruise,
        ground_speed_mps=speed,
        airline_code="ZZ",
        tail_number="Z-TEST",
    )


def storm_cell(precip, lat=0.0, lon=0.0):
    return WeatherCell(T0.replace(minute=0), lat, lon, precip, 80.0, 20.0, 5.0)


class TestGreatCirclePath:
    def test_identical_endpoints_rejected(self):
        r = route(GeoPosition(1.0, 2.0, 10.0), GeoPosition(1.0, 2.0, 10.0))
        with pytest.raises(ValueError, match="coincide"):
            great_circle_path(r)

    def test_antipodal_endpoints_rejected(self):
        r = route(GeoPosition(10.0, 20.0, 0.0), GeoPosition(-10.0, -160.0, 0.0))
        with pytest.raises(AntipodalRouteError):
            great_circle_path(r)

    def test_singapore_london_length_and_count(self):
        # Independent oracle: spherical law of cosines on the endpoints.
        def sloc_m(a, b):
            la1, lo1 = math.radians(a[0]), math.radians(a[1])
            la2, lo2 = math.radians(b[0]), math.radians(b[1])
            c = math.sin(la1) * math.sin(la2) + math.cos(la1) * math.cos(la2) * math.cos(lo2 - lo1)
            return 6_371_000.0 * math.acos(max(-1.0, min(1.0, c)))

        r = route(GeoPosition(1.359, 103.989, 7.0), GeoPosition(51.470, -0.454, 25.0), speed=250.0)
        distance = sloc_m((1.359, 103.989), (51.470, -0.454))
        assert distance == pytest.approx(10_881_650.0, rel=1e-4)  # ~10,880 km

        path = great_circle_path(r, step_s=60.0)
        assert len(path) == math.ceil(distance / 250.0 / 60.0) + 1

        hop = sum(
            sloc_m(
                (path[i][1].latitude_deg, path[i][1].longitude_deg),
                (path[i + 1][1].latitude_deg, path[i + 1][1].longitude_deg),
            )
            for i in range(len(path) - 1)
        )
        assert hop == pytest.approx(distance, rel=1e-6)

    def test_endpoints_spacing_and_trapezoid_profile(self):
        r = route(GeoPosition(1.359, 103.989, 7.0), GeoPosition(51.470, -0.454, 25.0))
        path = great_circle_path(r, climb_rate_mps=10.0, descent_rate_mps=8.0)
        times = [t for t, _ in path]
        assert times[0] == 0.0
        assert all(b - a == 60.0 for a, b in zip(times, times[1:]))

        first, last = path[0][1], path[-1][1]
        assert (first.latitude_deg, first.longitude_deg) == pytest.approx((1.359, 103.989), abs=1e-9)
        assert (last.latitude_deg, last.longitude_deg) == pytest.approx((51.470, -0.454), abs=1e-9)
        assert first.altitude_m == 7.0
        assert last.altitude_m == 25.0

        alts = [p.altitude_m for _, p in path]
        assert max(alts) == r.cruise_altitude_m
        # 10 m/s climb and 8 m/s descent over 60 s steps.
        assert alts[1] - alts[0] == pytest.approx(600.0)
        assert alts[-2] - alts[-1] == pytest.approx(480.0)

    def test_short_hop_never_reaches_cruise(self):
        r = route(GeoPosition(0.0, 0.0, 0.0), GeoPosition(0.0, 2.0, 0.0), cruise=12000.0, speed=200.0)
        path = great_circle_path(r)
        assert max(p.altitude_m for _, p in path) < 12000.0


class TestSynthCnr:
    def test_zenith_with_zero_noise_is_exact(self):
        params = LinkModelParams(9.5, 3.0, 0.5, 6000.0, 0.0, 5.0)
        sat = GeoSatellite("S", 62.6)
        cnr = synth_cnr(GeoPosition(0.0, 62.6, 0.0), sat, None, params)
        assert cnr == 9.5

    def test_below_horizon_cut_is_missing(self):
        params = LinkModelParams(9.5, 3.0, 0.5, 6000.0, 0.0, 5.0)
        assert synth_cnr(GeoPosition(0.0, -90.0, 0.0), GeoSatellite("S", 62.6), None, params) is None

    def test_rain_gated_by_troposphere_ceiling(self):
        params = LinkModelParams(9.5, 3.0, 0.5, 6000.0, 0.0, 5.0)
        sat = GeoSatellite("S", 62.6)
        heavy = storm_cell(precip=12.0)
        high = GeoPosition(10.0, 60.0, 11000.0)
        low = GeoPosition(10.0, 60.0, 3000.0)
        assert synth_cnr(high, sat, heavy, params) == synth_cnr(high, sat, None, params)
        assert synth_cnr(low, sat, heavy, params) == pytest.approx(
            synth_cnr(low, sat, None, params) - 0.5 * 12.0
        )

    def test_monotone_in_precip_below_ceiling(self):
        params = LinkModelParams(9.5, 3.0, 0.5, 6000.0, 0.0, 5.0)
        sat = GeoSatellite("S", 62.6)
        low = GeoPosition(10.0, 60.0, 2500.0)
        values = [synth_cnr(low, sat, storm_cell(p), params) for p in (0.0, 1.0, 4.0, 15.0, 40.0)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_clamped_to_range(self):
        params = LinkModelParams(9.5, 3.0, 1.0, 6000.0, 0.0, 5.0)
        sat = GeoSatellite("S", 62.6)
        low = GeoPosition(10.0, 60.0, 2500.0)
        assert synth_cnr(low, sat, storm_cell(500.0), params) == 0.0

    def test_noise_requires_rng_and_is_seeded(self):
        params = LinkModelParams(9.5, 3.0, 0.5, 6000.0, 0.25, 5.0)
        sat = GeoSatellite("S", 62.6)
        p = GeoPosition(5.0, 60.0, 11000.0)
        with pytest.raises(ValueError, match="rng"):
            synth_cnr(p, sat, None, params)
        a = synth_cnr(p, sat, None, params, np.random.default_rng(9))
        b = synth_cnr(p, sat, None, params, np.random.default_rng(9))
        assert a == b

    def test_matches_vectorized_sampler_when_noise_free(self):
        params = LinkModelParams(
            DEFAULT_LINK_PARAMS.cnr_at_zenith_db,
            DEFAULT_LINK_PARAMS.elevation_rolloff_db,
            DEFAULT_LINK_PARAMS.rain_atten_db_per_mmh,
            DEFAULT_LINK_PARAMS.troposphere_ceiling_m,
            0.0,
            DEFAULT_LINK_PARAMS.horizon_cut_elevation_deg,
        )
        plans = demo_route_plans()
        sats = demo_satellites()
        population = sample_cnr_population([plans[0].route], sats, params, 500, seed=1)
        # Spot-check scalar path at the route midpoint against the population range.
        r = plans[0].route
        path = great_circle_path(r)
        mid = path[len(path) // 2][1]
        best = max(sats, key=lambda s: geo_look_angles(mid, s).elevation_deg)
        scalar = synth_cnr(mid, best, None, params)
        assert population.min() - 1e-9 <= scalar <= population.max() + 1e-9


class TestGenerateFlight:
    def test_requires_satellites(self):
        r = demo_route_plans()[0].route
        with pytest.raises(ValueError, match="satellite"):
            generate_flight(r, [], None, DEFAULT_LINK_PARAMS, 1, T0)

    def test_minute_grid_and_expected_count(self):
        r = demo_route_plans()[0].route  # SIN-LHR, ~12.1 h
        records = generate_flight(r, demo_satellites(), None, DEFAULT_LINK_PARAMS, 1, T0)
        path = great_circle_path(r)
        first_logged = next(i for i, (_, p) in enumerate(path) if p.altitude_m >= 1000.0)
        assert len(records) == len(path) - first_logged
        deltas = {
            (b.log_date - a.log_date).total_seconds() for a, b in zip(records, records[1:])
        }
        assert deltas == {60.0}
        assert records[0].flight_start_time == T0
        assert all(r_.flight_start_time <= r_.log_date <= r_.flight_end_time for r_ in records)

    def test_same_seed_reproduces_byte_identical_records(self, tmp_path):
        from satlink.ingest import save_logs

        r = demo_route_plans()[3].route
        sats = demo_satellites()
        a = generate_flight(r, sats, None, DEFAULT_LINK_PARAMS, 77, T0, "FX")
        b = generate_flight(r, sats, None, DEFAULT_LINK_PARAMS, 77, T0, "FX")
        assert a == b
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        save_logs(a, pa)
        save_logs(b, pb)
        assert pa.read_bytes() == pb.read_bytes()
        c = generate_flight(r, sats, None, DEFAULT_LINK_PARAMS, 78, T0, "FX")
        assert c != a

    def test_serving_satellite_has_max_elevation(self):
        r = demo_route_plans()[0].route
        sats = demo_satellites()
        records = generate_flight(r, sats, None, DEFAULT_LINK_PARAMS, 5, T0)
        for rec in records[::37]:
            elevations = {
                s.satellite_id: geo_look_angles(rec.position, s).elevation_deg for s in sats
            }
            assert elevations[rec.satellite_id] == max(elevations.values())

    def test_out_of_view_route_logs_missing_cnr(self):
        r = route(
            GeoPosition(51.470, -0.454, 25.0),
            GeoPosition(49.010, 2.548, 119.0),
            cruise=9000.0,
            speed=220.0,
        )
        far_side = [GeoSatellite("I5F3", 179.6)]
        records = generate_flight(r, far_side, None, DEFAULT_LINK_PARAMS, 3, T0)
        assert records
        assert all(rec.cnr_db is None for rec in records)

    def test_leading_low_altitude_records_dropped(self):
        r = demo_route_plans()[0].route
        records = generate_flight(
            r, demo_satellites(), None, DEFAULT_LINK_PARAMS, 5, T0, min_log_altitude_m=1000.0
        )
        assert records[0].altitude_m >= 1000.0
        # Descent below the gate is still logged through landing.
        assert records[-1].altitude_m == r.arrival_pos.altitude_m

    def test_rainy_low_altitude_rows_are_attenuated(self):
        r = demo_route_plans()[0].route
        sats = demo_satellites()
        params = LinkModelParams(10.15, 3.2, 0.5, 6000.0, 0.0, 5.0)
        wet = SyntheticWeather(storm_density=40.0, seed=6)
        dry = generate_flight(r, sats, None, params, 5, T0, "F")
        rain = generate_flight(r, sats, wet, params, 5, T0, "F")
        assert len(dry) == len(rain)
        low = [
            (d.cnr_db, w.cnr_db)
            for d, w in zip(dry, rain)
            if d.altitude_m < 6000.0 and d.cnr_db is not None
        ]
        assert any(wv < dv for dv, wv in low)
        high = [(d.cnr_db, w.cnr_db) for d, w in zip(dry, rain) if d.altitude_m >= 6000.0]
        assert all(dv == wv for dv, wv in high)


def tiny_config(tmp_seed=1234, flights=2):
    return demo_config(flights_per_route=flights, seed=tmp_seed, weather=WeatherSpec(4.0, 9))


def digest_tree(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# SHA-256 of every file that generate_dataset writes for the C9 set-up
# config (one flight per route, seed 55, WeatherSpec(5.0, 3)), recorded
# with Python 3.11.7 and numpy 2.4.6 on x86-64.  A change to any of them
# changes the dataset; refresh them only on purpose.
DATASET_SHA256 = {
    "manifest.json": "d17c39c8625e158fef0a0fdb4561382c3d705973661a726be8efb3ea69805c4c",
    "flights/F00000.csv": "99b8d1eac9116ed941625ad63f13497788c32801399fd31be313895eaf0fe3e2",
    "flights/F00001.csv": "510084e23905f1f00229f2996c8583d7a1ecb75a6409bcfa7f294628d1214d0c",
    "flights/F00002.csv": "30d1ecdf191de9e2d898a0a8b2b3fc17569f970ab40bc1e8bb804d672a58f27b",
    "flights/F00003.csv": "4e10ec21f1290389b2cadcde4de24cc98985418c75cc3d0ec62c959b2366a5fc",
    "flights/F00004.csv": "2b98d33976988002ce773673c0ec5a2fc64bc2290e4d071f1e994d6fe701d308",
    "flights/F00005.csv": "cac8b976510cc823c2994141d39b0f682cb1cba84bb15b4c2c7a3aec2e853276",
}


class TestGenerateDataset:
    def test_manifest_counts_match_files(self, small_corpus):
        manifest = small_corpus["manifest"]
        root = Path(small_corpus["dir"])
        assert manifest["flights"] == 12
        assert len(manifest["files"]) == 12
        total = 0
        for entry in manifest["files"]:
            lines = (root / entry["file"]).read_text().splitlines()
            assert len(lines) - 1 == entry["rows"]
            total += entry["rows"]
        assert manifest["rows"] == total
        assert manifest["labeled_rows"] == sum(manifest["category_counts"].values())
        on_disk = json.loads((root / "manifest.json").read_text())
        assert on_disk == manifest

    def test_zero_flights_is_success_with_empty_manifest(self, tmp_path):
        config = demo_config(flights_per_route=0, seed=1)
        manifest = generate_dataset(config, str(tmp_path / "empty"))
        assert manifest["flights"] == 0
        assert manifest["rows"] == 0
        assert manifest["files"] == []
        assert list((tmp_path / "empty" / "flights").iterdir()) == []

    def test_same_config_and_seed_reproduce_identical_bytes(self, tmp_path):
        config = tiny_config(flights=1)
        a, b = tmp_path / "a", tmp_path / "b"
        ma = generate_dataset(config, str(a))
        mb = generate_dataset(config, str(b))
        assert ma == mb
        assert digest_tree(a) == digest_tree(b)

    def test_pinned_dataset_hashes(self, tmp_path):
        generate_dataset(demo_config(flights_per_route=1, seed=55, weather=WeatherSpec(5.0, 3)), str(tmp_path))
        written = {
            p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.rglob("*")
            if p.is_file()
        }
        assert written == DATASET_SHA256

    def test_unwritable_out_dir_raises(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.raises(OSError):
            generate_dataset(tiny_config(flights=1), str(blocker / "nested"))

    def test_config_parsing_round_trip_and_validation(self):
        raw = {
            "seed": 5,
            "flights_per_route": 1,
            "start_date": "2023-03-01T00:00:00Z",
            "span_days": 10,
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
                }
            ],
            "satellites": [{"satellite_id": "I5F1", "slot_longitude_deg": 62.6}],
            "weather": {"storm_density": 4.0, "seed": 9},
        }
        config = GenerationConfig.from_dict(raw)
        assert config.routes[0].route.departure_airport == "SIN"
        assert config.weather == WeatherSpec(4.0, 9)

        bad = dict(raw, span_days=-1)
        bad["routes"] = [dict(raw["routes"][0], cruise_altitude_m=100)]
        with pytest.raises(ConfigError) as err:
            GenerationConfig.from_dict(bad)
        assert len(err.value.errors) == 2


class TestCalibration:
    def test_default_params_center_near_observed_mean(self):
        cnr = sample_cnr_population(
            [p.route for p in demo_route_plans()], demo_satellites(), DEFAULT_LINK_PARAMS, 50_000, 3
        )
        assert 8.52 <= float(cnr.mean()) <= 9.12
