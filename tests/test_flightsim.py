import collections
import hashlib
import json
import math
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satlink import flightsim, geometry
from satlink.cli import load_records
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
    sample_cnr_population,
    synth_cnr,
)
from satlink.geometry import GeoPosition, GeoSatellite, elevations_deg, geo_look_angles, haversine_m
from satlink.ingest import FlightLogRecord, bin_cnr, save_logs
from satlink.weather import CoverageGapError, SyntheticWeather, WeatherCell, synth_weather_field

from test_weather import ReferenceWeather

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


# --- the per-minute generator the columnar one replaced -------------------


def reference_great_circle_path(route, step_s=60.0, climb_rate_mps=10.0, descent_rate_mps=8.0):
    dep, arr = route.departure_pos, route.arrival_pos
    distance_m = haversine_m(dep, arr)
    duration_s = distance_m / route.ground_speed_mps
    n_steps = max(1, math.ceil(duration_s / step_s - 1e-9))
    fractions = np.arange(n_steps + 1, dtype=float) / n_steps
    # Looked up at call time, so a test may substitute the track.
    lats, lons = geometry.slerp_track(dep, arr, fractions)
    total_s = n_steps * step_s
    times = np.arange(n_steps + 1, dtype=float) * step_s
    alts = np.minimum.reduce(
        [
            dep.altitude_m + climb_rate_mps * times,
            np.full_like(times, route.cruise_altitude_m),
            arr.altitude_m + descent_rate_mps * (total_s - times),
        ]
    )
    return [
        (float(t), GeoPosition(float(lat), float(lon), float(alt)))
        for t, lat, lon, alt in zip(times, lats, lons, alts)
    ]


def reference_synth_cnr(p, sat, wx, params, rng=None):
    elevation = geo_look_angles(p, sat).elevation_deg
    if elevation < params.horizon_cut_elevation_deg:
        return None
    cnr = params.cnr_at_zenith_db - params.elevation_rolloff_db * (1.0 - math.sin(math.radians(elevation)))
    if wx is not None and p.altitude_m < params.troposphere_ceiling_m:
        cnr -= params.rain_atten_db_per_mmh * wx.precipitation_mmh
    if params.noise_sigma_db > 0.0:
        cnr -= rng.normal(0.0, params.noise_sigma_db)
    return min(20.0, max(0.0, cnr))


def reference_generate_flight(
    route, sats, weather, params, seed, departure_time, flight_id=None,
    min_log_altitude_m=1000.0, climb_rate_mps=10.0, descent_rate_mps=8.0,
):
    departure_time = departure_time.astimezone(timezone.utc)
    sats = sorted(sats, key=lambda s: s.satellite_id)
    path = reference_great_circle_path(route, 60.0, climb_rate_mps, descent_rate_mps)
    lats = np.array([p.latitude_deg for _, p in path])
    lons = np.array([p.longitude_deg for _, p in path])
    alts = np.array([p.altitude_m for _, p in path])
    serving_idx = np.argmax(np.stack([elevations_deg(lats, lons, alts, s) for s in sats]), axis=0)
    above_gate = np.nonzero(alts >= min_log_altitude_m)[0]
    if above_gate.size == 0:
        return []
    if flight_id is None:
        flight_id = f"{route.departure_airport}{route.arrival_airport}-{departure_time:%Y%m%d%H%M}"
    flight_end = departure_time + timedelta(seconds=path[-1][0])
    rng = np.random.default_rng(seed)
    records = []
    for i in range(int(above_gate[0]), len(path)):
        t_offset, pos = path[i]
        sat = sats[int(serving_idx[i])]
        log_date = departure_time + timedelta(seconds=t_offset)
        cell = None
        if weather is not None and pos.altitude_m < params.troposphere_ceiling_m:
            cell = weather.cell_at(log_date, pos)
        records.append(
            FlightLogRecord(
                log_date=log_date,
                flight_id=flight_id,
                tail_number=route.tail_number,
                airline_code=route.airline_code,
                departure_airport=route.departure_airport,
                arrival_airport=route.arrival_airport,
                flight_start_time=departure_time,
                flight_end_time=flight_end,
                latitude_deg=pos.latitude_deg,
                longitude_deg=pos.longitude_deg,
                altitude_m=pos.altitude_m,
                satellite_id=sat.satellite_id,
                cnr_db=reference_synth_cnr(pos, sat, cell, params, rng),
            )
        )
    return records


def assert_same_flight(got, want):
    """Every field bit for bit, except that ``cnr_db`` may differ in its last
    bits: the columnar path takes the serving elevation from the vectorized
    elevation stack, which differs from ``geo_look_angles`` by an ulp on
    some minutes.  The value as logged, to 3 decimals, is the same."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert replace(g, cnr_db=None) == replace(w, cnr_db=None)
        assert (g.cnr_db is None) == (w.cnr_db is None)
        if w.cnr_db is not None:
            assert abs(g.cnr_db - w.cnr_db) <= 1e-12
            assert f"{g.cnr_db:.3f}" == f"{w.cnr_db:.3f}"


ZERO_NOISE = replace(DEFAULT_LINK_PARAMS, noise_sigma_db=0.0)
SATELLITE_POOL = [GeoSatellite("I5F1", 62.6), GeoSatellite("I5F2", -55.0), GeoSatellite("I5F3", 179.6), GeoSatellite("X", 0.0)]


@st.composite
def flights(draw):
    """A route of up to ~3000 km anywhere, including across the
    antimeridian, with its satellites, weather, link params and schedule."""
    dep_lat = draw(st.floats(-60.0, 60.0))
    dep_lon = draw(st.one_of(st.floats(-180.0, 179.99), st.sampled_from([-180.0, 179.5, -179.5, 0.0, 10.0])))
    dlat = draw(st.floats(-15.0, 15.0))
    dlon = draw(st.floats(-25.0, 25.0))
    if abs(dlat) + abs(dlon) < 0.5:
        dlon = 1.0
    dep = GeoPosition(dep_lat, dep_lon, draw(st.floats(0.0, 800.0)))
    arr = GeoPosition(dep_lat + dlat, dep_lon + dlon, draw(st.floats(0.0, 800.0)))
    route = RouteSpec(
        "AAA", "BBB", dep, arr,
        cruise_altitude_m=draw(st.floats(8000.0, 13000.0)),
        ground_speed_mps=draw(st.floats(150.0, 300.0)),
        airline_code="ZZ",
        tail_number="Z-1",
    )
    sats = draw(st.lists(st.sampled_from(SATELLITE_POOL), min_size=1, max_size=3, unique=True))
    day = draw(st.sampled_from([datetime(1969, 12, 31, tzinfo=timezone.utc), datetime(2023, 3, 5, tzinfo=timezone.utc)]))
    departure = day + timedelta(minutes=draw(st.integers(0, 24 * 60 - 1)))
    weather = draw(st.sampled_from([None, (0.0, 1), (8.0, 77), (40.0, 6)]))
    return dict(
        route=route,
        sats=sats,
        weather=weather,
        params=draw(st.sampled_from([DEFAULT_LINK_PARAMS, ZERO_NOISE])),
        seed=draw(st.integers(0, 2**32)),
        departure_time=departure,
        flight_id=draw(st.sampled_from([None, "FX"])),
        min_log_altitude_m=draw(st.sampled_from([0.0, 1000.0, 20000.0])),
        climb_rate_mps=draw(st.sampled_from([3.0, 10.0])),
        descent_rate_mps=draw(st.sampled_from([2.5, 8.0])),
    )


def run_both(case):
    """(the columnar log's records, the per-minute reference's records)."""
    weather = case["weather"]
    new_args = dict(case, weather=None if weather is None else SyntheticWeather(*weather))
    ref_args = dict(case, weather=None if weather is None else ReferenceWeather(*weather))
    return generate_flight(**new_args).to_records(), reference_generate_flight(**ref_args)


class TestColumnarGeneration:
    """The columnar generator against the per-minute one it replaced."""

    @settings(max_examples=120, deadline=None)
    @given(case=flights())
    def test_matches_per_minute_reference(self, case):
        records, want = run_both(case)
        assert_same_flight(records, want)

    @pytest.mark.parametrize(
        "name, sats, dep, arr, weather, params",
        [
            ("out of view", [GeoSatellite("I5F3", 179.6)], (51.47, -0.454, 25.0), (49.01, 2.548, 119.0), None, DEFAULT_LINK_PARAMS),
            ("comes into view", [GeoSatellite("X", 0.0)], (10.0, 95.0, 5.0), (10.0, 70.0, 5.0), None, DEFAULT_LINK_PARAMS),
            ("zero noise", demo_satellites(), (25.253, 55.365, 19.0), (22.308, 113.915, 9.0), (8.0, 77), ZERO_NOISE),
            ("no storms", demo_satellites(), (1.359, 103.989, 7.0), (22.308, 113.915, 9.0), (0.0, 4), DEFAULT_LINK_PARAMS),
            ("antimeridian", demo_satellites(), (-17.0, 178.0, 10.0), (-9.4, -171.8, 5.0), (40.0, 6), DEFAULT_LINK_PARAMS),
            ("tile corner", demo_satellites(), (40.0, 10.0, 100.0), (30.0, 20.0, 100.0), (40.0, 6), DEFAULT_LINK_PARAMS),
        ],
    )
    def test_named_cases(self, name, sats, dep, arr, weather, params):
        case = dict(
            route=route(GeoPosition(*dep), GeoPosition(*arr), cruise=10000.0, speed=230.0),
            sats=sats,
            weather=weather,
            params=params,
            seed=11,
            departure_time=datetime(2023, 3, 5, 23, 10, tzinfo=timezone.utc),
            flight_id="FX",
            min_log_altitude_m=1000.0,
            climb_rate_mps=3.0,
            descent_rate_mps=2.5,
        )
        records, want = run_both(case)
        assert want
        assert_same_flight(records, want)
        if name == "out of view":
            assert all(r.cnr_db is None for r in records)
        if name == "comes into view":
            assert records[0].cnr_db is None and records[-1].cnr_db is not None
        if weather is not None and weather[0] > 0.0:
            assert any(r.cnr_db is not None and r.altitude_m < 6000.0 for r in records)

    def test_longitude_180_is_logged_as_minus_180(self, monkeypatch):
        real = geometry.slerp_track

        def through_180(a, b, fractions):
            lats, lons = real(a, b, fractions)
            lons = lons.copy()
            lons[len(lons) // 2] = 180.0
            return lats, lons

        monkeypatch.setattr(geometry, "slerp_track", through_180)
        monkeypatch.setattr(flightsim, "slerp_track", through_180)
        case = dict(
            route=route(GeoPosition(-17.0, 178.0, 10.0), GeoPosition(-9.4, -171.8, 5.0)),
            sats=demo_satellites(),
            weather=None,
            params=DEFAULT_LINK_PARAMS,
            seed=3,
            departure_time=T0,
            flight_id="FX",
            min_log_altitude_m=1000.0,
            climb_rate_mps=10.0,
            descent_rate_mps=8.0,
        )
        records, want = run_both(case)
        assert -180.0 in [r.longitude_deg for r in records]
        assert_same_flight(records, want)

    def test_great_circle_path_matches_reference(self):
        for plan in demo_route_plans():
            for rates in ((10.0, 8.0), (3.0, 2.5)):
                times, lats, lons, alts = flightsim._path(plan.route, 60.0, *rates)
                want = reference_great_circle_path(plan.route, 60.0, *rates)
                assert times.tolist() == [t for t, _ in want]
                positions = map(GeoPosition, lats.tolist(), lons.tolist(), alts.tolist())
                assert list(positions) == [p for _, p in want]

    def test_weather_gap_raises_during_generation(self):
        field = synth_weather_field((0.0, 3.0, 102.0, 106.0), (T0 - timedelta(hours=1), T0 + timedelta(hours=20)), 8.0, 2)
        r = route(GeoPosition(1.359, 103.989, 7.0), GeoPosition(22.308, 113.915, 9.0))
        with pytest.raises(CoverageGapError):
            generate_flight(r, demo_satellites(), field, DEFAULT_LINK_PARAMS, 1, T0)
        with pytest.raises(CoverageGapError):
            reference_generate_flight(r, demo_satellites(), field, DEFAULT_LINK_PARAMS, 1, T0)

    def test_covering_field_gives_the_same_flight_as_its_provider(self):
        r = route(GeoPosition(1.359, 103.989, 7.0), GeoPosition(3.0, 110.0, 9.0), speed=200.0)
        field = synth_weather_field((0.0, 5.0, 102.0, 112.0), (T0 - timedelta(hours=1), T0 + timedelta(hours=6)), 30.0, 2)
        provider = SyntheticWeather(30.0, 2)
        got = generate_flight(r, demo_satellites(), field, ZERO_NOISE, 1, T0, "FX")
        assert got == generate_flight(r, demo_satellites(), provider, ZERO_NOISE, 1, T0, "FX")
        want = reference_generate_flight(r, demo_satellites(), field, ZERO_NOISE, 1, T0, "FX")
        assert_same_flight(got.to_records(), want)


def valid_log():
    return generate_flight(demo_route_plans()[3].route, demo_satellites(), None, DEFAULT_LINK_PARAMS, 5, T0, "FX")


def with_value(column, index, value):
    log = valid_log()
    values = getattr(log, column).copy()
    values[index] = value
    return replace(log, **{column: values})


class TestLogColumnChecks:
    """One case per column check the writer makes before it writes."""

    @pytest.mark.parametrize(
        "bad, message",
        [
            (lambda: replace(valid_log(), cnr_db=valid_log().cnr_db[:-1]), "unequal length"),
            (lambda: with_value("epoch_s", 4, int(T0.timestamp()) + 4 * 60 + 30), "minute-aligned"),
            (lambda: with_value("epoch_s", -1, int(valid_log().flight_end_s[-1]) + 60), "outside the flight interval"),
            (lambda: with_value("epoch_s", 0, int(T0.timestamp()) - 60), "outside the flight interval"),
            (lambda: with_value("latitude_deg", 7, 90.5), "latitude"),
            (lambda: with_value("latitude_deg", 7, math.nan), "latitude"),
            (lambda: with_value("longitude_deg", 3, 180.0), "longitude"),
            (lambda: with_value("altitude_m", 9, -0.5), "altitude"),
            (lambda: with_value("cnr_db", 2, 20.001), "cnr_db"),
            (lambda: with_value("cnr_db", 2, -0.001), "cnr_db"),
        ],
    )
    def test_bad_column_raises_and_writes_nothing(self, bad, message, tmp_path):
        path = tmp_path / "f.csv"
        with pytest.raises(ValueError, match=message):
            save_logs(bad(), str(path))
        assert not path.exists()


class TestGreatCirclePath:
    """``flightsim._path``, the generator's route sampler."""

    def test_identical_endpoints_rejected(self):
        r = route(GeoPosition(1.0, 2.0, 10.0), GeoPosition(1.0, 2.0, 10.0))
        with pytest.raises(ValueError, match="coincide"):
            flightsim._path(r, 60.0, 10.0, 8.0)

    def test_antipodal_endpoints_rejected(self):
        r = route(GeoPosition(10.0, 20.0, 0.0), GeoPosition(-10.0, -160.0, 0.0))
        with pytest.raises(AntipodalRouteError):
            flightsim._path(r, 60.0, 10.0, 8.0)

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

        times, lats, lons, _ = flightsim._path(r, 60.0, 10.0, 8.0)
        assert len(times) == math.ceil(distance / 250.0 / 60.0) + 1

        points = list(zip(lats.tolist(), lons.tolist()))
        hop = sum(sloc_m(a, b) for a, b in zip(points, points[1:]))
        assert hop == pytest.approx(distance, rel=1e-6)

    def test_endpoints_spacing_and_trapezoid_profile(self):
        r = route(GeoPosition(1.359, 103.989, 7.0), GeoPosition(51.470, -0.454, 25.0))
        times, lats, lons, alts = flightsim._path(r, 60.0, 10.0, 8.0)
        assert times[0] == 0.0
        assert (np.diff(times) == 60.0).all()

        assert (lats[0], lons[0]) == pytest.approx((1.359, 103.989), abs=1e-9)
        assert (lats[-1], lons[-1]) == pytest.approx((51.470, -0.454), abs=1e-9)
        assert alts[0] == 7.0
        assert alts[-1] == 25.0

        assert alts.max() == r.cruise_altitude_m
        # 10 m/s climb and 8 m/s descent over 60 s steps.
        assert alts[1] - alts[0] == pytest.approx(600.0)
        assert alts[-2] - alts[-1] == pytest.approx(480.0)

    def test_short_hop_never_reaches_cruise(self):
        r = route(GeoPosition(0.0, 0.0, 0.0), GeoPosition(0.0, 2.0, 0.0), cruise=12000.0, speed=200.0)
        _, _, _, alts = flightsim._path(r, 60.0, 10.0, 8.0)
        assert alts.max() < 12000.0


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
        _, lats, lons, alts = flightsim._path(r, 60.0, 10.0, 8.0)
        m = len(lats) // 2
        mid = GeoPosition(float(lats[m]), float(lons[m]), float(alts[m]))
        best = max(sats, key=lambda s: geo_look_angles(mid, s).elevation_deg)
        scalar = synth_cnr(mid, best, None, params)
        assert population.min() - 1e-9 <= scalar <= population.max() + 1e-9


class TestSynthCnrMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        lat=st.floats(-80.0, 80.0),
        lon=st.floats(-180.0, 180.0),
        alt=st.sampled_from([0.0, 2500.0, 5999.0, 6000.0, 11000.0]),
        sat=st.sampled_from(SATELLITE_POOL),
        # Most rain above ~18 mm/h clamps the CNR to 0, so keep it lighter.
        precip=st.one_of(st.none(), st.just(0.0), st.floats(0.01, 15.0)),
        params=st.sampled_from([DEFAULT_LINK_PARAMS, ZERO_NOISE, replace(DEFAULT_LINK_PARAMS, rain_atten_db_per_mmh=-0.3)]),
        seed=st.integers(0, 1000),
    )
    def test_bit_for_bit(self, lat, lon, alt, sat, precip, params, seed):
        p = GeoPosition(lat, lon, alt)
        wx = None if precip is None else storm_cell(precip)
        got = synth_cnr(p, sat, wx, params, np.random.default_rng(seed))
        want = reference_synth_cnr(p, sat, wx, params, np.random.default_rng(seed))
        assert got == want


class TestGenerateFlight:
    def test_requires_satellites(self):
        r = demo_route_plans()[0].route
        with pytest.raises(ValueError, match="satellite"):
            generate_flight(r, [], None, DEFAULT_LINK_PARAMS, 1, T0)

    def test_minute_grid_and_expected_count(self):
        r = demo_route_plans()[0].route  # SIN-LHR, ~12.1 h
        log = generate_flight(r, demo_satellites(), None, DEFAULT_LINK_PARAMS, 1, T0)
        _, _, _, alts = flightsim._path(r, 60.0, 10.0, 8.0)
        first_logged = int(np.argmax(alts >= 1000.0))
        assert len(log) == len(alts) - first_logged
        assert set(np.diff(log.epoch_s).tolist()) == {60}
        assert (log.flight_start_s == int(T0.timestamp())).all()
        assert ((log.flight_start_s <= log.epoch_s) & (log.epoch_s <= log.flight_end_s)).all()

    def test_same_seed_reproduces_byte_identical_records(self, tmp_path):
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
        records = generate_flight(r, sats, None, DEFAULT_LINK_PARAMS, 5, T0).to_records()
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
        log = generate_flight(r, far_side, None, DEFAULT_LINK_PARAMS, 3, T0)
        assert len(log)
        assert np.isnan(log.cnr_db).all()

    def test_leading_low_altitude_records_dropped(self):
        r = demo_route_plans()[0].route
        log = generate_flight(r, demo_satellites(), None, DEFAULT_LINK_PARAMS, 5, T0, min_log_altitude_m=1000.0)
        assert log.altitude_m[0] >= 1000.0
        # Descent below the gate is still logged through landing.
        assert log.altitude_m[-1] == r.arrival_pos.altitude_m

    def test_rainy_low_altitude_rows_are_attenuated(self):
        r = demo_route_plans()[0].route
        sats = demo_satellites()
        params = LinkModelParams(10.15, 3.2, 0.5, 6000.0, 0.0, 5.0)
        wet = SyntheticWeather(storm_density=40.0, seed=6)
        dry = generate_flight(r, sats, None, params, 5, T0, "F")
        rain = generate_flight(r, sats, wet, params, 5, T0, "F")
        assert len(dry) == len(rain)
        low = (dry.altitude_m < 6000.0) & ~np.isnan(dry.cnr_db)
        assert (rain.cnr_db[low] < dry.cnr_db[low]).any()
        high = dry.altitude_m >= 6000.0
        assert np.array_equal(rain.cnr_db[high], dry.cnr_db[high], equal_nan=True)


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

    def test_year_999_dataset_reads_back(self, tmp_path):
        config = replace(
            demo_config(flights_per_route=1, seed=3, weather=None),
            start_date=datetime(999, 3, 1, tzinfo=timezone.utc),
            routes=tuple(demo_route_plans()[3:4]),
        )
        manifest = generate_dataset(config, str(tmp_path))
        records = load_records(str(tmp_path))
        assert len(records) == manifest["rows"] > 0
        assert {(r.log_date.year, r.flight_start_time.year, r.flight_end_time.year) for r in records} == {(999, 999, 999)}
        first_row = (tmp_path / manifest["files"][0]["file"]).read_text().splitlines()[1]
        assert first_row.startswith("0999-") and ",0999-" in first_row

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

    def test_manifest_counts_the_labels_as_written(self, tmp_path):
        # Binning the unrounded CNR here counted Weak 3586 and Medium 48; one
        # value rounds up to 10.000 dB in the file.
        manifest = generate_dataset(demo_config(flights_per_route=1, seed=9), str(tmp_path))
        parsed = collections.Counter(bin_cnr(r.cnr_db).label for r in load_records(str(tmp_path)) if r.cnr_db is not None)
        assert manifest["category_counts"] == {label: parsed[label] for label in ("Bad", "Weak", "Medium", "Good")}
        assert manifest["category_counts"]["Medium"] == 49
        assert manifest["labeled_rows"] == sum(parsed.values())

    def test_unwritable_out_dir_raises(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.raises(OSError):
            generate_dataset(tiny_config(flights=1), str(blocker / "nested"))

    def test_config_parsing_round_trip_and_validation(self):
        raw = one_route_config()
        config = GenerationConfig.from_dict(raw)
        assert config.routes[0].route.departure_airport == "SIN"
        assert config.weather == WeatherSpec(4.0, 9)

        bad = dict(raw, span_days=-1)
        bad["routes"] = [dict(raw["routes"][0], cruise_altitude_m=100)]
        with pytest.raises(ConfigError) as err:
            GenerationConfig.from_dict(bad)
        assert len(err.value.errors) == 2

    @pytest.mark.parametrize(
        "text, reason",
        [("2023-03-01T00:00:00", "without Z"), ("2023-03-01T00:00:00.5Z", "whole seconds"), ("1 March 2023", "isoformat")],
    )
    def test_config_start_date_is_read_as_a_log_time_is(self, text, reason):
        with pytest.raises(ConfigError) as err:
            GenerationConfig.from_dict(config_starting(text))
        (error,) = err.value.errors
        assert error.startswith("start_date") and reason in error

    @pytest.mark.parametrize("text", ["2023-03-01T00:00:00Z", "2023-03-01T09:00:00+09:00"])
    def test_config_start_date_with_a_zone_is_utc(self, text):
        start = GenerationConfig.from_dict(config_starting(text)).start_date
        assert start == datetime(2023, 3, 1, tzinfo=timezone.utc)
        assert start.tzinfo is timezone.utc


    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("climb_rate_mps", "fast", "key 'climb_rate_mps' must be float"),
            ("climb_rate_mps", -5, "climb_rate_mps must be finite and > 0"),
            ("climb_rate_mps", 0, "climb_rate_mps must be finite and > 0"),
            ("climb_rate_mps", float("nan"), "climb_rate_mps must be finite and > 0"),
            ("descent_rate_mps", None, "key 'descent_rate_mps' must be float"),
            ("descent_rate_mps", -2.5, "descent_rate_mps must be finite and > 0"),
            ("descent_rate_mps", float("inf"), "descent_rate_mps must be finite and > 0"),
            ("min_log_altitude_m", [1000], "key 'min_log_altitude_m' must be float"),
            ("min_log_altitude_m", float("nan"), "min_log_altitude_m must be finite"),
            ("min_log_altitude_m", float("-inf"), "min_log_altitude_m must be finite"),
            # bool is an int subclass, but never a count or a rate.
            ("climb_rate_mps", True, "key 'climb_rate_mps' must be float"),
            ("seed", True, "key 'seed' must be int"),
            ("flights_per_route", True, "key 'flights_per_route' must be int"),
            ("span_days", True, "key 'span_days' must be float"),
        ],
    )
    def test_config_rates_and_log_altitude_are_checked(self, key, value, message):
        with pytest.raises(ConfigError) as err:
            GenerationConfig.from_dict(dict(config_starting("2023-03-01T00:00:00Z"), **{key: value}))
        assert err.value.errors == [message]

    def test_config_rates_and_log_altitude_default_or_convert(self):
        config = GenerationConfig.from_dict(config_starting("2023-03-01T00:00:00Z"))
        assert (config.climb_rate_mps, config.descent_rate_mps, config.min_log_altitude_m) == (10.0, 8.0, 1000.0)
        raw = dict(config_starting("2023-03-01T00:00:00Z"), climb_rate_mps=3, descent_rate_mps=2.5, min_log_altitude_m=0)
        config = GenerationConfig.from_dict(raw)
        assert (config.climb_rate_mps, config.descent_rate_mps, config.min_log_altitude_m) == (3.0, 2.5, 0.0)
        assert isinstance(config.climb_rate_mps, float) and isinstance(config.min_log_altitude_m, float)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda raw: raw.update(climb_rate=3.0), "unknown key(s): climb_rate"),
            (lambda raw: raw["routes"][0].update(tail="9V-SKB"), "routes[0]: unknown key(s): tail"),
            (lambda raw: raw["satellites"][0].update(slot=1.0, id="X"), "satellites[0]: unknown key(s): id, slot"),
            (lambda raw: raw["weather"].update(density=2.0), "weather: unknown key(s): density"),
        ],
    )
    def test_config_names_unknown_keys_next_to_other_errors(self, edit, message):
        raw = one_route_config()
        edit(raw)
        with pytest.raises(ConfigError) as err:
            GenerationConfig.from_dict(raw)
        assert err.value.errors == [message]
        raw["span_days"] = -1
        with pytest.raises(ConfigError) as err:
            GenerationConfig.from_dict(raw)
        assert err.value.errors == [message, "span_days must be > 0"]

    def test_config_allows_the_weather_export_block(self):
        raw = dict(one_route_config(), weather_export={"bounds": [0.0, 1.0, 100.0, 101.0], "hours": 2})
        assert GenerationConfig.from_dict(raw).weather == WeatherSpec(4.0, 9)


def one_route_config() -> dict:
    """A generation config with one route, one satellite and weather."""
    return {
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


def config_starting(text: str) -> dict:
    """The smallest generation config, starting at ``text``."""
    return {"seed": 1, "flights_per_route": 1, "start_date": text, "span_days": 1, "routes": [], "satellites": []}


def reference_sample_cnr_population(routes, sats, params, n, seed):
    rng = np.random.default_rng(seed)
    route_idx = rng.integers(0, len(routes), n)
    u = rng.random(n)
    noise = rng.normal(0.0, params.noise_sigma_db, n) if params.noise_sigma_db > 0.0 else np.zeros(n)
    lats, lons, alts = np.empty(n), np.empty(n), np.empty(n)
    for i, r in enumerate(routes):
        mask = route_idx == i
        if not mask.any():
            continue
        dep, arr = r.departure_pos, r.arrival_pos
        total_s = max(1, math.ceil(haversine_m(dep, arr) / r.ground_speed_mps / 60.0 - 1e-9)) * 60.0
        t = u[mask] * total_s
        lats[mask], lons[mask] = geometry.slerp_track(dep, arr, u[mask])
        alts[mask] = np.minimum.reduce(
            [dep.altitude_m + 10.0 * t, np.full(t.shape, r.cruise_altitude_m), arr.altitude_m + 8.0 * (total_s - t)]
        )
    best = np.maximum.reduce([elevations_deg(lats, lons, alts, s) for s in sats])
    visible = best >= params.horizon_cut_elevation_deg
    cnr = (
        params.cnr_at_zenith_db
        - params.elevation_rolloff_db * (1.0 - np.sin(np.radians(best[visible])))
        - noise[visible]
    )
    return np.clip(cnr, 0.0, 20.0)


class TestCalibration:
    @pytest.mark.parametrize("params", [DEFAULT_LINK_PARAMS, ZERO_NOISE])
    def test_population_matches_reference(self, params):
        routes = [p.route for p in demo_route_plans()]
        got = sample_cnr_population(routes, demo_satellites(), params, 20_000, 8)
        want = reference_sample_cnr_population(routes, demo_satellites(), params, 20_000, 8)
        assert got.tobytes() == want.tobytes()

    def test_default_params_center_near_observed_mean(self):
        cnr = sample_cnr_population(
            [p.route for p in demo_route_plans()], demo_satellites(), DEFAULT_LINK_PARAMS, 50_000, 3
        )
        assert 8.52 <= float(cnr.mean()) <= 9.12
