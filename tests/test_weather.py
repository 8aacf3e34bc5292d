import hashlib
import inspect
import math
import random
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satlink import weather
from satlink.geometry import GeoPosition, haversine_m, normalize_lon
from satlink.ingest import _utc_cell
from satlink.weather import (
    CoverageGapError,
    SyntheticWeather,
    WeatherCell,
    WeatherCsvError,
    WeatherField,
    _format_utc,
    _parse_utc,
    _utc_seconds,
    load_weather_csv,
    save_weather_csv,
    synth_weather_field,
)

H0 = datetime(2023, 3, 5, 12, 0, tzinfo=timezone.utc)
SRC = Path(__file__).resolve().parents[1] / "src" / "satlink"


# --- the per-point scalar evaluation SyntheticWeather was built on ---------


@lru_cache(maxsize=None)
def reference_storms(density: float, seed: int, tile_lat: int, tile_lon: int, day: int) -> tuple:
    if density == 0.0 or day < 0:
        return ()
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x57, tile_lat + 90, tile_lon + 180, day)))
    storms = []
    for _ in range(int(rng.poisson(density))):
        lat0 = tile_lat * 10.0 + 10.0 * rng.random()
        lon0 = tile_lon * 10.0 + 10.0 * rng.random()
        birth_h = day * 24.0 + 24.0 * rng.random()
        life_h = 3.0 + 7.0 * rng.random()
        vlat = rng.uniform(-0.25, 0.25)
        vlon = rng.uniform(-0.25, 0.25)
        radius = 0.3 + 0.9 * rng.random()
        peak = 4.0 + 16.0 * rng.random()
        storms.append((lat0, lon0, birth_h, life_h, vlat, vlon, radius, peak))
    return tuple(storms)


def reference_storm_precip(density: float, seed: int, hour_idx: int, lat: float, lon: float) -> float:
    if density == 0.0:
        return 0.0
    day = hour_idx // 24
    tlat, tlon = math.floor(lat / 10.0), math.floor(lon / 10.0)
    cos_lat = math.cos(math.radians(lat))
    total = 0.0
    for d in (day - 1, day):
        for ty in (tlat - 1, tlat, tlat + 1):
            for tx in (tlon - 1, tlon, tlon + 1):
                for (lat0, lon0, birth, life, vlat, vlon, radius, peak) in reference_storms(density, seed, ty, tx, d):
                    age = hour_idx - birth
                    if not 0.0 <= age < life:
                        continue
                    dlat = lat - (lat0 + vlat * age)
                    dlon = (lon - (lon0 + vlon * age)) * cos_lat
                    d2 = dlat * dlat + dlon * dlon
                    if d2 < (3.0 * radius) ** 2:
                        total += peak * math.exp(-d2 / (2.0 * radius * radius))
    return total


def reference_values(density: float, seed: int, hour_idx: int, lat: float, lon: float) -> tuple:
    hod = hour_idx % 24
    temp = (
        24.0
        - 0.5 * abs(lat)
        + 6.0 * math.sin(2.0 * math.pi * (hod - 9.0) / 24.0)
        + 2.0 * math.sin(0.37 * lat + 0.23 * lon)
    )
    wind = max(
        0.0,
        5.0 + 3.0 * math.sin(0.21 * lat + 0.17 * lon + 0.13 * hour_idx) + 2.0 * math.sin(0.05 * hour_idx),
    )
    precip = reference_storm_precip(density, seed, hour_idx, lat, lon)
    cloud = min(100.0, max(0.0, 42.0 + 30.0 * math.sin(0.11 * lat - 0.19 * lon + 0.07 * hour_idx) + 6.0 * precip))
    return (round(precip, 6), round(cloud, 6), round(temp, 6), round(wind, 6))


def reference_cell_at(density: float, seed: int, t: datetime, p: GeoPosition) -> WeatherCell:
    hour_idx = math.ceil(t.timestamp() / 3600 - 0.5)
    lat = math.ceil(p.latitude_deg * 10.0 - 0.5) / 10.0
    lon = math.ceil(normalize_lon(p.longitude_deg) * 10.0 - 0.5) / 10.0
    when = datetime.fromtimestamp(hour_idx * 3600, tz=timezone.utc)
    return WeatherCell(when, lat, lon, *reference_values(density, seed, hour_idx, lat, lon))


class ReferenceWeather:
    """A provider answering ``cell_at`` with the scalar reference."""

    def __init__(self, density: float, seed: int):
        self.density, self.seed = density, seed

    def cell_at(self, t: datetime, p: GeoPosition) -> WeatherCell:
        return reference_cell_at(self.density, self.seed, t, p)


def _near_edges(edge_step: float, lo: float, hi: float):
    """Degrees near multiples of ``edge_step`` (tile edges, 0.1 degree cell
    halves) or anywhere in [lo, hi]."""
    offsets = st.sampled_from([0.0, 0.04, 0.05, 0.06, -0.04, -0.05, -0.06, 1e-9, -1e-9])
    near = st.builds(
        lambda k, off: min(hi, max(lo, k * edge_step + off)),
        st.integers(int(lo // edge_step), int(hi // edge_step)),
        offsets,
    )
    return st.one_of(near, st.floats(lo, hi, allow_nan=False))


#: Whole days since 1970 around the epoch (storms need day >= 0) and in 2023.
_DAYS = st.sampled_from([-2, -1, 0, 1, 19420, 19421, 19422])
weather_points = st.lists(
    st.tuples(
        st.builds(
            lambda day, h, m, s: float(day * 86400 + h * 3600 + m * 60 + s),
            _DAYS,
            st.integers(0, 23),
            st.sampled_from([0, 1, 29, 30, 31, 59]),
            st.sampled_from([0, 30]),
        ),
        _near_edges(10.0, -90.0, 90.0),
        st.one_of(st.sampled_from([180.0, -180.0, 179.95, -179.95, 179.96]), _near_edges(10.0, -180.0, 180.0)),
    ),
    min_size=1,
    max_size=12,
)
densities = st.sampled_from([0.0, 3.0, 8.0, 40.0])


def cell(hour, lat, lon, precip=0.0, cloud=50.0, temp=15.0, wind=4.0):
    return WeatherCell(hour, lat, lon, precip, cloud, temp, wind)


def brute_force_nearest(field: WeatherField, t: datetime, p: GeoPosition) -> WeatherCell:
    """Full scan, minimizing (|dt|, hour, distance, lat, lon) lexicographically."""
    best_key, best_cell = None, None
    for c in field:
        dt = abs((t - c.hour_utc).total_seconds())
        key = (
            dt,
            c.hour_utc,
            haversine_m(p, GeoPosition(c.grid_lat_deg, c.grid_lon_deg)),
            c.grid_lat_deg,
            c.grid_lon_deg,
        )
        if best_key is None or key < best_key:
            best_key, best_cell = key, c
    return best_cell


class TestWeatherCell:
    def test_rejects_sub_hour_timestamp(self):
        with pytest.raises(ValueError, match="hour"):
            cell(H0 + timedelta(minutes=5), 10.0, 20.0)

    def test_rejects_off_grid_coordinates(self):
        with pytest.raises(ValueError, match="grid"):
            cell(H0, 10.05, 20.0)
        assert cell(H0, 10.1, 20.0).grid_lat_deg == 10.1

    @pytest.mark.parametrize("kwargs", [
        {"precip": -0.1},
        {"cloud": 101.0},
        {"wind": -1.0},
    ])
    def test_rejects_out_of_range_variables(self, kwargs):
        with pytest.raises(ValueError):
            cell(H0, 10.0, 20.0, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"precip": math.nan},
        {"precip": math.inf},
        {"cloud": math.nan},
        {"temp": math.nan},
        {"temp": -math.inf},
        {"wind": math.nan},
        {"wind": math.inf},
    ])
    def test_rejects_non_finite_variables(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            cell(H0, 10.0, 20.0, **kwargs)

    def test_rejects_non_finite_coordinates(self):
        for lat, lon in ((math.nan, 20.0), (math.inf, 20.0), (10.0, math.nan), (10.0, -math.inf)):
            with pytest.raises(ValueError, match="finite"):
                cell(H0, lat, lon)

    def test_values_are_in_provider_column_order(self):
        assert cell(H0, 10.0, 20.0, 1.5, 60.0, -3.0, 7.0).values == (1.5, 60.0, -3.0, 7.0)

    def test_rejects_duplicate_keys(self):
        with pytest.raises(ValueError, match="duplicate"):
            WeatherField([cell(H0, 10.0, 20.0), cell(H0, 10.0, 20.0, precip=1.0)])


class TestSyntheticWeather:
    def test_deterministic_in_seed(self):
        a = SyntheticWeather(5.0, 42)
        b = SyntheticWeather(5.0, 42)
        p = GeoPosition(47.33, 8.51, 500.0)
        assert a.cell_at(H0, p) == b.cell_at(H0, p)
        c = SyntheticWeather(5.0, 43)
        samples_differ = any(
            a.cell_at(H0 + timedelta(hours=h), p) != c.cell_at(H0 + timedelta(hours=h), p)
            for h in range(24)
        )
        assert samples_differ

    def test_zero_density_means_zero_precipitation(self):
        provider = SyntheticWeather(0.0, 1)
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = GeoPosition(rng.uniform(-60, 60), rng.uniform(-180, 180))
            at = H0 + timedelta(hours=int(rng.integers(0, 72)))
            assert provider.cell_at(at, p).precipitation_mmh == 0.0

    def test_snaps_to_grid_and_hour(self):
        provider = SyntheticWeather(0.0, 1)
        c = provider.cell_at(H0 + timedelta(minutes=29), GeoPosition(10.04, 19.96))
        assert c.hour_utc == H0
        assert (c.grid_lat_deg, c.grid_lon_deg) == (10.0, 20.0)
        c = provider.cell_at(H0 + timedelta(minutes=31), GeoPosition(10.06, 19.96))
        assert c.hour_utc == H0 + timedelta(hours=1)
        assert c.grid_lat_deg == 10.1
        # Exact half-hour and half-cell ties resolve to the earlier / smaller.
        c = provider.cell_at(H0 + timedelta(minutes=30), GeoPosition(10.05, 20.0))
        assert c.hour_utc == H0
        assert c.grid_lat_deg == 10.0

    def test_materialized_field_matches_provider(self):
        provider = SyntheticWeather(30.0, 7)
        field = synth_weather_field((40.0, 41.0, 5.0, 6.0), (H0, H0 + timedelta(hours=3)), 30.0, 7)
        rng = np.random.default_rng(1)
        # Keep queries snapping inside the materialized hours (12..14) and
        # cell centers (40.0..40.9, 5.0..5.9).
        for _ in range(100):
            p = GeoPosition(rng.uniform(40.0, 40.94), rng.uniform(5.0, 5.94))
            at = H0 + timedelta(minutes=int(rng.integers(0, 150)))
            assert field.cell_at(at, p) == provider.cell_at(at, p)


class TestMatchesScalarReference:
    """The batch evaluation against the per-point scalar loop it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(points=weather_points, density=densities, seed=st.integers(0, 3))
    def test_cells_match_scalar_reference_bit_for_bit(self, points, density, seed):
        provider = SyntheticWeather(density, seed)
        ts, lats, lons = (np.array(column) for column in zip(*points))
        want = [
            reference_cell_at(density, seed, datetime.fromtimestamp(t, timezone.utc), GeoPosition(lat, lon))
            for t, lat, lon in points
        ]
        got = provider.cells_at(ts, lats, lons)
        assert got.dtype == np.float64 and got.shape == (len(points), 4)
        assert got.tobytes() == np.array([c.values for c in want]).tobytes()
        # The one-row case, on a fresh provider so no cache is shared.
        single = SyntheticWeather(density, seed)
        assert [
            single.cell_at(datetime.fromtimestamp(t, timezone.utc), GeoPosition(lat, lon)) for t, lat, lon in points
        ] == want

    @settings(max_examples=80, deadline=None)
    @given(points=weather_points, density=densities, seed=st.integers(0, 3))
    def test_unrounded_precipitation_matches_scalar_sums(self, points, density, seed):
        hours = [math.ceil(t / 3600 - 0.5) for t, _, _ in points]
        lats = [math.ceil(lat * 10.0 - 0.5) / 10.0 for _, lat, _ in points]
        lons = [math.ceil(normalize_lon(lon) * 10.0 - 0.5) / 10.0 for _, _, lon in points]
        got = SyntheticWeather(density, seed)._storm_precip(hours, lats, lons)
        assert got == [reference_storm_precip(density, seed, *p) for p in zip(hours, lats, lons)]

    def test_storm_heavy_points_match(self):
        # Cells under a dense storm field, where most points add several terms.
        provider = SyntheticWeather(40.0, 6)
        hours = [19421 * 24 + h for h in range(24) for _ in range(20)]
        rng = np.random.default_rng(3)
        lats = [round(v, 1) for v in rng.uniform(35.0, 55.0, len(hours))]
        lons = [round(v, 1) for v in rng.uniform(-5.0, 15.0, len(hours))]
        got = provider._storm_precip(hours, lats, lons)
        assert sum(v > 0.0 for v in got) > len(got) // 3
        assert got == [reference_storm_precip(40.0, 6, *p) for p in zip(hours, lats, lons)]

    def test_rejects_bad_coordinates(self):
        provider = SyntheticWeather(5.0, 1)
        for ts, lat, lon in ((0.0, 90.5, 0.0), (0.0, 10.0, math.nan), (math.inf, 10.0, 0.0)):
            with pytest.raises(ValueError, match="no weather"):
                provider.cells_at([ts], [lat], [lon])


#: A (tile lat, tile lon, day) storm-table key.
tile_days = st.tuples(st.integers(-9, 8), st.integers(-18, 17), _DAYS)


class TestStormTables:
    """Storm tables built in batches, and the 10:00 cut of the day before."""

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(tile_days, min_size=1, max_size=12, unique=True),
        density=densities,
        seed=st.integers(0, 3),
        data=st.data(),
    )
    def test_batches_match_reference_whatever_the_split_and_order(self, keys, density, seed, data):
        whole = SyntheticWeather(density, seed)
        whole._build_storms(keys)
        shuffled = data.draw(st.permutations(keys))
        cuts = sorted(data.draw(st.sets(st.integers(1, len(keys) - 1)) if len(keys) > 1 else st.just(set())))
        split = SyntheticWeather(density, seed)
        for start, stop in zip([0, *cuts], [*cuts, len(keys)]):
            split._build_storms(shuffled[start:stop])
        for key in keys:
            want = reference_storms(density, seed, *key)
            for provider in (whole, split):
                table = provider._storm_cache[key]
                assert table.shape == (len(want), 9)
                assert table[:, :8].tobytes() == np.array(want, dtype=float).reshape(-1, 8).tobytes()
                assert table[:, 8].tolist() == [(3.0 * radius) ** 2 for *_, radius, _ in want]

    @pytest.mark.parametrize("seed", [0, 77, 2**32 - 1, 2**32, 2**64 + 5])
    def test_uint32_seed_rows_give_the_tuple_pool_and_tables(self, seed):
        """Seeds of one, two and three words, and 0; the edge tiles; day 0."""
        keys = [(-9, -18, 0), (8, 17, 0), (-9, 17, 19421), (8, -18, 1), (0, 0, 0)]
        words = weather._seed_words(seed)
        assert words == {0: [0], 77: [77], 2**32 - 1: [2**32 - 1], 2**32: [0, 1], 2**64 + 5: [5, 0, 1]}[seed]
        for tile_lat, tile_lon, day in keys:
            row = np.array([*words, 0x57, tile_lat + 90, tile_lon + 180, day], dtype=np.uint32)
            want = np.random.SeedSequence((seed, 0x57, tile_lat + 90, tile_lon + 180, day))
            assert np.array_equal(np.random.SeedSequence(row).pool, want.pool)
        provider = SyntheticWeather(40.0, seed)
        provider._build_storms(keys)
        for key in keys:
            want = reference_storms(40.0, seed, *key)
            assert len(want) > 0
            assert provider._storm_cache[key][:, :8].tobytes() == np.array(want, dtype=float).tobytes()

    def test_no_storm_lives_past_10_00_of_the_next_day(self):
        day = 19421
        last = np.full((1, 8), np.nextafter(1.0, 0.0))
        storm = weather._storm_table(np.array([[0.0, 0.0, day]]), last)[0]
        assert storm[3] <= weather._LONGEST_LIFE_H == 10
        assert storm[2] <= (day + 1) * 24  # born on its own day at the latest

    def test_precipitation_matches_reference_on_both_sides_of_the_cut(self):
        density, seed, day = 40.0, 6, 19420
        # Storms of the day before that are still alive at 09:00, so hour 9
        # needs the day before's tables.
        late = [
            storm
            for ty in range(3, 6)
            for tx in range(-1, 2)
            for storm in reference_storms(density, seed, ty, tx, day - 1)
            if day * 24 + 9 - storm[2] < storm[3]
        ]
        assert late
        rng = np.random.default_rng(3)
        points = [(round(v, 1), round(w, 1)) for v, w in zip(rng.uniform(40.0, 50.0, 200), rng.uniform(0.0, 10.0, 200))]
        for lat0, lon0, birth, _, vlat, vlon, *_ in late:
            age = day * 24 + 9 - birth
            lat, lon = lat0 + vlat * age, lon0 + vlon * age
            points += [(round(lat + dy, 1), round(lon + dx, 1)) for dy in (-0.5, 0.0, 0.5) for dx in (-0.5, 0.0, 0.5)]
        lats, lons = (list(column) for column in zip(*points))
        for hour in (9, 10):
            hours = [day * 24 + hour] * len(points)
            got = SyntheticWeather(density, seed)._storm_precip(hours, lats, lons)
            assert got == [reference_storm_precip(density, seed, *p) for p in zip(hours, lats, lons)]
            assert sum(v > 0.0 for v in got) > 20

    @pytest.mark.parametrize("hour", [0, 9, 10, 23])
    def test_a_view_from_10_00_on_builds_no_table_of_the_day_before(self, hour):
        day = 19421
        provider = SyntheticWeather(8.0, 1)
        provider._storm_precip([day * 24 + hour] * 3, [40.0, 45.0, 49.9], [5.0, 5.0, 5.0])
        assert {key[2] for key in provider._storm_cache} == ({day - 1, day} if hour < 10 else {day})


class TestSynthField:
    def test_cell_count_is_grid_arithmetic(self):
        field = synth_weather_field((40.0, 50.0, 0.0, 10.0), (H0, H0 + timedelta(hours=2)), 5.0, 3)
        assert len(field) == 2 * 100 * 100

    def test_empty_span_rejected(self):
        with pytest.raises(ValueError, match="hour"):
            synth_weather_field((40.0, 41.0, 5.0, 6.0), (H0, H0), 5.0, 3)
        with pytest.raises(ValueError, match="bounds"):
            synth_weather_field((41.0, 40.0, 5.0, 6.0), (H0, H0 + timedelta(hours=1)), 5.0, 3)

    def test_deterministic(self):
        a = synth_weather_field((40.0, 41.0, 5.0, 6.0), (H0, H0 + timedelta(hours=2)), 9.0, 3)
        b = synth_weather_field((40.0, 41.0, 5.0, 6.0), (H0, H0 + timedelta(hours=2)), 9.0, 3)
        assert list(a) == list(b)

    def test_cells_match_scalar_reference(self):
        # Spans a tile corner (40 N, 10 E) and two UTC days.
        start = datetime(2023, 3, 5, 22, 0, tzinfo=timezone.utc)
        field = synth_weather_field((39.5, 40.5, 9.5, 10.5), (start, start + timedelta(hours=4)), 20.0, 5)
        assert len(field) == 4 * 10 * 10
        for c in field:
            p = GeoPosition(c.grid_lat_deg, c.grid_lon_deg)
            assert c == reference_cell_at(20.0, 5, c.hour_utc, p)

    def test_pinned_csv_hash(self, tmp_path):
        # Recorded before the batch evaluation, with Python 3.11.7 and numpy 2.4.6.
        start = datetime(2023, 3, 5, 22, 0, tzinfo=timezone.utc)
        field = synth_weather_field((39.5, 40.5, 9.5, 10.5), (start, start + timedelta(hours=4)), 20.0, 5)
        path = tmp_path / "wx.csv"
        save_weather_csv(field, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "387a993993d67b57e00cf2eb7ebb7b32accaa8609835769fb4dbbac82d0dca40"


@st.composite
def fields_and_queries(draw):
    """A field of 1-3 hours, not always consecutive, each holding a random
    part of a 5 x 5 cell patch, and query points near its hours and cell
    centers: exactly on them, halfway between them, and outside coverage.
    Each cell's values name its hour and center, so a row shows which cell
    a point got."""
    base = 19421 * 24
    hours = sorted(draw(st.sets(st.integers(base, base + 5), min_size=1, max_size=3)))
    patch = [(ilat, ilon) for ilat in range(400, 405) for ilon in range(50, 55)]
    cells = []
    for hour in hours:
        for ilat, ilon in draw(st.lists(st.sampled_from(patch), min_size=1, max_size=25, unique=True)):
            cells.append(WeatherCell(
                datetime.fromtimestamp(hour * 3600, timezone.utc),
                ilat / 10.0,
                ilon / 10.0,
                float(hour - base), float(ilat - 400), float(ilon - 50), draw(st.floats(0.0, 50.0)),
            ))
    offsets_s = st.sampled_from([-5400, -3601, -3600, -1800, -1799, 0, 1799, 1800, 1801, 3600, 3601])
    steps = st.sampled_from([-3.0, -2.5, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.5, 3.0])
    points = st.tuples(
        st.builds(lambda h, off: float(h * 3600 + off), st.sampled_from(hours), offsets_s),
        st.builds(lambda i, k: (i + k) / 10.0, st.integers(400, 404), steps),
        st.builds(lambda i, k: (i + k) / 10.0, st.integers(50, 54), steps),
    )
    return WeatherField(cells), draw(st.lists(points, min_size=1, max_size=20))


class TestLookupNearest:
    def field(self):
        return synth_weather_field((40.0, 42.0, 5.0, 8.0), (H0, H0 + timedelta(hours=3)), 25.0, 11)

    def test_exact_hit(self):
        field = self.field()
        got = field.cell_at(H0 + timedelta(hours=1), GeoPosition(41.2, 6.7))
        assert got.hour_utc == H0 + timedelta(hours=1)
        assert (got.grid_lat_deg, got.grid_lon_deg) == (41.2, 6.7)

    def test_hour_rounding_with_tie_to_earlier(self):
        field = self.field()
        p = GeoPosition(41.0, 6.0)
        assert field.cell_at(H0 + timedelta(minutes=29), p).hour_utc == H0
        assert field.cell_at(H0 + timedelta(minutes=31), p).hour_utc == H0 + timedelta(hours=1)
        assert field.cell_at(H0 + timedelta(minutes=30), p).hour_utc == H0

    def test_matches_brute_force_oracle(self):
        field = synth_weather_field((40.0, 41.5, 5.0, 6.5), (H0, H0 + timedelta(hours=3)), 25.0, 11)
        rng = np.random.default_rng(8)
        for _ in range(250):
            p = GeoPosition(rng.uniform(40.0, 41.45), rng.uniform(5.0, 6.45))
            at = H0 + timedelta(seconds=int(rng.integers(0, 3 * 3600)))
            assert field.cell_at(at, p) == brute_force_nearest(field, at, p)

    def test_attached_center_within_half_cell_diagonal(self):
        field = self.field()
        rng = np.random.default_rng(9)
        for _ in range(300):
            p = GeoPosition(rng.uniform(40.0, 41.95), rng.uniform(5.0, 7.95))
            got = field.cell_at(H0, p)
            center = GeoPosition(got.grid_lat_deg, got.grid_lon_deg)
            assert haversine_m(p, center) <= 7_900.0

    def test_index_does_not_depend_on_cell_order(self):
        field = synth_weather_field((40.0, 41.0, 5.0, 6.0), (H0, H0 + timedelta(hours=3)), 25.0, 11)
        cells = list(field)
        random.Random(4).shuffle(cells)
        shuffled = WeatherField(cells)
        rng = np.random.default_rng(5)
        queries = [(H0 + timedelta(minutes=30), GeoPosition(40.05, 5.05)), (H0, GeoPosition(40.5, 5.5))]
        queries += [
            (H0 + timedelta(seconds=int(rng.integers(0, 3 * 3600))), GeoPosition(rng.uniform(40.0, 40.95), rng.uniform(5.0, 5.95)))
            for _ in range(100)
        ]
        for at, p in queries:
            want = brute_force_nearest(field, at, p)
            assert shuffled.cell_at(at, p) == want
            assert field.cell_at(at, p) == want

    def test_cells_at_gives_nan_rows_for_gaps(self):
        field = self.field()
        inside = (H0 + timedelta(minutes=40), GeoPosition(41.23, 6.71))
        ts = [inside[0].timestamp(), (H0 + timedelta(hours=5)).timestamp(), H0.timestamp(), H0.timestamp()]
        lats = [41.23, 41.0, 45.0, 41.0]
        lons = [6.71, 6.0, 6.0, 12.0]
        got = field.cells_at(np.array(ts), np.array(lats), np.array(lons))
        assert got.shape == (4, 4)
        assert got[0].tolist() == list(field.cell_at(*inside).values)
        assert np.isnan(got[1:]).all()

    def test_cells_at_rejects_bad_coordinates(self):
        field = self.field()
        for ts, lat, lon in ((H0.timestamp(), 90.5, 6.0), (H0.timestamp(), 41.0, math.inf), (math.nan, 41.0, 6.0)):
            with pytest.raises(ValueError, match="no weather"):
                field.cells_at([ts], [lat], [lon])

    def test_empty_field_rejects_lookups(self):
        with pytest.raises(ValueError, match="empty"):
            WeatherField([]).cells_at([H0.timestamp()], [41.0], [6.0])

    @settings(max_examples=150, deadline=None)
    @given(case=fields_and_queries(), max_pairs=st.sampled_from([1, 16, 60]))
    def test_batch_rows_match_brute_force_oracle_across_chunks(self, case, max_pairs):
        field, points = case
        cells = list(field)
        want = []
        for ts, lat, lon in points:
            at, p = datetime.fromtimestamp(ts, timezone.utc), GeoPosition(lat, lon)
            # In a gap: more than one hour from every hour, or more than one
            # grid cell outside the box of cell centers.
            gap = (
                min(abs(ts - c.hour_utc.timestamp()) for c in cells) > 3600
                or not min(c.grid_lat_deg for c in cells) - 0.15 <= lat <= max(c.grid_lat_deg for c in cells) + 0.15
                or not min(c.grid_lon_deg for c in cells) - 0.15 <= lon <= max(c.grid_lon_deg for c in cells) + 0.15
            )
            if gap:
                with pytest.raises(CoverageGapError):
                    field.cell_at(at, p)
                want.append([math.nan] * 4)
            else:
                nearest = brute_force_nearest(field, at, p)
                assert field.cell_at(at, p) == nearest
                want.append(list(nearest.values))
        # A small bound splits a batch of one hour into several chunks.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weather, "_MAX_PAIRS", max_pairs)
            got = field.cells_at(*(np.array(column) for column in zip(*points)))
        np.testing.assert_array_equal(got, np.array(want))

    def test_coverage_gap_errors(self):
        field = self.field()
        with pytest.raises(CoverageGapError, match="h from"):
            field.cell_at(H0 + timedelta(hours=4, minutes=1), GeoPosition(41.0, 6.0))
        with pytest.raises(CoverageGapError, match="latitude"):
            field.cell_at(H0, GeoPosition(42.5, 6.0))
        with pytest.raises(CoverageGapError, match="longitude"):
            field.cell_at(H0, GeoPosition(41.0, 9.0))
        # Within one hour / one grid cell of the edge still resolves
        # (last materialized hour is H0+2h).
        assert field.cell_at(H0 + timedelta(hours=3), GeoPosition(41.0, 6.0))
        assert field.cell_at(H0, GeoPosition(42.03, 6.0))


class TestWeatherCsv:
    def test_round_trip_is_lossless_and_stable(self, tmp_path):
        field = synth_weather_field((40.0, 40.5, 5.0, 5.5), (H0, H0 + timedelta(hours=2)), 20.0, 5)
        path = tmp_path / "wx.csv"
        save_weather_csv(field, path)
        loaded = load_weather_csv(path)
        assert list(loaded) == list(field)
        second = tmp_path / "wx2.csv"
        save_weather_csv(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_year_999_round_trips(self, tmp_path):
        start = datetime(999, 12, 31, 22, tzinfo=timezone.utc)
        field = synth_weather_field((40.0, 40.2, 5.0, 5.2), (start, start + timedelta(hours=3)), 20.0, 5)
        path = tmp_path / "wx.csv"
        save_weather_csv(field, path)
        assert path.read_text().splitlines()[1].startswith("0999-12-31T22:00:00Z,")
        assert list(load_weather_csv(path)) == list(field)

    @settings(max_examples=300, deadline=None)
    @given(t=st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59), timezones=st.just(timezone.utc)))
    def test_time_format_is_strftime_for_years_1000_on_and_reads_back(self, t):
        text = _format_utc(_utc_seconds([t]))[0]
        if t.year >= 1000:
            assert text == t.strftime("%Y-%m-%dT%H:%M:%SZ")
        assert _parse_utc(text) == t.replace(microsecond=0)

    def test_one_time_parser_and_no_strftime_in_the_package(self):
        """Every time text is read by _parse_utc and written by _format_utc,
        so no second parser or formatter may come back."""
        found = {name: [] for name in ("fromisoformat", "strftime", "strptime")}
        for path in sorted(SRC.rglob("*.py")):
            for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
                for name, where in found.items():
                    if name in line:
                        where.append(f"{path.relative_to(SRC)}:{line_no}")
        assert len(found["fromisoformat"]) == 1, found
        assert "fromisoformat" in inspect.getsource(_parse_utc)
        assert found["strftime"] == found["strptime"] == [], found

    def test_malformed_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "hour_utc,grid_lat,grid_lon,precip_mmh,cloud_pct,temp_c,wind_mps\n"
            "2023-03-05T12:00:00Z,40.0,5.0,0.0,50.0,15.0,4.0\n"
            "2023-03-05T12:00:00Z,40.07,5.0,0.0,50.0,15.0,4.0\n"
            "2023-03-05T12:00:00Z,40.1,5.0,nope,50.0,15.0,4.0\n"
        )
        with pytest.raises(WeatherCsvError) as err:
            load_weather_csv(path)
        lines = [ln for ln, _ in err.value.errors]
        assert lines == [3, 4]

    def test_non_finite_values_are_bad_lines(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text(
            "hour_utc,grid_lat,grid_lon,precip_mmh,cloud_pct,temp_c,wind_mps\n"
            "2023-03-05T12:00:00Z,40.0,5.0,0.0,50.0,15.0,4.0\n"
            "2023-03-05T12:00:00Z,40.1,5.0,nan,50.0,15.0,4.0\n"
            "2023-03-05T12:00:00Z,40.2,5.0,0.0,50.0,inf,4.0\n"
            "2023-03-05T12:00:00Z,40.3,5.0,0.0,50.0,15.0,NaN\n"
            "2023-03-05T12:00:00Z,40.4,5.0,0.0,50.0,-inf,4.0\n"
        )
        with pytest.raises(WeatherCsvError) as err:
            load_weather_csv(path)
        assert [ln for ln, _ in err.value.errors] == [3, 4, 5, 6]
        assert all("finite" in message for _, message in err.value.errors)

    def test_duplicate_rows_name_both_lines(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "hour_utc,grid_lat,grid_lon,precip_mmh,cloud_pct,temp_c,wind_mps\n"
            "2023-03-05T12:00:00Z,40.0,5.0,0.0,50.0,15.0,4.0\n"
            "2023-03-05T12:00:00Z,40.0,5.0,1.0,50.0,15.0,4.0\n"
        )
        with pytest.raises(WeatherCsvError, match=r"lines 2 and 3"):
            load_weather_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(WeatherCsvError, match="header"):
            load_weather_csv(path)


def reference_utc_seconds(times):
    """The timedelta floor division ``_utc_seconds`` is checked against."""
    return [(t - weather._EPOCH) // timedelta(seconds=1) for t in times]


#: Every fixed UTC offset a ``timezone`` takes, to the microsecond.
FIXED_OFFSETS = st.builds(
    timezone, st.timedeltas(min_value=-timedelta(hours=23, minutes=59), max_value=timedelta(hours=23, minutes=59))
)
AWARE_TIMES = st.datetimes(
    min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59, 999999), timezones=FIXED_OFFSETS
)
EAST, WEST = timezone(timedelta(hours=23, minutes=59)), timezone(-timedelta(hours=23, minutes=59))


#: Whole-second times at whole-second offsets whose UTC date is in years 1-9999.
WHOLE_SECOND_TIMES = st.datetimes(
    min_value=datetime(1, 1, 2),
    max_value=datetime(9999, 12, 30, 23, 59, 59),
    timezones=st.integers(-86340, 86340).map(lambda s: timezone(timedelta(seconds=s))),
).map(lambda t: t.replace(microsecond=0))


class TestUtcSeconds:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(AWARE_TIMES, max_size=8).flatmap(lambda ts: st.permutations(ts + ts[: len(ts) // 2])))
    @example([datetime(1, 1, 1, tzinfo=EAST), datetime(1, 1, 1, 0, 0, 0, 1, tzinfo=WEST)])
    @example([datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=WEST), datetime(9999, 12, 31, tzinfo=EAST)])
    @example([datetime(1969, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc), datetime(1901, 7, 1, 12, 30, 1, 5)
              .replace(tzinfo=timezone(timedelta(hours=-5, seconds=7, microseconds=3)))])
    @example([datetime(2023, 3, 5, 12, tzinfo=timezone.utc), datetime(2023, 3, 5, 13, tzinfo=timezone(timedelta(hours=1)))])
    def test_matches_floor_division(self, times):
        seconds = _utc_seconds(iter(times))
        assert seconds.dtype == np.int64
        assert seconds.tolist() == reference_utc_seconds(times)

    @settings(max_examples=300, deadline=None)
    @given(WHOLE_SECOND_TIMES)
    @example(datetime(1, 1, 2, 0, 0, 1, tzinfo=timezone(timedelta(hours=23, minutes=59))))
    @example(datetime(9999, 12, 30, 23, 59, 59, tzinfo=timezone(-timedelta(hours=23, minutes=59))))
    @example(datetime(1969, 12, 31, 23, 59, 59, tzinfo=timezone.utc))
    @example(datetime(1901, 7, 1, 12, 30, 1, tzinfo=timezone(timedelta(hours=-5, seconds=7))))
    def test_log_time_cells_match_floor_division(self, t):
        """A log's time text, with its offset or as UTC with ``Z``, reads as
        the floor division gives."""
        (want,) = reference_utc_seconds([t])
        utc_text = t.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")
        assert _utc_cell(t.isoformat()) == _utc_cell(utc_text) == want
        assert type(_utc_cell(utc_text)) is int

    @pytest.mark.parametrize("text", ["0001-01-01T00:00:00+00:01", "9999-12-31T23:59:59-00:01"])
    def test_time_outside_utc_years_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="outside years 1-9999"):
            _parse_utc(text)

    def test_naive_time_rejected(self):
        with pytest.raises(ValueError, match="timezone-aware"):
            _utc_seconds([H0, H0.replace(tzinfo=None)])

    def test_empty_input_gives_empty_int64(self):
        seconds = _utc_seconds([])
        assert seconds.shape == (0,) and seconds.dtype == np.int64
