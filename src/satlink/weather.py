"""Hourly gridded weather on a 0.1 degree grid.

Two interchangeable providers sit behind the same ``cells_at`` interface:

* :class:`WeatherField` — an explicit, bounded set of cells, loadable from
  and savable to CSV.  Lookups resolve to the nearest hour, then the
  nearest cell center by great-circle distance.
* :class:`SyntheticWeather` — an unbounded deterministic generator (smooth
  background fields plus moving storm cells) that evaluates any grid cell
  on demand.  Used both to drive link simulation and to materialize
  :class:`WeatherField` instances of any requested extent.

Cell values are always rounded to 6 decimal places so that a field survives
a CSV round trip bit-exactly and an on-demand provider agrees with its own
materialized export.

Fields and storm tracks do not wrap across the antimeridian; coverage
boxes must stay inside a single [-180, 180) window.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from typing import Iterable, Protocol

import numpy as np

from .geometry import GeoPosition, _haversine_m, normalize_lon

GRID_DEG = 0.1
_HOUR_S = 3600


class CoverageGapError(LookupError):
    """A query fell outside a weather field's coverage by more than one
    hour in time or one grid cell in space."""


class WeatherCsvError(ValueError):
    """A weather CSV failed to parse; ``errors`` lists (line, message)."""

    def __init__(self, path: str, errors: list[tuple[int, str]]):
        self.path = path
        self.errors = errors
        detail = "; ".join(f"line {ln}: {msg}" for ln, msg in errors[:10])
        more = "" if len(errors) <= 10 else f" (+{len(errors) - 10} more)"
        super().__init__(f"{path}: {detail}{more}")


def _require_utc(t: datetime) -> datetime:
    if t.tzinfo is None:
        raise ValueError(f"timestamp must be timezone-aware: {t!r}")
    return t.astimezone(timezone.utc)


def _hour_to_datetime(hour_idx: int) -> datetime:
    return datetime.fromtimestamp(hour_idx * _HOUR_S, tz=timezone.utc)


@dataclass(frozen=True)
class WeatherCell:
    """One hourly observation at a 0.1 degree grid cell center."""

    hour_utc: datetime
    grid_lat_deg: float
    grid_lon_deg: float
    precipitation_mmh: float
    cloud_cover_pct: float
    temperature_c: float
    wind_speed_mps: float

    def __post_init__(self) -> None:
        t = _require_utc(self.hour_utc)
        if t.minute or t.second or t.microsecond:
            raise ValueError(f"hour_utc must be truncated to the hour: {t.isoformat()}")
        object.__setattr__(self, "hour_utc", t)
        for f in fields(self)[1:]:  # every field after hour_utc is a number
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite: {getattr(self, f.name)}")
        object.__setattr__(self, "grid_lon_deg", normalize_lon(self.grid_lon_deg))
        for name in ("grid_lat_deg", "grid_lon_deg"):
            v = getattr(self, name)
            if abs(v * 10.0 - round(v * 10.0)) > 1e-6:
                raise ValueError(f"{name} not on the 0.1 degree grid: {v}")
            object.__setattr__(self, name, round(v * 10.0) / 10.0)
        if not -90.0 <= self.grid_lat_deg <= 90.0:
            raise ValueError(f"grid latitude out of range: {self.grid_lat_deg}")
        if self.precipitation_mmh < 0.0:
            raise ValueError(f"precipitation must be >= 0: {self.precipitation_mmh}")
        if not 0.0 <= self.cloud_cover_pct <= 100.0:
            raise ValueError(f"cloud cover out of [0, 100]: {self.cloud_cover_pct}")
        if self.wind_speed_mps < 0.0:
            raise ValueError(f"wind speed must be >= 0: {self.wind_speed_mps}")

    @property
    def values(self) -> tuple[float, float, float, float]:
        """(precipitation, cloud, temperature, wind): a row of
        :meth:`WeatherProvider.cells_at`."""
        return (self.precipitation_mmh, self.cloud_cover_pct, self.temperature_c, self.wind_speed_mps)

    @property
    def key(self) -> tuple[int, int, int]:
        """(epoch hour, lat decidegrees, lon decidegrees) identity."""
        return (
            int(self.hour_utc.timestamp()) // _HOUR_S,
            round(self.grid_lat_deg * 10.0),
            round(self.grid_lon_deg * 10.0),
        )


class WeatherProvider(Protocol):
    """Anything that can answer: the weather at many (time, position) points."""

    def cells_at(self, epoch_s: np.ndarray, lat_deg: np.ndarray, lon_deg: np.ndarray) -> np.ndarray:
        """The nearest cell's :attr:`WeatherCell.values` at each point (epoch
        seconds and degrees) as an ``(n, 4)`` float array, with a NaN row
        for a point in a coverage gap.  A non-finite time or longitude, or a
        latitude outside [-90, 90], raises ``ValueError``."""
        ...


def _points(epoch_s, lat_deg, lon_deg) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Query points as float arrays with longitudes wrapped into
    [-180, 180); raises ``ValueError`` for a point with no weather."""
    ts, lat, lon = (np.asarray(v, dtype=float) for v in (epoch_s, lat_deg, lon_deg))
    bad = ~(np.isfinite(ts) & (-90.0 <= lat) & (lat <= 90.0) & np.isfinite(lon))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"no weather at time {ts[i]}, latitude {lat[i]}, longitude {lon[i]}")
    wrap = ~((-180.0 <= lon) & (lon < 180.0))
    if wrap.any():
        lon = lon.copy()
        lon[wrap] = [normalize_lon(v) for v in lon[wrap].tolist()]
    return ts, lat, lon


#: Most (point, cell) or (point, storm) pairs evaluated at once, to bound
#: memory on big grids.
_MAX_PAIRS = 1 << 18
#: The cell index :meth:`WeatherField._nearest` gives a point in a gap.
_TIME_GAP, _LAT_GAP, _LON_GAP = -1, -2, -3


class WeatherField:
    """An immutable set of weather cells with nearest-cell lookup.

    Cells are keyed by (hour, grid latitude, grid longitude); constructing
    a field with two cells at the same key is rejected.  The field keeps
    its cells as arrays sorted by key, with one run of cells per hour.
    Lookups are safe to run concurrently once the field is built.
    """

    def __init__(self, cells: Iterable[WeatherCell]):
        cells = list(cells)
        keys = np.array([cell.key for cell in cells], dtype=np.int64).reshape(-1, 3)
        order = np.lexsort(keys.T[::-1])
        keys = keys[order]
        same = np.flatnonzero((keys[1:] == keys[:-1]).all(axis=1))
        if same.size:
            raise ValueError(f"duplicate weather cell key {tuple(keys[same[0]].tolist())}")
        self._lat = keys[:, 1] / 10.0
        self._lon = keys[:, 2] / 10.0
        self._values = np.array([cells[i].values for i in order.tolist()], dtype=float).reshape(-1, 4)
        # Hour i holds the cells in [_starts[i], _starts[i + 1]), in (lat, lon) order.
        self._hours, starts = np.unique(keys[:, 0], return_index=True)
        self._starts = np.append(starts, len(keys))

    def __len__(self) -> int:
        return len(self._lat)

    def __iter__(self):
        return map(self._cell, range(len(self)))

    def _cell(self, i: int) -> WeatherCell:
        hour = int(self._hours[np.searchsorted(self._starts, i, side="right") - 1])
        return WeatherCell(_hour_to_datetime(hour), float(self._lat[i]), float(self._lon[i]), *self._values[i].tolist())

    def _nearest(self, epoch_s, lat_deg, lon_deg) -> tuple[np.ndarray, np.ndarray]:
        """Each point's cell index and its seconds from the nearest hour.

        The cell is at the nearest hour (ties to the earlier hour), then the
        nearest center by great-circle distance (ties to the smaller (lat,
        lon)).  A point more than one hour outside the field's hours gets
        ``_TIME_GAP``, else one more than one grid cell outside its
        latitude or longitude bounds ``_LAT_GAP`` or ``_LON_GAP``.
        """
        if not len(self):
            raise ValueError("weather field is empty")
        ts, lat, lon = _points(epoch_s, lat_deg, lon_deg)
        hour_s = self._hours * _HOUR_S
        after = np.searchsorted(hour_s, ts)
        before = np.maximum(after - 1, 0)
        after = np.minimum(after, len(hour_s) - 1)
        dt_before, dt_after = np.abs(ts - hour_s[before]), np.abs(ts - hour_s[after])
        hour = np.where(dt_after < dt_before, after, before)
        dt = np.minimum(dt_before, dt_after)

        margin = GRID_DEG / 2.0 + GRID_DEG
        cell = np.select(
            [
                dt > _HOUR_S,
                (lat < self._lat.min() - margin) | (lat > self._lat.max() + margin),
                (lon < self._lon.min() - margin) | (lon > self._lon.max() + margin),
            ],
            [_TIME_GAP, _LAT_GAP, _LON_GAP],
            0,
        )
        covered = np.flatnonzero(cell == 0)
        for h in np.unique(hour[covered]).tolist():
            points = covered[hour[covered] == h]
            start, stop = self._starts[h], self._starts[h + 1]
            step = max(1, _MAX_PAIRS // (stop - start))
            for chunk in (points[i : i + step] for i in range(0, len(points), step)):
                d = _haversine_m(
                    lat[chunk, None], lon[chunk, None], self._lat[None, start:stop], self._lon[None, start:stop]
                )
                # Each hour's run is in (lat, lon) order; argmin keeps the first of ties.
                cell[chunk] = start + np.argmin(d, axis=1)
        return cell, dt

    def cells_at(self, epoch_s: np.ndarray, lat_deg: np.ndarray, lon_deg: np.ndarray) -> np.ndarray:
        """:meth:`cell_at`'s values for many points, with a NaN row for a
        coverage gap."""
        cell, _ = self._nearest(epoch_s, lat_deg, lon_deg)
        out = np.full((len(cell), 4), np.nan)
        covered = cell >= 0
        out[covered] = self._values[cell[covered]]
        return out

    def cell_at(self, t: datetime, p: GeoPosition) -> WeatherCell:
        """The cell at the nearest hour (ties to the earlier hour), then the
        nearest center by great-circle distance (ties to the smaller
        (lat, lon)).

        Raises :class:`CoverageGapError` when ``t`` is more than one hour
        outside the field's hour span or ``p`` more than one grid cell
        outside its spatial bounding box.
        """
        cell, dt = self._nearest([_require_utc(t).timestamp()], [p.latitude_deg], [p.longitude_deg])
        i, dt = int(cell[0]), float(dt[0])
        if i < 0:
            raise CoverageGapError({
                _TIME_GAP: f"timestamp {t.isoformat()} is {dt / _HOUR_S:.2f} h from the nearest weather hour",
                _LAT_GAP: f"latitude {p.latitude_deg} outside weather coverage",
                _LON_GAP: f"longitude {p.longitude_deg} outside weather coverage",
            }[i])
        return self._cell(i)


#: Hour-and-tile storm views a provider keeps: consecutive lookups along a
#: flight reuse the last few, and older ones only cost memory.
_VIEWS_KEPT = 32
#: No storm lives longer than this many hours: a life is 3 + 7u hours for
#: a uniform u in [0, 1), which rounds to at most 10.0.
_LONGEST_LIFE_H = 10


def _storm_table(keys: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Storm rows from each storm's (tile lat, tile lon, day) and its eight
    uniform draws: lat0, lon0, birth hour, life hours, vlat, vlon, radius,
    peak and the squared reach (3 radius) ** 2.  A velocity is
    ``rng.uniform(-0.25, 0.25)``, which is -0.25 + 0.5 * rng.random().
    Python's float ** is kept for the reach: it differs from numpy's square
    in the last bit at times."""
    tile_lat, tile_lon, day = keys.T
    storms = np.empty((len(u), 9))
    storms[:, 0] = tile_lat * 10.0 + 10.0 * u[:, 0]
    storms[:, 1] = tile_lon * 10.0 + 10.0 * u[:, 1]
    storms[:, 2] = day * 24.0 + 24.0 * u[:, 2]
    storms[:, 3] = 3.0 + 7.0 * u[:, 3]
    storms[:, 4:6] = -0.25 + 0.5 * u[:, 4:6]
    storms[:, 6] = 0.3 + 0.9 * u[:, 6]
    storms[:, 7] = 4.0 + 16.0 * u[:, 7]
    storms[:, 8] = [(3.0 * r) ** 2 for r in storms[:, 6].tolist()]
    return storms


def _view_tables(hour_idx: int, tile_lat: int, tile_lon: int) -> list[tuple[int, int, int]]:
    """The (tile lat, tile lon, day) storm tables of a
    :meth:`SyntheticWeather._storm_view`, in its order."""
    day = hour_idx // 24
    days = (day - 1, day) if hour_idx % 24 < _LONGEST_LIFE_H else (day,)
    tiles = [(ty, tx) for ty in (tile_lat - 1, tile_lat, tile_lat + 1) for tx in (tile_lon - 1, tile_lon, tile_lon + 1)]
    return [(ty, tx, d) for d in days for ty, tx in tiles]


def _seed_words(seed: int) -> list[int]:
    """A non-negative int as ``SeedSequence`` splits it: 32-bit words, least
    significant first, and one word for 0."""
    seed = int(seed)
    words = [seed & 0xFFFFFFFF]
    while seed := seed >> 32:
        words.append(seed & 0xFFFFFFFF)
    return words


class SyntheticWeather:
    """Deterministic analytic weather: smooth background plus moving storms.

    Storm tracks are seeded per (10 degree tile, UTC day), so any grid cell
    at any hour can be evaluated independently; two providers built from
    the same (storm_density, seed) agree everywhere.  ``storm_density`` is
    the expected number of storm tracks spawned per tile per day.
    """

    def __init__(self, storm_density: float, seed: int):
        if storm_density < 0.0:
            raise ValueError(f"storm_density must be >= 0: {storm_density}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0: {seed}")
        self.storm_density = storm_density
        self.seed = seed
        # (tile lat, tile lon, day) -> (n, 9) array of _storm_table rows.
        self._storm_cache: dict[tuple[int, int, int], np.ndarray] = {}
        # (hour, tile lat, tile lon) -> _storm_view, for the last _VIEWS_KEPT.
        self._view_cache: dict[tuple[int, int, int], tuple[np.ndarray, ...]] = {}

    def _build_storms(self, keys: list[tuple[int, int, int]]) -> None:
        """Cache the storm tables of many (tile lat, tile lon, day) keys,
        built in one batch.  Each key draws from its own generator, seeded
        by (seed, tile, day), in the order a one-key build would: the storm
        count, then eight uniforms per storm in storm order.  The columns
        are then filled for every storm at once.

        A key's ``SeedSequence`` takes a uint32 row: the words of the seed
        (:func:`_seed_words`), then ``0x57``, tile lat + 90, tile lon + 180
        and the day.  ``SeedSequence`` turns the tuple ``(seed, 0x57, tile
        lat + 90, tile lon + 180, day)`` into exactly these words, so the
        pool and every draw are the same, without its per-int coercion."""
        head = _seed_words(self.seed) + [0x57]
        draws = []
        for tile_lat, tile_lon, day in keys:
            if day < 0:
                draws.append(np.empty((0, 8)))
                continue
            entropy = np.array([*head, tile_lat + 90, tile_lon + 180, day], dtype=np.uint32)
            rng = np.random.default_rng(np.random.SeedSequence(entropy))
            draws.append(rng.random((int(rng.poisson(self.storm_density)), 8)))
        counts = [len(u) for u in draws]
        storms = _storm_table(np.repeat(np.array(keys, dtype=float), counts, axis=0), np.concatenate(draws))
        # A copy per key, not a view of the batch: with views, a corpus
        # benchmark run measured 0.9 MB more peak RSS for the same live data.
        for key, n, stop in zip(keys, counts, np.cumsum(counts).tolist()):
            self._storm_cache[key] = storms[stop - n : stop].copy()

    def _storm_view(self, hour_idx: int, tile_lat: int, tile_lon: int) -> tuple[np.ndarray, ...]:
        """The storms a point in a 10 degree tile sees at an epoch hour:
        those alive then, spawned in its own tile or the 8 around it on its
        UTC day, or on the day before for an hour before 10:00.  No storm
        lives longer than :data:`_LONGEST_LIFE_H`, so one born the day
        before is dead by then.  Returns their centers at that hour, reach,
        radius and peak, in ascending (day, tile lat, tile lon, storm)
        order.  The tables must be in the cache (:meth:`_build_storms`)."""
        key = (hour_idx, tile_lat, tile_lon)
        cached = self._view_cache.get(key)
        if cached is None:
            storms = np.concatenate([self._storm_cache[k] for k in _view_tables(hour_idx, tile_lat, tile_lon)])
            age = hour_idx - storms[:, 2]
            alive = (0.0 <= age) & (age < storms[:, 3])
            lat0, lon0, _, _, vlat, vlon, radius, peak, reach2 = storms[alive].T
            age = age[alive]
            if len(self._view_cache) == _VIEWS_KEPT:
                del self._view_cache[next(iter(self._view_cache))]
            cached = self._view_cache[key] = (lat0 + vlat * age, lon0 + vlon * age, reach2, radius, peak)
        return cached

    def _storm_precip(self, hours: list[int], lats: list[float], lons: list[float]) -> list[float]:
        """Storm precipitation at many (epoch hour, cell center) points.

        The storm tables the points need are built first, in one batch.
        Then the points of one hour and tile are evaluated together against
        its :meth:`_storm_view`.  Each point adds its storms' terms one
        storm at a time in that order, with ``exp`` from libm, so every sum
        is the same float as a per-point scalar loop gives.
        """
        total = [0.0] * len(hours)
        if self.storm_density == 0.0:
            return total
        groups: dict[tuple[int, int, int], list[int]] = {}
        for i, (hour_idx, lat, lon) in enumerate(zip(hours, lats, lons)):
            groups.setdefault((hour_idx, math.floor(lat / 10.0), math.floor(lon / 10.0)), []).append(i)
        missing = dict.fromkeys(key for group in groups for key in _view_tables(*group) if key not in self._storm_cache)
        if missing:
            self._build_storms(list(missing))
        for key, points in groups.items():
            center_lat, center_lon, reach2, radius, peak = self._storm_view(*key)
            if not len(peak):
                continue
            step = max(1, _MAX_PAIRS // len(peak))
            for start in range(0, len(points), step):
                idx = points[start : start + step]
                columns = [(lats[i], lons[i], math.cos(math.radians(lats[i]))) for i in idx]
                lat, lon, cos_lat = np.array(columns).T[:, :, None]
                dlat = lat - center_lat
                dlon = (lon - center_lon) * cos_lat
                d2 = dlat * dlat + dlon * dlon
                rows, cols = np.nonzero(d2 < reach2)
                # Row-major, so each point meets its storms in ascending order.
                for row, d2_, r, pk in zip(
                    rows.tolist(), d2[rows, cols].tolist(), radius[cols].tolist(), peak[cols].tolist()
                ):
                    total[idx[row]] += pk * math.exp(-d2_ / (2.0 * r * r))
        return total

    def _values(
        self, hours: list[int], lats: list[float], lons: list[float]
    ) -> list[tuple[float, float, float, float]]:
        """(precipitation, cloud, temperature, wind) at many (epoch hour,
        cell center) points, each rounded to 6 decimals."""
        out = []
        for hour_idx, lat, lon, precip in zip(hours, lats, lons, self._storm_precip(hours, lats, lons)):
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
            cloud = min(100.0, max(0.0, 42.0 + 30.0 * math.sin(0.11 * lat - 0.19 * lon + 0.07 * hour_idx) + 6.0 * precip))
            out.append((round(precip, 6), round(cloud, 6), round(temp, 6), round(wind, 6)))
        return out

    @staticmethod
    def _snap(epoch_s, lat_deg, lon_deg) -> tuple[list[int], list[float], list[float]]:
        """The epoch hour and 0.1 degree cell center nearest each point;
        exact halves go to the earlier hour and the smaller coordinate, as
        in a field lookup."""
        ts, lat, lon = _points(epoch_s, lat_deg, lon_deg)
        hours = np.ceil(ts / _HOUR_S - 0.5).astype(np.int64).tolist()
        return hours, (np.ceil(lat * 10.0 - 0.5) / 10.0).tolist(), (np.ceil(lon * 10.0 - 0.5) / 10.0).tolist()

    def cell_at(self, t: datetime, p: GeoPosition) -> WeatherCell:
        """The cell nearest one point: :meth:`cells_at` for a single time
        and position, as a :class:`WeatherCell`."""
        (hour,), (lat,), (lon,) = self._snap([_require_utc(t).timestamp()], [p.latitude_deg], [p.longitude_deg])
        return WeatherCell(_hour_to_datetime(hour), lat, lon, *self._values([hour], [lat], [lon])[0])

    def cells_at(self, epoch_s: np.ndarray, lat_deg: np.ndarray, lon_deg: np.ndarray) -> np.ndarray:
        """The values of the cell at each point's :meth:`_snap`.  Coverage
        is unbounded, so no row is NaN."""
        return np.array(self._values(*self._snap(epoch_s, lat_deg, lon_deg)), dtype=float).reshape(-1, 4)


def synth_weather_field(
    bounds: tuple[float, float, float, float],
    time_span: tuple[datetime, datetime],
    storm_density: float,
    seed: int,
) -> WeatherField:
    """Materialize a :class:`SyntheticWeather` over a lat/lon box and span.

    ``bounds`` is (lat_min, lat_max, lon_min, lon_max); cell centers are the
    0.1 degree grid points in the half-open box.  ``time_span`` is a
    half-open (start, end) interval sampled at every whole UTC hour.
    """
    lat_min, lat_max, lon_min, lon_max = bounds
    if lat_max <= lat_min or lon_max <= lon_min:
        raise ValueError(f"empty bounds: {bounds}")
    start, end = _require_utc(time_span[0]), _require_utc(time_span[1])
    first_hour = math.ceil(start.timestamp() / _HOUR_S)
    last_hour = math.ceil(end.timestamp() / _HOUR_S) - 1
    if last_hour < first_hour:
        raise ValueError(f"time span contains no whole hour: {time_span}")

    ilat = np.arange(math.ceil(lat_min * 10.0 - 1e-9), math.ceil(lat_max * 10.0 - 1e-9))
    ilon = np.arange(math.ceil(lon_min * 10.0 - 1e-9), math.ceil(lon_max * 10.0 - 1e-9))
    grid = np.meshgrid(np.arange(first_hour, last_hour + 1), ilat / 10.0, ilon / 10.0, indexing="ij")
    hours, lats, lons = (axis.ravel().tolist() for axis in grid)
    values = SyntheticWeather(storm_density, seed)._values(hours, lats, lons)
    return WeatherField(
        WeatherCell(_hour_to_datetime(h), lat, lon, *v) for h, lat, lon, v in zip(hours, lats, lons, values)
    )


WEATHER_CSV_COLUMNS = [
    "hour_utc",
    "grid_lat",
    "grid_lon",
    "precip_mmh",
    "cloud_pct",
    "temp_c",
    "wind_mps",
]

def _parse_utc(text: str) -> datetime:
    """An ISO 8601 time as a UTC datetime.  The text must carry ``Z`` or an
    offset, since a time without one would be read as the host's local
    time, and whole seconds, which is all a log's epoch seconds can hold.
    A time whose UTC date falls outside years 1-9999 is a ``ValueError``."""
    t = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if t.tzinfo is None:
        raise ValueError(f"time without Z or an offset: {text!r}")
    try:
        t = t.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"time outside years 1-9999 in UTC: {text!r}") from None
    if t.microsecond:
        raise ValueError(f"time not in whole seconds: {text!r}")
    return t


def _format_utc(epoch_s) -> list[str]:
    """``YYYY-MM-DDTHH:MM:SSZ`` for whole UTC epoch seconds, the one format
    every written time uses.  The year is padded to four digits, so
    :func:`_parse_utc` reads back every year, 1-999 included.  Each
    distinct time is formatted once."""
    distinct, index = np.unique(np.asarray(epoch_s, dtype=np.int64), return_inverse=True)
    texts = np.datetime_as_string(distinct.astype("datetime64[s]"), timezone="UTC").tolist()
    return list(map(texts.__getitem__, index.tolist()))


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _epoch_seconds(times: Iterable[datetime]) -> dict[datetime, int]:
    """Each timezone-aware datetime's whole UTC epoch seconds, the fraction
    of a second dropped, the one conversion of every time.

    A timedelta keeps ``seconds`` in [0, 86400) and ``microseconds`` in
    [0, 10**6), so ``days * 86400 + seconds`` is ``(t - _EPOCH) //
    timedelta(seconds=1)`` exactly, without the slow floor division of two
    timedeltas.  It takes many times, so a batch pays one call."""
    return {t: (d := t - _EPOCH).days * 86400 + d.seconds for t in times}


def _utc_seconds(times: Iterable[datetime]) -> np.ndarray:
    """Timezone-aware datetimes as whole UTC epoch seconds
    (:func:`_epoch_seconds`), each distinct time converted once."""
    times = list(times)
    try:
        seconds = _epoch_seconds(set(times))
    except TypeError:  # a naive datetime does not subtract from an aware one
        raise ValueError("times must be timezone-aware") from None
    return np.fromiter(map(seconds.__getitem__, times), dtype=np.int64, count=len(times))


def save_weather_csv(field: WeatherField, path: str) -> None:
    """Write a field in key order with fixed decimal formatting."""
    hours = _format_utc(np.repeat(field._hours, np.diff(field._starts)) * _HOUR_S)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(WEATHER_CSV_COLUMNS)
        for hour, lat, lon, values in zip(hours, field._lat.tolist(), field._lon.tolist(), field._values.tolist()):
            writer.writerow([hour, f"{lat:.1f}", f"{lon:.1f}", *(f"{v:.6f}" for v in values)])


def load_weather_csv(path: str) -> WeatherField:
    """Parse a weather CSV, reporting every malformed line at once."""
    errors: list[tuple[int, str]] = []
    cells: list[WeatherCell] = []
    first_line_for_key: dict[tuple[int, int, int], int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != WEATHER_CSV_COLUMNS:
            raise WeatherCsvError(path, [(1, f"bad header {header!r}")])
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(WEATHER_CSV_COLUMNS):
                errors.append((line_no, f"expected {len(WEATHER_CSV_COLUMNS)} fields, got {len(row)}"))
                continue
            try:
                cell = WeatherCell(
                    hour_utc=_parse_utc(row[0]),
                    grid_lat_deg=float(row[1]),
                    grid_lon_deg=float(row[2]),
                    precipitation_mmh=float(row[3]),
                    cloud_cover_pct=float(row[4]),
                    temperature_c=float(row[5]),
                    wind_speed_mps=float(row[6]),
                )
            except ValueError as exc:
                errors.append((line_no, str(exc)))
                continue
            first = first_line_for_key.get(cell.key)
            if first is not None:
                errors.append((line_no, f"duplicate cell key {cell.key}: lines {first} and {line_no}"))
                continue
            first_line_for_key[cell.key] = line_no
            cells.append(cell)
    if errors:
        raise WeatherCsvError(path, errors)
    return WeatherField(cells)
