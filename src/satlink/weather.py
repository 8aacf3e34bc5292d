"""Hourly gridded weather on a 0.1 degree grid.

Two interchangeable providers sit behind the same ``cell_at`` interface:

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
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import groupby, product
from typing import Iterable, Optional, Protocol

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
    def key(self) -> tuple[int, int, int]:
        """(epoch hour, lat decidegrees, lon decidegrees) identity."""
        return (
            int(self.hour_utc.timestamp()) // _HOUR_S,
            round(self.grid_lat_deg * 10.0),
            round(self.grid_lon_deg * 10.0),
        )


class WeatherProvider(Protocol):
    """Anything that can answer: nearest weather cell for (time, position)."""

    def cell_at(self, t: datetime, p: GeoPosition) -> WeatherCell: ...

    def cells_at(
        self, epoch_s: np.ndarray, lat_deg: np.ndarray, lon_deg: np.ndarray
    ) -> list[Optional[WeatherCell]]:
        """``cell_at`` for many points given as epoch seconds and degrees;
        ``None`` marks a point in a coverage gap."""
        ...


class WeatherField:
    """An immutable set of weather cells with nearest-cell lookup.

    Cells are keyed by (hour, grid latitude, grid longitude); constructing
    a field with two cells at the same key is rejected.  Lookups are safe
    to run concurrently once the field is built.
    """

    def __init__(self, cells: Iterable[WeatherCell]):
        self._cells: dict[tuple[int, int, int], WeatherCell] = {}
        for cell in cells:
            key = cell.key
            if key in self._cells:
                raise ValueError(f"duplicate weather cell key {key}")
            self._cells[key] = cell
        # One sort by (hour, lat, lon) key; each hour's run keeps (lat, lon) order.
        self._by_hour: dict[int, tuple[np.ndarray, np.ndarray, list[WeatherCell]]] = {}
        for hour, items in groupby(sorted(self._cells.items()), key=lambda item: item[0][0]):
            group = [c for _, c in items]
            lats = np.array([c.grid_lat_deg for c in group])
            lons = np.array([c.grid_lon_deg for c in group])
            self._by_hour[hour] = (lats, lons, group)
        self._hours = np.array(list(self._by_hour), dtype=np.int64)
        if self._cells:
            all_lats = [c.grid_lat_deg for c in self._cells.values()]
            all_lons = [c.grid_lon_deg for c in self._cells.values()]
            self.lat_bounds = (min(all_lats), max(all_lats))
            self.lon_bounds = (min(all_lons), max(all_lons))
            self.hour_bounds = (
                _hour_to_datetime(int(self._hours[0])),
                _hour_to_datetime(int(self._hours[-1])),
            )
        else:
            self.lat_bounds = self.lon_bounds = self.hour_bounds = None

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self):
        return iter(sorted(self._cells.values(), key=lambda c: c.key))

    def lookup_nearest(self, t: datetime, p: GeoPosition) -> WeatherCell:
        """Cell at the nearest hour (ties to the earlier hour), then the
        nearest center by great-circle distance (ties to the smaller
        (lat, lon)).

        Raises :class:`CoverageGapError` when ``t`` is more than one hour
        outside the field's hour span or ``p`` more than one grid cell
        outside its spatial bounding box.
        """
        if not self._cells:
            raise ValueError("weather field is empty")
        ts = _require_utc(t).timestamp()
        dt = np.abs(ts - self._hours * _HOUR_S)
        # Hours are sorted ascending, so the first minimum is the earlier one.
        i = int(np.argmin(dt))
        if dt[i] > _HOUR_S:
            raise CoverageGapError(
                f"timestamp {t.isoformat()} is {dt[i] / _HOUR_S:.2f} h from the "
                f"nearest weather hour"
            )
        margin = GRID_DEG / 2.0 + GRID_DEG
        if not (self.lat_bounds[0] - margin <= p.latitude_deg <= self.lat_bounds[1] + margin):
            raise CoverageGapError(f"latitude {p.latitude_deg} outside weather coverage")
        if not (self.lon_bounds[0] - margin <= p.longitude_deg <= self.lon_bounds[1] + margin):
            raise CoverageGapError(f"longitude {p.longitude_deg} outside weather coverage")
        lats, lons, group = self._by_hour[int(self._hours[i])]
        d = _haversine_m(p, lats, lons)
        # Groups are pre-sorted by (lat, lon); argmin keeps the first of ties.
        return group[int(np.argmin(d))]

    # Provider interface.
    cell_at = lookup_nearest

    def cells_at(
        self, epoch_s: np.ndarray, lat_deg: np.ndarray, lon_deg: np.ndarray
    ) -> list[Optional[WeatherCell]]:
        """:meth:`lookup_nearest` per point, with ``None`` for a coverage gap."""
        out: list[Optional[WeatherCell]] = []
        for ts, lat, lon in zip(
            np.asarray(epoch_s, dtype=float).tolist(),
            np.asarray(lat_deg, dtype=float).tolist(),
            np.asarray(lon_deg, dtype=float).tolist(),
        ):
            try:
                out.append(self.lookup_nearest(datetime.fromtimestamp(ts, timezone.utc), GeoPosition(lat, lon)))
            except CoverageGapError:
                out.append(None)
        return out


#: Most (point, storm) pairs evaluated at once, to bound memory on big grids.
_STORM_PAIRS = 1 << 18
#: Hour-and-tile storm views a provider keeps: consecutive lookups along a
#: flight reuse the last few, and older ones only cost memory.
_VIEWS_KEPT = 32


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
        # (tile lat, tile lon, day) -> (n, 9) array, one storm per row:
        # lat0, lon0, birth hour, life hours, vlat, vlon, radius, peak and
        # the squared reach (3 radius) ** 2.  Python's float ** is kept for
        # the reach: it differs from numpy's x * x in the last bit at times.
        self._storm_cache: dict[tuple[int, int, int], np.ndarray] = {}
        # (hour, tile lat, tile lon) -> _storm_view, for the last _VIEWS_KEPT.
        self._view_cache: dict[tuple[int, int, int], tuple[np.ndarray, ...]] = {}

    def _storms(self, tile_lat: int, tile_lon: int, day: int) -> np.ndarray:
        key = (tile_lat, tile_lon, day)
        cached = self._storm_cache.get(key)
        if cached is not None:
            return cached
        storms = np.empty((0, 9))
        if self.storm_density > 0.0 and day >= 0:
            rng = np.random.default_rng(
                np.random.SeedSequence((self.seed, 0x57, tile_lat + 90, tile_lon + 180, day))
            )
            # Eight draws per storm, in storm order: rng.uniform(-0.25, 0.25)
            # is -0.25 + 0.5 * rng.random().
            u = rng.random((int(rng.poisson(self.storm_density)), 8))
            radius = 0.3 + 0.9 * u[:, 6]
            storms = np.column_stack(
                [
                    tile_lat * 10.0 + 10.0 * u[:, 0],
                    tile_lon * 10.0 + 10.0 * u[:, 1],
                    day * 24.0 + 24.0 * u[:, 2],
                    3.0 + 7.0 * u[:, 3],
                    -0.25 + 0.5 * u[:, 4],
                    -0.25 + 0.5 * u[:, 5],
                    radius,
                    4.0 + 16.0 * u[:, 7],
                    [(3.0 * r) ** 2 for r in radius.tolist()],
                ]
            )
        self._storm_cache[key] = storms
        return storms

    def _storm_view(self, hour_idx: int, tile_lat: int, tile_lon: int) -> tuple[np.ndarray, ...]:
        """The storms a point in a 10 degree tile sees at an epoch hour:
        those alive then, spawned in its own tile or the 8 around it on its
        UTC day or the day before.  Returns their centers at that hour,
        reach, radius and peak, in ascending (day, tile lat, tile lon,
        storm) order."""
        key = (hour_idx, tile_lat, tile_lon)
        cached = self._view_cache.get(key)
        if cached is None:
            day = hour_idx // 24
            storms = np.concatenate(
                [
                    self._storms(ty, tx, d)
                    for d in (day - 1, day)
                    for ty in (tile_lat - 1, tile_lat, tile_lat + 1)
                    for tx in (tile_lon - 1, tile_lon, tile_lon + 1)
                ]
            )
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

        The points of one hour and tile are evaluated together against its
        :meth:`_storm_view`.  Each point adds its storms' terms one storm at
        a time in that order, with ``exp`` from libm, so every sum is the
        same float as a per-point scalar loop gives.
        """
        total = [0.0] * len(hours)
        if self.storm_density == 0.0:
            return total
        groups: dict[tuple[int, int, int], list[int]] = {}
        for i, (hour_idx, lat, lon) in enumerate(zip(hours, lats, lons)):
            groups.setdefault((hour_idx, math.floor(lat / 10.0), math.floor(lon / 10.0)), []).append(i)
        for key, points in groups.items():
            center_lat, center_lon, reach2, radius, peak = self._storm_view(*key)
            if not len(peak):
                continue
            step = max(1, _STORM_PAIRS // len(peak))
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

    def _cells(self, hours: list[int], ilats: list[int], ilons: list[int]) -> list[WeatherCell]:
        """Cells at epoch hours and decidegree grid indices."""
        lats = [i / 10.0 for i in ilats]
        lons = [i / 10.0 for i in ilons]
        when = {h: _hour_to_datetime(h) for h in set(hours)}
        return [
            WeatherCell(when[h], lat, lon, *values)
            for h, lat, lon, values in zip(hours, lats, lons, self._values(hours, lats, lons))
        ]

    def cell_at(self, t: datetime, p: GeoPosition) -> WeatherCell:
        return self.cells_at([_require_utc(t).timestamp()], [p.latitude_deg], [p.longitude_deg])[0]

    def cells_at(
        self, epoch_s: np.ndarray, lat_deg: np.ndarray, lon_deg: np.ndarray
    ) -> list[Optional[WeatherCell]]:
        """The cell at the nearest hour and the nearest 0.1 degree center of
        each point; exact halves go to the earlier hour and the smaller
        coordinate, as in a field lookup.  Coverage is unbounded, so no
        entry is ``None``."""
        hours, ilats, ilons = [], [], []
        for ts, lat, lon in zip(*(np.asarray(v, dtype=float).tolist() for v in (epoch_s, lat_deg, lon_deg))):
            if not (math.isfinite(ts) and -90.0 <= lat <= 90.0 and math.isfinite(lon)):
                raise ValueError(f"no weather at time {ts}, latitude {lat}, longitude {lon}")
            hours.append(math.ceil(ts / _HOUR_S - 0.5))
            ilats.append(math.ceil(lat * 10.0 - 0.5))
            ilons.append(math.ceil(normalize_lon(lon) * 10.0 - 0.5))
        return self._cells(hours, ilats, ilons)


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

    ilat_lo = math.ceil(lat_min * 10.0 - 1e-9)
    ilat_hi = math.ceil(lat_max * 10.0 - 1e-9) - 1
    ilon_lo = math.ceil(lon_min * 10.0 - 1e-9)
    ilon_hi = math.ceil(lon_max * 10.0 - 1e-9) - 1
    grid = list(product(range(first_hour, last_hour + 1), range(ilat_lo, ilat_hi + 1), range(ilon_lo, ilon_hi + 1)))
    hours, ilats, ilons = ([point[axis] for point in grid] for axis in range(3))
    return WeatherField(SyntheticWeather(storm_density, seed)._cells(hours, ilats, ilons))


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
    return datetime.fromisoformat(text.replace("Z", "+00:00")).astimezone(timezone.utc)


def _format_utc(epoch_s) -> list[str]:
    """``YYYY-MM-DDTHH:MM:SSZ`` for whole UTC epoch seconds, the one format
    every written time uses.  The year is padded to four digits, so
    :func:`_parse_utc` reads back every year, 1-999 included.  Each
    distinct time is formatted once."""
    distinct, index = np.unique(np.asarray(epoch_s, dtype=np.int64), return_inverse=True)
    texts = [text + "Z" for text in np.datetime_as_string(distinct.astype("datetime64[s]")).tolist()]
    return [texts[i] for i in index.tolist()]


def _utc_seconds(times: Iterable[datetime]) -> np.ndarray:
    """Timezone-aware datetimes as whole UTC epoch seconds; fractions of a
    second are dropped."""
    return np.array([_require_utc(t).replace(tzinfo=None) for t in times], dtype="datetime64[s]").astype(np.int64)


def save_weather_csv(field: WeatherField, path: str) -> None:
    """Write a field in key order with fixed decimal formatting."""
    cells = list(field)
    hours = _format_utc(_utc_seconds(cell.hour_utc for cell in cells))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(WEATHER_CSV_COLUMNS)
        for hour, cell in zip(hours, cells):
            writer.writerow(
                [
                    hour,
                    f"{cell.grid_lat_deg:.1f}",
                    f"{cell.grid_lon_deg:.1f}",
                    f"{cell.precipitation_mmh:.6f}",
                    f"{cell.cloud_cover_pct:.6f}",
                    f"{cell.temperature_c:.6f}",
                    f"{cell.wind_speed_mps:.6f}",
                ]
            )


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
