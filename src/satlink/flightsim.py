"""Synthetic flight-log generation with a physically grounded CNR signal.

A flight follows the great circle between two airports at constant ground
speed with a trapezoid altitude profile.  Each minute the aircraft logs its
position and the downlink CNR toward the highest-elevation satellite in
view: an elevation roll-off from a zenith level, rain attenuation while the
aircraft is inside the troposphere, and Gaussian measurement noise, clamped
to the 0-20 dB range of the receiver.  Everything is a pure function of
(config, seed), so regenerating a dataset reproduces it byte for byte.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace
from datetime import datetime, timedelta, timezone
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    AntipodalRouteError,
    GeoPosition,
    GeoSatellite,
    elevations_deg,
    geo_look_angles,
    haversine_m,
    slerp_track,
)
from .ingest import CATEGORY_EDGES_DB, CnrCategory, LogColumns, save_logs
from .weather import CoverageGapError, SyntheticWeather, WeatherCell, WeatherProvider, _format_utc, _parse_utc

__all__ = [
    "AntipodalRouteError",
    "RouteSpec",
    "LinkModelParams",
    "DEFAULT_LINK_PARAMS",
    "CNR_MIN_DB",
    "CNR_MAX_DB",
    "synth_cnr",
    "generate_flight",
    "GenerationConfig",
    "RoutePlan",
    "WeatherSpec",
    "ConfigError",
    "generate_dataset",
    "sample_cnr_population",
    "save_logs",
    "demo_satellites",
    "demo_route_plans",
    "demo_config",
]

CNR_MIN_DB = 0.0
CNR_MAX_DB = 20.0


@dataclass(frozen=True)
class RouteSpec:
    """A scheduled city pair flown at a fixed cruise altitude and speed."""

    departure_airport: str
    arrival_airport: str
    departure_pos: GeoPosition
    arrival_pos: GeoPosition
    cruise_altitude_m: float
    ground_speed_mps: float
    airline_code: str
    tail_number: str

    def __post_init__(self) -> None:
        if not 8000.0 <= self.cruise_altitude_m <= 13000.0:
            raise ValueError(f"cruise altitude out of [8000, 13000] m: {self.cruise_altitude_m}")
        if not self.ground_speed_mps > 0.0:
            raise ValueError(f"ground speed must be > 0: {self.ground_speed_mps}")
        if max(self.departure_pos.altitude_m, self.arrival_pos.altitude_m) >= self.cruise_altitude_m:
            raise ValueError("airport elevation at or above cruise altitude")


@dataclass(frozen=True)
class LinkModelParams:
    """Knobs of the additive-dB downlink model.

    ``elevation_rolloff_db`` scales the (1 - sin(elevation)) loss term;
    rain attenuation applies only below ``troposphere_ceiling_m``; CNR is
    reported missing below ``horizon_cut_elevation_deg``.
    """

    cnr_at_zenith_db: float
    elevation_rolloff_db: float
    rain_atten_db_per_mmh: float
    troposphere_ceiling_m: float
    noise_sigma_db: float
    horizon_cut_elevation_deg: float

    def __post_init__(self) -> None:
        for name in ("cnr_at_zenith_db", "elevation_rolloff_db", "rain_atten_db_per_mmh"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.noise_sigma_db < 0.0:
            raise ValueError(f"noise_sigma_db must be >= 0: {self.noise_sigma_db}")
        if not 0.0 < self.horizon_cut_elevation_deg < 90.0:
            raise ValueError(
                f"horizon_cut_elevation_deg must be in (0, 90): {self.horizon_cut_elevation_deg}"
            )


#: Frozen defaults, calibrated so that the demo-route CNR population has a
#: mean of ~8.8 dB with most mass between 8 and 10 dB.
DEFAULT_LINK_PARAMS = LinkModelParams(
    cnr_at_zenith_db=10.15,
    elevation_rolloff_db=3.2,
    rain_atten_db_per_mmh=0.5,
    troposphere_ceiling_m=6000.0,
    noise_sigma_db=0.18,
    horizon_cut_elevation_deg=5.0,
)

DEFAULT_CLIMB_RATE_MPS = 10.0
DEFAULT_DESCENT_RATE_MPS = 8.0
DEFAULT_MIN_LOG_ALTITUDE_M = 1000.0


def _path(
    route: RouteSpec,
    step_s: float,
    climb_rate_mps: float,
    descent_rate_mps: float,
    fractions: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The route as arrays: seconds since takeoff, latitude, longitude and
    altitude.

    The track is the spherical great circle between the endpoints, flown
    at uniform speed.  The flight time is rounded up to a whole number of
    ``step_s`` steps, so without ``fractions`` the samples are every step
    from takeoff to the exact arrival point; with them, at those fractions
    of the flight time.  Longitudes are as :func:`slerp_track` gives them,
    in [-180, 180].  Altitude climbs linearly to cruise, holds, and
    descends linearly to the arrival elevation.  Raises ``ValueError`` for
    coincident endpoints and :class:`AntipodalRouteError` for antipodal
    ones.
    """
    if step_s <= 0.0:
        raise ValueError(f"step_s must be > 0: {step_s}")
    if climb_rate_mps <= 0.0 or descent_rate_mps <= 0.0:
        raise ValueError("climb and descent rates must be > 0")
    dep, arr = route.departure_pos, route.arrival_pos
    duration_s = haversine_m(dep, arr) / route.ground_speed_mps
    n_steps = max(1, math.ceil(duration_s / step_s - 1e-9))
    total_s = n_steps * step_s
    if fractions is None:
        fractions = np.arange(n_steps + 1, dtype=float) / n_steps
        times = np.arange(n_steps + 1, dtype=float) * step_s
    else:
        times = fractions * total_s
    lats, lons = slerp_track(dep, arr, fractions)
    alts = np.minimum.reduce(
        [
            dep.altitude_m + climb_rate_mps * times,
            np.full_like(times, route.cruise_altitude_m),
            arr.altitude_m + descent_rate_mps * (total_s - times),
        ]
    )
    return times, lats, lons, alts


def _link_cnr(params: LinkModelParams, sin_elevation, rain_mmh, noise_db):
    """The downlink model before clamping, on floats or arrays alike:
    zenith - rolloff * (1 - sin(elevation)) - attenuation * rain - noise.

    Subtracting a zero rain or noise term leaves the value unchanged bit
    for bit, so a minute without rain or noise needs no branch.
    """
    return (
        params.cnr_at_zenith_db
        - params.elevation_rolloff_db * (1.0 - sin_elevation)
        - params.rain_atten_db_per_mmh * rain_mmh
        - noise_db
    )


def synth_cnr(
    p: GeoPosition,
    sat: GeoSatellite,
    wx: Optional[WeatherCell],
    params: LinkModelParams,
    rng: Optional[np.random.Generator] = None,
) -> Optional[float]:
    """Synthesize one CNR measurement in dB, or ``None`` below the horizon cut.

    cnr = zenith - rolloff * (1 - sin(elevation)) - rain - noise, where the
    rain term applies only below the troposphere ceiling and with weather
    present.  The result is clamped to [0, 20] dB.  ``rng`` may be omitted
    when ``noise_sigma_db`` is zero.
    """
    elevation = geo_look_angles(p, sat).elevation_deg
    if elevation < params.horizon_cut_elevation_deg:
        return None
    rain = wx.precipitation_mmh if wx is not None and p.altitude_m < params.troposphere_ceiling_m else 0.0
    noise = 0.0
    if params.noise_sigma_db > 0.0:
        if rng is None:
            raise ValueError("rng required when noise_sigma_db > 0")
        noise = rng.normal(0.0, params.noise_sigma_db)
    cnr = _link_cnr(params, math.sin(math.radians(elevation)), rain, noise)
    return min(CNR_MAX_DB, max(CNR_MIN_DB, cnr))


def generate_flight(
    route: RouteSpec,
    sats: Sequence[GeoSatellite],
    weather: Optional[WeatherProvider],
    params: LinkModelParams,
    seed: int,
    departure_time: datetime,
    flight_id: Optional[str] = None,
    min_log_altitude_m: float = DEFAULT_MIN_LOG_ALTITUDE_M,
    climb_rate_mps: float = DEFAULT_CLIMB_RATE_MPS,
    descent_rate_mps: float = DEFAULT_DESCENT_RATE_MPS,
) -> LogColumns:
    """Simulate one flight and return its minute-resolution log as columns,
    in one array pass over the path.

    Logging starts once the climb first reaches ``min_log_altitude_m`` and
    runs through landing.  Each row's serving satellite is the one with
    the highest elevation at that position (ties resolved by satellite id).
    Minutes below the troposphere ceiling take their rain from one batch
    weather lookup, which raises :class:`CoverageGapError` on a gap.  The
    same seed always reproduces the same rows.
    """
    if not sats:
        raise ValueError("at least one satellite is required")
    ids = [s.satellite_id for s in sats]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate satellite ids: {ids}")
    departure_time = departure_time.astimezone(timezone.utc)
    if departure_time.second or departure_time.microsecond:
        raise ValueError("departure_time must be minute-aligned")
    start_s = int(departure_time.timestamp())
    if flight_id is None:
        stamp = "".join(filter(str.isdigit, _format_utc([start_s])[0][:16]))
        flight_id = f"{route.departure_airport}{route.arrival_airport}-{stamp}"

    sats = sorted(sats, key=lambda s: s.satellite_id)
    times, lats, lons, alts = _path(route, 60.0, climb_rate_mps, descent_rate_mps)
    # GeoPosition's wrap: slerp_track may return exactly 180.0, which is -180.0.
    lons = np.where(lons == 180.0, -180.0, lons)
    elevation_by_sat = np.stack([elevations_deg(lats, lons, alts, s) for s in sats])
    serving_idx = np.argmax(elevation_by_sat, axis=0)
    serving_elevation = np.max(elevation_by_sat, axis=0)

    above_gate = np.flatnonzero(alts >= min_log_altitude_m)
    first = int(above_gate[0]) if above_gate.size else len(times)
    epoch_s = start_s + times[first:].astype(np.int64)
    lats, lons, alts = lats[first:], lons[first:], alts[first:]

    rain = np.zeros(len(epoch_s))
    if weather is not None:
        low = np.flatnonzero(alts < params.troposphere_ceiling_m)
        cells = weather.cells_at(epoch_s[low], lats[low], lons[low])
        gap = np.isnan(cells).any(axis=1)
        if gap.any():
            i = low[np.argmax(gap)]
            when = _format_utc(epoch_s[i : i + 1])[0]
            raise CoverageGapError(f"flight {flight_id}: no weather at ({lats[i]}, {lons[i]}) on {when}")
        rain[low] = cells[:, 0]

    elevation = serving_elevation[first:]
    visible = elevation >= params.horizon_cut_elevation_deg
    noise = 0.0
    if params.noise_sigma_db > 0.0:
        # One draw per measured minute, in minute order: the same stream as
        # one draw per synth_cnr call.
        noise = np.random.default_rng(seed).normal(0.0, params.noise_sigma_db, int(visible.sum()))
    cnr = np.full(len(epoch_s), np.nan)
    cnr[visible] = np.clip(
        _link_cnr(params, np.sin(np.radians(elevation[visible])), rain[visible], noise),
        CNR_MIN_DB,
        CNR_MAX_DB,
    )
    n = len(epoch_s)
    return LogColumns(
        epoch_s=epoch_s,
        flight_id=np.full(n, flight_id, dtype=object),
        tail_number=np.full(n, route.tail_number, dtype=object),
        airline_code=np.full(n, route.airline_code, dtype=object),
        departure_airport=np.full(n, route.departure_airport, dtype=object),
        arrival_airport=np.full(n, route.arrival_airport, dtype=object),
        flight_start_s=np.full(n, start_s),
        flight_end_s=np.full(n, start_s + int(times[-1])),
        latitude_deg=lats,
        longitude_deg=lons,
        altitude_m=alts,
        satellite_id=np.array([s.satellite_id for s in sats], dtype=object)[serving_idx[first:]],
        cnr_db=cnr,
    )


class ConfigError(ValueError):
    """A generation config failed validation; ``errors`` lists the problems."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


@dataclass(frozen=True)
class RoutePlan:
    """A route plus the airframes that rotate through it."""

    route: RouteSpec
    tail_numbers: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.tail_numbers:
            raise ValueError("at least one tail number per route")


@dataclass(frozen=True)
class WeatherSpec:
    """Synthetic-weather settings shared by generation and the later join."""

    storm_density: float
    seed: int


#: The keys of one route entry of a generation config.
_ROUTE_KEYS = (
    "departure_airport",
    "arrival_airport",
    "departure",
    "arrival",
    "cruise_altitude_m",
    "ground_speed_mps",
    "airline_code",
    "tail_number",
    "tail_numbers",
)


@dataclass(frozen=True)
class GenerationConfig:
    seed: int
    flights_per_route: int
    start_date: datetime
    span_days: float
    routes: tuple[RoutePlan, ...]
    satellites: tuple[GeoSatellite, ...]
    link_params: LinkModelParams = DEFAULT_LINK_PARAMS
    weather: Optional[WeatherSpec] = None
    climb_rate_mps: float = DEFAULT_CLIMB_RATE_MPS
    descent_rate_mps: float = DEFAULT_DESCENT_RATE_MPS
    min_log_altitude_m: float = DEFAULT_MIN_LOG_ALTITUDE_M

    @classmethod
    def from_dict(cls, data: dict) -> "GenerationConfig":
        errors: list[str] = []

        def need(key, kind, default=None):
            if key not in data:
                if default is None:
                    errors.append(f"missing key {key!r}")
                return default
            value = data[key]
            if kind is float and isinstance(value, int) and not isinstance(value, bool):
                value = float(value)
            # bool is an int subclass, but true is never a count or a rate.
            if isinstance(value, bool) or not isinstance(value, kind):
                errors.append(f"key {key!r} must be {kind.__name__}")
                return None
            return value

        def reject_unknown(where: str, entry, known) -> None:
            unknown = sorted(set(entry) - set(known)) if isinstance(entry, dict) else []
            if unknown:
                errors.append(f"{where}unknown key(s): {', '.join(unknown)}")

        # weather_export is read by ``satlink generate``, not here.
        reject_unknown("", data, [f.name for f in fields(cls)] + ["weather_export"])
        seed = need("seed", int)
        flights = need("flights_per_route", int)
        start_raw = need("start_date", str)
        span_days = need("span_days", float)
        routes_raw = need("routes", list)
        sats_raw = need("satellites", list)
        climb = need("climb_rate_mps", float, DEFAULT_CLIMB_RATE_MPS)
        descent = need("descent_rate_mps", float, DEFAULT_DESCENT_RATE_MPS)
        min_log_altitude = need("min_log_altitude_m", float, DEFAULT_MIN_LOG_ALTITUDE_M)

        start_date = None
        if start_raw is not None:
            try:
                start_date = _parse_utc(start_raw)
            except ValueError as exc:
                errors.append(f"start_date: {exc}")

        plans: list[RoutePlan] = []
        for i, entry in enumerate(routes_raw or []):
            reject_unknown(f"routes[{i}]: ", entry, _ROUTE_KEYS)
            try:
                dep = entry["departure"]
                arr = entry["arrival"]
                tails = tuple(entry.get("tail_numbers") or [entry["tail_number"]])
                plans.append(
                    RoutePlan(
                        route=RouteSpec(
                            departure_airport=entry["departure_airport"],
                            arrival_airport=entry["arrival_airport"],
                            departure_pos=GeoPosition(dep[0], dep[1], dep[2]),
                            arrival_pos=GeoPosition(arr[0], arr[1], arr[2]),
                            cruise_altitude_m=float(entry["cruise_altitude_m"]),
                            ground_speed_mps=float(entry["ground_speed_mps"]),
                            airline_code=entry["airline_code"],
                            tail_number=tails[0],
                        ),
                        tail_numbers=tails,
                    )
                )
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                errors.append(f"routes[{i}]: {exc}")

        satellites: list[GeoSatellite] = []
        for i, entry in enumerate(sats_raw or []):
            reject_unknown(f"satellites[{i}]: ", entry, ("satellite_id", "slot_longitude_deg"))
            try:
                satellites.append(
                    GeoSatellite(entry["satellite_id"], float(entry["slot_longitude_deg"]))
                )
            except (KeyError, TypeError, ValueError) as exc:
                errors.append(f"satellites[{i}]: {exc}")

        link_params = DEFAULT_LINK_PARAMS
        if "link_params" in data:
            try:
                link_params = LinkModelParams(**data["link_params"])
            except (TypeError, ValueError) as exc:
                errors.append(f"link_params: {exc}")

        weather = None
        if data.get("weather") is not None:
            reject_unknown("weather: ", data["weather"], [f.name for f in fields(WeatherSpec)])
            try:
                weather = WeatherSpec(
                    storm_density=float(data["weather"]["storm_density"]),
                    seed=int(data["weather"]["seed"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                errors.append(f"weather: {exc}")

        if flights is not None and flights < 0:
            errors.append("flights_per_route must be >= 0")
        if span_days is not None and span_days <= 0:
            errors.append("span_days must be > 0")
        for key, rate in (("climb_rate_mps", climb), ("descent_rate_mps", descent)):
            if rate is not None and not (math.isfinite(rate) and rate > 0):
                errors.append(f"{key} must be finite and > 0")
        if min_log_altitude is not None and not math.isfinite(min_log_altitude):
            errors.append("min_log_altitude_m must be finite")
        if errors:
            raise ConfigError(errors)
        return cls(
            seed=seed,
            flights_per_route=flights,
            start_date=start_date,
            span_days=span_days,
            routes=tuple(plans),
            satellites=tuple(satellites),
            link_params=link_params,
            weather=weather,
            climb_rate_mps=climb,
            descent_rate_mps=descent,
            min_log_altitude_m=min_log_altitude,
        )

    def weather_provider(self) -> Optional[SyntheticWeather]:
        if self.weather is None:
            return None
        return SyntheticWeather(self.weather.storm_density, self.weather.seed)


def _flight_seed(master_seed: int, flight_index: int) -> int:
    return int(np.random.SeedSequence((master_seed, flight_index, 0)).generate_state(1, np.uint64)[0])


def generate_dataset(config: GenerationConfig, out_dir: str) -> dict:
    """Generate every configured flight, write the CSVs, return the manifest.

    Flight CSVs land under ``out_dir/flights/``; the manifest (also written
    to ``out_dir/manifest.json``) records per-flight row counts and the
    label distribution.  Output is a pure function of (config, seed).
    """
    flights_dir = os.path.join(out_dir, "flights")
    os.makedirs(flights_dir, exist_ok=True)
    provider = config.weather_provider()

    files = []
    total_rows = 0
    category_counts = np.zeros(len(CnrCategory), dtype=np.int64)
    flight_index = 0
    span_minutes = max(1, round(config.span_days * 24 * 60))
    for plan in config.routes:
        for j in range(config.flights_per_route):
            sched_rng = np.random.default_rng(
                np.random.SeedSequence((config.seed, flight_index, 1))
            )
            departure_time = config.start_date + timedelta(
                minutes=int(sched_rng.integers(0, span_minutes))
            )
            route = replace(plan.route, tail_number=plan.tail_numbers[j % len(plan.tail_numbers)])
            flight_id = f"F{flight_index:05d}"
            log = generate_flight(
                route,
                config.satellites,
                provider,
                config.link_params,
                _flight_seed(config.seed, flight_index),
                departure_time,
                flight_id,
                config.min_log_altitude_m,
                config.climb_rate_mps,
                config.descent_rate_mps,
            )
            rel_path = f"flights/{flight_id}.csv"
            cnr_cells = save_logs(log, os.path.join(out_dir, rel_path))
            files.append({"file": rel_path, "flight_id": flight_id, "rows": len(cnr_cells)})
            total_rows += len(cnr_cells)
            # Labels of the values as written, which is what a parse reads.
            written = np.fromiter(map(float, filter(None, cnr_cells)), float)
            category_counts += np.bincount(
                np.searchsorted(CATEGORY_EDGES_DB, written, side="right"), minlength=len(CnrCategory)
            )
            flight_index += 1

    manifest = {
        "flights": flight_index,
        "rows": total_rows,
        "labeled_rows": int(category_counts.sum()),
        "category_counts": {c.label: int(category_counts[c]) for c in CnrCategory},
        "files": files,
        "seed": config.seed,
        "weather": (
            None
            if config.weather is None
            else {"storm_density": config.weather.storm_density, "seed": config.weather.seed}
        ),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return manifest


def sample_cnr_population(
    routes: Sequence[RouteSpec],
    sats: Sequence[GeoSatellite],
    params: LinkModelParams,
    n: int,
    seed: int,
) -> np.ndarray:
    """Draw CNR observations at random points along the given routes.

    The link model of :func:`synth_cnr` without weather, used to calibrate
    and verify the default link parameters: sample a route and a position
    along it uniformly, aim at the best satellite, and keep the
    observations above the horizon cut.
    """
    if not routes or not sats:
        raise ValueError("need at least one route and one satellite")
    rng = np.random.default_rng(seed)
    route_idx = rng.integers(0, len(routes), n)
    u = rng.random(n)
    noise = (
        rng.normal(0.0, params.noise_sigma_db, n)
        if params.noise_sigma_db > 0.0
        else np.zeros(n)
    )

    lats = np.empty(n)
    lons = np.empty(n)
    alts = np.empty(n)
    for i, route in enumerate(routes):
        mask = route_idx == i
        if mask.any():
            _, lats[mask], lons[mask], alts[mask] = _path(
                route, 60.0, DEFAULT_CLIMB_RATE_MPS, DEFAULT_DESCENT_RATE_MPS, u[mask]
            )

    best_elevation = np.maximum.reduce([elevations_deg(lats, lons, alts, s) for s in sats])
    visible = best_elevation >= params.horizon_cut_elevation_deg
    cnr = _link_cnr(params, np.sin(np.radians(best_elevation[visible])), 0.0, noise[visible])
    return np.clip(cnr, CNR_MIN_DB, CNR_MAX_DB)


def demo_satellites() -> list[GeoSatellite]:
    """Three GEO slots giving the demo routes overlapping coverage."""
    return [
        GeoSatellite("I5F1", 62.6),
        GeoSatellite("I5F2", -55.0),
        GeoSatellite("I5F3", 179.6),
    ]


def _route(
    dep_iata: str,
    arr_iata: str,
    dep: tuple[float, float, float],
    arr: tuple[float, float, float],
    cruise_m: float,
    speed_mps: float,
    airline: str,
    tails: tuple[str, ...],
) -> RoutePlan:
    return RoutePlan(
        route=RouteSpec(
            departure_airport=dep_iata,
            arrival_airport=arr_iata,
            departure_pos=GeoPosition(*dep),
            arrival_pos=GeoPosition(*arr),
            cruise_altitude_m=cruise_m,
            ground_speed_mps=speed_mps,
            airline_code=airline,
            tail_number=tails[0],
        ),
        tail_numbers=tails,
    )


_SIN = (1.359, 103.989, 7.0)
_LHR = (51.470, -0.454, 25.0)
_DXB = (25.253, 55.365, 19.0)
_JFK = (40.640, -73.779, 4.0)
_FRA = (50.033, 8.570, 111.0)
_HKG = (22.308, 113.915, 9.0)
_SYD = (-33.946, 151.177, 6.0)
_CDG = (49.010, 2.548, 119.0)
_GRU = (-23.432, -46.469, 750.0)


def demo_route_plans() -> list[RoutePlan]:
    """Six long-haul city pairs spanning the demo satellites' footprints."""
    return [
        _route("SIN", "LHR", _SIN, _LHR, 11500.0, 250.0, "SQ", ("9V-SKA", "9V-SKB", "9V-SKM")),
        _route("DXB", "JFK", _DXB, _JFK, 11900.0, 255.0, "EK", ("A6-EDA", "A6-EDB")),
        _route("FRA", "SIN", _FRA, _SIN, 11300.0, 250.0, "LH", ("D-AIMA", "D-AIMB")),
        _route("LHR", "DXB", _LHR, _DXB, 10700.0, 245.0, "BA", ("G-XWBA", "G-XWBB")),
        _route("HKG", "SYD", _HKG, _SYD, 11000.0, 248.0, "CX", ("B-LXA", "B-LXB")),
        _route("CDG", "GRU", _CDG, _GRU, 10600.0, 243.0, "AF", ("F-HRBA", "F-HRBB")),
    ]


def demo_config(
    flights_per_route: int = 5,
    seed: int = 20230301,
    weather: Optional[WeatherSpec] = WeatherSpec(storm_density=6.0, seed=77),
    climb_rate_mps: float = DEFAULT_CLIMB_RATE_MPS,
    descent_rate_mps: float = DEFAULT_DESCENT_RATE_MPS,
) -> GenerationConfig:
    """A ready-to-run generation config over the demo routes and satellites."""
    return GenerationConfig(
        seed=seed,
        flights_per_route=flights_per_route,
        start_date=datetime(2023, 3, 1, tzinfo=timezone.utc),
        span_days=30.0,
        routes=tuple(demo_route_plans()),
        satellites=tuple(demo_satellites()),
        link_params=DEFAULT_LINK_PARAMS,
        weather=weather,
        climb_rate_mps=climb_rate_mps,
        descent_rate_mps=descent_rate_mps,
    )
