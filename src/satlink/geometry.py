"""Spherical-Earth geometry: positions, great-circle distance, GEO look angles.

All angles are degrees, all distances metres.  A spherical Earth of radius
6371 km is used throughout; the ellipsoidal correction is far below the
~10 km spatial precision anything downstream cares about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
GEO_ALTITUDE_M = 35_786_000.0


class AntipodalRouteError(ValueError):
    """Endpoints are antipodal, so the great-circle track is ambiguous."""


def normalize_lon(lon_deg: float) -> float:
    """Wrap a longitude into [-180, 180).

    Values already in range pass through bit-exact; only out-of-range
    longitudes pay the (slightly lossy) modular reduction.
    """
    if -180.0 <= lon_deg < 180.0:
        return lon_deg
    lon = math.fmod(lon_deg + 180.0, 360.0)
    if lon < 0.0:
        lon += 360.0  # rounds to 360.0 for a remainder within an ulp below 0
    return lon - 180.0 if lon < 360.0 else -180.0


@dataclass(frozen=True)
class GeoPosition:
    """A point above the spherical Earth.

    Longitude is normalized to [-180, 180) at construction so that two
    representations of the same meridian compare equal.
    """

    latitude_deg: float
    longitude_deg: float
    altitude_m: float = 0.0

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError(f"latitude out of range [-90, 90]: {self.latitude_deg}")
        if not math.isfinite(self.longitude_deg):
            raise ValueError(f"longitude not finite: {self.longitude_deg}")
        if not self.altitude_m >= 0.0:
            raise ValueError(f"altitude must be >= 0 m: {self.altitude_m}")
        object.__setattr__(self, "longitude_deg", normalize_lon(self.longitude_deg))


@dataclass(frozen=True)
class GeoSatellite:
    """A geostationary satellite parked at a fixed equatorial slot."""

    satellite_id: str
    slot_longitude_deg: float
    orbit_altitude_m: float = GEO_ALTITUDE_M

    def __post_init__(self) -> None:
        if not self.satellite_id:
            raise ValueError("satellite_id must be a non-empty token")
        if self.orbit_altitude_m != GEO_ALTITUDE_M:
            raise ValueError(
                f"orbit_altitude_m must be the geostationary altitude "
                f"{GEO_ALTITUDE_M} m, got {self.orbit_altitude_m}"
            )
        object.__setattr__(
            self, "slot_longitude_deg", normalize_lon(self.slot_longitude_deg)
        )


@dataclass(frozen=True)
class LookAngles:
    """Elevation above the local horizon and compass azimuth, in degrees."""

    elevation_deg: float
    azimuth_deg: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.elevation_deg <= 90.0:
            raise ValueError(f"elevation out of range: {self.elevation_deg}")
        if not 0.0 <= self.azimuth_deg < 360.0:
            raise ValueError(f"azimuth out of range [0, 360): {self.azimuth_deg}")


def haversine_m(a: GeoPosition, b: GeoPosition) -> float:
    """Great-circle surface distance between two positions, in metres.

    Altitude is ignored; the result is the arc length on the Earth sphere.
    """
    return float(_haversine_m(a.latitude_deg, a.longitude_deg, b.latitude_deg, b.longitude_deg))


def _haversine_m(lat1_deg, lon1_deg, lat2_deg, lon2_deg):
    """:func:`haversine_m` between points given in degrees, as numbers or
    numpy arrays that broadcast against each other."""
    lat1 = np.radians(lat1_deg)
    lat2 = np.radians(lat2_deg)
    dlat = lat2 - lat1
    dlon = np.radians(np.subtract(lon2_deg, lon1_deg))
    h = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def geo_look_angles(p: GeoPosition, sat: GeoSatellite) -> LookAngles:
    """Elevation and azimuth of a GEO satellite as seen from ``p``.

    Works in the satellite-relative frame (satellite pinned to longitude 0,
    observer at the longitude difference), which keeps elevation exactly
    invariant under a common longitude shift and puts the sub-satellite
    point at exactly 90 degrees.  The observer-to-satellite vector is
    projected onto the local east/north/up basis; azimuth at the zenith is
    reported as 0.
    """
    lat = math.radians(p.latitude_deg)
    dlon = math.radians(normalize_lon(p.longitude_deg - sat.slot_longitude_deg))
    slat, clat = math.sin(lat), math.cos(lat)
    slon, clon = math.sin(dlon), math.cos(dlon)

    r_obs = EARTH_RADIUS_M + p.altitude_m
    r_sat = EARTH_RADIUS_M + sat.orbit_altitude_m
    # Observer ECEF; satellite sits at (r_sat, 0, 0) in this frame.
    ox, oy, oz = r_obs * clat * clon, r_obs * clat * slon, r_obs * slat
    dx, dy, dz = r_sat - ox, -oy, -oz

    east = -slon * dx + clon * dy
    north = -slat * clon * dx - slat * slon * dy + clat * dz
    up = clat * clon * dx + clat * slon * dy + slat * dz

    elevation = math.degrees(math.atan2(up, math.hypot(east, north)))
    azimuth = math.degrees(math.atan2(east, north)) % 360.0
    # A tiny negative angle wraps to exactly 360.0, which is north: 0.
    return LookAngles(elevation, 0.0 if azimuth == 360.0 else azimuth)


def elevations_deg(
    lat_deg: np.ndarray,
    lon_deg: np.ndarray,
    alt_m: np.ndarray,
    sat: GeoSatellite,
) -> np.ndarray:
    """Vectorized elevation of ``sat`` for arrays of observer coordinates.

    Same arithmetic as :func:`geo_look_angles`, evaluated with numpy so a
    whole flight path can be screened at once.
    """
    lat = np.radians(np.asarray(lat_deg, dtype=float))
    dlon_deg = np.mod(np.asarray(lon_deg, dtype=float) - sat.slot_longitude_deg + 180.0, 360.0) - 180.0
    dlon = np.radians(dlon_deg)
    slat, clat = np.sin(lat), np.cos(lat)
    slon, clon = np.sin(dlon), np.cos(dlon)

    r_obs = EARTH_RADIUS_M + np.asarray(alt_m, dtype=float)
    r_sat = EARTH_RADIUS_M + sat.orbit_altitude_m
    ox, oy, oz = r_obs * clat * clon, r_obs * clat * slon, r_obs * slat
    dx, dy, dz = r_sat - ox, -oy, -oz

    up = clat * clon * dx + clat * slon * dy + slat * dz
    east = -slon * dx + clon * dy
    north = -slat * clon * dx - slat * slon * dy + clat * dz
    return np.degrees(np.arctan2(up, np.hypot(east, north)))


def _unit_vector(lat_deg: float, lon_deg: float) -> np.ndarray:
    lat = math.radians(lat_deg)
    lon = math.radians(lon_deg)
    return np.array(
        [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)]
    )


def slerp_track(
    a: GeoPosition, b: GeoPosition, fractions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Points along the great circle from ``a`` to ``b`` at the given fractions.

    Returns (latitudes, longitudes) in degrees.  Raises ``ValueError`` for
    coincident endpoints and for antipodal endpoints (where the great
    circle is not unique).
    """
    va, vb = _unit_vector(a.latitude_deg, a.longitude_deg), _unit_vector(b.latitude_deg, b.longitude_deg)
    dot = float(np.clip(np.dot(va, vb), -1.0, 1.0))
    cross_norm = float(np.linalg.norm(np.cross(va, vb)))
    omega = math.atan2(cross_norm, dot)
    if omega <= 0.0:
        raise ValueError("route endpoints coincide; great-circle track undefined")
    if math.pi - omega < 1e-9:
        raise AntipodalRouteError(
            "route endpoints are antipodal; great-circle track ambiguous"
        )

    f = np.asarray(fractions, dtype=float)
    sin_omega = math.sin(omega)
    w_a = np.sin((1.0 - f) * omega) / sin_omega
    w_b = np.sin(f * omega) / sin_omega
    pts = np.outer(w_a, va) + np.outer(w_b, vb)
    lats = np.degrees(np.arcsin(np.clip(pts[:, 2], -1.0, 1.0)))
    lons = np.degrees(np.arctan2(pts[:, 1], pts[:, 0]))
    return lats, lons
