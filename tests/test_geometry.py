import math

import numpy as np
import pytest

from satlink.geometry import (
    EARTH_RADIUS_M,
    GEO_ALTITUDE_M,
    AntipodalRouteError,
    GeoPosition,
    GeoSatellite,
    elevations_deg,
    geo_look_angles,
    haversine_m,
    slerp_track,
)


def ecef(lat_deg, lon_deg, radius_m):
    lat, lon = math.radians(lat_deg), math.radians(lon_deg)
    return np.array(
        [
            radius_m * math.cos(lat) * math.cos(lon),
            radius_m * math.cos(lat) * math.sin(lon),
            radius_m * math.sin(lat),
        ]
    )


def oracle_elevation_deg(p: GeoPosition, sat: GeoSatellite) -> float:
    """Independent check: 90 deg minus the angle between the local up vector
    and the observer-to-satellite vector, all in absolute ECEF."""
    obs = ecef(p.latitude_deg, p.longitude_deg, EARTH_RADIUS_M + p.altitude_m)
    s = ecef(0.0, sat.slot_longitude_deg, EARTH_RADIUS_M + sat.orbit_altitude_m)
    d = s - obs
    up = obs / np.linalg.norm(obs)
    cos_angle = float(np.dot(up, d) / np.linalg.norm(d))
    return 90.0 - math.degrees(math.acos(max(-1.0, min(1.0, cos_angle))))


class TestGeoPosition:
    def test_longitude_normalized(self):
        assert GeoPosition(0.0, 181.0).longitude_deg == -179.0
        assert GeoPosition(0.0, -180.0).longitude_deg == -180.0
        assert GeoPosition(0.0, 180.0).longitude_deg == -180.0

    def test_longitude_one_ulp_below_minus_180_wraps_to_minus_180(self):
        # Its remainder -2**-45 plus 360 rounds to 360.0, which is 180.0 shifted back.
        assert GeoPosition(0.0, float(np.nextafter(-180.0, -181.0))).longitude_deg == -180.0

    @pytest.mark.parametrize("lat,lon,alt", [(91.0, 0.0, 0.0), (-90.5, 0.0, 0.0), (0.0, 0.0, -1.0)])
    def test_rejects_bad_fields(self, lat, lon, alt):
        with pytest.raises(ValueError):
            GeoPosition(lat, lon, alt)

    def test_satellite_orbit_altitude_pinned(self):
        with pytest.raises(ValueError):
            GeoSatellite("X", 0.0, orbit_altitude_m=20_000_000.0)
        assert GeoSatellite("X", 0.0).orbit_altitude_m == GEO_ALTITUDE_M


class TestHaversine:
    def test_identity(self):
        p = GeoPosition(12.3, 45.6)
        assert haversine_m(p, p) == 0.0

    def test_antipodal_is_half_circumference(self):
        d = haversine_m(GeoPosition(0.0, 0.0), GeoPosition(0.0, 180.0))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_M, abs=1e-6)

    def test_one_degree_on_equator(self):
        # Independent oracle: spherical law of cosines gives 111194.926645 m.
        d = haversine_m(GeoPosition(0.0, 0.0), GeoPosition(0.0, 1.0))
        assert d == pytest.approx(111194.926645, abs=1e-3)

    def test_symmetry_zero_and_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            pts = [
                GeoPosition(rng.uniform(-90, 90), rng.uniform(-180, 180))
                for _ in range(3)
            ]
            a, b, c = pts
            assert haversine_m(a, b) == pytest.approx(haversine_m(b, a), abs=1e-9)
            if (a.latitude_deg, a.longitude_deg) != (b.latitude_deg, b.longitude_deg):
                assert haversine_m(a, b) > 0.0
            assert haversine_m(a, c) <= haversine_m(a, b) + haversine_m(b, c) + 1e-6


class TestLookAngles:
    def test_sub_satellite_point_is_exact_zenith(self):
        for slot in (0.0, 62.6, -55.0, 179.6):
            angles = geo_look_angles(GeoPosition(0.0, slot), GeoSatellite("S", slot))
            assert angles.elevation_deg == 90.0

    def test_over_the_limb_is_below_horizon(self):
        angles = geo_look_angles(GeoPosition(0.0, 90.0), GeoSatellite("S", 0.0))
        assert angles.elevation_deg < 0.0

    def test_mid_latitude_value_matches_frozen_oracle(self):
        # oracle_elevation_deg(GeoPosition(45, 10), slot 0) = 37.224478517629
        angles = geo_look_angles(GeoPosition(45.0, 10.0), GeoSatellite("S", 0.0))
        assert angles.elevation_deg == pytest.approx(37.224478517629, abs=1e-9)

    def test_observer_due_north_sees_satellite_due_south(self):
        angles = geo_look_angles(GeoPosition(45.0, 30.0), GeoSatellite("S", 30.0))
        assert angles.azimuth_deg == 180.0

    def test_tiny_negative_azimuth_is_north_not_360(self):
        # atan2 gives a tiny negative angle here, which % 360 rounds to 360.0.
        angles = geo_look_angles(GeoPosition(-1.0, 2.225073858507203e-309), GeoSatellite("X", 0.0))
        assert angles.azimuth_deg == 0.0

    def test_matches_ecef_oracle_on_random_samples(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            p = GeoPosition(rng.uniform(-85, 85), rng.uniform(-180, 180), rng.uniform(0, 13000))
            sat = GeoSatellite("S", rng.uniform(-180, 180))
            got = geo_look_angles(p, sat).elevation_deg
            want = oracle_elevation_deg(p, sat)
            assert got == pytest.approx(want, abs=1e-6)

    def test_elevation_invariant_under_dlon_reflection_and_common_shift(self):
        # On a 1/16-degree lattice every longitude sum and difference is an
        # exact float, so the invariances hold bit for bit.
        rng = np.random.default_rng(3)
        for _ in range(200):
            lat = rng.uniform(-85, 85)
            slot = rng.integers(-1600, 1601) / 16.0
            dlon = rng.integers(-1200, 1201) / 16.0
            shift = rng.integers(-600, 601) / 16.0
            base = geo_look_angles(GeoPosition(lat, slot + dlon), GeoSatellite("S", slot))
            mirrored = geo_look_angles(GeoPosition(lat, slot - dlon), GeoSatellite("S", slot))
            assert mirrored.elevation_deg == base.elevation_deg
            shifted = geo_look_angles(
                GeoPosition(lat, slot + dlon + shift), GeoSatellite("S", slot + shift)
            )
            assert shifted.elevation_deg == base.elevation_deg

    def test_elevation_invariances_hold_to_rounding_for_arbitrary_floats(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            lat = rng.uniform(-85, 85)
            slot = rng.uniform(-179, 179)
            dlon = rng.uniform(-150, 150)
            base = geo_look_angles(GeoPosition(lat, slot + dlon), GeoSatellite("S", slot))
            mirrored = geo_look_angles(GeoPosition(lat, slot - dlon), GeoSatellite("S", slot))
            assert mirrored.elevation_deg == pytest.approx(base.elevation_deg, abs=1e-9)

    def test_vectorized_elevations_match_scalar(self):
        rng = np.random.default_rng(11)
        lats = rng.uniform(-85, 85, 64)
        lons = rng.uniform(-180, 180, 64)
        alts = rng.uniform(0, 12000, 64)
        sat = GeoSatellite("S", 62.6)
        vec = elevations_deg(lats, lons, alts, sat)
        for i in range(64):
            scalar = geo_look_angles(GeoPosition(lats[i], lons[i], alts[i]), sat)
            assert vec[i] == pytest.approx(scalar.elevation_deg, abs=1e-12)


class TestSlerp:
    def test_equatorial_midpoint(self):
        lats, lons = slerp_track(GeoPosition(0.0, 0.0), GeoPosition(0.0, 90.0), np.array([0.5]))
        assert lats[0] == 0.0
        assert lons[0] == pytest.approx(45.0, abs=1e-12)

    def test_coincident_endpoints_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            slerp_track(GeoPosition(1.0, 2.0), GeoPosition(1.0, 2.0), np.array([0.5]))

    def test_antipodal_endpoints_rejected_distinctly(self):
        with pytest.raises(AntipodalRouteError):
            slerp_track(GeoPosition(0.0, 0.0), GeoPosition(0.0, 180.0), np.array([0.5]))
