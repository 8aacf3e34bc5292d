import csv
import math
import tempfile
import time
from dataclasses import fields, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satlink.cli import load_records
from satlink.flightsim import DEFAULT_LINK_PARAMS, demo_route_plans, demo_satellites, generate_flight
from satlink.geometry import GeoPosition, haversine_m, normalize_lon
from satlink.ingest import (
    CATEGORICAL_COLUMNS,
    CATEGORY_EDGES_DB,
    NUMERIC_COLUMNS,
    WEATHER_COLUMNS,
    CnrCategory,
    FeatureMatrix,
    FlightLogRecord,
    JoinCoverageError,
    LOG_CSV_COLUMNS,
    LogColumns,
    LogParseError,
    _check_log,
    Vocabulary,
    bin_cnr,
    encode_features,
    filter_altitude,
    join_weather,
    labeled,
    parse_logs,
    save_logs,
    split_by_flight,
    top_routes,
)
from satlink.weather import (
    SyntheticWeather,
    WeatherCsvError,
    _format_utc,
    _parse_utc,
    load_weather_csv,
    synth_weather_field,
)

from conftest import make_matrix

T0 = datetime(2023, 3, 5, 8, 0, tzinfo=timezone.utc)


def record(
    minute=0,
    flight_id="F1",
    dep="AAA",
    arr="BBB",
    lat=10.0,
    lon=20.0,
    alt=11000.0,
    cnr=8.5,
    duration_min=600,
    sat="I5F1",
    tail="Z-1",
):
    return FlightLogRecord(
        log_date=T0 + timedelta(minutes=minute),
        flight_id=flight_id,
        tail_number=tail,
        airline_code="ZZ",
        departure_airport=dep,
        arrival_airport=arr,
        flight_start_time=T0,
        flight_end_time=T0 + timedelta(minutes=duration_min),
        latitude_deg=lat,
        longitude_deg=lon,
        altitude_m=alt,
        satellite_id=sat,
        cnr_db=cnr,
    )


def as_log(records) -> LogColumns:
    """Records built by hand as the columns that selection takes."""
    return LogColumns.from_records(records)


class TestBinCnr:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, CnrCategory.BAD),
            (5.999, CnrCategory.BAD),
            (6.0, CnrCategory.WEAK),
            (8.82, CnrCategory.WEAK),  # the corpus-wide mean lands in Weak
            (9.999, CnrCategory.WEAK),
            (10.0, CnrCategory.MEDIUM),
            (14.999, CnrCategory.MEDIUM),
            (15.0, CnrCategory.GOOD),
            (20.0, CnrCategory.GOOD),
        ],
    )
    def test_boundaries_lower_inclusive(self, value, expected):
        assert bin_cnr(value) is expected

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                bin_cnr(bad)

    def test_monotone_and_surjective_on_range(self):
        values = np.round(np.arange(0.0, 20.0001, 0.01), 2)
        cats = [bin_cnr(float(v)) for v in values]
        assert all(b >= a for a, b in zip(cats, cats[1:]))
        assert set(cats) == set(CnrCategory)

    def test_category_order(self):
        assert CnrCategory.BAD < CnrCategory.WEAK < CnrCategory.MEDIUM < CnrCategory.GOOD


class TestParseLogs:
    def test_flight_file_round_trips_bit_exactly(self, tmp_path):
        plans = demo_route_plans()
        log = generate_flight(plans[0].route, demo_satellites(), None, DEFAULT_LINK_PARAMS, 42, T0, "F0")
        first = tmp_path / "f0.csv"
        save_logs(log, first)
        parsed = parse_logs([str(first)])
        assert len(parsed) == len(log)
        second = tmp_path / "f0_again.csv"
        save_logs(parsed, second)
        assert first.read_bytes() == second.read_bytes()

    def test_header_only_file_is_empty_success(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(LOG_CSV_COLUMNS) + "\n")
        assert parse_logs([str(path)]).to_records() == []

    def test_empty_cnr_cell_parses_as_missing(self, tmp_path):
        path = tmp_path / "gap.csv"
        save_logs(as_log([record(cnr=None)]), path)
        parsed = parse_logs([str(path)])
        assert parsed[0].cnr_db is None
        assert parsed[0].category is None

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(LogParseError, match="header"):
            parse_logs([str(path)])

    def test_row_errors_reported_with_lines(self, tmp_path):
        good = record()
        path = tmp_path / "rows.csv"
        save_logs(as_log([good, good]), path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("T08:00:00Z", "T08:00:30Z")  # not minute-aligned
        lines.append("only,three,fields")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogParseError) as err:
            parse_logs([str(path)])
        reported = [(line, msg) for _, line, msg in err.value.errors]
        assert reported[0][0] == 3
        assert "minute" in reported[0][1]
        assert reported[1][0] == 4

    def test_record_requires_log_date_inside_flight(self):
        with pytest.raises(ValueError, match="outside the flight interval"):
            record(minute=-5)

    def test_year_999_round_trips(self, tmp_path):
        start = datetime(999, 12, 31, 23, 0, tzinfo=timezone.utc)
        rows = [
            FlightLogRecord(
                start + timedelta(minutes=m), "F1", "Z-1", "ZZ", "AAA", "BBB",
                start, start + timedelta(hours=2), 10.0, 20.0, 11000.0, "I5F1", 8.5,
            )
            for m in (0, 61, 120)
        ]
        path = tmp_path / "old.csv"
        save_logs(as_log(rows), path)
        assert path.read_text().splitlines()[1].startswith("0999-12-31T23:00:00Z,F1,")
        assert parse_logs([str(path)]).to_records() == rows


    def test_bad_lines_of_every_file_come_in_file_and_line_order(self, tmp_path):
        headless = tmp_path / "a.csv"
        headless.write_text("not,a,header\n")
        rows = tmp_path / "b.csv"
        save_logs(as_log([record(minute=0), record(minute=1), record(minute=2)]), rows)
        lines = rows.read_text().splitlines()
        lines[1] = lines[1].replace(",10.000000,", ",north,")  # latitude is no number
        lines[2] = lines[2] + ",extra"
        rows.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogParseError) as err:
            parse_logs([str(headless), str(rows)])
        reported = [(path, line) for path, line, _ in err.value.errors]
        assert reported == [(str(headless), 1), (str(rows), 2), (str(rows), 3)]
        messages = [message for _, _, message in err.value.errors]
        assert "header" in messages[0] and "north" in messages[1] and "fields" in messages[2]

    def test_nan_cnr_cell_is_a_bad_line_and_empty_cell_is_missing(self, tmp_path):
        path = tmp_path / "f.csv"
        save_logs(as_log([record(minute=0, cnr=None), record(minute=1)]), path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",nan"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogParseError) as err:
            parse_logs([str(path)])
        assert [(line, "cnr_db" in message) for _, line, message in err.value.errors] == [(3, True)]

    def test_longitudes_wrap_as_a_record_wraps_them(self, tmp_path):
        path = tmp_path / "f.csv"
        lons = [180.0, 190.0, -190.5, 540.0, float(np.nextafter(-180.0, -181.0)), -180.0, 179.5]
        save_logs(as_log([record(minute=i) for i in range(len(lons))]), path)
        lines = path.read_text().splitlines()
        lines[1:] = [line.replace(",20.000000,", f",{lon!r},") for line, lon in zip(lines[1:], lons)]
        path.write_text("\n".join(lines) + "\n")
        parsed = parse_logs([str(path)]).longitude_deg.tolist()
        assert parsed == [record(lon=lon).longitude_deg for lon in lons]
        assert parsed == [-180.0, -170.0, 169.5, -180.0, -180.0, -180.0, 179.5]

    def test_rows_are_not_built_from_columns_that_break_a_rule(self):
        log = LogColumns.from_records([record(minute=0), record(minute=1)])
        log.latitude_deg[1] = 91.0
        with pytest.raises(ValueError, match="row 1: latitude"):
            log.to_records()

    def test_row_access_matches_the_records(self, tmp_path):
        recs = [record(minute=i, alt=float(1000 * i), cnr=None if i == 2 else 8.5) for i in range(5)]
        path = tmp_path / "f.csv"
        save_logs(as_log(recs), path)
        log = parse_logs([str(path)])
        assert len(log) == 5
        assert list(log) == recs
        assert log[0] == recs[0] and log[-1] == recs[-1] and log[2].cnr_db is None
        assert log.take(log.altitude_m > 1500.0).to_records() == recs[2:]
        assert log.take([3, 1]).to_records() == [recs[3], recs[1]]
        for name in ("epoch_s", "flight_start_s", "latitude_deg", "satellite_id"):
            assert getattr(LogColumns.from_records(recs), name).tolist() == getattr(log, name).tolist()


@pytest.fixture
def tokyo_time(monkeypatch):
    """The host clock set to Asia/Tokyo (UTC+9) for the test."""
    monkeypatch.setenv("TZ", "Asia/Tokyo")
    time.tzset()
    yield
    monkeypatch.undo()
    time.tzset()


#: The text columns of a log, in CSV order.
TEXT_COLUMNS = ("flight_id", "tail_number", "airline_code", "departure_airport", "arrival_airport", "satellite_id")
#: Texts csv must quote (a comma, a quote, CR, LF) or must not (spaces,
#: non-ASCII, the empty string).
csv_texts = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "Z", "7", "é", "航"]), max_size=5)


def text_log(texts: dict) -> LogColumns:
    """A valid log of one minute per row with the given text columns."""
    n = len(texts["flight_id"])
    epoch_s = int(T0.timestamp()) + 60 * np.arange(n, dtype=np.int64)
    return LogColumns(
        epoch_s=epoch_s,
        flight_start_s=np.full(n, epoch_s[0] if n else 0),
        flight_end_s=np.full(n, epoch_s[-1] if n else 0),
        # Values that their formats write exactly, so they read back equal.
        latitude_deg=-45.5 + 10.25 * np.arange(n),
        longitude_deg=-179.75 + 60.5 * np.arange(n),
        altitude_m=1000.5 * np.arange(n),
        cnr_db=np.where(np.arange(n) % 3 == 1, math.nan, 8.125),
        **{name: np.array(texts[name], dtype=object) for name in TEXT_COLUMNS},
    )


def reference_save_logs(log: LogColumns, path) -> None:
    """The flight-log CSV as ``csv.writer`` writes it, one row at a time."""
    rows = zip(
        _format_utc(log.epoch_s),
        *(getattr(log, name).tolist() for name in TEXT_COLUMNS[:5]),
        _format_utc(log.flight_start_s),
        _format_utc(log.flight_end_s),
        [f"{v:.6f}" for v in log.latitude_deg.tolist()],
        [f"{v:.6f}" for v in log.longitude_deg.tolist()],
        [f"{v:.1f}" for v in log.altitude_m.tolist()],
        log.satellite_id.tolist(),
        ["" if math.isnan(v) else f"{v:.3f}" for v in log.cnr_db.tolist()],
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_CSV_COLUMNS)
        writer.writerows(rows)


class TestLogWriter:
    """``save_logs`` joins its rows as text; the bytes are those of
    ``csv.writer``, and a parse reads back the same columns."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 6).flatmap(
        lambda n: st.fixed_dictionaries({name: st.lists(csv_texts, min_size=n, max_size=n) for name in TEXT_COLUMNS})
    ))
    @example({
        "flight_id": ["F,1", "F,1"],
        "tail_number": ['Z"1', ""],
        "airline_code": ["", " "],
        "departure_airport": ["A\rB", "A\r\nB"],
        "arrival_airport": ["B\nA", '"'],
        "satellite_id": ["航 é", ","],
    })
    def test_bytes_of_csv_writer_and_read_back_equal(self, texts):
        log = text_log(texts)
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
            save_logs(log, got)
            reference_save_logs(log, want)
            assert got.read_bytes() == want.read_bytes()
            assert parse_logs([str(got)]) == log

    def test_empty_log_writes_only_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert save_logs(text_log({name: [] for name in TEXT_COLUMNS}), path) == []
        assert path.read_bytes() == (",".join(LOG_CSV_COLUMNS) + "\r\n").encode()

    def test_signed_zero_altitudes_keep_their_sign(self, tmp_path):
        log = as_log([record(minute=i, alt=alt) for i, alt in enumerate([0.0, -0.0, 0.0, -0.0, 5.25])])
        path = tmp_path / "zeros.csv"
        save_logs(log, path)
        rows = list(csv.reader(path.open(newline="")))[1:]
        assert [row[10] for row in rows] == ["0.0", "-0.0", "0.0", "-0.0", "5.2"]
        assert np.signbit(parse_logs([str(path)]).altitude_m).tolist() == [False, True, False, True, False]

    def test_nan_cnr_rows_are_written_as_empty_cells(self, tmp_path):
        log = as_log([record(minute=i, cnr=cnr) for i, cnr in enumerate([None, 8.5, None, 19.9996, 0.0])])
        path = tmp_path / "gaps.csv"
        cells = save_logs(log, path)
        assert cells == ["", "8.500", "", "20.000", "0.000"]
        assert [row[12] for row in csv.reader(path.open(newline=""))][1:] == cells

    def test_quoted_ids_round_trip_byte_for_byte(self, tmp_path):
        log = as_log([record(minute=i, flight_id='F,1 "x"', tail='Z-"1",b') for i in range(3)])
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        save_logs(log, first)
        assert '"F,1 ""x""","Z-""1"",b"' in first.read_text()
        save_logs(parse_logs([str(first)]), second)
        assert first.read_bytes() == second.read_bytes()

    def test_bad_number_cells_on_several_lines_are_all_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        save_logs(as_log([record(minute=i) for i in range(6)]), path)
        rows = list(csv.reader(path.open(newline="")))
        rows[1][8] = "north"  # latitude
        rows[2] = rows[2][:5]  # short row: the file is walked row by row
        rows[3][12] = "nan"  # cnr_db
        rows[4][8], rows[4][12] = "north", "x"  # a row reports its first bad column
        rows[5][10] = "high"  # altitude
        rows[6][9] = "east"  # longitude
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(LogParseError) as err:
            parse_logs([str(path)])
        assert [(line, message) for _, line, message in err.value.errors] == [
            (2, "could not convert string to float: 'north'"),
            (3, "expected 13 fields, got 5"),
            (4, "cnr_db out of [0, 20]: nan"),
            (5, "could not convert string to float: 'north'"),
            (6, "could not convert string to float: 'high'"),
            (7, "could not convert string to float: 'east'"),
        ]


class TestTimeRules:
    """Times carry a zone and whole seconds in every reader and in records."""

    def test_zoneless_time_is_a_bad_line_not_host_time(self, tmp_path, tokyo_time):
        path = tmp_path / "f.csv"
        save_logs(as_log([record(minute=0), record(minute=1)]), path)
        text = path.read_text()
        path.write_text(text.replace("2023-03-05T08:01:00Z", "2023-03-05T08:01:00", 1))
        with pytest.raises(LogParseError) as err:
            parse_logs([str(path)])
        assert [(line, "without Z" in message) for _, line, message in err.value.errors] == [(3, True)]
        with pytest.raises(ValueError, match="without Z"):
            _parse_utc("2023-03-01T00:00:00")

    def test_zoneless_weather_hour_is_a_bad_line(self, tmp_path, tokyo_time):
        path = tmp_path / "wx.csv"
        path.write_text(
            "hour_utc,grid_lat,grid_lon,precip_mmh,cloud_pct,temp_c,wind_mps\n"
            "2023-03-05T12:00:00Z,40.0,5.0,0.0,50.0,15.0,4.0\n"
            "2023-03-05T13:00:00,40.0,5.0,0.0,50.0,15.0,4.0\n"
        )
        with pytest.raises(WeatherCsvError) as err:
            load_weather_csv(path)
        assert [line for line, _ in err.value.errors] == [3]

    def test_file_with_zones_reads_the_same_under_any_host_zone(self, tmp_path, monkeypatch):
        path = tmp_path / "f.csv"
        save_logs(as_log([record(minute=i) for i in range(3)]), path)
        path.write_text(path.read_text().replace("T08:02:00Z", "T17:02:00+09:00"))
        columns = {}
        for zone in ("UTC", "Asia/Tokyo"):
            monkeypatch.setenv("TZ", zone)
            time.tzset()
            log = parse_logs([str(path)])
            columns[zone] = (log.epoch_s.tolist(), log.flight_start_s.tolist(), log.flight_end_s.tolist())
        monkeypatch.undo()
        time.tzset()
        assert columns["UTC"] == columns["Asia/Tokyo"]
        assert columns["UTC"][0] == [int(T0.timestamp()) + 60 * i for i in range(3)]

    def test_bad_time_is_reported_in_every_file_that_has_it(self, tmp_path):
        # Each distinct time text is parsed once for all files.
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            save_logs(as_log([record(minute=0), record(minute=1)]), path)
            path.write_text(path.read_text().replace("T08:01:00Z", "T08:01:00"))
        with pytest.raises(LogParseError) as err:
            parse_logs([str(p) for p in paths])
        assert [(path, line) for path, line, _ in err.value.errors] == [(str(paths[0]), 3), (str(paths[1]), 3)]

    def test_time_outside_utc_years_is_a_bad_line(self, tmp_path):
        path = tmp_path / "f.csv"
        save_logs(as_log([record(minute=0), record(minute=1)]), path)
        path.write_text(path.read_text().replace("2023-03-05T08:01:00Z", "9999-12-31T23:59:00-00:01"))
        with pytest.raises(LogParseError) as err:
            parse_logs([str(path)])
        assert [(line, "outside years 1-9999" in message) for _, line, message in err.value.errors] == [(3, True)]

    @pytest.mark.parametrize("column", [0, 6, 7])
    def test_sub_second_log_time_is_a_bad_line(self, tmp_path, column):
        path = tmp_path / "f.csv"
        save_logs(as_log([record(minute=1)]), path)
        header, row = path.read_text().splitlines()
        cells = row.split(",")
        cells[column] = cells[column].replace(":00Z", ":00.5Z")
        path.write_text(header + "\n" + ",".join(cells) + "\n")
        with pytest.raises(LogParseError, match="whole seconds"):
            parse_logs([str(path)])

    def test_sub_second_weather_hour_is_a_bad_line(self, tmp_path):
        path = tmp_path / "wx.csv"
        path.write_text(
            "hour_utc,grid_lat,grid_lon,precip_mmh,cloud_pct,temp_c,wind_mps\n"
            "2023-03-05T12:00:00.5Z,40.0,5.0,0.0,50.0,15.0,4.0\n"
        )
        with pytest.raises(WeatherCsvError, match="whole seconds"):
            load_weather_csv(path)

    @pytest.mark.parametrize("field", ["log_date", "flight_start_time", "flight_end_time"])
    def test_record_rejects_a_sub_second_time(self, field):
        good = record(minute=1)
        with pytest.raises(ValueError, match="whole seconds"):
            replace(good, **{field: getattr(good, field) + timedelta(microseconds=500_000)})


EDGE_LAT = [-90.0, 90.0, np.nextafter(-90.0, -91.0), np.nextafter(90.0, 91.0), math.nan]
EDGE_LON = [-180.0, 180.0, np.nextafter(-180.0, -181.0), np.nextafter(180.0, 181.0), 540.0, math.nan, math.inf]
EDGE_ALT = [0.0, -0.0, np.nextafter(0.0, -1.0), math.nan]
EDGE_BOUND_CNR = [0.0, 20.0, np.nextafter(0.0, -1.0), np.nextafter(20.0, 21.0)]


@st.composite
def log_rows(draw):
    """One row's fields: times on and off the minute, inside and outside the
    flight interval, and values at and just past every bound.  A missing CNR
    is None; NaN is how the column stores it, so NaN is not drawn for it."""
    offsets = st.sampled_from([0, 60, -60]) | st.integers(-90, 90)
    log_date = T0 + timedelta(seconds=draw(offsets))
    start = log_date - timedelta(seconds=draw(offsets))
    end = log_date + timedelta(seconds=draw(offsets))
    return dict(
        log_date=log_date,
        flight_start_time=start,
        flight_end_time=end,
        latitude_deg=float(draw(st.sampled_from(EDGE_LAT) | st.floats(-100.0, 100.0))),
        longitude_deg=float(draw(st.sampled_from(EDGE_LON) | st.floats(-400.0, 400.0))),
        altitude_m=float(draw(st.sampled_from(EDGE_ALT) | st.floats(-10.0, 15000.0))),
        cnr_db=draw(st.none() | st.sampled_from(EDGE_BOUND_CNR).map(float) | st.floats(-1.0, 21.0)),
    )


class TestValidatorsAgree:
    @settings(max_examples=400, deadline=None)
    @given(log_rows())
    def test_record_raises_iff_column_check_raises(self, row):
        try:
            FlightLogRecord(flight_id="F1", tail_number="Z-1", airline_code="ZZ", departure_airport="AAA",
                            arrival_airport="BBB", satellite_id="I5F1", **row)
            record_ok = True
        except ValueError:
            record_ok = False
        lon = row["longitude_deg"]
        column = lambda value, dtype=float: np.array([value], dtype=dtype)
        one_row = LogColumns(
            epoch_s=column(int(row["log_date"].timestamp()), np.int64),
            flight_id=column("F1", object),
            tail_number=column("Z-1", object),
            airline_code=column("ZZ", object),
            departure_airport=column("AAA", object),
            arrival_airport=column("BBB", object),
            flight_start_s=column(int(row["flight_start_time"].timestamp()), np.int64),
            flight_end_s=column(int(row["flight_end_time"].timestamp()), np.int64),
            latitude_deg=column(row["latitude_deg"]),
            # Wrapped as parse_logs wraps it; a record wraps it the same way.
            longitude_deg=column(normalize_lon(lon) if math.isfinite(lon) else lon),
            altitude_m=column(row["altitude_m"]),
            satellite_id=column("I5F1", object),
            cnr_db=column(math.nan if row["cnr_db"] is None else row["cnr_db"]),
        )
        try:
            _check_log(one_row)
            columns_ok = True
        except ValueError:
            columns_ok = False
        assert record_ok == columns_ok


#: One row per column rule: (record field, a value that breaks the rule,
#: its CSV column, a cell that breaks it, the rule's message).
RULE_CASES = [
    ("log_date", T0 + timedelta(seconds=90), 0, "2023-03-05T08:01:30Z", "log_date not minute-aligned"),
    ("log_date", T0 - timedelta(minutes=5), 0, "2023-03-05T07:55:00Z", "log_date outside the flight interval"),
    ("latitude_deg", 90.5, 8, "90.5", "latitude out of range"),
    ("longitude_deg", math.inf, 9, "inf", "longitude out of [-180, 180)"),
    ("altitude_m", -0.5, 10, "-0.5", "altitude must be >= 0"),
    ("cnr_db", 20.5, 12, "20.5", "cnr_db out of [0, 20]"),
]


class TestOneRuleSet:
    @pytest.mark.parametrize("field, value, column, cell, message", RULE_CASES)
    def test_record_and_csv_line_break_a_rule_with_one_message(self, tmp_path, field, value, column, cell, message):
        good = record(minute=1)
        with pytest.raises(ValueError) as built:
            replace(good, **{field: value})
        assert str(built.value) == f"flight F1 row 0: {message}"
        path = tmp_path / "f.csv"
        save_logs(as_log([good]), path)
        header, row = path.read_text().splitlines()
        cells = row.split(",")
        cells[column] = cell
        path.write_text(header + "\n" + ",".join(cells) + "\n")
        with pytest.raises(LogParseError) as parsed:
            parse_logs([str(path)])
        assert parsed.value.errors == [(str(path), 2, message)]

    def test_record_holds_the_values_of_its_row(self):
        tokyo = timezone(timedelta(hours=9))
        rec = replace(record(minute=1, lon=200.0), log_date=(T0 + timedelta(minutes=1)).astimezone(tokyo))
        assert rec.log_date.tzinfo is timezone.utc
        assert rec.longitude_deg == normalize_lon(200.0) == -160.0
        assert LogColumns.from_records([rec]).to_records() == [rec]


class TestLogColumnsEquality:
    def log(self):
        return LogColumns.from_records([record(minute=0), record(minute=1, cnr=None), record(minute=2, lon=-170.0)])

    def test_equals_a_take_of_all_its_rows(self):
        log = self.log()
        assert np.isnan(log.cnr_db[1])
        assert log == log.take(np.arange(len(log)))
        assert not log != log.take(np.arange(len(log)))

    @pytest.mark.parametrize("column", [f.name for f in fields(LogColumns)])
    @pytest.mark.parametrize("row", [0, 1])
    def test_one_differing_cell_makes_them_unequal(self, column, row):
        log = self.log()
        other = log.take(np.arange(len(log)))
        values = getattr(other, column)
        values[row] = "other" if values.dtype == object else values[row] + 60 if column.endswith("_s") else 5.0
        assert getattr(log, column)[row] != values[row]
        assert log != other and other != log

    def test_other_types_are_not_compared(self):
        log = self.log()
        assert log.__eq__(log.to_records()) is NotImplemented
        assert log != log.to_records()


class TestFilterAltitude:
    def recs(self):
        return [record(minute=i, alt=a) for i, a in enumerate([500, 2999, 3000, 4500, 6000, 6001, 11000])]

    def test_strict_bounds(self):
        log = as_log(self.recs())
        assert filter_altitude(log, min_m=6000).altitude_m.tolist() == [6001, 11000]
        assert filter_altitude(log, max_m=3000).altitude_m.tolist() == [500, 2999]
        assert filter_altitude(log, 3000, 6000).altitude_m.tolist() == [4500]

    def test_cruise_only_flight_kept_entirely(self):
        log = as_log([record(minute=i, alt=11000.0) for i in range(10)])
        assert filter_altitude(log, min_m=6000) == log

    def test_partition_arithmetic(self):
        recs = self.recs()
        high = len(filter_altitude(as_log(recs), min_m=6000))
        low = len(filter_altitude(as_log(recs), max_m=3000))
        middle = len([r for r in recs if 3000 <= r.altitude_m <= 6000])
        assert high + low + middle == len(recs)

    def test_composition_equals_max_of_mins(self):
        rng = np.random.default_rng(0)
        log = as_log([record(minute=i, alt=float(a)) for i, a in enumerate(rng.uniform(0, 12000, 200))])
        twice = filter_altitude(filter_altitude(log, min_m=2000), min_m=5000)
        assert twice == filter_altitude(log, min_m=5000)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            filter_altitude(as_log([]), min_m=5000, max_m=1000)


class TestTopRoutes:
    def test_single_route_corpus(self):
        log = as_log([record(minute=i) for i in range(4)])
        keys, kept = top_routes(log, 5)
        assert keys == [("AAA", "BBB")]
        assert kept == log

    def test_tie_breaks_lexicographically(self):
        recs = [record(minute=i, dep="CCC", arr="DDD", flight_id="F2") for i in range(3)]
        recs += [record(minute=i, dep="AAA", arr="BBB") for i in range(3)]
        keys, _ = top_routes(as_log(recs), 1)
        assert keys == [("AAA", "BBB")]

    def test_matches_count_sort_oracle(self):
        rng = np.random.default_rng(4)
        airports = ["AAA", "BBB", "CCC", "DDD"]
        recs = []
        for i in range(300):
            dep, arr = rng.choice(airports, size=2, replace=False)
            recs.append(record(minute=i % 500, dep=str(dep), arr=str(arr), flight_id=f"F{i}"))
        keys, kept = top_routes(as_log(recs), 3)
        counts = {}
        for r in recs:
            counts[(r.departure_airport, r.arrival_airport)] = counts.get(
                (r.departure_airport, r.arrival_airport), 0
            ) + 1
        oracle = sorted(counts, key=lambda k: (-counts[k], k))[:3]
        assert keys == oracle
        assert len(kept) == sum(counts[k] for k in oracle)

    def test_k_at_least_route_count_returns_input(self):
        log = as_log([record(minute=i, dep=d, arr=a, flight_id=f"F{i}") for i, (d, a) in enumerate([("AAA", "BBB"), ("CCC", "DDD")])])
        _, kept = top_routes(log, 10)
        assert kept == log

    def test_record_set_shrinks_as_k_decreases(self):
        recs = [record(minute=i, dep=d, arr="XXX", flight_id=f"F{i}") for i, d in enumerate(["AAA"] * 5 + ["BBB"] * 3 + ["CCC"] * 2)]
        sizes = [len(top_routes(as_log(recs), k)[1]) for k in (3, 2, 1)]
        assert sizes == sorted(sizes, reverse=True)


class TestJoinWeather:
    def field(self):
        return synth_weather_field(
            (9.0, 11.0, 19.0, 21.0),
            (T0.replace(minute=0), T0.replace(minute=0) + timedelta(hours=4)),
            25.0,
            3,
        )

    def test_exact_hit_attaches_cell_values(self):
        field = self.field()
        rec = record(minute=0, lat=10.0, lon=20.0)
        result = join_weather(as_log([rec]), field)
        assert result.report.attached == 1
        cell = field.cell_at(rec.log_date, rec.position)
        assert (cell.grid_lat_deg, cell.grid_lon_deg) == (10.0, 20.0)
        assert result.cells.tolist() == [list(cell.values)]

    def test_empty_input_is_empty_success(self):
        result = join_weather(as_log([]), self.field())
        assert len(result.records) == 0 and result.cells.shape == (0, 4)
        assert result.report.total == 0

    def test_matches_brute_force_oracle(self):
        from test_weather import brute_force_nearest

        field = self.field()
        rng = np.random.default_rng(12)
        recs = [
            record(
                minute=int(rng.integers(0, 200)),
                flight_id=f"F{i}",
                lat=float(rng.uniform(9.0, 10.9)),
                lon=float(rng.uniform(19.0, 20.9)),
            )
            for i in range(200)
        ]
        result = join_weather(as_log(recs), field)
        assert result.report.dropped == 0
        for rec, values in zip(result.records, result.cells.tolist()):
            assert values == list(brute_force_nearest(field, rec.log_date, rec.position).values)

    def test_small_gap_fraction_dropped_and_counted(self):
        field = self.field()
        recs = [record(minute=i, flight_id=f"F{i}") for i in range(19)]
        recs.append(record(minute=19, flight_id="F19", lat=50.0))  # 5% outside
        result = join_weather(as_log(recs), field)
        assert result.report.dropped == 1
        assert len(result.records) == 19
        assert result.cells.shape == (19, 4) and not np.isnan(result.cells).any()

    def test_large_gap_fraction_is_an_error(self):
        field = self.field()
        recs = [record(minute=i, flight_id=f"F{i}", lat=50.0) for i in range(10)]
        with pytest.raises(JoinCoverageError):
            join_weather(as_log(recs), field)

    def test_join_does_not_alter_records(self):
        field = self.field()
        rec = record()
        result = join_weather(as_log([rec]), field)
        assert result.records[0] == rec


class TestEncodeFeatures:
    def test_start_of_flight_fraction_zero_and_passthrough(self):
        rec = record(minute=0, lat=12.5, lon=-30.0, alt=9000.0)
        matrix, vocab = encode_features(as_log([rec]))
        cols = dict(zip(matrix.columns, matrix.X[0]))
        assert cols["flight_fraction"] == 0.0
        assert cols["latitude"] == 12.5
        assert cols["longitude"] == -30.0
        assert cols["altitude_m"] == 9000.0
        assert cols["minute_of_day"] == 8 * 60
        assert matrix.y[0] == int(CnrCategory.WEAK)
        assert matrix.y_cnr_db[0] == 8.5
        assert vocab.encode("departure_airport", "AAA") == 1

    def test_unseen_token_maps_to_unknown_id(self):
        matrix, vocab = encode_features(as_log([record()]))
        other = record(dep="ZZZ")
        pred, _ = encode_features(as_log([other]), vocab=vocab, for_prediction=True)
        dep_col = matrix.columns.index("departure_airport")
        assert pred.X[0, dep_col] == 0.0
        assert pred.y is None

    def test_vocab_reapplication_is_idempotent(self):
        recs = [record(minute=i, flight_id=f"F{i%3}", dep=d) for i, d in enumerate(["AAA", "CCC", "AAA", "BBB"])]
        m1, vocab = encode_features(as_log(recs))
        m2, _ = encode_features(as_log(recs), vocab=vocab)
        assert np.array_equal(m1.X, m2.X)
        assert m1.schema_hash == m2.schema_hash

    def test_prediction_mode_requires_vocab(self):
        with pytest.raises(ValueError, match="vocabulary"):
            encode_features(as_log([record()]), for_prediction=True)

    def test_training_mode_rejects_unlabeled_rows(self):
        with pytest.raises(ValueError, match="without CNR"):
            encode_features(as_log([record(cnr=None)]))

    def test_weather_columns_appended_only_with_cells(self):
        provider = SyntheticWeather(0.0, 1)
        rec = record(alt=2000.0)
        values = provider.cell_at(rec.log_date, rec.position).values
        with_wx, _ = encode_features(as_log([rec]), cells=[values])
        without, _ = encode_features(as_log([rec]))
        assert "precip_mmh" in with_wx.columns and "precip_mmh" not in without.columns
        assert with_wx.schema_hash != without.schema_hash
        with pytest.raises(ValueError, match="cells"):
            encode_features(as_log([rec, rec]), cells=[values])

    def test_a_gap_row_is_never_encoded(self):
        rec = record(alt=2000.0)
        with pytest.raises(ValueError, match="gap"):
            encode_features(as_log([rec, rec]), cells=[[0.0, 50.0, 15.0, 4.0], [math.nan] * 4])


def reference_encode_features(records, vocab=None, cells=None, for_prediction=False):
    """Row-at-a-time feature encoding; the reference for the column-wise
    ``encode_features``."""
    if vocab is None:
        vocab = Vocabulary.build(as_log(records))
    columns = list(NUMERIC_COLUMNS) + (WEATHER_COLUMNS if cells is not None else []) + CATEGORICAL_COLUMNS
    X = np.empty((len(records), len(columns)), dtype=np.float64)
    for i, r in enumerate(records):
        duration_s = (r.flight_end_time - r.flight_start_time).total_seconds()
        fraction = (
            (r.log_date - r.flight_start_time).total_seconds() / duration_s if duration_s > 0 else 0.0
        )
        row = [
            r.latitude_deg,
            r.longitude_deg,
            r.altitude_m,
            float(r.log_date.hour * 60 + r.log_date.minute),
            float(r.log_date.timetuple().tm_yday),
            fraction,
        ]
        if cells is not None:
            row += list(cells[i])
        row += [float(vocab.encode(col, getattr(r, col))) for col in CATEGORICAL_COLUMNS]
        X[i] = row
    if for_prediction:
        y = y_cnr = None
    else:
        y = np.array([int(bin_cnr(r.cnr_db)) for r in records], dtype=np.int8)
        y_cnr = np.array([r.cnr_db for r in records], dtype=np.float64)
    flight_ids = np.array([r.flight_id for r in records], dtype=object)
    return FeatureMatrix(tuple(columns), X, y, y_cnr, flight_ids, vocab)


#: Log dates around a leap day, a year boundary, midnight and the epoch.
ENCODE_DATES = [
    datetime(2024, 2, 28, 23, 58, tzinfo=timezone.utc),
    datetime(2023, 12, 31, 23, 59, tzinfo=timezone.utc),
    datetime(2024, 12, 31, 23, 59, tzinfo=timezone.utc),
    datetime(1969, 12, 31, 23, 58, tzinfo=timezone.utc),
    datetime(2023, 3, 5, 8, 0, tzinfo=timezone.utc),
]
EDGE_CNR = [e for edge in CATEGORY_EDGES_DB for e in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 20.0))]


@st.composite
def encode_cases(draw):
    """Records (some of zero-duration flights or with flight times off the
    minute), optional weather cells, and whether to encode with a
    vocabulary built from only part of them, so that unseen tokens occur."""
    n = draw(st.integers(0, 12))
    tokens = st.sampled_from(["AAA", "BBB", "CCC"])
    off_minute = st.integers(0, 10**5).filter(lambda s: s % 60)
    records, cells = [], []
    for i in range(n):
        log_date = draw(st.sampled_from(ENCODE_DATES)) + timedelta(minutes=draw(st.integers(0, 3)))
        before, after = draw(st.sampled_from([
            (timedelta(0), timedelta(0)),
            (timedelta(minutes=draw(st.integers(0, 900))), timedelta(minutes=draw(st.integers(0, 900)))),
            (timedelta(seconds=draw(off_minute)), timedelta(seconds=draw(off_minute))),
        ]))
        records.append(FlightLogRecord(
            log_date=log_date,
            flight_id=f"F{draw(st.integers(0, 3))}",
            tail_number=draw(tokens),
            airline_code=draw(tokens),
            departure_airport=draw(tokens),
            arrival_airport=draw(tokens),
            flight_start_time=log_date - before,
            flight_end_time=log_date + after,
            latitude_deg=draw(st.floats(-90.0, 90.0)),
            longitude_deg=draw(st.floats(-180.0, 180.0)),
            altitude_m=draw(st.floats(0.0, 13000.0)),
            satellite_id=draw(tokens),
            cnr_db=draw(st.one_of(st.sampled_from(EDGE_CNR + [0.0, 20.0]), st.floats(0.0, 20.0))),
        ))
        cells.append((
            draw(st.floats(0.0, 50.0)),
            draw(st.floats(0.0, 100.0)),
            draw(st.floats(-60.0, 45.0)),
            draw(st.floats(0.0, 60.0)),
        ))
    vocab = Vocabulary.build(as_log(records[: draw(st.integers(0, n))])) if draw(st.booleans()) else None
    cells = np.array(cells, dtype=float).reshape(-1, 4)
    return records, vocab, cells if draw(st.booleans()) else None, draw(st.booleans())


def assert_same_matrix(got, want):
    assert got.columns == want.columns
    assert got.X.tobytes() == want.X.tobytes()
    for name in ("y", "y_cnr_db"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None and b is None) or (a.dtype == b.dtype and a.tobytes() == b.tobytes())
    assert got.flight_ids.tolist() == want.flight_ids.tolist()
    assert got.vocab == want.vocab


class TestEncodeMatchesRowReference:
    @settings(max_examples=200, deadline=None)
    @given(encode_cases())
    def test_column_wise_encoder_is_bit_equal(self, case):
        records, vocab, cells, for_prediction = case
        if for_prediction and vocab is None:
            vocab = Vocabulary.build(as_log(records))
        got, _ = encode_features(as_log(records), vocab=vocab, cells=cells, for_prediction=for_prediction)
        assert_same_matrix(got, reference_encode_features(records, vocab, cells, for_prediction))

    def test_corpus_rows_are_bit_equal(self, small_corpus):
        records = labeled(load_records(small_corpus["dir"]))
        got, vocab = encode_features(records)
        assert_same_matrix(got, reference_encode_features(records))
        low = records.take(np.flatnonzero(records.altitude_m < 3000.0)[:500])
        provider = SyntheticWeather(6.0, 13)
        cells = [provider.cell_at(r.log_date, r.position).values for r in low]
        got, _ = encode_features(low, vocab=vocab, cells=cells, for_prediction=True)
        assert_same_matrix(got, reference_encode_features(low, vocab, cells, True))

    def test_labels_match_bin_cnr_at_and_next_to_every_edge(self):
        records = [record(minute=i, cnr=float(v)) for i, v in enumerate(EDGE_CNR)]
        matrix, _ = encode_features(as_log(records))
        assert matrix.y.tolist() == [int(bin_cnr(float(v))) for v in EDGE_CNR]
        assert matrix.y.tolist() == [0, 1, 1, 1, 2, 2, 2, 3, 3]


class TestSplitByFlight:
    def small(self):
        recs = [record(minute=i, flight_id="FA") for i in range(10)]
        recs += [record(minute=i, flight_id="FB") for i in range(7)]
        matrix, _ = encode_features(as_log(recs))
        return matrix

    def test_two_flights_split_one_each(self):
        train, test = split_by_flight(self.small(), 0.5, seed=0)
        assert {*train.flight_ids} | {*test.flight_ids} == {"FA", "FB"}
        assert len({*train.flight_ids}) == len({*test.flight_ids}) == 1

    def test_no_flight_straddles_the_split(self):
        fids = [f"F{i:03d}" for i in range(40)]
        rng = np.random.default_rng(2)
        rows = [fid for fid in fids for _ in range(int(rng.integers(3, 30)))]
        matrix = make_matrix(np.zeros((len(rows), 2)), y=[0, 1] * (len(rows) // 2), flight_ids=rows)
        train, test = split_by_flight(matrix, 0.25, seed=9)
        assert set(train.flight_ids) & set(test.flight_ids) == set()
        assert train.n_rows + test.n_rows == matrix.n_rows

    def test_deterministic_partition(self):
        matrix = self.small()
        a = split_by_flight(matrix, 0.3, seed=5)
        b = split_by_flight(matrix, 0.3, seed=5)
        assert set(a[1].flight_ids) == set(b[1].flight_ids)
        c = split_by_flight(matrix, 0.3, seed=6)
        assert set(a[1].flight_ids) != set(c[1].flight_ids) or True  # may coincide for 2 flights

    def test_row_fraction_near_target_on_many_flights(self):
        rng = np.random.default_rng(3)
        rows = [f"F{i:03d}" for i in range(200) for _ in range(int(rng.integers(40, 80)))]
        matrix = make_matrix(np.zeros((len(rows), 1)), y=[0] * len(rows), flight_ids=rows)
        _, test = split_by_flight(matrix, 0.2, seed=11)
        realized = test.n_rows / matrix.n_rows
        assert abs(realized - 0.2) <= 0.05

    def test_fewer_than_two_flights_rejected(self):
        recs = [record(minute=i) for i in range(5)]
        matrix, _ = encode_features(as_log(recs))
        with pytest.raises(ValueError, match="2 flights"):
            split_by_flight(matrix, 0.5, seed=0)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            split_by_flight(self.small(), 1.0, seed=0)


class TestLabeledHelper:
    def test_filters_missing_cnr(self):
        log = as_log([record(minute=0), record(minute=1, cnr=None)])
        assert labeled(log) == log.take([0])


class TestVocabulary:
    def test_sorted_ids_start_at_one(self):
        recs = [record(dep=d, minute=i, flight_id=f"F{i}") for i, d in enumerate(["CCC", "AAA", "BBB", "AAA"])]
        vocab = Vocabulary.build(as_log(recs))
        assert vocab.mappings["departure_airport"] == {"AAA": 1, "BBB": 2, "CCC": 3}

    def test_json_round_trip(self):
        vocab = Vocabulary.build(as_log([record()]))
        again = Vocabulary.from_jsonable(vocab.to_jsonable())
        assert again == vocab
