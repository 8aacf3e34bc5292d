import math
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satlink.cli import load_records
from satlink.flightsim import DEFAULT_LINK_PARAMS, demo_route_plans, demo_satellites, generate_flight
from satlink.geometry import GeoPosition, haversine_m
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
    LogParseError,
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
from satlink.weather import SyntheticWeather, WeatherCell, synth_weather_field

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
        records = generate_flight(
            plans[0].route, demo_satellites(), None, DEFAULT_LINK_PARAMS, 42, T0, "F0"
        )
        first = tmp_path / "f0.csv"
        save_logs(records, first)
        parsed = parse_logs([str(first)])
        assert len(parsed) == len(records)
        second = tmp_path / "f0_again.csv"
        save_logs(parsed, second)
        assert first.read_bytes() == second.read_bytes()

    def test_header_only_file_is_empty_success(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(LOG_CSV_COLUMNS) + "\n")
        assert parse_logs([str(path)]) == []

    def test_empty_cnr_cell_parses_as_missing(self, tmp_path):
        path = tmp_path / "gap.csv"
        save_logs([record(cnr=None)], path)
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
        save_logs([good, good], path)
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
        with pytest.raises(ValueError, match="outside flight interval"):
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
        save_logs(rows, path)
        assert path.read_text().splitlines()[1].startswith("0999-12-31T23:00:00Z,F1,")
        assert parse_logs([str(path)]) == rows


class TestFilterAltitude:
    def recs(self):
        return [record(minute=i, alt=a) for i, a in enumerate([500, 2999, 3000, 4500, 6000, 6001, 11000])]

    def test_strict_bounds(self):
        recs = self.recs()
        assert [r.altitude_m for r in filter_altitude(recs, min_m=6000)] == [6001, 11000]
        assert [r.altitude_m for r in filter_altitude(recs, max_m=3000)] == [500, 2999]
        assert [r.altitude_m for r in filter_altitude(recs, 3000, 6000)] == [4500]

    def test_cruise_only_flight_kept_entirely(self):
        recs = [record(minute=i, alt=11000.0) for i in range(10)]
        assert filter_altitude(recs, min_m=6000) == recs

    def test_partition_arithmetic(self):
        recs = self.recs()
        high = len(filter_altitude(recs, min_m=6000))
        low = len(filter_altitude(recs, max_m=3000))
        middle = len([r for r in recs if 3000 <= r.altitude_m <= 6000])
        assert high + low + middle == len(recs)

    def test_composition_equals_max_of_mins(self):
        rng = np.random.default_rng(0)
        recs = [record(minute=i, alt=float(a)) for i, a in enumerate(rng.uniform(0, 12000, 200))]
        twice = filter_altitude(filter_altitude(recs, min_m=2000), min_m=5000)
        assert twice == filter_altitude(recs, min_m=5000)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            filter_altitude([], min_m=5000, max_m=1000)


class TestTopRoutes:
    def test_single_route_corpus(self):
        recs = [record(minute=i) for i in range(4)]
        keys, kept = top_routes(recs, 5)
        assert keys == [("AAA", "BBB")]
        assert kept == recs

    def test_tie_breaks_lexicographically(self):
        recs = [record(minute=i, dep="CCC", arr="DDD", flight_id="F2") for i in range(3)]
        recs += [record(minute=i, dep="AAA", arr="BBB") for i in range(3)]
        keys, _ = top_routes(recs, 1)
        assert keys == [("AAA", "BBB")]

    def test_matches_count_sort_oracle(self):
        rng = np.random.default_rng(4)
        airports = ["AAA", "BBB", "CCC", "DDD"]
        recs = []
        for i in range(300):
            dep, arr = rng.choice(airports, size=2, replace=False)
            recs.append(record(minute=i % 500, dep=str(dep), arr=str(arr), flight_id=f"F{i}"))
        keys, kept = top_routes(recs, 3)
        counts = {}
        for r in recs:
            counts[(r.departure_airport, r.arrival_airport)] = counts.get(
                (r.departure_airport, r.arrival_airport), 0
            ) + 1
        oracle = sorted(counts, key=lambda k: (-counts[k], k))[:3]
        assert keys == oracle
        assert len(kept) == sum(counts[k] for k in oracle)

    def test_k_at_least_route_count_returns_input(self):
        recs = [record(minute=i, dep=d, arr=a, flight_id=f"F{i}") for i, (d, a) in enumerate([("AAA", "BBB"), ("CCC", "DDD")])]
        _, kept = top_routes(recs, 10)
        assert kept == recs

    def test_record_set_shrinks_as_k_decreases(self):
        recs = [record(minute=i, dep=d, arr="XXX", flight_id=f"F{i}") for i, d in enumerate(["AAA"] * 5 + ["BBB"] * 3 + ["CCC"] * 2)]
        sizes = [len(top_routes(recs, k)[1]) for k in (3, 2, 1)]
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
        result = join_weather([rec], field)
        assert result.report.attached == 1
        cell = result.cells[0]
        assert (cell.grid_lat_deg, cell.grid_lon_deg) == (10.0, 20.0)
        assert cell == field.lookup_nearest(rec.log_date, rec.position)

    def test_empty_input_is_empty_success(self):
        result = join_weather([], self.field())
        assert result.records == [] and result.cells == []
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
        result = join_weather(recs, field)
        assert result.report.dropped == 0
        for rec, cell in zip(result.records, result.cells):
            assert cell == brute_force_nearest(field, rec.log_date, rec.position)

    def test_small_gap_fraction_dropped_and_counted(self):
        field = self.field()
        recs = [record(minute=i, flight_id=f"F{i}") for i in range(19)]
        recs.append(record(minute=19, flight_id="F19", lat=50.0))  # 5% outside
        result = join_weather(recs, field)
        assert result.report.dropped == 1
        assert len(result.records) == 19

    def test_large_gap_fraction_is_an_error(self):
        field = self.field()
        recs = [record(minute=i, flight_id=f"F{i}", lat=50.0) for i in range(10)]
        with pytest.raises(JoinCoverageError):
            join_weather(recs, field)

    def test_join_does_not_alter_records(self):
        field = self.field()
        rec = record()
        result = join_weather([rec], field)
        assert result.records[0] is rec


class TestEncodeFeatures:
    def test_start_of_flight_fraction_zero_and_passthrough(self):
        rec = record(minute=0, lat=12.5, lon=-30.0, alt=9000.0)
        matrix, vocab = encode_features([rec])
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
        matrix, vocab = encode_features([record()])
        other = record(dep="ZZZ")
        pred, _ = encode_features([other], vocab=vocab, for_prediction=True)
        dep_col = matrix.columns.index("departure_airport")
        assert pred.X[0, dep_col] == 0.0
        assert pred.y is None

    def test_vocab_reapplication_is_idempotent(self):
        recs = [record(minute=i, flight_id=f"F{i%3}", dep=d) for i, d in enumerate(["AAA", "CCC", "AAA", "BBB"])]
        m1, vocab = encode_features(recs)
        m2, _ = encode_features(recs, vocab=vocab)
        assert np.array_equal(m1.X, m2.X)
        assert m1.schema_hash == m2.schema_hash

    def test_prediction_mode_requires_vocab(self):
        with pytest.raises(ValueError, match="vocabulary"):
            encode_features([record()], for_prediction=True)

    def test_training_mode_rejects_unlabeled_rows(self):
        with pytest.raises(ValueError, match="without CNR"):
            encode_features([record(cnr=None)])

    def test_weather_columns_appended_only_with_cells(self):
        provider = SyntheticWeather(0.0, 1)
        rec = record(alt=2000.0)
        cell = provider.cell_at(rec.log_date, rec.position)
        with_wx, _ = encode_features([rec], cells=[cell])
        without, _ = encode_features([rec])
        assert "precip_mmh" in with_wx.columns and "precip_mmh" not in without.columns
        assert with_wx.schema_hash != without.schema_hash
        with pytest.raises(ValueError, match="cells"):
            encode_features([rec, rec], cells=[cell])


def reference_encode_features(records, vocab=None, cells=None, for_prediction=False):
    """Row-at-a-time feature encoding; the reference for the column-wise
    ``encode_features``."""
    if vocab is None:
        vocab = Vocabulary.build(records)
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
            c = cells[i]
            row += [c.precipitation_mmh, c.cloud_cover_pct, c.temperature_c, c.wind_speed_mps]
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
    """Records (some of zero-duration or sub-second flights), optional
    weather cells, and whether to encode with a vocabulary built from only
    part of them, so that unseen tokens occur."""
    n = draw(st.integers(0, 12))
    tokens = st.sampled_from(["AAA", "BBB", "CCC"])
    records, cells = [], []
    for i in range(n):
        log_date = draw(st.sampled_from(ENCODE_DATES)) + timedelta(minutes=draw(st.integers(0, 3)))
        before, after = draw(st.sampled_from([
            (timedelta(0), timedelta(0)),
            (timedelta(minutes=draw(st.integers(0, 900))), timedelta(minutes=draw(st.integers(0, 900)))),
            (timedelta(seconds=draw(st.floats(0.0, 1e5))), timedelta(seconds=draw(st.floats(0.0, 1e5)))),
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
        cells.append(WeatherCell(
            hour_utc=log_date.replace(minute=0),
            grid_lat_deg=0.1 * draw(st.integers(-900, 900)),
            grid_lon_deg=0.1 * draw(st.integers(-1799, 1800)),
            precipitation_mmh=draw(st.floats(0.0, 50.0)),
            cloud_cover_pct=draw(st.floats(0.0, 100.0)),
            temperature_c=draw(st.floats(-60.0, 45.0)),
            wind_speed_mps=draw(st.floats(0.0, 60.0)),
        ))
    vocab = Vocabulary.build(records[: draw(st.integers(0, n))]) if draw(st.booleans()) else None
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
            vocab = Vocabulary.build(records)
        got, _ = encode_features(records, vocab=vocab, cells=cells, for_prediction=for_prediction)
        assert_same_matrix(got, reference_encode_features(records, vocab, cells, for_prediction))

    def test_corpus_rows_are_bit_equal(self, small_corpus):
        records = labeled(load_records(small_corpus["dir"]))
        got, vocab = encode_features(records)
        assert_same_matrix(got, reference_encode_features(records))
        low = [r for r in records if r.altitude_m < 3000.0][:500]
        provider = SyntheticWeather(6.0, 13)
        cells = [provider.cell_at(r.log_date, r.position) for r in low]
        got, _ = encode_features(low, vocab=vocab, cells=cells, for_prediction=True)
        assert_same_matrix(got, reference_encode_features(low, vocab, cells, True))

    def test_labels_match_bin_cnr_at_and_next_to_every_edge(self):
        records = [record(minute=i, cnr=float(v)) for i, v in enumerate(EDGE_CNR)]
        matrix, _ = encode_features(records)
        assert matrix.y.tolist() == [int(bin_cnr(float(v))) for v in EDGE_CNR]
        assert matrix.y.tolist() == [0, 1, 1, 1, 2, 2, 2, 3, 3]


class TestSplitByFlight:
    def small(self):
        recs = [record(minute=i, flight_id="FA") for i in range(10)]
        recs += [record(minute=i, flight_id="FB") for i in range(7)]
        matrix, _ = encode_features(recs)
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
        matrix, _ = encode_features(recs)
        with pytest.raises(ValueError, match="2 flights"):
            split_by_flight(matrix, 0.5, seed=0)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            split_by_flight(self.small(), 1.0, seed=0)


class TestLabeledHelper:
    def test_filters_missing_cnr(self):
        recs = [record(minute=0), record(minute=1, cnr=None)]
        assert labeled(recs) == [recs[0]]


class TestVocabulary:
    def test_sorted_ids_start_at_one(self):
        recs = [record(dep=d, minute=i, flight_id=f"F{i}") for i, d in enumerate(["CCC", "AAA", "BBB", "AAA"])]
        vocab = Vocabulary.build(recs)
        assert vocab.mappings["departure_airport"] == {"AAA": 1, "BBB": 2, "CCC": 3}

    def test_json_round_trip(self):
        vocab = Vocabulary.build([record()])
        again = Vocabulary.from_jsonable(vocab.to_jsonable())
        assert again == vocab
