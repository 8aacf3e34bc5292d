"""Flight-log ingestion: parsing, CNR categories, stratification, weather
join, and leakage-free feature encoding.

The log schema is 13 CSV columns; 12 of them (everything except the
``flight_id`` provenance token) form the modeling schema, with ``cnr_db``
as the target.  An empty ``cnr_db`` cell marks a minute where no downlink
measurement exists; such rows are parsed and kept for gap statistics but
never labeled.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass, fields
from datetime import datetime, timedelta
from enum import IntEnum
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .geometry import GeoPosition, normalize_lon
from .weather import _EPOCH, _SECOND, WeatherProvider, _format_utc, _parse_utc, _utc_seconds


class CnrCategory(IntEnum):
    """Ordered link-quality categories, worst first."""

    BAD = 0
    WEAK = 1
    MEDIUM = 2
    GOOD = 3

    @property
    def label(self) -> str:
        return self.name.capitalize()


#: Lower edges of WEAK, MEDIUM and GOOD, in dB.  Lower bounds inclusive.
CATEGORY_EDGES_DB = (6.0, 10.0, 15.0)


def bin_cnr(cnr_db: float) -> CnrCategory:
    """Map a CNR measurement in dB to its category.

    Bad below 6 dB, Weak in [6, 10), Medium in [10, 15), Good at and above
    15 dB.  Raises ``ValueError`` for non-finite input.
    """
    if not math.isfinite(cnr_db):
        raise ValueError(f"cnr_db must be finite, got {cnr_db}")
    if cnr_db < CATEGORY_EDGES_DB[0]:
        return CnrCategory.BAD
    if cnr_db < CATEGORY_EDGES_DB[1]:
        return CnrCategory.WEAK
    if cnr_db < CATEGORY_EDGES_DB[2]:
        return CnrCategory.MEDIUM
    return CnrCategory.GOOD


LOG_CSV_COLUMNS = [
    "log_date",
    "flight_id",
    "tail_number",
    "airline_code",
    "departure_airport",
    "arrival_airport",
    "flight_start",
    "flight_end",
    "latitude",
    "longitude",
    "altitude_m",
    "satellite_id",
    "cnr_db",
]

@dataclass(frozen=True)
class FlightLogRecord:
    """One minute-resolution log row."""

    log_date: datetime
    flight_id: str
    tail_number: str
    airline_code: str
    departure_airport: str
    arrival_airport: str
    flight_start_time: datetime
    flight_end_time: datetime
    latitude_deg: float
    longitude_deg: float
    altitude_m: float
    satellite_id: str
    cnr_db: Optional[float] = None

    def __post_init__(self) -> None:
        """A record built by hand is one row of :class:`LogColumns`: it keeps
        the column rules and holds the values its row holds (UTC times, a
        wrapped longitude).  Columns keep whole seconds only, so a time
        with a fraction is rejected here rather than dropped."""
        for name in ("log_date", "flight_start_time", "flight_end_time"):
            t = getattr(self, name)
            if t.microsecond:
                raise ValueError(f"{name} not in whole seconds: {t.isoformat()}")
        log = LogColumns.from_records([self])
        _wrap_lon(log.longitude_deg)
        (row,) = log.to_records()
        self.__dict__.update(row.__dict__)

    @property
    def position(self) -> GeoPosition:
        return GeoPosition(self.latitude_deg, self.longitude_deg, self.altitude_m)

    @property
    def category(self) -> Optional[CnrCategory]:
        return None if self.cnr_db is None else bin_cnr(self.cnr_db)


class LogParseError(ValueError):
    """A flight-log CSV failed to parse; ``errors`` lists (path, line, message)."""

    def __init__(self, errors: list[tuple[str, int, str]]):
        self.errors = errors
        detail = "; ".join(f"{p}:{ln}: {msg}" for p, ln, msg in errors[:10])
        more = "" if len(errors) <= 10 else f" (+{len(errors) - 10} more)"
        super().__init__(f"{len(errors)} bad log rows: {detail}{more}")


#: Positions of the time and number columns, the same in the CSV and both row types.
_TIME_INDEX = (0, 6, 7)
_NUMBER_INDEX = (8, 9, 10, 12)


@dataclass(frozen=True, eq=False)
class LogColumns:
    """Flight-log rows as columns, one entry per row, in CSV column order.

    Times are whole UTC epoch seconds (int64), text columns object arrays,
    and a missing CNR is NaN.  Indexing with an int and iterating yield
    :class:`FlightLogRecord` rows.
    """

    epoch_s: np.ndarray
    flight_id: np.ndarray
    tail_number: np.ndarray
    airline_code: np.ndarray
    departure_airport: np.ndarray
    arrival_airport: np.ndarray
    flight_start_s: np.ndarray
    flight_end_s: np.ndarray
    latitude_deg: np.ndarray
    longitude_deg: np.ndarray
    altitude_m: np.ndarray
    satellite_id: np.ndarray
    cnr_db: np.ndarray

    @classmethod
    def from_records(cls, records: Iterable[FlightLogRecord]) -> "LogColumns":
        # A record holds its fields in its __dict__: one itemgetter call per
        # record is cheaper than one attribute lookup per field.
        names = [f.name for f in fields(FlightLogRecord)]
        columns = list(zip(*map(itemgetter(*names), map(vars, records)))) or [()] * len(names)
        return cls(*(
            _utc_seconds(values) if i in _TIME_INDEX
            else np.array(values, dtype=float if i in _NUMBER_INDEX else object)  # None becomes NaN
            for i, values in enumerate(columns)
        ))

    def to_records(self) -> list[FlightLogRecord]:
        """The rows as records, checked once with :func:`_check_log`; each
        record skips the same check its constructor makes."""
        _check_log(self)
        columns = [getattr(self, f.name).tolist() for f in fields(self)]
        times = {s: _EPOCH + timedelta(seconds=s) for s in set().union(*(columns[i] for i in _TIME_INDEX))}
        for i in _TIME_INDEX:
            columns[i] = [times[s] for s in columns[i]]
        columns[-1] = [None if math.isnan(v) else v for v in columns[-1]]
        names = [f.name for f in fields(FlightLogRecord)]
        records = []
        for row in zip(*columns):
            record = object.__new__(FlightLogRecord)
            record.__dict__.update(zip(names, row))
            records.append(record)
        return records

    def __len__(self) -> int:
        return len(self.epoch_s)

    def __eq__(self, other: object) -> bool:
        """Equal in every column; NaN equals NaN in the float columns."""
        if not isinstance(other, LogColumns):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b, equal_nan=a.dtype.kind == "f") for a, b in pairs)

    def take(self, index) -> "LogColumns":
        """The rows at ``index``, integer positions or a boolean mask."""
        return LogColumns(*(getattr(self, f.name)[index] for f in fields(self)))

    def __getitem__(self, row: int) -> FlightLogRecord:
        return self.take([row]).to_records()[0]

    def __iter__(self) -> Iterator[FlightLogRecord]:
        return iter(self.to_records())


def _bad_rows(log: LogColumns) -> dict[int, str]:
    """The rules every log row keeps, parsed or built by hand, on whole
    columns: each row that breaks one, with the message of the first it
    breaks."""
    lat, lon, cnr = log.latitude_deg, log.longitude_deg, log.cnr_db
    rules = (
        (log.epoch_s % 60 != 0, "log_date not minute-aligned"),
        ((log.epoch_s < log.flight_start_s) | (log.epoch_s > log.flight_end_s), "log_date outside the flight interval"),
        (~((lat >= -90.0) & (lat <= 90.0)), "latitude out of range"),
        (~((lon >= -180.0) & (lon < 180.0)), "longitude out of [-180, 180)"),
        (~(log.altitude_m >= 0.0), "altitude must be >= 0"),
        ((cnr < 0.0) | (cnr > 20.0), "cnr_db out of [0, 20]"),
    )
    bad: dict[int, str] = {}
    for broken, message in rules:
        for row in np.flatnonzero(broken).tolist():
            bad.setdefault(row, message)
    return bad


def _check_log(log: LogColumns) -> None:
    """Raise ``ValueError`` for unequal column lengths or on the first row
    that breaks a rule of :func:`_bad_rows`."""
    lengths = {len(getattr(log, f.name)) for f in fields(log)}
    if len(lengths) > 1:
        raise ValueError(f"log columns of unequal length: {sorted(lengths)}")
    bad = _bad_rows(log)
    if bad:
        row = min(bad)
        raise ValueError(f"flight {log.flight_id[row]} row {row}: {bad[row]}")


def _utc_cell(text: str) -> int:
    return (_parse_utc(text) - _EPOCH) // _SECOND


def _cnr_cell(text: str) -> float:
    """An empty cell is a minute without a measurement, NaN in the column."""
    value = float(text) if text else math.nan
    if math.isnan(value) and text:
        raise ValueError(f"cnr_db out of [0, 20]: {text}")
    return value


def _parse_column(texts: Sequence[str], parse, dtype, bad: dict[int, str], memo=None) -> np.ndarray:
    """``parse`` over a column's cells, once per distinct text; ``memo``
    (values, errors) carries what earlier calls parsed.  A text ``parse``
    rejects is 0 and marks its rows in ``bad``."""
    values, errors = ({}, {}) if memo is None else memo
    for text in set(texts).difference(values):
        try:
            values[text] = parse(text)
        except ValueError as exc:
            values[text], errors[text] = 0, str(exc)
    if errors:
        for row, text in enumerate(texts):
            if text in errors:
                bad.setdefault(row, errors[text])
    return np.array(list(map(values.__getitem__, texts)), dtype=dtype)


def _wrap_lon(lon: np.ndarray) -> None:
    """Wrap finite longitudes outside [-180, 180) in place with
    :func:`normalize_lon`; in-range values keep their bits."""
    wrap = np.isfinite(lon) & ~((lon >= -180.0) & (lon < 180.0))
    lon[wrap] = [normalize_lon(v) for v in lon[wrap].tolist()]


def _parse_rows(rows: Sequence[Sequence[str]], times: tuple[dict, dict]) -> tuple[LogColumns, dict[int, str]]:
    """One file's rows as columns, with each bad row's first error in the
    order a record would raise it.  ``times`` is the memo of every time
    text parsed so far."""
    bad: dict[int, str] = {}
    cells = list(zip(*rows)) or [()] * len(LOG_CSV_COLUMNS)
    log = LogColumns(*(
        _parse_column(texts, _utc_cell, np.int64, bad, times) if i in _TIME_INDEX
        else _parse_column(texts, _cnr_cell if i == 12 else float, np.float64, bad) if i in _NUMBER_INDEX
        else _parse_column(texts, str, object, bad)  # one string object per distinct text
        for i, texts in enumerate(cells)
    ))
    _wrap_lon(log.longitude_deg)
    for row, message in _bad_rows(log).items():
        bad.setdefault(row, message)
    return log, bad


def parse_logs(paths: Sequence[str]) -> LogColumns:
    """Parse one or more flight-log CSVs into columns.

    Either every row parses and keeps the rules of :func:`_check_log`, or a
    :class:`LogParseError` reports every bad line of every file at once, in
    file and line order.  Times need ``Z`` or an offset and whole seconds
    (see :func:`_parse_utc`); longitudes are wrapped into [-180, 180) as
    :func:`normalize_lon` does, and an empty ``cnr_db`` cell is NaN.
    """
    paths = [str(path) for path in paths]
    times: tuple[dict, dict] = ({}, {})  # each distinct time text is parsed once, in any file
    parts = [_parse_rows([], times)[0]]  # gives the columns their dtypes when no file has rows
    errors: list[tuple[int, int, str]] = []  # (file index, line, message)
    for index, path in enumerate(paths):
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != LOG_CSV_COLUMNS:
                errors.append((index, 1, f"bad header {header!r}"))
                continue
            rows, lines = [], []
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(LOG_CSV_COLUMNS):
                    errors.append((index, line_no, f"expected {len(LOG_CSV_COLUMNS)} fields, got {len(row)}"))
                    continue
                rows.append(row)
                lines.append(line_no)
        # One file at a time, so only one file's cell texts are alive at once.
        log, bad = _parse_rows(rows, times)
        errors += [(index, lines[row], message) for row, message in bad.items()]
        parts.append(log)
    if errors:
        raise LogParseError([(paths[index], line, message) for index, line, message in sorted(errors)])
    return LogColumns(*(np.concatenate([getattr(part, f.name) for part in parts]) for f in fields(LogColumns)))


def _csv_fields(values: list) -> list[str]:
    """Each value as ``csv.writer`` writes it as one field of a row, quoted
    where it must be.  The csv module quotes each distinct value once."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    texts = {}
    for value in set(values):
        # A second field, so an empty value is not the lone field csv quotes.
        writer.writerow((value, ""))
        texts[value] = buffer.getvalue()[: -len(",\r\n")]
        buffer.seek(0)
        buffer.truncate()
    return list(map(texts.__getitem__, values))


def save_logs(log: LogColumns, path: str) -> list[str]:
    """Check the rows, then write them as a flight-log CSV in the canonical
    formats.  Each row is joined as text, with the bytes ``csv.writer``
    would write; no whole-file string is built.  Returns the ``cnr_db``
    cells as written."""
    _check_log(log)
    cnr_cells = ["" if math.isnan(v) else f"{v:.3f}" for v in log.cnr_db.tolist()]
    rows = zip(
        _format_utc(log.epoch_s),
        _csv_fields(log.flight_id.tolist()),
        _csv_fields(log.tail_number.tolist()),
        _csv_fields(log.airline_code.tolist()),
        _csv_fields(log.departure_airport.tolist()),
        _csv_fields(log.arrival_airport.tolist()),
        _format_utc(log.flight_start_s),
        _format_utc(log.flight_end_s),
        [f"{v:.6f}" for v in log.latitude_deg.tolist()],
        [f"{v:.6f}" for v in log.longitude_deg.tolist()],
        [f"{v:.1f}" for v in log.altitude_m.tolist()],
        _csv_fields(log.satellite_id.tolist()),
        cnr_cells,
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(LOG_CSV_COLUMNS) + "\r\n")
        fh.writelines(map("{}\r\n".format, map(",".join, rows)))
    return cnr_cells


def labeled(log: LogColumns) -> LogColumns:
    """Only the rows that carry a CNR measurement."""
    return log.take(~np.isnan(log.cnr_db))


def filter_altitude(log: LogColumns, min_m: Optional[float] = None, max_m: Optional[float] = None) -> LogColumns:
    """Keep rows with min_m < altitude < max_m (both strict).

    Rows exactly at a threshold belong to neither side of the cut.
    """
    if min_m is not None and max_m is not None and not min_m < max_m:
        raise ValueError(f"min_m must be < max_m, got {min_m} >= {max_m}")
    keep = np.ones(len(log), dtype=bool)
    if min_m is not None:
        keep &= log.altitude_m > min_m
    if max_m is not None:
        keep &= log.altitude_m < max_m
    return log.take(keep)


def top_routes(log: LogColumns, k: int) -> tuple[list[tuple[str, str]], LogColumns]:
    """The k directional (departure, arrival) routes with the most rows.

    Ties rank lexicographically by route key.  Returns the winning keys and
    the input rows restricted to them, in their original order.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dep, arr = log.departure_airport.tolist(), log.arrival_airport.tolist()
    deps, arrs = sorted(set(dep)), sorted(set(arr))
    dep_id = {token: i for i, token in enumerate(deps)}
    arr_id = {token: i for i, token in enumerate(arrs)}
    # Both id sets are sorted, so route codes sort as the route keys do.
    code = np.array([dep_id[d] * len(arrs) + arr_id[a] for d, a in zip(dep, arr)], dtype=np.int64)
    routes, counts = np.unique(code, return_counts=True)
    ranked = routes[np.argsort(-counts, kind="stable")[:k]]
    keep = [(deps[c // len(arrs)], arrs[c % len(arrs)]) for c in ranked.tolist()]
    return keep, log.take(np.isin(code, ranked))


@dataclass(frozen=True)
class JoinReport:
    total: int
    attached: int
    dropped: int


@dataclass(frozen=True)
class JoinResult:
    records: LogColumns
    cells: np.ndarray  # one row of WEATHER_COLUMNS values per record
    report: JoinReport


class JoinCoverageError(ValueError):
    """More than 10% of records fell outside the weather field's coverage."""


def join_weather(log: LogColumns, provider: WeatherProvider) -> JoinResult:
    """Attach the nearest weather cell's values to every row in one lookup.

    Rows hitting a coverage gap are dropped and counted; losing more than
    10% of the input raises :class:`JoinCoverageError`, which usually means
    the weather field does not belong to this dataset.
    """
    values = provider.cells_at(log.epoch_s.astype(float), log.latitude_deg, log.longitude_deg)
    hit = ~np.isnan(values).any(axis=1)
    cells = values[hit]
    report = JoinReport(total=len(log), attached=len(cells), dropped=len(log) - len(cells))
    if report.total and report.dropped / report.total > 0.10:
        raise JoinCoverageError(
            f"{report.dropped}/{report.total} records outside weather coverage"
        )
    return JoinResult(records=log.take(hit), cells=cells, report=report)


NUMERIC_COLUMNS = [
    "latitude",
    "longitude",
    "altitude_m",
    "minute_of_day",
    "day_of_year",
    "flight_fraction",
]
#: In the order of a weather provider's value rows.
WEATHER_COLUMNS = ["precip_mmh", "cloud_pct", "temp_c", "wind_mps"]
#: Named after the :class:`FlightLogRecord` fields they encode.
CATEGORICAL_COLUMNS = [
    "airline_code",
    "departure_airport",
    "arrival_airport",
    "satellite_id",
    "tail_number",
]

#: Reserved id for category tokens unseen at training time.
UNKNOWN_ID = 0


@dataclass(frozen=True)
class Vocabulary:
    """Per-column token-to-id maps; id 0 is reserved for unknown tokens."""

    mappings: dict[str, dict[str, int]]

    @classmethod
    def build(cls, log: LogColumns) -> "Vocabulary":
        mappings = {}
        for column in CATEGORICAL_COLUMNS:
            tokens = sorted(set(getattr(log, column).tolist()))
            mappings[column] = {tok: i for i, tok in enumerate(tokens, start=1)}
        return cls(mappings)

    def encode(self, column: str, token: str) -> int:
        return self.mappings[column].get(token, UNKNOWN_ID)

    def to_jsonable(self) -> dict:
        return {c: dict(sorted(m.items())) for c, m in sorted(self.mappings.items())}

    @classmethod
    def from_jsonable(cls, data: dict) -> "Vocabulary":
        return cls({c: {str(t): int(i) for t, i in m.items()} for c, m in data.items()})


@dataclass
class FeatureMatrix:
    """Encoded rows ready for tree training or prediction.

    ``y`` holds :class:`CnrCategory` values and ``y_cnr_db`` the raw dB
    target; both are ``None`` in prediction mode.  ``flight_ids`` keeps row
    provenance for leakage-free splitting.
    """

    columns: tuple[str, ...]
    X: np.ndarray
    y: Optional[np.ndarray]
    y_cnr_db: Optional[np.ndarray]
    flight_ids: np.ndarray
    vocab: Optional[Vocabulary] = None

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def schema_hash(self) -> str:
        payload = {
            "columns": list(self.columns),
            "vocab": self.vocab.to_jsonable() if self.vocab is not None else None,
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def take(self, index: np.ndarray) -> "FeatureMatrix":
        return FeatureMatrix(
            columns=self.columns,
            X=self.X[index],
            y=None if self.y is None else self.y[index],
            y_cnr_db=None if self.y_cnr_db is None else self.y_cnr_db[index],
            flight_ids=self.flight_ids[index],
            vocab=self.vocab,
        )


def encode_features(
    log: LogColumns,
    vocab: Optional[Vocabulary] = None,
    cells: Optional[np.ndarray] = None,
    for_prediction: bool = False,
) -> tuple[FeatureMatrix, Vocabulary]:
    """Turn rows (optionally weather-joined) into a feature matrix.

    ``cells`` holds one row of :data:`WEATHER_COLUMNS` values per record,
    as :func:`join_weather` returns them.

    In training mode every row must carry a CNR measurement and the
    vocabulary is built here when not supplied.  In prediction mode a
    vocabulary is mandatory, labels are not produced, and unseen category
    tokens map to the reserved unknown id.  Numeric features pass through
    unscaled; trees do not care about monotone rescaling.
    """
    if for_prediction and vocab is None:
        raise ValueError("prediction mode requires a stored vocabulary")
    if cells is not None:
        cells = np.asarray(cells, dtype=np.float64)
        if cells.shape != (len(log), len(WEATHER_COLUMNS)):
            raise ValueError(f"weather cells of shape {cells.shape} for {len(log)} records")
        if np.isnan(cells).any():
            raise ValueError("a NaN weather row, a coverage gap, cannot be encoded")
    if not for_prediction:
        unlabeled = int(np.isnan(log.cnr_db).sum())
        if unlabeled:
            raise ValueError(f"{unlabeled} records without CNR cannot be labeled")
    if vocab is None:
        vocab = Vocabulary.build(log)

    columns = list(NUMERIC_COLUMNS)
    if cells is not None:
        columns += WEATHER_COLUMNS
    columns += CATEGORICAL_COLUMNS
    X = np.empty((len(log), len(columns)), dtype=np.float64)
    # One column at a time, so only one column's temporaries are alive.
    out = dict(zip(columns, X.T))
    out["latitude"][:] = log.latitude_deg
    out["longitude"][:] = log.longitude_deg
    out["altitude_m"][:] = log.altitude_m
    out["minute_of_day"][:] = log.epoch_s % 86400 // 60
    day = log.epoch_s.astype("datetime64[s]").astype("datetime64[D]")
    out["day_of_year"][:] = (day - day.astype("datetime64[Y]")).astype(np.int64) + 1
    # Whole seconds, so both differences are exact as floats.
    elapsed_s = (log.epoch_s - log.flight_start_s).astype(np.float64)
    duration_s = (log.flight_end_s - log.flight_start_s).astype(np.float64)
    out["flight_fraction"][:] = 0.0
    np.divide(elapsed_s, duration_s, out=out["flight_fraction"], where=duration_s > 0)
    if cells is not None:
        X[:, len(NUMERIC_COLUMNS) : len(NUMERIC_COLUMNS) + len(WEATHER_COLUMNS)] = cells
    for column in CATEGORICAL_COLUMNS:
        ids = vocab.mappings[column]
        out[column][:] = list(map(ids.get, getattr(log, column).tolist(), itertools.repeat(UNKNOWN_ID)))

    if for_prediction:
        y = y_cnr = None
    else:
        y_cnr = log.cnr_db.astype(np.float64)
        # Edges are lower-inclusive, as in bin_cnr.
        y = np.searchsorted(CATEGORY_EDGES_DB, y_cnr, side="right").astype(np.int8)
    matrix = FeatureMatrix(tuple(columns), X, y, y_cnr, log.flight_id.copy(), vocab)
    return matrix, vocab


def split_by_flight(
    matrix: FeatureMatrix, test_fraction: float, seed: int
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Partition rows into train/test with whole flights on one side.

    Flights are ordered by a seeded hash and the leading share becomes the
    test set, so the same (matrix, fraction, seed) always produces the same
    partition and both sides are guaranteed non-empty.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1): {test_fraction}")
    flights = sorted(set(matrix.flight_ids.tolist()))
    if len(flights) < 2:
        raise ValueError(f"need at least 2 flights to split, got {len(flights)}")

    def rank(fid: str) -> bytes:
        return hashlib.sha256(f"{seed}:{fid}".encode()).digest()

    ordered = sorted(flights, key=lambda fid: (rank(fid), fid))
    n_test = min(max(1, round(len(flights) * test_fraction)), len(flights) - 1)
    test_set = set(ordered[:n_test])
    is_test = np.array([fid in test_set for fid in matrix.flight_ids], dtype=bool)
    return matrix.take(~is_test), matrix.take(is_test)
