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
import json
import math
from dataclasses import dataclass, fields
from datetime import datetime, timedelta, timezone
from enum import IntEnum
from operator import attrgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import GeoPosition, normalize_lon
from .weather import WeatherCell, WeatherProvider, _format_utc, _parse_utc, _utc_seconds


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
        for name in ("log_date", "flight_start_time", "flight_end_time"):
            t = getattr(self, name)
            if t.tzinfo is None:
                raise ValueError(f"{name} must be timezone-aware")
            object.__setattr__(self, name, t.astimezone(timezone.utc))
        if self.log_date.second or self.log_date.microsecond:
            raise ValueError(f"log_date not minute-aligned: {self.log_date.isoformat()}")
        if not self.flight_start_time <= self.log_date <= self.flight_end_time:
            raise ValueError(
                f"log_date {self.log_date.isoformat()} outside flight interval "
                f"[{self.flight_start_time.isoformat()}, {self.flight_end_time.isoformat()}]"
            )
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude_deg}")
        object.__setattr__(self, "longitude_deg", normalize_lon(self.longitude_deg))
        if self.altitude_m < 0.0:
            raise ValueError(f"altitude must be >= 0: {self.altitude_m}")
        if self.cnr_db is not None and not 0.0 <= self.cnr_db <= 20.0:
            raise ValueError(f"cnr_db out of [0, 20]: {self.cnr_db}")

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


def parse_logs(paths: Sequence[str]) -> list[FlightLogRecord]:
    """Parse one or more flight-log CSVs.

    Either every row parses, or a :class:`LogParseError` reports all bad
    lines across all files at once.
    """
    records: list[FlightLogRecord] = []
    errors: list[tuple[str, int, str]] = []
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != LOG_CSV_COLUMNS:
                errors.append((str(path), 1, f"bad header {header!r}"))
                continue
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(LOG_CSV_COLUMNS):
                    errors.append(
                        (str(path), line_no, f"expected {len(LOG_CSV_COLUMNS)} fields, got {len(row)}")
                    )
                    continue
                try:
                    records.append(
                        FlightLogRecord(
                            log_date=_parse_utc(row[0]),
                            flight_id=row[1],
                            tail_number=row[2],
                            airline_code=row[3],
                            departure_airport=row[4],
                            arrival_airport=row[5],
                            flight_start_time=_parse_utc(row[6]),
                            flight_end_time=_parse_utc(row[7]),
                            latitude_deg=float(row[8]),
                            longitude_deg=float(row[9]),
                            altitude_m=float(row[10]),
                            satellite_id=row[11],
                            cnr_db=float(row[12]) if row[12] != "" else None,
                        )
                    )
                except ValueError as exc:
                    errors.append((str(path), line_no, str(exc)))
    if errors:
        raise LogParseError(errors)
    return records


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_TIME_COLUMNS = ("epoch_s", "flight_start_s", "flight_end_s")


@dataclass(frozen=True)
class LogColumns:
    """Flight-log rows as columns, one entry per row, in CSV column order.

    Times are whole UTC epoch seconds (int64), text columns object arrays,
    and a missing CNR is NaN.
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
        rows = list(records)

        def column(attr: str, dtype=object) -> np.ndarray:
            return np.array([getattr(r, attr) for r in rows], dtype=dtype)

        return cls(
            epoch_s=_utc_seconds(r.log_date for r in rows),
            flight_id=column("flight_id"),
            tail_number=column("tail_number"),
            airline_code=column("airline_code"),
            departure_airport=column("departure_airport"),
            arrival_airport=column("arrival_airport"),
            flight_start_s=_utc_seconds(r.flight_start_time for r in rows),
            flight_end_s=_utc_seconds(r.flight_end_time for r in rows),
            latitude_deg=column("latitude_deg", float),
            longitude_deg=column("longitude_deg", float),
            altitude_m=column("altitude_m", float),
            satellite_id=column("satellite_id"),
            cnr_db=column("cnr_db", float),  # None becomes NaN
        )

    def to_records(self) -> list[FlightLogRecord]:
        columns = {f.name: getattr(self, f.name).tolist() for f in fields(self)}
        for name in _TIME_COLUMNS:
            columns[name] = [_EPOCH + timedelta(seconds=s) for s in columns[name]]
        # The fields are in FlightLogRecord's order, cnr_db last.
        return [FlightLogRecord(*row[:-1], None if math.isnan(row[-1]) else row[-1]) for row in zip(*columns.values())]


def _check_log(log: LogColumns) -> None:
    """The checks :class:`FlightLogRecord` makes per row, on whole columns.
    The first failing row raises ``ValueError``."""
    lengths = {len(getattr(log, f.name)) for f in fields(log)}
    if len(lengths) > 1:
        raise ValueError(f"log columns of unequal length: {sorted(lengths)}")
    lat, lon, cnr = log.latitude_deg, log.longitude_deg, log.cnr_db
    checks = (
        (log.epoch_s % 60 != 0, "log_date not minute-aligned"),
        ((log.epoch_s < log.flight_start_s) | (log.epoch_s > log.flight_end_s), "log_date outside the flight interval"),
        (~((lat >= -90.0) & (lat <= 90.0)), "latitude out of range"),
        (~((lon >= -180.0) & (lon < 180.0)), "longitude out of [-180, 180)"),
        (~(log.altitude_m >= 0.0), "altitude must be >= 0"),
        ((cnr < 0.0) | (cnr > 20.0), "cnr_db out of [0, 20]"),
    )
    for bad, message in checks:
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(f"flight {log.flight_id[row]} row {row}: {message}")


def save_log_columns(log: LogColumns, path: str) -> list[str]:
    """Check the columns, then write them as a flight-log CSV in the
    canonical formats.  Returns the ``cnr_db`` cells as written."""
    _check_log(log)
    cnr_cells = ["" if math.isnan(v) else f"{v:.3f}" for v in log.cnr_db.tolist()]
    rows = zip(
        _format_utc(log.epoch_s),
        log.flight_id.tolist(),
        log.tail_number.tolist(),
        log.airline_code.tolist(),
        log.departure_airport.tolist(),
        log.arrival_airport.tolist(),
        _format_utc(log.flight_start_s),
        _format_utc(log.flight_end_s),
        [f"{v:.6f}" for v in log.latitude_deg.tolist()],
        [f"{v:.6f}" for v in log.longitude_deg.tolist()],
        [f"{v:.1f}" for v in log.altitude_m.tolist()],
        log.satellite_id.tolist(),
        cnr_cells,
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_CSV_COLUMNS)
        writer.writerows(rows)
    return cnr_cells


def save_logs(records: Iterable[FlightLogRecord], path: str) -> None:
    """Write records with :func:`save_log_columns`."""
    save_log_columns(LogColumns.from_records(records), path)


def labeled(records: Iterable[FlightLogRecord]) -> list[FlightLogRecord]:
    """Only the rows that carry a CNR measurement."""
    return [r for r in records if r.cnr_db is not None]


def filter_altitude(
    records: Iterable[FlightLogRecord],
    min_m: Optional[float] = None,
    max_m: Optional[float] = None,
) -> list[FlightLogRecord]:
    """Keep records with min_m < altitude < max_m (both strict).

    Rows exactly at a threshold belong to neither side of the cut.
    """
    if min_m is not None and max_m is not None and not min_m < max_m:
        raise ValueError(f"min_m must be < max_m, got {min_m} >= {max_m}")
    out = []
    for r in records:
        if min_m is not None and not r.altitude_m > min_m:
            continue
        if max_m is not None and not r.altitude_m < max_m:
            continue
        out.append(r)
    return out


def top_routes(
    records: Sequence[FlightLogRecord], k: int
) -> tuple[list[tuple[str, str]], list[FlightLogRecord]]:
    """The k directional (departure, arrival) routes with the most records.

    Ties rank lexicographically by route key.  Returns the winning keys and
    the input records restricted to them, in their original order.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    counts: dict[tuple[str, str], int] = {}
    for r in records:
        key = (r.departure_airport, r.arrival_airport)
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts, key=lambda key: (-counts[key], key))
    keep = ranked[:k]
    keep_set = set(keep)
    return keep, [r for r in records if (r.departure_airport, r.arrival_airport) in keep_set]


@dataclass(frozen=True)
class JoinReport:
    total: int
    attached: int
    dropped: int


@dataclass(frozen=True)
class JoinResult:
    records: list[FlightLogRecord]
    cells: list[WeatherCell]
    report: JoinReport


class JoinCoverageError(ValueError):
    """More than 10% of records fell outside the weather field's coverage."""


def join_weather(
    records: Sequence[FlightLogRecord], provider: WeatherProvider
) -> JoinResult:
    """Attach the nearest weather cell to every record, in one batch lookup.

    Records hitting a coverage gap are dropped and counted; losing more
    than 10% of the input raises :class:`JoinCoverageError`, which usually
    means the weather field does not belong to this dataset.
    """
    found = provider.cells_at(
        np.array([r.log_date.timestamp() for r in records], dtype=float),
        np.array([r.latitude_deg for r in records], dtype=float),
        np.array([r.longitude_deg for r in records], dtype=float),
    )
    kept = [r for r, cell in zip(records, found) if cell is not None]
    cells = [cell for cell in found if cell is not None]
    report = JoinReport(total=len(records), attached=len(kept), dropped=len(records) - len(kept))
    if report.total and report.dropped / report.total > 0.10:
        raise JoinCoverageError(
            f"{report.dropped}/{report.total} records outside weather coverage"
        )
    return JoinResult(records=kept, cells=cells, report=report)


NUMERIC_COLUMNS = [
    "latitude",
    "longitude",
    "altitude_m",
    "minute_of_day",
    "day_of_year",
    "flight_fraction",
]
WEATHER_COLUMNS = ["precip_mmh", "cloud_pct", "temp_c", "wind_mps"]
_WEATHER_ATTRS = ["precipitation_mmh", "cloud_cover_pct", "temperature_c", "wind_speed_mps"]
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
    def build(cls, records: Sequence[FlightLogRecord]) -> "Vocabulary":
        mappings = {}
        for column in CATEGORICAL_COLUMNS:
            tokens = sorted(set(map(attrgetter(column), records)))
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
    records: Sequence[FlightLogRecord],
    vocab: Optional[Vocabulary] = None,
    cells: Optional[Sequence[WeatherCell]] = None,
    for_prediction: bool = False,
) -> tuple[FeatureMatrix, Vocabulary]:
    """Turn records (optionally weather-joined) into a feature matrix.

    In training mode every record must carry a CNR measurement and the
    vocabulary is built here when not supplied.  In prediction mode a
    vocabulary is mandatory, labels are not produced, and unseen category
    tokens map to the reserved unknown id.  Numeric features pass through
    unscaled; trees do not care about monotone rescaling.
    """
    if for_prediction and vocab is None:
        raise ValueError("prediction mode requires a stored vocabulary")
    if cells is not None and len(cells) != len(records):
        raise ValueError(f"{len(cells)} weather cells for {len(records)} records")
    if not for_prediction:
        unlabeled = sum(1 for r in records if r.cnr_db is None)
        if unlabeled:
            raise ValueError(f"{unlabeled} records without CNR cannot be labeled")
    if vocab is None:
        vocab = Vocabulary.build(records)

    columns = list(NUMERIC_COLUMNS)
    if cells is not None:
        columns += WEATHER_COLUMNS
    columns += CATEGORICAL_COLUMNS
    X = np.empty((len(records), len(columns)), dtype=np.float64)
    # One column at a time, so only one column's temporaries are alive.
    out = dict(zip(columns, X.T))
    out["latitude"][:] = [r.latitude_deg for r in records]
    out["longitude"][:] = [r.longitude_deg for r in records]
    out["altitude_m"][:] = [r.altitude_m for r in records]
    # Log dates are whole minutes, so their epoch seconds are exact.
    epoch_s = np.array([r.log_date.timestamp() for r in records], dtype=np.int64)
    out["minute_of_day"][:] = epoch_s % 86400 // 60
    day = epoch_s.astype("datetime64[s]").astype("datetime64[D]")
    out["day_of_year"][:] = (day - day.astype("datetime64[Y]")).astype(np.int64) + 1
    # Timedelta seconds, as exact as before for sub-second flight times.
    elapsed_s = np.array([(r.log_date - r.flight_start_time).total_seconds() for r in records])
    duration_s = np.array([(r.flight_end_time - r.flight_start_time).total_seconds() for r in records])
    out["flight_fraction"][:] = 0.0
    np.divide(elapsed_s, duration_s, out=out["flight_fraction"], where=duration_s > 0)
    if cells is not None:
        for column, attr in zip(WEATHER_COLUMNS, _WEATHER_ATTRS):
            out[column][:] = [getattr(c, attr) for c in cells]
    for column in CATEGORICAL_COLUMNS:
        ids = vocab.mappings[column]
        out[column][:] = [ids.get(token, UNKNOWN_ID) for token in map(attrgetter(column), records)]

    if for_prediction:
        y = y_cnr = None
    else:
        y_cnr = np.array([r.cnr_db for r in records], dtype=np.float64)
        # Edges are lower-inclusive, as in bin_cnr.
        y = np.searchsorted(CATEGORY_EDGES_DB, y_cnr, side="right").astype(np.int8)
    flight_ids = np.array([r.flight_id for r in records], dtype=object)
    matrix = FeatureMatrix(tuple(columns), X, y, y_cnr, flight_ids, vocab)
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
