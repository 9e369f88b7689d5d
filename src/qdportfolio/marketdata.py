"""Price ingestion, log-return panels, splits, window sampling and synthesis.

The on-disk format is a wide CSV: a `date` column of ISO-8601 dates
followed by one column per ticker.  One of the columns is designated as
the index to be tracked; the remaining columns are the investable assets.
All tables are immutable after construction (arrays are marked
read-only).  Every file the package reads or writes is UTF-8 text; every
file it writes goes through `write_text`.
"""
from __future__ import annotations

import csv
import itertools
import math
import os
import warnings
from contextlib import suppress
from dataclasses import dataclass, fields
from datetime import date as Date, timedelta
from functools import partial
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = [
    "DataError",
    "RangeError",
    "PriceTable",
    "ReturnPanel",
    "SplitPanels",
    "load_prices",
    "write_prices",
    "write_text",
    "compute_log_returns",
    "panel_to_prices",
    "time_split",
    "sample_window",
    "check_window",
    "synth_dataset",
]


class DataError(ValueError):
    """Invalid input data; the message names the offending row or column."""


class RangeError(DataError):
    """An argument outside its valid range; the message names it and its value."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def _reduce_through_init(table):
    """Pickle a table as its constructor call, so it unpickles frozen and checked."""
    return type(table), tuple(getattr(table, f.name) for f in fields(table))


@dataclass(frozen=True)
class PriceTable:
    """Positive prices for N assets plus the tracked index, sorted by date."""

    dates: tuple[Date, ...]
    tickers: tuple[str, ...]
    prices: np.ndarray        # (T, N), read-only
    index_name: str
    index_prices: np.ndarray  # (T,), read-only

    __reduce__ = _reduce_through_init

    def __post_init__(self):
        object.__setattr__(self, "prices", _freeze(self.prices))
        object.__setattr__(self, "index_prices", _freeze(self.index_prices))
        t, n = self.prices.shape
        if len(self.dates) != t or self.index_prices.shape != (t,):
            raise DataError("price table dimensions are inconsistent")
        if len(self.tickers) != n:
            raise DataError("ticker count does not match price columns")
        if t < 2:
            raise DataError("a price table needs at least two rows")
        if not (np.all(self.prices > 0) and np.all(self.index_prices > 0)):
            raise DataError("prices must be strictly positive")
        for a, b in zip(self.dates, self.dates[1:]):
            if not a < b:
                raise DataError(f"duplicate date {b}" if a == b else f"dates are not strictly increasing at {b}")

    @property
    def n_rows(self) -> int:
        return self.prices.shape[0]

    @property
    def n_assets(self) -> int:
        return self.prices.shape[1]


@dataclass(frozen=True)
class ReturnPanel:
    """Daily log returns for N >= 2 assets and the tracked index, over at least two days."""

    dates: tuple[Date, ...]
    tickers: tuple[str, ...]
    returns: np.ndarray        # (T, N), read-only
    index_returns: np.ndarray  # (T,), read-only

    __reduce__ = _reduce_through_init

    def __post_init__(self):
        object.__setattr__(self, "returns", _freeze(self.returns))
        object.__setattr__(self, "index_returns", _freeze(self.index_returns))
        t, n = self.returns.shape
        if len(self.dates) != t or self.index_returns.shape != (t,):
            raise DataError("return panel dimensions are inconsistent")
        if len(self.tickers) != n:
            raise DataError("ticker count does not match return columns")
        if t < 2:  # one day has no return series to track or correlate
            raise DataError(f"a return panel needs at least two rows, got {t}")
        if n < 2:  # one asset leaves nothing to choose: every simplex row is that asset
            raise DataError(f"a return panel needs at least two assets, got {n}")
        if not (np.all(np.isfinite(self.returns)) and np.all(np.isfinite(self.index_returns))):
            raise DataError("returns must be finite")

    @property
    def n_rows(self) -> int:
        return self.returns.shape[0]

    @property
    def n_assets(self) -> int:
        return self.returns.shape[1]

    def slice_rows(self, start: int, stop: int) -> "ReturnPanel":
        return ReturnPanel(
            dates=self.dates[start:stop],
            tickers=self.tickers,
            returns=self.returns[start:stop],
            index_returns=self.index_returns[start:stop],
        )


@dataclass(frozen=True)
class SplitPanels:
    """Chronological train/validation split of one return panel."""

    train: ReturnPanel
    validation: ReturnPanel


# Reads price lines, splitting and unquoting them as csv.reader does.
_read_cells = partial(np.loadtxt, delimiter=",", comments=None, quotechar='"', ndmin=2)


def load_prices(path: str | Path, index_column: str) -> PriceTable:
    """Read a wide price CSV and extract the tracked index column.

    Errors name the first faulty data row (1-based, excluding the header,
    counting blank lines) and column wherever possible.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    table = lines = None  # per record of the table: the date's day number, then the prices
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
            # parsed from the open file a line at a time, so its text is never held whole; a
            # ValueError (a UnicodeDecodeError too) sends the file to the second read, which names it
            with suppress(ValueError), warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # fails below
                table = _read_cells(fh, converters={0: lambda day: Date.fromisoformat(day.strip()).toordinal()})
            if (table is None or table.shape[1] != len(header or ()) or len(table) < 2
                    or not ((table[:, 1:] > 0) & (table[:, 1:] < np.inf)).all()):
                fh.seek(0)  # a faulty file is read again whole, split where csv.reader splits
                next(csv.reader(fh), None)
                lines = fh.readlines()
    except UnicodeDecodeError as e:  # anywhere: the parse reads to the end, or the second read does
        raise DataError(f"{path} is not UTF-8 text ({e.reason})") from None
    except csv.Error as e:  # a field longer than csv.field_size_limit()
        raise DataError(f"header: {e}") from None
    if header is None:
        raise DataError(f"empty file: {path}")
    header = [h.strip() for h in header]
    if not header or header[0] != "date":
        raise DataError("header must start with a 'date' column")
    columns = header[1:]
    if len(columns) < 2:
        raise DataError("need at least two price columns (index plus one asset)")
    if len(set(columns)) != len(columns):
        raise DataError("duplicate column names in header")
    if index_column not in columns:
        raise DataError(f"unknown index column {index_column!r}")

    if lines is not None:
        raise DataError(_first_fault(lines, header) or "need at least two data rows")
    order = np.argsort(table[:, 0])
    idx = header.index(index_column)
    keep = [j for j in range(1, len(header)) if j != idx]
    return PriceTable(
        dates=tuple(Date.fromordinal(int(day)) for day in table[order, 0]),
        tickers=tuple(header[j] for j in keep),
        prices=table[np.ix_(order, keep)],  # rows and columns in one gather, one copy
        index_name=index_column,
        index_prices=table[order, idx],
    )


def _first_fault(lines: list[str], header: list[str]) -> str | None:
    """Name the first bad record or cell in a row-by-row read that converts cells as the table does."""
    reader, end, r = csv.reader(lines), 0, 0
    try:
        for r, fields in enumerate(reader, start=1):
            record, end = lines[end:reader.line_num], reader.line_num
            if not fields:
                continue
            if len(fields) != len(header):
                return f"malformed row {r}: expected {len(header)} fields, got {len(fields)}"
            try:
                Date.fromisoformat(fields[0].strip())
            except ValueError:
                return f"row {r}, column date: invalid ISO-8601 date {fields[0]!r}"
            with suppress(ValueError):  # a record of good cells is read at once, any other cell by cell
                values = _read_cells(record, usecols=range(1, len(header)))
                if ((values > 0) & (values < np.inf)).all():
                    continue
            for j in range(1, len(header)):
                try:
                    value = _read_cells(record, usecols=[j])[0, 0]
                except ValueError:
                    return f"row {r}, column {header[j]}: invalid number {fields[j]!r}"
                if not 0 < value < math.inf:
                    return f"row {r}, column {header[j]}: price must be positive and finite"
    except csv.Error as e:  # a field longer than csv.field_size_limit()
        return f"row {r + 1}: {e}"
    return None


def write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write `text` to a temporary file beside `path`, then move it into place.

    `text` is a string or an iterable of strings, written in turn, so a
    large file's text need not be held whole.  A failed write leaves the
    old file whole.  There is no fsync: a finished move survives a killed
    process, not a power cut.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Lines:
    """A `csv.writer` target whose `write` returns the line, so `writerow` does."""

    def write(self, line: str) -> str:
        return line


def write_prices(table: PriceTable, path: str | Path) -> None:
    """Write a price table back to the wide CSV format at full precision.

    Only the header needs `csv.writer`'s quoting: a positive finite float's
    `repr` holds no comma, quote or line break.  Rows convert and are
    written one at a time, so neither a float list nor the text of the
    whole table is held.
    """
    header = csv.writer(_Lines()).writerow(["date", table.index_name, *table.tickers])
    rows = (f"{day.isoformat()},{index_price!r},{','.join(map(repr, row.tolist()))}\r\n"
            for day, index_price, row in zip(table.dates, table.index_prices.tolist(), table.prices))
    write_text(path, itertools.chain((header,), rows))


def compute_log_returns(table: PriceTable) -> ReturnPanel:
    """Daily log returns ln(p[t+1] / p[t]); row t is dated by the later day."""
    return ReturnPanel(
        dates=table.dates[1:],
        tickers=table.tickers,
        returns=np.log(table.prices[1:] / table.prices[:-1]),
        index_returns=np.log(table.index_prices[1:] / table.index_prices[:-1]),
    )


def panel_to_prices(panel: ReturnPanel, index_name: str) -> PriceTable:
    """Integrate log returns into a price table whose first row is 100.

    The synthetic first price row is dated one day before the first return.
    """
    prices = 100.0 * np.exp(np.vstack([np.zeros(panel.n_assets), np.cumsum(panel.returns, axis=0)]))
    index_prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(panel.index_returns)]))
    dates = (panel.dates[0] - timedelta(days=1),) + panel.dates
    return PriceTable(
        dates=dates,
        tickers=panel.tickers,
        prices=prices,
        index_name=index_name,
        index_prices=index_prices,
    )


def time_split(panel: ReturnPanel, fraction: float) -> SplitPanels:
    """Split chronologically; the first floor(rows * fraction) rows train."""
    if not (0.0 < fraction < 1.0):
        raise RangeError(f"train_fraction must lie in (0, 1), got {fraction}")
    n_train = math.floor(panel.n_rows * fraction)
    return SplitPanels(
        train=panel.slice_rows(0, n_train),
        validation=panel.slice_rows(n_train, panel.n_rows),
    )


def check_window(panel: ReturnPanel, length: int) -> None:
    """Refuse a window `sample_window` cannot draw from `panel`."""
    if length < 2:
        raise DataError(f"window length must be at least 2, got {length}")
    if length > panel.n_rows:
        raise DataError(
            f"window length {length} exceeds available rows {panel.n_rows}"
        )


def sample_window(panel: ReturnPanel, length: int, rng: np.random.Generator) -> ReturnPanel:
    """Draw one contiguous run of `length` rows with a uniformly random start."""
    check_window(panel, length)
    start = int(rng.integers(0, panel.n_rows - length + 1))
    return panel.slice_rows(start, start + length)


def synth_dataset(
    n_assets: int,
    n_days: int,
    k_sparse: int,
    noise_scale: float,
    seed: int,
) -> tuple[ReturnPanel, np.ndarray]:
    """Generate an i.i.d. Gaussian return panel with a known sparse target.

    Asset log returns are N(0, 0.01^2) per day.  The index is an
    equal-weight basket of k_sparse assets chosen uniformly at random
    (weight 1/k each, so the target is representable exactly on the
    simplex), plus optional N(0, noise_scale^2) observation noise.
    Returns the panel and the true weight vector.
    """
    if n_assets < 2:
        raise RangeError(f"n_assets must be at least 2, got {n_assets}")
    if n_days < 2:
        raise RangeError(f"n_days must be at least 2, got {n_days}")
    if not (1 <= k_sparse <= n_assets):
        raise RangeError(f"k_sparse must lie in [1, {n_assets}], got {k_sparse}")
    if not 0 <= noise_scale < math.inf:
        raise RangeError(f"noise scale must be finite and non-negative, got {noise_scale}")
    rng = np.random.default_rng(seed)
    returns = 0.01 * rng.standard_normal((n_days, n_assets))
    support = np.sort(rng.choice(n_assets, size=k_sparse, replace=False))
    true_weights = np.zeros(n_assets)
    true_weights[support] = 1.0 / k_sparse
    index_returns = returns @ true_weights + noise_scale * rng.standard_normal(n_days)
    first = Date(2015, 1, 2)
    panel = ReturnPanel(
        dates=tuple(first + timedelta(days=i) for i in range(n_days)),
        tickers=tuple(f"A{i:04d}" for i in range(n_assets)),
        returns=returns,
        index_returns=index_returns,
    )
    true_weights.flags.writeable = False
    return panel, true_weights
