"""Price ingestion, log-return panels, splits, window sampling and synthesis.

The on-disk format is a wide CSV: a `date` column of ISO-8601 dates
followed by one column per ticker.  One of the columns is designated as
the index to be tracked; the remaining columns are the investable assets.
All tables are immutable after construction (arrays are marked
read-only).  Every file the package writes goes through `write_text`.
"""
from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from datetime import date as Date, timedelta
from pathlib import Path

import numpy as np

__all__ = [
    "DataError",
    "PriceTable",
    "ReturnPanel",
    "SplitPanels",
    "WindowSample",
    "load_prices",
    "write_prices",
    "write_text",
    "compute_log_returns",
    "panel_to_prices",
    "time_split",
    "sample_window",
    "synth_dataset",
]


class DataError(ValueError):
    """Invalid input data; the message names the offending row or column."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PriceTable:
    """Positive prices for N assets plus the tracked index, sorted by date."""

    dates: tuple[Date, ...]
    tickers: tuple[str, ...]
    prices: np.ndarray        # (T, N), read-only
    index_name: str
    index_prices: np.ndarray  # (T,), read-only

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
                raise DataError(f"dates are not strictly increasing at {b}")

    @property
    def n_rows(self) -> int:
        return self.prices.shape[0]

    @property
    def n_assets(self) -> int:
        return self.prices.shape[1]


@dataclass(frozen=True)
class ReturnPanel:
    """Daily log returns for N assets and the tracked index."""

    dates: tuple[Date, ...]
    tickers: tuple[str, ...]
    returns: np.ndarray        # (T, N), read-only
    index_returns: np.ndarray  # (T,), read-only

    def __post_init__(self):
        object.__setattr__(self, "returns", _freeze(self.returns))
        object.__setattr__(self, "index_returns", _freeze(self.index_returns))
        t, n = self.returns.shape
        if len(self.dates) != t or self.index_returns.shape != (t,):
            raise DataError("return panel dimensions are inconsistent")
        if len(self.tickers) != n:
            raise DataError("ticker count does not match return columns")
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
    split_index: int


@dataclass(frozen=True)
class WindowSample:
    """A contiguous slice of a return panel used as one training window."""

    start: int
    length: int
    returns: np.ndarray        # (W, N)
    index_returns: np.ndarray  # (W,)


def load_prices(path: str | Path, index_column: str) -> PriceTable:
    """Read a wide price CSV and extract the tracked index column.

    Errors name the offending data row (1-based, excluding the header)
    and column wherever possible.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty file: {path}") from None
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

        rows: list[tuple[Date, list[float]]] = []
        for r, fields in enumerate(reader, start=1):
            if not fields:
                continue
            if len(fields) != len(header):
                raise DataError(f"malformed row {r}: expected {len(header)} fields, got {len(fields)}")
            try:
                day = Date.fromisoformat(fields[0].strip())
            except ValueError:
                raise DataError(f"row {r}, column date: invalid ISO-8601 date {fields[0]!r}") from None
            values = []
            for name, raw in zip(columns, fields[1:]):
                try:
                    price = float(raw)
                except ValueError:
                    raise DataError(f"row {r}, column {name}: invalid number {raw!r}") from None
                if not math.isfinite(price) or price <= 0:
                    raise DataError(f"row {r}, column {name}: price must be positive and finite")
                values.append(price)
            rows.append((day, values))

    if len(rows) < 2:
        raise DataError("need at least two data rows")
    rows.sort(key=lambda item: item[0])
    for (a, _), (b, _) in zip(rows, rows[1:]):
        if a == b:
            raise DataError(f"duplicate date {a.isoformat()}")

    dates = tuple(day for day, _ in rows)
    matrix = np.array([vals for _, vals in rows], dtype=np.float64)
    idx = columns.index(index_column)
    keep = [j for j in range(len(columns)) if j != idx]
    return PriceTable(
        dates=dates,
        tickers=tuple(columns[j] for j in keep),
        prices=matrix[:, keep],
        index_name=index_column,
        index_prices=matrix[:, idx],
    )


def write_text(path: str | Path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then move it into place.

    A failed write leaves the old file whole.  There is no fsync: a finished
    move survives a killed process, not a power cut.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp")
    try:
        tmp.write_text(text, newline="")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_prices(table: PriceTable, path: str | Path) -> None:
    """Write a price table back to the wide CSV format at full precision."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["date", table.index_name, *table.tickers])
    for i, day in enumerate(table.dates):
        writer.writerow(
            [day.isoformat(), repr(float(table.index_prices[i]))]
            + [repr(float(v)) for v in table.prices[i]]
        )
    write_text(path, buffer.getvalue())


def compute_log_returns(table: PriceTable) -> ReturnPanel:
    """Daily log returns ln(p[t+1] / p[t]); row t is dated by the later day."""
    return ReturnPanel(
        dates=table.dates[1:],
        tickers=table.tickers,
        returns=np.log(table.prices[1:] / table.prices[:-1]),
        index_returns=np.log(table.index_prices[1:] / table.index_prices[:-1]),
    )


def panel_to_prices(
    panel: ReturnPanel, index_name: str = "INDEX", base_price: float = 100.0
) -> PriceTable:
    """Integrate log returns into a price table starting at `base_price`.

    The synthetic first price row is dated one day before the first return.
    """
    if base_price <= 0:
        raise DataError("base price must be positive")
    prices = base_price * np.exp(np.vstack([np.zeros(panel.n_assets), np.cumsum(panel.returns, axis=0)]))
    index_prices = base_price * np.exp(np.concatenate([[0.0], np.cumsum(panel.index_returns)]))
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
        raise DataError(f"train fraction must lie in (0, 1), got {fraction}")
    n_train = math.floor(panel.n_rows * fraction)
    if n_train < 1 or panel.n_rows - n_train < 1:
        raise DataError(
            f"split of {panel.n_rows} rows at fraction {fraction} leaves an empty side"
        )
    return SplitPanels(
        train=panel.slice_rows(0, n_train),
        validation=panel.slice_rows(n_train, panel.n_rows),
        split_index=n_train,
    )


def sample_window(panel: ReturnPanel, length: int, rng: np.random.Generator) -> WindowSample:
    """Draw one contiguous window with a uniformly random start."""
    if length < 2:
        raise DataError(f"window length must be at least 2, got {length}")
    if length > panel.n_rows:
        raise DataError(
            f"window length {length} exceeds available rows {panel.n_rows}"
        )
    start = int(rng.integers(0, panel.n_rows - length + 1))
    return WindowSample(
        start=start,
        length=length,
        returns=panel.returns[start : start + length],
        index_returns=panel.index_returns[start : start + length],
    )


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
        raise DataError("need at least two assets")
    if n_days < 2:
        raise DataError("need at least two days")
    if not (1 <= k_sparse <= n_assets):
        raise DataError(f"k_sparse must lie in [1, {n_assets}], got {k_sparse}")
    if noise_scale < 0:
        raise DataError("noise scale must be non-negative")
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
