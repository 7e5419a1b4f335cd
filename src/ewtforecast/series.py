"""Series ingestion, chronological splitting, lag embedding, and leakage-free scaling."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCALER_KINDS = ("none", "zscore", "minmax")


def _as_float_vector(values, what: str = "values") -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional, got shape {arr.shape}")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """An ordered sequence of finite real observations."""

    values: np.ndarray
    name: str = "series"

    def __post_init__(self):
        arr = _as_float_vector(self.values, "series values")
        if arr.size < 1:
            raise ValueError("empty series")
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise ValueError(f"non-finite value at position {bad} of series {self.name!r}")
        object.__setattr__(self, "values", _frozen(arr))

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/validation/test fractions; test takes the remainder."""

    train_fraction: float
    validation_fraction: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in [0, 1)")
        if self.train_fraction + self.validation_fraction >= 1.0:
            raise ValueError("train_fraction + validation_fraction must be < 1")


def split_boundaries(n: int, spec: SplitSpec) -> tuple[int, int]:
    """Indices (end of train, end of validation) for a series of length ``n``."""
    i_train = int(np.floor(n * spec.train_fraction))
    i_val = int(np.floor(n * (spec.train_fraction + spec.validation_fraction)))
    return i_train, i_val


@dataclass(frozen=True)
class WindowedDataset:
    """Lag-embedded supervised dataset: inputs X (N x d), targets Y (N x c).

    ``origin_indices[i]`` is the 0-based index of the last observation that
    contributed to row ``i``; the row's target lies a fixed horizon after it.
    """

    X: np.ndarray
    Y: np.ndarray
    origin_indices: np.ndarray
    meta: dict | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        Y = np.asarray(self.Y, dtype=np.float64)
        if X.ndim != 2 or Y.ndim != 2:
            raise ValueError("X and Y must be matrices")
        if X.shape[0] != Y.shape[0]:
            raise ValueError(f"row mismatch: X has {X.shape[0]} rows, Y has {Y.shape[0]}")
        origins = np.asarray(self.origin_indices, dtype=np.int64)
        if origins.ndim != 1 or origins.size != X.shape[0]:
            raise ValueError("origin_indices must have one entry per row")
        if origins.size > 1 and not np.all(np.diff(origins) > 0):
            raise ValueError("origin_indices must be strictly increasing")
        object.__setattr__(self, "X", _frozen(X))
        object.__setattr__(self, "Y", _frozen(Y))
        object.__setattr__(self, "origin_indices", _frozen(origins))

    @property
    def n_samples(self) -> int:
        return int(self.X.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.X.shape[1])

    def take(self, indices) -> "WindowedDataset":
        """Row subset in the given (strictly increasing) order."""
        idx = np.asarray(indices)
        return WindowedDataset(self.X[idx], self.Y[idx], self.origin_indices[idx], self.meta)


def embed(ts: TimeSeries, lags: int, horizon: int) -> WindowedDataset:
    """Autoregressive embedding: row i is [x_i .. x_{i+lags-1}], target x_{i+lags+horizon-1}."""
    if lags < 1 or horizon < 1:
        raise ValueError("lags and horizon must be positive")
    n = len(ts)
    n_rows = n - lags - horizon + 1
    if n_rows < 1:
        raise ValueError(f"series too short: length {n} supports no window with lags={lags}, horizon={horizon}")
    v = ts.values
    X = np.lib.stride_tricks.sliding_window_view(v, lags)[:n_rows]
    Y = v[lags + horizon - 1:].reshape(-1, 1)
    origins = np.arange(lags - 1, lags - 1 + n_rows, dtype=np.int64)
    return WindowedDataset(X, Y, origins)


@dataclass(frozen=True)
class Scaler:
    """Per-feature affine transform fitted on training rows only:
    ``transform(x) = (x - center) / scale``."""

    kind: str
    center: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        if self.kind not in SCALER_KINDS:
            raise ValueError(f"unknown scaler kind {self.kind!r}, expected one of {SCALER_KINDS}")
        object.__setattr__(self, "center", _frozen(np.asarray(self.center, dtype=np.float64)))
        object.__setattr__(self, "scale", _frozen(np.asarray(self.scale, dtype=np.float64)))

    @property
    def n_features(self) -> int:
        return int(self.center.size)

    def to_dict(self) -> dict:
        """JSON form; ``Scaler(**d)`` reads it back."""
        return {"kind": self.kind, "center": self.center.tolist(), "scale": self.scale.tolist()}


def fit_scaler(train_rows: np.ndarray, kind: str = "zscore") -> Scaler:
    """Fit scaling statistics on the training rows alone (no leakage)."""
    rows = np.asarray(train_rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ValueError("train_rows must be a non-empty matrix")
    if kind == "none":
        d = rows.shape[1]
        return Scaler("none", np.zeros(d), np.ones(d))
    if kind == "zscore":
        center = rows.mean(axis=0)
        scale = rows.std(axis=0)
        flat = np.flatnonzero(scale == 0.0)
        if flat.size:
            raise ValueError(f"constant feature column {int(flat[0])} cannot be z-scored")
        return Scaler("zscore", center, scale)
    if kind == "minmax":
        lo = rows.min(axis=0)
        span = rows.max(axis=0) - lo
        span = np.where(span == 0.0, 1.0, span)  # constant columns map to 0
        return Scaler("minmax", lo, span)
    raise ValueError(f"unknown scaler kind {kind!r}, expected one of {SCALER_KINDS}")


def apply_scaler(s: Scaler, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != s.n_features:
        raise ValueError(f"expected {s.n_features} feature columns, got shape {rows.shape}")
    if s.kind == "none":
        return rows.copy()
    return (rows - s.center) / s.scale


def load_csv(path, column=0, has_header: bool = False) -> TimeSeries:
    """Read one numeric column of a CSV file into a TimeSeries.

    ``column`` selects by header name (requires ``has_header``) or 0-based
    index. Cells must parse as finite numbers; failures are reported with the
    1-based data-row number. Fully blank lines are skipped.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = None
        if has_header:
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"empty series in {path}") from None
        idx, name = _resolve_column(column, header)
        values = []
        for row_no, row in enumerate(reader, start=1):
            if not any(cell.strip() for cell in row):
                continue
            if idx >= len(row):
                raise ValueError(f"row {row_no} has no column {idx} in {path}")
            cell = row[idx].strip()
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(f"cannot parse cell {cell!r} at row {row_no} of {path}") from None
            if not np.isfinite(value):
                raise ValueError(f"non-finite cell {cell!r} at row {row_no} of {path}")
            values.append(value)
    if not values:
        raise ValueError(f"empty series in {path}")
    return TimeSeries(np.asarray(values), name=name)


def _resolve_column(column, header) -> tuple[int, str]:
    if isinstance(column, str) and not column.lstrip("-").isdigit():
        if header is None:
            raise ValueError(f"column name {column!r} requires a header row")
        if column not in header:
            raise ValueError(f"missing column {column!r}; header has {header}")
        return header.index(column), column
    idx = int(column)
    if idx < 0:
        raise ValueError(f"column index must be non-negative, got {idx}")
    if header is not None:
        if idx >= len(header):
            raise ValueError(f"column index {idx} out of range; header has {len(header)} columns")
        return idx, header[idx]
    return idx, f"column_{idx}"
