"""Forecast-error metrics, directional accuracy, and cross-model statistics.

All metrics operate on the original data scale. Scale-dependent quantities
that a particular input cannot support (a zero actual under MAPE, a constant
training series under MASE, missing preceding actuals for the directional
statistic) are reported as ``None`` instead of failing the whole evaluation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from ewtforecast.series import _as_float_vector, _frozen

# Two-tailed studentized-range constants (infinite df, divided by sqrt(2)) for
# the critical-difference formula, indexed by model count.
NEMENYI_Q = {
    0.05: {2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850,
           7: 2.949, 8: 3.031, 9: 3.102, 10: 3.164},
    0.10: {2: 1.645, 3: 2.052, 4: 2.291, 5: 2.459, 6: 2.589,
           7: 2.693, 8: 2.780, 9: 2.855, 10: 2.920},
}

EXACT_WILCOXON_LIMIT = 25


@dataclass(frozen=True)
class EvalSeries:
    """Actuals and forecasts over one evaluation span.

    ``previous`` holds the actual observation immediately preceding each
    target (needed by the directional statistic); ``train`` is the series the
    model was fit on (needed by the scaled error's denominator).
    """

    actuals: np.ndarray
    forecasts: np.ndarray
    previous: np.ndarray | None = None
    train: np.ndarray | None = None

    def __post_init__(self):
        actuals = _as_float_vector(self.actuals, "actuals")
        forecasts = _as_float_vector(self.forecasts, "forecasts")
        if actuals.size != forecasts.size or actuals.size < 1:
            raise ValueError(f"actuals/forecasts length mismatch: {actuals.size} vs {forecasts.size}")
        if not (np.all(np.isfinite(actuals)) and np.all(np.isfinite(forecasts))):
            raise ValueError("actuals and forecasts must be finite")
        object.__setattr__(self, "actuals", _frozen(actuals))
        object.__setattr__(self, "forecasts", _frozen(forecasts))
        if self.previous is not None:
            prev = _as_float_vector(self.previous, "previous")
            if prev.size != actuals.size:
                raise ValueError("previous must align with actuals")
            object.__setattr__(self, "previous", _frozen(prev))
        if self.train is not None:
            train = _as_float_vector(self.train, "train")
            if train.size < 2:
                raise ValueError("training series must have length >= 2 for scaled errors")
            object.__setattr__(self, "train", _frozen(train))

    def __len__(self) -> int:
        return int(self.actuals.size)


@dataclass(frozen=True)
class MetricSet:
    """All error statistics for one model/series pair. ``mape`` is a raw fraction."""

    mae: float
    mse: float
    rmse: float
    mape: float | None
    mase: float | None
    dstat: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def compute_metrics(ev: EvalSeries) -> MetricSet:
    """MAE, MSE, RMSE, MAPE, MASE and the directional statistic for one span."""
    err = ev.forecasts - ev.actuals
    abs_err = np.abs(err)
    mae = float(abs_err.mean())
    mse = float(np.mean(err ** 2))
    rmse = float(np.sqrt(mse))

    mape = None
    if np.all(ev.actuals != 0.0):
        mape = float(np.mean(np.abs(err / ev.actuals)))

    mase = None
    if ev.train is not None:
        naive = float(np.mean(np.abs(np.diff(ev.train))))
        if naive > 0.0:
            mase = float(np.mean(abs_err / naive))

    direction = dstat(ev) if ev.previous is not None else None
    return MetricSet(mae, mse, rmse, mape, mase, direction)


def dstat(ev: EvalSeries) -> float:
    """Percentage of steps where forecast and actual moved the same way.

    A step counts only when the product of the two moves (each relative to the
    preceding actual) is strictly positive, so ties score zero.
    """
    if ev.previous is None:
        raise ValueError("directional statistic needs the preceding actual for each step")
    actual_move = ev.actuals - ev.previous
    forecast_move = ev.forecasts - ev.previous
    hits = (actual_move * forecast_move) > 0.0
    return float(100.0 * hits.mean())


class WilcoxonResult(NamedTuple):
    statistic: float
    p_value: float
    n_nonzero: int
    method: str


def wilcoxon_signed_rank(errors_a, errors_b) -> WilcoxonResult:
    """Two-sided paired signed-rank test on two error samples.

    Zero differences are dropped. The null distribution is enumerated exactly
    (conditionally on the observed tie pattern) up to 25 non-zero differences;
    beyond that a normal approximation with tie correction is used. Swapping
    the two samples leaves the p-value unchanged. A non-finite value in either
    sample raises ``ValueError``.
    """
    a = _as_float_vector(errors_a, "errors_a")
    b = _as_float_vector(errors_b, "errors_b")
    if a.size != b.size:
        raise ValueError(f"samples must have equal length, got {a.size} and {b.size}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("error samples must be finite")
    if a.size < 6:
        raise ValueError(f"need at least 6 paired samples, got {a.size}")
    diff = a - b
    diff = diff[diff != 0.0]
    n = int(diff.size)
    if n == 0:
        return WilcoxonResult(0.0, 1.0, 0, "degenerate")

    ranks = _average_ranks(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())
    w_minus = float(ranks.sum() - w_plus)
    statistic = min(w_plus, w_minus)

    if n <= EXACT_WILCOXON_LIMIT:
        p = _exact_two_sided(ranks, statistic)
        return WilcoxonResult(statistic, p, n, "exact")

    mu = n * (n + 1) / 4.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    tie_term = float(np.sum(tie_counts ** 3 - tie_counts)) / 2.0
    # Tie-corrected variance, in the order of operations scipy's test uses.
    z = (w_plus - mu) / math.sqrt((n * (n + 1) * (2 * n + 1) - tie_term) / 24.0)
    # Two normal tails: 2 * Phi(-|z|) = erfc(|z| / sqrt(2)). The argument is
    # formed as |z| * sqrt(1/2): in the far tail one ulp of it moves the
    # p-value by about z^2 ulp, and this is the rounding of scipy's ndtr.
    p = min(1.0, math.erfc(abs(z) * math.sqrt(0.5)))
    return WilcoxonResult(statistic, p, n, "normal")


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n of a finite 1-D sample, ties sharing the mean of their positions.

    A stable sort puts equal values in runs; a run over sorted positions
    ``i+1 .. j`` (1-based) gives each of its members ``(i + 1 + j) / 2``, which
    is exact in float64, so the ranks equal ``scipy.stats.rankdata``'s bit for bit.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


def _exact_two_sided(ranks: np.ndarray, statistic: float) -> float:
    # Distribution of the positive-rank sum over all 2^n sign assignments,
    # tabulated on doubled ranks so tied (half-integer) ranks stay exact.
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    counts = np.zeros(int(doubled.sum()) + 1)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[:-r]
        counts = counts + shifted
    threshold = int(np.rint(2.0 * statistic))
    cdf = counts[: threshold + 1].sum() / 2.0 ** len(doubled)
    return float(min(1.0, 2.0 * cdf))


class NemenyiResult(NamedTuple):
    average_ranks: np.ndarray
    critical_difference: float
    rank_table: np.ndarray


def friedman_nemenyi(error_table, alpha: float = 0.05) -> NemenyiResult:
    """Average ranks across datasets plus the critical difference of mean ranks.

    ``error_table`` is models x datasets; smaller is better, ties share their
    average rank; a non-finite entry raises ``ValueError``. Two mean ranks
    further apart than the critical difference differ significantly at the
    chosen level.
    """
    table = np.asarray(error_table, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError("error_table must be models x datasets")
    k, n = table.shape
    if k < 2 or n < 2:
        raise ValueError(f"need at least 2 models and 2 datasets, got {k} x {n}")
    if alpha not in NEMENYI_Q:
        raise ValueError(f"alpha must be one of {sorted(NEMENYI_Q)}, got {alpha}")
    if k not in NEMENYI_Q[alpha]:
        raise ValueError(f"critical values tabulated for 2..10 models, got {k}")
    if not np.all(np.isfinite(table)):
        raise ValueError("error_table must be finite")
    rank_table = np.apply_along_axis(_average_ranks, 0, table)
    average = rank_table.mean(axis=1)
    cd = NEMENYI_Q[alpha][k] * np.sqrt(k * (k + 1) / (6.0 * n))
    return NemenyiResult(average, float(cd), rank_table)
