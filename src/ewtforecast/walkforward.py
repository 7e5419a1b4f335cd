"""Causal (walk-forward) wavelet feature construction.

A standard decompose-then-window pipeline filters the whole series once, so
every windowed row contains information from observations after its forecast
origin. Here the decomposition is instead re-run at each origin on a trailing
window that ends at the origin, which makes every feature row a function of
past values only. The deliberately leaky variant is kept as an experimental
control so the effect of the leak can be measured.

Each feature row concatenates the raw lag window with the trailing ``lags``
values of every band component, giving a fixed dimension of
``(n_bands + 1) * lags``.

The builder decomposes all windows of a range in chunks of rows: one FFT per
chunk, one filter bank per window width in frozen mode (in adaptive mode one
batched edge detection and a stack of per-row banks), one inverse FFT.
:func:`causal_decompose_at` does the same for one origin with the scalar EWT
functions and is the reference the batched rows are tested against, bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ewtforecast.ewt import (
    EwtBoundaries,
    band_edges,
    build_filter_bank,
    check_edges,
    decompose,
    detect_boundaries,
    filter_bank_responses,
    magnitude_spectrum,
)
from ewtforecast.series import TimeSeries, WindowedDataset

ADAPTIVE_PER_STEP = "adaptive_per_step"
FROZEN_FROM_TRAIN = "frozen_from_train"
BOUNDARY_MODES = (ADAPTIVE_PER_STEP, FROZEN_FROM_TRAIN)

# A spectrum needs a few samples beyond the lag window to say anything.
MIN_WINDOW_MARGIN = 8
DEFAULT_WINDOW_FLOOR = 128
# Size of one chunk's band spectra (complex, rows x bands x window). Larger
# chunks buy little speed and raise peak memory by a few times this amount.
CHUNK_BYTES = 1 << 18


@dataclass(frozen=True)
class WalkForwardConfig:
    """Settings for per-origin decomposition.

    ``window`` is the trailing decomposition length: an explicit int, ``"auto"``
    (4x lags, at least 128, capped at the available history) or ``"all"``
    (everything up to the origin). ``boundary_mode`` chooses between
    re-detecting band edges at every step and freezing them once on the
    earliest window of the build range.
    """

    n_bands: int
    lags: int
    horizon: int = 1
    window: int | str = "auto"
    gamma: float = 0.1
    boundary_mode: str = ADAPTIVE_PER_STEP

    def __post_init__(self):
        if self.n_bands < 1:
            raise ValueError("n_bands must be >= 1")
        if self.lags < 1 or self.horizon < 1:
            raise ValueError("lags and horizon must be positive")
        if isinstance(self.window, str):
            if self.window not in ("auto", "all"):
                raise ValueError(f"window must be an int, 'auto' or 'all', got {self.window!r}")
        elif self.window < self.lags + MIN_WINDOW_MARGIN:
            raise ValueError(
                f"window {self.window} too small: need at least lags + {MIN_WINDOW_MARGIN}"
            )
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.boundary_mode not in BOUNDARY_MODES:
            raise ValueError(f"boundary_mode must be one of {BOUNDARY_MODES}")

    @property
    def feature_dim(self) -> int:
        return (self.n_bands + 1) * self.lags

    def window_at(self, origin: int) -> int:
        """Effective decomposition length for a row anchored at ``origin``."""
        available = origin + 1
        if self.window == "all":
            width = available
        elif self.window == "auto":
            width = min(max(4 * self.lags, DEFAULT_WINDOW_FLOOR), available)
        else:
            width = self.window
        if width > available:
            raise ValueError(
                f"origin {origin} has only {available} observations but the window needs {width}"
            )
        if width < self.lags + MIN_WINDOW_MARGIN:
            raise ValueError(
                f"window of {width} at origin {origin} is shorter than lags + {MIN_WINDOW_MARGIN}"
            )
        return width


class CausalSlice(NamedTuple):
    """Trailing band values at one origin, plus how they were produced."""

    tails: np.ndarray            # (n_bands, lags)
    boundaries: EwtBoundaries
    window: int


def causal_decompose_at(
    ts: TimeSeries,
    origin: int,
    cfg: WalkForwardConfig,
    frozen_boundaries: EwtBoundaries | None = None,
) -> CausalSlice:
    """Decompose the trailing window ending at ``origin`` and return band tails.

    Only ``ts.values[origin - window + 1 : origin + 1]`` is ever touched, so
    the output cannot depend on later observations. Band edges are re-detected
    on the window unless ``frozen_boundaries`` is supplied.
    """
    if origin >= len(ts):
        raise ValueError(f"origin {origin} beyond series of length {len(ts)}")
    width = cfg.window_at(origin)
    window = ts.values[origin - width + 1: origin + 1]
    if frozen_boundaries is not None:
        bounds = frozen_boundaries
    else:
        bounds = detect_boundaries(magnitude_spectrum(window), cfg.n_bands)
    bank = build_filter_bank(bounds, width, cfg.gamma)
    dec = decompose(window, bank)
    return CausalSlice(dec.components[:, -cfg.lags:], bounds, width)


def freeze_boundaries(ts: TimeSeries, cfg: WalkForwardConfig, origin: int) -> EwtBoundaries:
    """Detect band edges once, on the trailing window ending at ``origin``."""
    width = cfg.window_at(origin)
    window = ts.values[origin - width + 1: origin + 1]
    return detect_boundaries(magnitude_spectrum(window), cfg.n_bands)


def _check_range(ts: TimeSeries, cfg: WalkForwardConfig, start: int, stop: int) -> None:
    if stop <= start:
        raise ValueError(f"empty origin range [{start}, {stop})")
    if stop > len(ts) - cfg.horizon + 1:
        raise ValueError(
            f"origin range [{start}, {stop}) leaves no target at horizon {cfg.horizon} "
            f"for a series of length {len(ts)}"
        )


def build_walkforward_features(
    ts: TimeSeries,
    cfg: WalkForwardConfig,
    start: int,
    stop: int,
    frozen_boundaries: EwtBoundaries | None = None,
) -> WindowedDataset:
    """Assemble causal feature rows for every origin in ``range(start, stop)``.

    Row layout per origin t: ``[x_{t-lags+1..t} | band-1 tail | ... | band-K
    tail]`` with target ``x_{t+horizon}``. In frozen mode the band edges come
    from the earliest window of the range (a training prefix for every row)
    unless ``frozen_boundaries`` carries edges frozen earlier. Every row equals
    the one :func:`causal_decompose_at` gives for its origin, bit for bit.

    ``meta`` counts uniform-fallback edges and clipped ``gamma`` (per row in
    adaptive mode, once for frozen edges) and records the largest imaginary
    residue the inverse FFTs discarded.
    """
    _check_range(ts, cfg, start, stop)
    frozen = frozen_boundaries
    if frozen is None and cfg.boundary_mode == FROZEN_FROM_TRAIN:
        frozen = freeze_boundaries(ts, cfg, start)

    origins = np.arange(start, stop, dtype=np.int64)
    values = ts.values
    lags = cfg.lags
    X = np.empty((origins.size, cfg.feature_dim))

    widths = np.array([cfg.window_at(int(t)) for t in origins])
    group_starts = np.flatnonzero(np.diff(widths, prepend=-1))
    fallbacks = clipped = 0
    residue = 0.0
    for first, last in zip(group_starts, np.append(group_starts[1:], origins.size)):
        width = int(widths[first])
        # windows[i] ends at origin first + i; consecutive origins overlap.
        windows = sliding_window_view(values, width)[start + first - width + 1:
                                                     start + last - width + 1]
        if frozen is not None:
            bank = build_filter_bank(frozen, width, cfg.gamma)
            responses = bank.responses[None]
            clipped = int(bank.gamma_clipped)
        chunk = max(1, CHUNK_BYTES // (16 * cfg.n_bands * width))
        for lo in range(0, windows.shape[0], chunk):
            block = windows[lo: lo + chunk]
            if frozen is None:
                omegas, fallback = band_edges(np.abs(np.fft.rfft(block, axis=1)), width,
                                              cfg.n_bands)
                check_edges(omegas)
                responses, gamma_eff = filter_bank_responses(omegas, width, cfg.gamma)
                fallbacks += int(np.count_nonzero(fallback))
                clipped += int(np.count_nonzero(gamma_eff < cfg.gamma))
            bands = np.fft.ifft(responses * np.fft.fft(block, axis=1)[:, None, :], axis=2)
            residue = max(residue, float(bands.imag.max()), -float(bands.imag.min()))
            rows = slice(first + lo, first + lo + block.shape[0])
            X[rows, :lags] = block[:, -lags:]
            X[rows, lags:] = bands.real[:, :, -lags:].reshape(block.shape[0], -1)
    Y = values[origins + cfg.horizon].reshape(-1, 1)
    meta = {
        "fallback_count": int(frozen.uniform_fallback if frozen is not None else fallbacks),
        "gamma_clipped_count": clipped,
        "max_imag_residue": residue,
        "frozen_boundaries": None if frozen is None else [float(w) for w in frozen.omegas],
    }
    return WindowedDataset(X, Y, origins, meta)


def leaky_features(ts: TimeSeries, cfg: WalkForwardConfig, start: int, stop: int) -> WindowedDataset:
    """The anti-pattern this module exists to avoid, kept as a control.

    The whole series is decomposed once, so each row's band values were
    filtered with knowledge of observations after the row's origin. Output
    shape and layout match :func:`build_walkforward_features` exactly.
    """
    _check_range(ts, cfg, start, stop)
    if start < cfg.lags - 1:
        raise ValueError(f"start origin {start} leaves no full lag window of {cfg.lags}")
    bounds = detect_boundaries(magnitude_spectrum(ts.values), cfg.n_bands)
    bank = build_filter_bank(bounds, len(ts), cfg.gamma)
    dec = decompose(ts.values, bank)

    origins = np.arange(start, stop, dtype=np.int64)
    lags = cfg.lags
    # (n_bands + 1, n_windows, lags): the series, then each band, windowed.
    blocks = sliding_window_view(np.vstack([ts.values, dec.components]), lags, axis=1)
    X = blocks[:, start - lags + 1: stop - lags + 1].transpose(1, 0, 2).reshape(origins.size, -1)
    Y = ts.values[origins + cfg.horizon].reshape(-1, 1)
    meta = {
        "fallback_count": int(bounds.uniform_fallback),
        "gamma_clipped_count": int(bank.gamma_clipped),
        "max_imag_residue": dec.max_imag_residue,
        "frozen_boundaries": [float(w) for w in bounds.omegas],
    }
    return WindowedDataset(X, Y, origins, meta)

