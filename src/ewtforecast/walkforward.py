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

A band's tail is a fixed linear map of its window, because EWT filters act in
the Fourier domain, so the builder never forms a band in full. With frozen
edges each band's impulse response is the real inverse FFT of its one-sided
response (EWT filters are real and even in frequency); the responses of the
bank :func:`~ewtforecast.ewt.build_filter_bank` forms become one real matrix
of taps per window width, and a group's rows are one product of its windows
with that matrix. With adaptive edges each chunk of rows takes one
real FFT, which feeds the batched edge detection, and a fixed real basis maps
a filtered one-sided spectrum to its tail. The banks themselves are never
formed: band ``k`` is the falling profile of edge ``k + 1`` minus that of edge
``k`` (in real arithmetic the rising profile of an edge is one minus its
falling one, and the clipped gamma keeps transition zones apart). So band 0's
tail is the low-pass tail below the first edge, a middle band's the
difference of the low-pass tails below its two edges, and the last band's the
raw lags minus the low-pass tail below the last edge; a row computes one
low-pass tail per distinct edge. Adaptive edges sit on the bin grid, so a
chunk that evaluates at least as many such profiles as its one-sided grid has
inner bins gathers them from a table of falling profiles cached per width and
gamma; a smaller chunk, such as a one-origin build or any chunk of a window
wider than about 400 samples, evaluates the formula instead.

Configs that differ only in ``n_bands`` and ``gamma``, such as the candidates
of a model search, are built in one pass over the origins by
:func:`_build_family`, whose one-config case is
:func:`build_walkforward_features`. They share the windows and raw lags and,
per adaptive chunk, the FFT, one call of :func:`~ewtforecast.ewt.band_edges`,
which shares the smoothing and the ranking of spectral peaks, and the
low-pass tails of :func:`_low_pass_tails`: configs with one gamma compute a
(row, edge) pair shared between them once. Each pair's product with the tail
basis has one shape, so every row is bit for bit what a build of its config
alone gives, whatever the range and the chunking.
:func:`causal_decompose_at` decomposes one origin in full with the scalar EWT
functions and is the reference the batched rows are tested against, within a
stated rounding tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ewtforecast.ewt import (
    EwtBoundaries,
    _clipped_gamma,
    _edge_profiles,
    _grid,
    _profile_table,
    band_edges,
    build_filter_bank,
    check_edges,
    decompose,
    detect_boundaries,
    magnitude_spectrum,
)
from ewtforecast.series import TimeSeries, WindowedDataset

ADAPTIVE_PER_STEP = "adaptive_per_step"
FROZEN_FROM_TRAIN = "frozen_from_train"
BOUNDARY_MODES = (ADAPTIVE_PER_STEP, FROZEN_FROM_TRAIN)

# A spectrum needs a few samples beyond the lag window to say anything.
MIN_WINDOW_MARGIN = 8
DEFAULT_WINDOW_FLOOR = 128
# Size of one adaptive chunk's largest temporaries: per row, its spectrum as
# real and imaginary parts, and per band edge at most one (row, edge) pair's
# falling profile and filtered spectrum, that is 2 + 3 * (K - 1) floats per bin
# for a config of K bands, summed over the configs built together (which counts
# the spectrum once per config). Most of a chunk's cost is per numpy call, so
# smaller chunks cost time; larger ones buy little and raise peak memory by a
# few times this amount.
CHUNK_BYTES = 2 << 20


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

    @property
    def first_origin(self) -> int:
        """Smallest origin whose window fits: :meth:`window_widths` raises for
        every earlier one."""
        if isinstance(self.window, str):
            return self.lags + MIN_WINDOW_MARGIN - 1
        return self.window - 1

    def window_at(self, origin: int) -> int:
        """Effective decomposition length for a row anchored at ``origin``."""
        return int(self.window_widths(np.array([origin]))[0])

    def window_widths(self, origins: np.ndarray) -> np.ndarray:
        """Effective decomposition length of every origin in an integer array;
        raises for the first origin whose window does not fit."""
        available = origins + 1
        if self.window == "all":
            widths = available
        elif self.window == "auto":
            widths = np.minimum(max(4 * self.lags, DEFAULT_WINDOW_FLOOR), available)
        else:
            widths = np.full(origins.shape, self.window)
        too_long = widths > available
        too_short = widths < self.lags + MIN_WINDOW_MARGIN
        bad = too_long | too_short
        if bad.any():
            i = bad.argmax()
            origin, width = int(origins[i]), int(widths[i])
            if too_long[i]:
                raise ValueError(f"origin {origin} has only {origin + 1} observations "
                                 f"but the window needs {width}")
            raise ValueError(
                f"window of {width} at origin {origin} is shorter than lags + {MIN_WINDOW_MARGIN}"
            )
        return widths


class CausalSlice(NamedTuple):
    """Trailing band values at one origin, plus how they were produced."""

    tails: np.ndarray            # (n_bands, lags)
    boundaries: EwtBoundaries
    window: int


def freeze_boundaries(ts: TimeSeries, cfg: WalkForwardConfig, origin: int) -> EwtBoundaries:
    """Detect band edges once, on the trailing window ending at ``origin``."""
    width = cfg.window_at(origin)
    window = ts.values[origin - width + 1: origin + 1]
    return detect_boundaries(magnitude_spectrum(window), cfg.n_bands)


def causal_decompose_at(
    ts: TimeSeries,
    origin: int,
    cfg: WalkForwardConfig,
    frozen_boundaries: EwtBoundaries | None = None,
) -> CausalSlice:
    """Decompose the trailing window ending at ``origin`` and return band tails.

    Only ``ts.values[origin - window + 1 : origin + 1]`` is ever touched, so
    the output cannot depend on later observations. Band edges are those
    :func:`freeze_boundaries` detects on the window, unless ``frozen_boundaries``
    is supplied.
    """
    if origin >= len(ts):
        raise ValueError(f"origin {origin} beyond series of length {len(ts)}")
    width = cfg.window_at(origin)
    window = ts.values[origin - width + 1: origin + 1]
    bounds = frozen_boundaries
    if bounds is None:
        bounds = freeze_boundaries(ts, cfg, origin)
    bank = build_filter_bank(bounds, width, cfg.gamma)
    dec = decompose(window, bank)
    return CausalSlice(dec.components[:, -cfg.lags:], bounds, width)


def _check_range(ts: TimeSeries, cfg: WalkForwardConfig, start: int, stop: int) -> None:
    if stop <= start:
        raise ValueError(f"empty origin range [{start}, {stop})")
    if stop > len(ts) - cfg.horizon + 1:
        raise ValueError(
            f"origin range [{start}, {stop}) leaves no target at horizon {cfg.horizon} "
            f"for a series of length {len(ts)}"
        )


def _row_bytes(n_bands: int, width: int) -> int:
    """Bytes of one row's largest temporaries for one adaptive config (see ``CHUNK_BYTES``)."""
    return 8 * (width // 2 + 1) * (3 * n_bands - 1)


@lru_cache(maxsize=16)
def _tail_basis(width: int, lags: int) -> np.ndarray:
    """Real map from a filtered one-sided spectrum to the last ``lags`` samples
    of its inverse DFT.

    Row ``j`` is ``c_j cos(2 pi j n / W) / W`` for the real part of bin ``j``
    and row ``W // 2 + 1 + j`` is ``-c_j sin(2 pi j n / W) / W`` for its
    imaginary part, where ``n`` runs over the tail positions
    ``W - lags .. W - 1`` and ``c_j`` is 1 at DC and at Nyquist (even ``W``)
    and 2 elsewhere, which counts the mirrored bins. Shape
    ``(2 * (W // 2 + 1), lags)``; read-only, as it is shared.
    """
    bins = np.arange(width // 2 + 1)
    # Reduce j * n mod W in integers, so the angle keeps full precision.
    angle = (2.0 * np.pi / width) * (np.outer(bins, np.arange(width - lags, width)) % width)
    weight = np.full((bins.size, 1), 2.0 / width)
    weight[0] = 1.0 / width
    if width % 2 == 0:
        weight[-1] = 1.0 / width
    basis = np.concatenate((weight * np.cos(angle), -weight * np.sin(angle)))
    basis.setflags(write=False)
    return basis


def _frozen_taps(responses: np.ndarray, width: int, lags: int) -> np.ndarray:
    """Tail taps of a bank given by its one-sided responses ``(K, W // 2 + 1)``,
    shape ``(W, K * lags)``.

    A real, even response has the real impulse response ``h_k``, the inverse
    real FFT of its one-sided half. Band ``k`` at tail position ``n`` of a
    window ``x`` is the circular convolution ``sum_j x[j] h_k[(n - j) mod W]``,
    so column ``k * lags + l`` holds ``h_k[(W - lags + l - j) mod W]`` over ``j``.
    """
    impulse = np.fft.irfft(responses, n=width, axis=1)
    lag_of = (np.arange(width - lags, width) - np.arange(width)[:, None]) % width
    taps = impulse[:, lag_of]                            # (K, W, lags)
    return taps.transpose(1, 0, 2).reshape(width, -1)


def _low_pass_tails(parts: np.ndarray, edges, gammas, width: int, basis: np.ndarray):
    """Tail of the part of each row's window below each of its band edges.

    ``parts`` holds each row's one-sided spectrum as ``[real parts | imaginary
    parts]``, shape ``(R, 2, W // 2 + 1)``; entry ``j`` of ``edges`` holds one
    row of band edges per window, shape ``(R, K_j - 1)``, with ``gammas[j]``.
    Returns one pair per entry: ``L``, shape ``(R, K_j - 1, lags)``, whose
    ``L[r, i]`` is ``basis`` applied to row ``r``'s spectrum times the falling
    profile of its edge ``i``, and the gamma each row used, shape ``(R,)``.

    A profile is :func:`~ewtforecast.ewt._edge_profiles` with the row's gamma.
    That of an edge on the bin grid in a row whose gamma was not clipped
    depends only on the bin and the requested gamma, so the entries with one
    gamma compute such a (row, bin) pair's ``L`` once. Its profile is gathered
    from :func:`~ewtforecast.ewt._profile_table` where the call evaluates at
    least as many such profiles as the table holds, and evaluated otherwise,
    with the same bits. Every pair's product with the basis has one shape, so
    a pair's ``L`` does not depend on what else is computed with it, bit for bit.
    """
    aw = _grid(width)
    n_table = (width - 1) // 2
    pairs = []  # rows and profiles of the pooled pairs, in the order of their L
    n_pairs = 0
    found = [None] * len(edges)
    lows = [None] * len(edges)
    for gamma in dict.fromkeys(gammas):
        group = [j for j, g in enumerate(gammas) if g == gamma]
        if len(group) == 1 and edges[group[0]].size < n_table:
            # One config with too few edges to fill a table shares no pair, so
            # it skips the pairing, whose extra numpy calls make a one-origin
            # build about a quarter slower; its products have the pooled shape.
            (j,) = group
            gamma_eff = _clipped_gamma(edges[j], gamma)
            falling = _edge_profiles(edges[j], gamma_eff[:, None], aw, rising=False)
            filtered = falling[:, :, None] * parts[:, None]
            low = filtered.reshape(-1, 1, basis.shape[0]) @ basis
            lows[j] = low.reshape(*edges[j].shape, basis.shape[1]), gamma_eff
            continue
        keys = []
        for j in group:
            omegas = edges[j]
            gamma_eff = _clipped_gamma(omegas, gamma)
            bins = np.rint(omegas * (width / (2.0 * np.pi))).astype(np.intp)
            np.clip(bins, 1, n_table, out=bins)
            shared = aw[bins] == omegas
            shared &= (gamma_eff == gamma)[:, None]
            # A pooled pair's key is row * (n_table + 1) + bin.
            bins += (n_table + 1) * np.arange(omegas.shape[0])[:, None]
            keys.append(bins[shared])
            at = np.empty(omegas.shape, dtype=np.intp)
            own_rows, own_edges = np.nonzero(~shared)
            if own_rows.size:
                pairs.append((own_rows, _edge_profiles(omegas[own_rows, own_edges],
                                                       gamma_eff[own_rows], aw, rising=False)))
                at[own_rows, own_edges] = np.arange(n_pairs, n_pairs + own_rows.size)
                n_pairs += own_rows.size
            found[j] = at, shared, gamma_eff
        keys = np.concatenate(keys)
        if len(group) > 1:
            keys, inverse = np.unique(keys, return_inverse=True)
        else:
            inverse = np.arange(keys.size)
        inverse += n_pairs
        key_rows, key_bins = np.divmod(keys, n_table + 1)
        pairs.append((key_rows, _profile_table(width, gamma)[key_bins - 1]
                      if keys.size >= n_table
                      else _edge_profiles(aw[key_bins], np.array(gamma), aw, rising=False)))
        n_pairs += keys.size
        done = 0
        for j in group:
            at, shared, _ = found[j]
            count = int(np.count_nonzero(shared))
            at[shared] = inverse[done: done + count]
            done += count
    if pairs:
        filtered = parts[np.concatenate([rows for rows, _ in pairs])]
        filtered *= np.concatenate([profiles for _, profiles in pairs])[:, None]
        low = (filtered.reshape(n_pairs, 1, basis.shape[0]) @ basis)[:, 0]
        for j, pooled in enumerate(found):
            if pooled is not None:
                lows[j] = low[pooled[0]], pooled[2]
    return lows


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
    unless ``frozen_boundaries`` carries edges frozen earlier; adaptive mode
    takes none. Band edges and fallback flags are those
    :func:`causal_decompose_at` finds, bit for bit; band tails match its full
    inverse FFT to rounding, within ``1e-12`` times the largest absolute value
    of the row's window (tested). A row does not depend on the range or the
    chunking it was built in, bit for bit: every per-row or per-(row, edge)
    product has the same shape whatever the number of rows.

    ``meta`` counts uniform-fallback edges and clipped ``gamma`` (per row in
    adaptive mode, once for frozen edges). Both modes work in real arithmetic,
    so ``max_imag_residue`` is always 0.0. The one-config case of
    :func:`_build_family`.
    """
    (ds,) = _build_family(ts, [cfg], start, stop, [frozen_boundaries])
    if isinstance(ds, ValueError):
        raise ds
    return ds


def _build_family(ts: TimeSeries, cfgs, start: int, stop: int, frozen_boundaries=None) -> list:
    """:func:`build_walkforward_features` for configs that differ only in
    ``n_bands`` and ``gamma``, in one pass over the origins.

    ``frozen_boundaries`` holds each frozen config's edges or None. Entry ``k``
    is, bit for bit, what ``build_walkforward_features(ts, cfgs[k], start,
    stop, frozen_boundaries[k])`` returns, or the ``ValueError`` it would raise
    for that config alone; a range or window that fits no config raises. The
    windows and raw lags are shared, and each frozen config's bank is one
    :func:`~ewtforecast.ewt.build_filter_bank` call per window width. Per
    adaptive chunk, the ``rfft``, one edge call and one call of
    :func:`_low_pass_tails` serve every config, each with one entry per
    config; the edge check and the counters run per config.
    """
    cfg = cfgs[0]
    if any(replace(c, n_bands=cfg.n_bands, gamma=cfg.gamma) != cfg for c in cfgs[1:]):
        raise ValueError("the configs of one family may differ only in n_bands and gamma")
    _check_range(ts, cfg, start, stop)
    origins = np.arange(start, stop, dtype=np.int64)
    widths = cfg.window_widths(origins)
    results: list = [None] * len(cfgs)
    frozen = list(frozen_boundaries or [None] * len(cfgs))
    fixed = cfg.boundary_mode == FROZEN_FROM_TRAIN
    if not fixed and any(f is not None for f in frozen):
        raise ValueError(f"frozen band edges need boundary_mode {FROZEN_FROM_TRAIN!r}")
    if fixed:
        for k, c in enumerate(cfgs):
            if frozen[k] is None:
                try:
                    frozen[k] = freeze_boundaries(ts, c, start)
                except ValueError as exc:
                    results[k] = exc

    values = ts.values
    lags = cfg.lags
    live = [k for k, result in enumerate(results) if result is None]
    X = [np.empty((origins.size, c.feature_dim)) for c in cfgs]
    fallbacks = [0] * len(cfgs)
    clipped = [0] * len(cfgs)
    bounds = [0, *(np.flatnonzero(widths[1:] != widths[:-1]) + 1).tolist(), origins.size]
    for first, last in zip(bounds, bounds[1:]):
        if not live:
            break
        width = int(widths[first])
        # windows[i] ends at origin first + i; consecutive origins overlap.
        windows = sliding_window_view(values, width)[start + first - width + 1:
                                                     start + last - width + 1]
        for k in live:
            X[k][first:last, :lags] = windows[:, -lags:]
        # Every product below is a stack of per-row (frozen) or per-(row, edge)
        # (adaptive) products, so that each has one shape whatever the number
        # of rows: as a 2-D product, a single row would take another BLAS
        # kernel and round differently from the same row inside a larger build.
        if fixed:
            for k in live:
                bank = build_filter_bank(frozen[k], width, cfgs[k].gamma)
                clipped[k] = int(bank.gamma_clipped)
                taps = _frozen_taps(bank.responses[:, :width // 2 + 1], width, lags)
                np.matmul(windows[:, None, :], taps, out=X[k][first:last, None, lags:])
            continue
        basis = _tail_basis(width, lags)
        chunk = max(1, CHUNK_BYTES // sum(_row_bytes(cfgs[k].n_bands, width) for k in live))
        for lo in range(0, windows.shape[0], chunk):
            block = windows[lo: lo + chunk]
            rows = block.shape[0]
            spectra = np.fft.rfft(block, axis=1)
            edges = dict(zip(live, band_edges(np.abs(spectra), width,
                                              [cfgs[k].n_bands for k in live])))
            for k, (omegas, _) in edges.items():
                try:
                    check_edges(omegas)
                except ValueError as exc:
                    results[k] = exc
            live = [k for k in live if results[k] is None]
            if not live:
                break
            # Each row's spectrum as [real parts | imaginary parts], the
            # basis's row order.
            parts = np.empty((rows, 2, spectra.shape[1]))
            parts[:, 0] = spectra.real
            parts[:, 1] = spectra.imag
            lows = _low_pass_tails(parts, [edges[k][0] for k in live],
                                   [cfgs[k].gamma for k in live], width, basis)
            for k, (low, gamma_eff) in zip(live, lows):
                fallbacks[k] += int(np.count_nonzero(edges[k][1]))
                clipped[k] += int(np.count_nonzero(gamma_eff < cfgs[k].gamma))
                # Band 0 is the low-pass tail below edge 1, band i the
                # difference of those below edges i + 1 and i, and the last
                # band the raw lags minus the tail below the last edge: the
                # steps of [0, tails below each edge, raw lags].
                out = X[k][first + lo: first + lo + rows].reshape(rows, -1, lags)
                cuts = np.concatenate((np.zeros((rows, 1, lags)), low, out[:, :1]), axis=1)
                np.subtract(cuts[:, 1:], cuts[:, :-1], out=out[:, 1:])
    Y = values[origins + cfg.horizon].reshape(-1, 1)
    for k in live:
        meta = {
            "fallback_count": int(frozen[k].uniform_fallback if fixed else fallbacks[k]),
            "gamma_clipped_count": clipped[k],
            "max_imag_residue": 0.0,
        }
        results[k] = WindowedDataset._adopt(X[k], Y, origins, meta)
    return results


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
    }
    return WindowedDataset._adopt(X, Y, origins, meta)

