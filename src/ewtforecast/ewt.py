"""Empirical wavelet decomposition of a real signal.

The pipeline is: magnitude spectrum -> adaptive band-boundary detection ->
Meyer-type band filter bank -> filtering in the Fourier domain. The filters
form an amplitude partition of unity (their pointwise sum is one at every FFT
bin), so summing the band components reconstructs the signal exactly up to
floating-point rounding. Band edges live on the normalized frequency axis
``omega = 2*pi*bin/n`` with the one-sided grid covering ``[0, pi]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ewtforecast.series import _as_float_vector, _frozen

MIN_SIGNAL_LENGTH = 4
# Width of the moving average that smooths a spectrum before peak picking.
SMOOTH_WINDOW = 5


@dataclass(frozen=True)
class Spectrum:
    """One-sided magnitude spectrum |DFT| on the grid of size floor(n/2)+1."""

    magnitudes: np.ndarray
    signal_length: int

    def __post_init__(self):
        mag = _as_float_vector(self.magnitudes, "magnitudes")
        if mag.size != self.signal_length // 2 + 1:
            raise ValueError(
                f"grid size {mag.size} inconsistent with signal length {self.signal_length}"
            )
        if np.any(mag < 0.0):
            raise ValueError("magnitudes must be non-negative")
        object.__setattr__(self, "magnitudes", _frozen(mag))


@dataclass(frozen=True)
class EwtBoundaries:
    """Band edges, strictly increasing in the open interval (0, pi).

    ``uniform_fallback`` marks boundaries produced by the uniform segmentation
    fallback (too few spectral peaks for the requested band count).
    """

    omegas: np.ndarray
    uniform_fallback: bool = False

    def __post_init__(self):
        om = _as_float_vector(self.omegas, "boundary frequencies")
        check_edges(om)
        object.__setattr__(self, "omegas", _frozen(om))

    @property
    def n_bands(self) -> int:
        return int(self.omegas.size) + 1


@dataclass(frozen=True)
class EwtFilterBank:
    """K real symmetric frequency responses over the full FFT grid of length n.

    The responses sum to one at every bin, and each response satisfies
    ``response[k] == response[n - k]`` so that filtered components stay real.
    """

    boundaries: EwtBoundaries
    gamma: float
    responses: np.ndarray
    signal_length: int
    gamma_requested: float
    gamma_clipped: bool = False

    def __post_init__(self):
        resp = np.asarray(self.responses, dtype=np.float64)
        if resp.ndim != 2 or resp.shape != (self.boundaries.n_bands, self.signal_length):
            raise ValueError(
                f"responses must have shape (K, n) = "
                f"({self.boundaries.n_bands}, {self.signal_length}), got {resp.shape}"
            )
        object.__setattr__(self, "responses", _frozen(resp))

    @property
    def n_bands(self) -> int:
        return self.boundaries.n_bands


@dataclass(frozen=True)
class EwtDecomposition:
    """Band components of one signal; their elementwise sum is the signal."""

    components: np.ndarray
    bank: EwtFilterBank
    max_imag_residue: float = 0.0

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=np.float64)
        if comp.ndim != 2 or comp.shape != (self.bank.n_bands, self.bank.signal_length):
            raise ValueError("components must have shape (K, n) matching the bank")
        object.__setattr__(self, "components", _frozen(comp))


def magnitude_spectrum(signal) -> Spectrum:
    """|DFT| of a real signal on the one-sided grid."""
    x = _as_float_vector(signal, "signal")
    if x.size < MIN_SIGNAL_LENGTH:
        raise ValueError(f"signal too short for a spectrum: {x.size} < {MIN_SIGNAL_LENGTH}")
    return Spectrum(np.abs(np.fft.rfft(x)), x.size)


def _moving_average(values: np.ndarray, width: int) -> np.ndarray:
    """Centered moving average along the last axis, with zeros beyond the ends.

    Bin ``i`` sums ``values[i - width // 2 : i + (width + 1) // 2] / width``
    left to right. Where the whole window fits this equals
    ``np.convolve(values, kernel, mode="same")`` bit for bit. Where the window
    overhangs an end, ``np.convolve`` may fuse the multiply-adds, and on
    non-negative values the two then differ by at most ``2 * (width - 1)`` ulp
    (the largest difference seen is 4 ulp).
    """
    if width <= 1:
        return values
    m = values.shape[-1]
    padded = np.zeros(values.shape[:-1] + (m + width - 1,))
    padded[..., width // 2: width // 2 + m] = values
    padded *= 1.0 / width
    out = padded[..., :m].copy()
    for shift in range(1, width):
        out += padded[..., shift: shift + m]
    return out


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Plateau-aware local maxima of each row along the last axis.

    Each flat run strictly above both neighbours counts once, at its center
    bin; edge runs need only their inner neighbour, and a run spanning a whole
    row is no maximum. Returns ascending indices into ``values.ravel()``.
    """
    flat = values.ravel()
    n, m = flat.size, values.shape[-1]
    if n == 0:
        return np.empty(0, dtype=np.intp)
    row_start = np.zeros(n + 1, dtype=bool)  # bin 0 of every row, plus the end
    row_start[::m] = True
    row_start[n] = True
    is_start = row_start.copy()  # run starts: a row never continues the last row's run
    is_start[1:n] |= flat[1:] != flat[:-1]
    bounds = is_start.nonzero()[0]
    starts, next_starts = bounds[:-1], bounds[1:]
    level = flat[starts]
    row_first = row_start[starts]
    row_last = row_start[next_starts]
    left_ok = row_first.copy()
    left_ok[1:] |= level[:-1] < level[1:]
    right_ok = row_last.copy()
    right_ok[:-1] |= level[1:] < level[:-1]
    keep = left_ok & right_ok & ~(row_first & row_last)
    return (starts[keep] + next_starts[keep] - 1) // 2


def check_edges(omegas: np.ndarray) -> None:
    """Raise unless every row of band edges is strictly increasing inside (0, pi)."""
    if omegas.size == 0:
        return
    if not (omegas.min() > 0.0 and omegas.max() < np.pi):
        raise ValueError("boundaries must lie strictly inside (0, pi)")
    if not (omegas[..., 1:] > omegas[..., :-1]).all():
        raise ValueError("boundaries must be strictly increasing")


def band_edges(magnitudes, signal_length: int, n_bands: int):
    """Place ``n_bands - 1`` band edges on each row of a stack of spectra.

    ``magnitudes`` holds one one-sided magnitude spectrum per row, shape
    ``(R, signal_length // 2 + 1)``. In each row the ``n_bands`` largest local
    maxima of the spectrum smoothed by a moving average of width
    ``SMOOTH_WINDOW`` are retained, highest first with ties to the lower bin,
    and each edge sits at the first global minimum of the raw spectrum strictly
    between two consecutive retained peaks. A row with fewer peaks than bands
    segments (0, pi) uniformly and is flagged.

    Returns the edges, shape ``(R, n_bands - 1)``, and the fallback flags, shape
    ``(R,)``.
    """
    if n_bands < 1:
        raise ValueError(f"band count must be >= 1, got {n_bands}")
    mag = np.asarray(magnitudes, dtype=np.float64)
    n_rows, m = mag.shape
    if n_bands == 1:
        return np.empty((n_rows, 0)), np.zeros(n_rows, dtype=bool)
    smoothed = _moving_average(mag, SMOOTH_WINDOW)
    peaks = _local_maxima(smoothed)
    rows = peaks // m
    # By row, then highest first; the stable sort breaks ties to the lower bin.
    order = np.lexsort((-smoothed.ravel()[peaks], rows))
    counts = np.bincount(rows, minlength=n_rows)
    ok = counts >= n_bands
    row_starts = counts.cumsum() - counts  # where each row begins in ``order``
    top = order[row_starts[ok, None] + np.arange(n_bands)]
    kept = np.sort(peaks[top], axis=1) % m  # retained bins, ascending per row
    bins = np.arange(m)
    between = np.where((bins > kept[:, :-1, None]) & (bins < kept[:, 1:, None]),
                       mag[ok, None], np.inf)
    omegas = np.empty((n_rows, n_bands - 1))
    omegas[~ok] = np.pi * np.arange(1, n_bands) / n_bands
    omegas[ok] = 2.0 * np.pi * between.argmin(axis=2) / signal_length
    return omegas, ~ok


def detect_boundaries(spectrum: Spectrum, n_bands: int) -> EwtBoundaries:
    """Band edges of one spectrum: the one-row case of :func:`band_edges`."""
    omegas, fallback = band_edges(spectrum.magnitudes[None], spectrum.signal_length, n_bands)
    return EwtBoundaries(omegas[0], uniform_fallback=bool(fallback[0]))


def _smooth_step(x: np.ndarray) -> np.ndarray:
    """Polynomial smooth step on [0, 1]: 0 at 0, 1 at 1, flat at both ends."""
    return x ** 4 * (35.0 - 84.0 * x + 70.0 * x ** 2 - 20.0 * x ** 3)


def filter_bank_responses(omegas, signal_length: int, gamma: float):
    """Frequency responses of a stack of filter banks over the full FFT grid.

    ``omegas`` holds one row of band edges per bank, shape ``(R, K - 1)``.
    Around each edge ``w`` the neighbouring filters cross-fade over the zone
    ``[(1-gamma)*w, (1+gamma)*w]`` with raised-cosine profiles driven by a
    smooth-step polynomial, so adjacent responses sum to one exactly. A row's
    ``gamma`` is clipped whenever the requested value would make transition
    zones of consecutive edges overlap.

    Returns the responses, shape ``(R, K, signal_length)``, and the gamma each
    row used, shape ``(R,)``; a row was clipped where that is below ``gamma``.
    """
    om = np.asarray(omegas, dtype=np.float64)
    n_rows, n_edges = om.shape
    n = signal_length
    if n_edges == 0:
        return np.ones((n_rows, 1, n)), np.full(n_rows, gamma)
    gamma_eff = np.full(n_rows, gamma)
    if n_edges > 1:
        ratios = np.diff(om, axis=1) / (om[:, 1:] + om[:, :-1])
        gamma_eff = np.minimum(gamma, ratios.min(axis=1))

    # |omega| on the one-sided bins 0..n//2; bin k >= n//2 + 1 mirrors bin
    # n - k, so the symmetry response[k] == response[n - k] is bit-exact.
    aw = 2.0 * np.pi * np.arange(n // 2 + 1) / n

    g = gamma_eff[:, None, None]
    w = om[:, :, None]
    lo = (1.0 - g) * w
    width = 2.0 * g * w
    x = np.clip((aw - lo) / width, 0.0, 1.0)
    arg = 0.5 * np.pi * _smooth_step(x)
    rising = np.sin(arg) ** 2    # (R, K - 1, n // 2 + 1): band above each edge
    falling = np.cos(arg) ** 2   # band below each edge

    half = np.empty((n_rows, n_edges + 1, aw.size))
    half[:, 0] = falling[:, 0]
    half[:, 1:-1] = rising[:, :-1] * falling[:, 1:]
    half[:, -1] = rising[:, -1]
    return np.concatenate((half, half[:, :, n - aw.size:0:-1]), axis=2), gamma_eff


def build_filter_bank(boundaries: EwtBoundaries, signal_length: int, gamma: float = 0.1) -> EwtFilterBank:
    """Construct the K band filters for a signal of length ``signal_length``.

    The one-bank case of :func:`filter_bank_responses`; the clip of ``gamma``
    is flagged on the result.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if signal_length < MIN_SIGNAL_LENGTH:
        raise ValueError(f"signal length must be >= {MIN_SIGNAL_LENGTH}")
    responses, gamma_eff = filter_bank_responses(boundaries.omegas[None, :], signal_length, gamma)
    gamma_eff = float(gamma_eff[0])
    return EwtFilterBank(boundaries, gamma_eff, responses[0], signal_length, gamma,
                         gamma_eff < gamma)


def decompose(signal, bank: EwtFilterBank) -> EwtDecomposition:
    """Split a signal into K band components via the bank's frequency responses.

    Component k is the inverse DFT of ``response_k * DFT(signal)``; the
    imaginary residue discarded by the final cast is recorded on the result.
    """
    x = _as_float_vector(signal, "signal")
    if x.size != bank.signal_length:
        raise ValueError(f"signal length {x.size} does not match bank grid {bank.signal_length}")
    spectrum = np.fft.fft(x)
    filtered = np.fft.ifft(bank.responses * spectrum[None, :], axis=1)
    residue = float(np.abs(filtered.imag).max()) if filtered.size else 0.0
    return EwtDecomposition(filtered.real, bank, residue)
