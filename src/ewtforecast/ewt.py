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

    def omegas(self) -> np.ndarray:
        """Normalized frequency of each grid bin."""
        return 2.0 * np.pi * np.arange(self.magnitudes.size) / self.signal_length


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
        if om.size and not (np.all(om > 0.0) and np.all(om < np.pi)):
            raise ValueError("boundaries must lie strictly inside (0, pi)")
        if om.size > 1 and not np.all(np.diff(om) > 0.0):
            raise ValueError("boundaries must be strictly increasing")
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
    if width <= 1:
        return values
    kernel = np.full(width, 1.0 / width)
    return np.convolve(values, kernel, mode="same")


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Plateau-aware local maxima: each flat run strictly above both neighbours
    counts once, at its center bin. Edge runs need only their inner neighbour."""
    if values.size == 0:
        return np.empty(0, dtype=np.intp)
    change = np.flatnonzero(values[1:] != values[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.append(change - 1, values.size - 1)
    if starts.size == 1:  # one run spanning every bin has no neighbour to beat
        return np.empty(0, dtype=np.intp)
    level = values[starts]
    left_ok = np.concatenate(([True], level[:-1] < level[1:]))
    right_ok = np.append(level[1:] < level[:-1], True)
    keep = left_ok & right_ok
    return (starts[keep] + ends[keep]) // 2


def detect_boundaries(spectrum: Spectrum, n_bands: int, smooth_window: int = 5) -> EwtBoundaries:
    """Place ``n_bands - 1`` band edges from the spectrum's peak structure.

    The ``n_bands`` largest local maxima of the (optionally smoothed) spectrum
    are retained and each edge sits at the global minimum of the raw spectrum
    between two consecutive retained peaks. With fewer peaks than bands the
    interval (0, pi) is segmented uniformly and the result is flagged.

    ``smooth_window`` is the moving-average width applied before peak picking;
    1 disables smoothing.
    """
    if n_bands < 1:
        raise ValueError(f"band count must be >= 1, got {n_bands}")
    if n_bands == 1:
        return EwtBoundaries(np.empty(0))
    mag = spectrum.magnitudes
    smoothed = _moving_average(mag, smooth_window)
    peaks = _local_maxima(smoothed)
    if peaks.size < n_bands:
        omegas = np.pi * np.arange(1, n_bands) / n_bands
        return EwtBoundaries(omegas, uniform_fallback=True)
    # Highest peaks first, ties to the lower bin; then back in frequency order.
    ranked = np.sort(peaks[np.lexsort((peaks, -smoothed[peaks]))[:n_bands]])
    bins = [lo + 1 + int(np.argmin(mag[lo + 1:hi])) for lo, hi in zip(ranked[:-1], ranked[1:])]
    omegas = 2.0 * np.pi * np.asarray(bins, dtype=np.float64) / spectrum.signal_length
    return EwtBoundaries(omegas)


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

    # |omega| per FFT bin, computed from index distance so the symmetry
    # response[k] == response[n - k] is bit-exact.
    idx = np.arange(n)
    aw = 2.0 * np.pi * np.minimum(idx, n - idx) / n

    g = gamma_eff[:, None, None]
    w = om[:, :, None]
    lo = (1.0 - g) * w
    width = 2.0 * g * w
    x = np.clip((aw - lo) / width, 0.0, 1.0)
    arg = 0.5 * np.pi * _smooth_step(x)
    rising = np.sin(arg) ** 2    # (R, K - 1, n): band above each edge
    falling = np.cos(arg) ** 2   # band below each edge

    responses = np.empty((n_rows, n_edges + 1, n))
    responses[:, 0] = falling[:, 0]
    responses[:, 1:-1] = rising[:, :-1] * falling[:, 1:]
    responses[:, -1] = rising[:, -1]
    return responses, gamma_eff


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


def reconstruct(decomposition) -> np.ndarray:
    """Elementwise sum of band components.

    Accepts an :class:`EwtDecomposition` or any 2-D array-like of equal-length
    components.
    """
    if isinstance(decomposition, EwtDecomposition):
        comp = decomposition.components
    else:
        try:
            comp = np.asarray(decomposition, dtype=np.float64)
        except ValueError:
            raise ValueError("components have ragged lengths") from None
        if comp.ndim != 2:
            raise ValueError(f"expected a stack of equal-length components, got shape {comp.shape}")
    if comp.shape[0] < 1:
        raise ValueError("no components to reconstruct from")
    return comp.sum(axis=0)
