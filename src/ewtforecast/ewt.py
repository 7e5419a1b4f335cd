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
from functools import lru_cache

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

    In a row with no two equal neighbours every run is one bin long, so a bin
    is a maximum when it is above each neighbour it has. Only rows with ties
    go through :func:`_run_maxima`; the bins such a row has above each
    neighbour are one-bin runs, which are among its maxima anyway.
    """
    m = values.shape[-1]
    if values.size == 0 or m < 2:
        return np.empty(0, dtype=np.intp)
    rows = values.reshape(-1, m)
    rises = rows[:, :-1] < rows[:, 1:]   # bin i + 1 is above bin i
    falls = rows[:, :-1] > rows[:, 1:]   # bin i is above bin i + 1
    is_peak = np.empty(rows.shape, dtype=bool)
    is_peak[:, 0] = falls[:, 0]
    is_peak[:, 1:-1] = rises[:, :-1] & falls[:, 1:]
    is_peak[:, -1] = rises[:, -1]
    tied = np.flatnonzero((rows[:, :-1] == rows[:, 1:]).any(axis=1))
    if tied.size:
        runs = _run_maxima(rows[tied])
        is_peak[tied[runs // m], runs % m] = True
    return np.flatnonzero(is_peak)


def _run_maxima(rows: np.ndarray) -> np.ndarray:
    """:func:`_local_maxima` of a stack of rows by a scan over runs of equal values."""
    flat = rows.ravel()
    n, m = flat.size, rows.shape[-1]
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


def band_edges(magnitudes, signal_length: int, band_counts):
    """Place ``K - 1`` band edges on each row of a stack of spectra, for every
    band count ``K`` in ``band_counts``.

    ``magnitudes`` holds one one-sided magnitude spectrum per row, shape
    ``(R, signal_length // 2 + 1)``. In each row the ``K`` largest local maxima
    of the spectrum smoothed by a moving average of width ``SMOOTH_WINDOW`` are
    retained, highest first with ties to the lower bin, and each edge sits at
    the first global minimum of the raw spectrum strictly between two
    consecutive retained peaks. A row with fewer peaks than bands segments
    (0, pi) uniformly and is flagged.

    Returns one pair per entry of ``band_counts``: the edges, shape
    ``(R, K - 1)``, and the fallback flags, shape ``(R,)``. Counts may repeat
    and come in any order; a repeated count gets the same arrays. The
    smoothing, the peaks and their ranking are shared, since the first ``k``
    peaks ranked for the largest count are those ranked for any count of at
    least ``k``, and the edges of every distinct count are placed by one
    masked ``argmin``, so each entry equals a one-count call's bit for bit.
    """
    for n_bands in band_counts:
        if n_bands < 1:
            raise ValueError(f"band count must be >= 1, got {n_bands}")
    mag = np.asarray(magnitudes, dtype=np.float64)
    n_rows, m = mag.shape
    # One band needs no peak, so it never falls back.
    found = {1: (np.empty((n_rows, 0)), np.zeros(n_rows, dtype=bool))}
    counts = [n for n in dict.fromkeys(band_counts) if n > 1]
    if not counts:
        return [found[1]] * len(band_counts)
    smoothed = _moving_average(mag, SMOOTH_WINDOW)
    peaks = _local_maxima(smoothed)
    n_peaks = np.bincount(peaks // m, minlength=n_rows)
    height = np.full(mag.shape, -np.inf)  # each peak's smoothed height, -inf off peaks
    height.ravel()[peaks] = smoothed.ravel()[peaks]
    # Retain the highest peak of each row top times over, masking each winner;
    # argmax takes the first, lower bin on ties. Rows with fewer peaks than a
    # count get meaningless edges for it, overwritten below.
    rows = np.arange(n_rows)
    top = max(counts)
    # 32-bit bins halve the traffic of the masks below.
    ranked = np.empty((n_rows, top), dtype=np.int32)
    for k in range(top):
        ranked[:, k] = height.argmax(axis=1)
        height[rows, ranked[:, k]] = -np.inf
    # Each edge lies strictly between two consecutive retained peaks in bin order.
    kept = [np.sort(ranked[:, :n], axis=1) for n in counts]
    below = np.concatenate([k[:, :-1] for k in kept], axis=1)
    above = np.concatenate([k[:, 1:] for k in kept], axis=1)
    bins = np.arange(m, dtype=np.int32)
    between = np.where((bins > below[:, :, None]) & (bins < above[:, :, None]),
                       mag[:, None], np.inf)
    edges = 2.0 * np.pi * between.argmin(axis=2) / signal_length
    col = 0
    for n_bands in counts:
        omegas = edges[:, col: col + n_bands - 1]
        fallback = n_peaks < n_bands
        omegas[fallback] = np.pi * np.arange(1, n_bands) / n_bands
        found[n_bands] = omegas, fallback
        col += n_bands - 1
    return [found[n] for n in band_counts]


def detect_boundaries(spectrum: Spectrum, n_bands: int) -> EwtBoundaries:
    """Band edges of one spectrum: the one-row, one-count case of :func:`band_edges`."""
    ((omegas, fallback),) = band_edges(spectrum.magnitudes[None], spectrum.signal_length,
                                       (n_bands,))
    return EwtBoundaries(omegas[0], uniform_fallback=bool(fallback[0]))


def _smooth_step(x: np.ndarray) -> np.ndarray:
    """Polynomial smooth step on [0, 1]: 0 at 0, 1 at 1, flat at both ends."""
    return x ** 4 * (35.0 - 84.0 * x + 70.0 * x ** 2 - 20.0 * x ** 3)


def _edge_profiles(omegas: np.ndarray, gammas: np.ndarray, aw: np.ndarray, rising: bool = True):
    """The two cross-fade profiles of every edge at the frequencies ``aw``.

    Around an edge ``w`` with gamma ``g`` (``gammas`` broadcasts against
    ``omegas``) the filter below the edge falls and the one above rises over
    the zone ``[(1-g)*w, (1+g)*w]`` with raised-cosine profiles driven by a
    smooth-step polynomial, so the two sum to one. Returns ``(falling,
    rising)``, each of shape ``omegas.shape + aw.shape``, or ``falling`` alone
    where ``rising`` is False. The arithmetic is elementwise, so an edge's
    profiles do not depend on what else is evaluated with it, bit for bit.
    """
    w = omegas[..., None]
    g = gammas[..., None]
    lo = (1.0 - g) * w
    width = 2.0 * g * w
    x = aw - lo
    x /= width
    np.clip(x, 0.0, 1.0, out=x)
    # Only bins inside a transition zone (0 < x < 1) need the smooth step and
    # the trigonometry. Outside, the profiles below give rising == x exactly,
    # and falling == 1 before the zone and cos(pi/2) ** 2 (not quite 0) past it.
    not_past = x < 1.0
    zone = x > 0.0
    zone &= not_past
    arg = 0.5 * np.pi * _smooth_step(x[zone])
    falling = np.where(not_past, 1.0, np.cos(0.5 * np.pi) ** 2)
    falling[zone] = np.cos(arg) ** 2
    if not rising:
        return falling
    x[zone] = np.sin(arg) ** 2
    return falling, x


def _grid(signal_length: int) -> np.ndarray:
    """Normalized frequencies ``2*pi*k/n`` of the one-sided bins ``k = 0 .. n // 2``."""
    return 2.0 * np.pi * np.arange(signal_length // 2 + 1) / signal_length


@lru_cache(maxsize=8)
def _profile_table(signal_length: int, gamma: float) -> np.ndarray:
    """Falling :func:`_edge_profiles` of an edge on every bin strictly inside (0, pi).

    With ``E = (n - 1) // 2`` such bins, row ``b - 1`` holds the falling profile
    of the edge ``2*pi*b/n`` with ``gamma``, shape ``(E, n // 2 + 1)``: about
    ``2 * n ** 2`` bytes, 130 kB at n = 256. Read-only, as it is shared.
    """
    aw = _grid(signal_length)
    table = _edge_profiles(aw[1:(signal_length + 1) // 2], np.array(gamma), aw, rising=False)
    table.setflags(write=False)
    return table


def _clipped_gamma(omegas: np.ndarray, gamma: float) -> np.ndarray:
    """The gamma of each row of band edges ``(R, K - 1)``, shape ``(R,)``: the
    requested ``gamma``, lowered where it would make the transition zones of
    consecutive edges overlap."""
    if omegas.shape[1] < 2:
        return np.full(omegas.shape[0], gamma)
    ratios = np.diff(omegas, axis=1) / (omegas[:, 1:] + omegas[:, :-1])
    return np.minimum(gamma, ratios.min(axis=1))


def build_filter_bank(boundaries: EwtBoundaries, signal_length: int, gamma: float = 0.1) -> EwtFilterBank:
    """Construct the K band filters for a signal of length ``signal_length``.

    Neighbouring filters cross-fade around each edge with the profiles of
    :func:`_edge_profiles`, so adjacent responses sum to one exactly. Numbering
    edges from 1, band 0 is the falling profile of edge 1, band ``k`` the
    rising profile of edge ``k`` times the falling profile of edge ``k + 1``,
    and the last band the rising profile of the last edge. ``gamma`` is
    clipped, and the clip flagged on the result, where it would make the
    transition zones of consecutive edges overlap (:func:`_clipped_gamma`).
    The responses are evaluated on the one-sided bins ``0 .. n // 2`` and
    mirrored onto the full grid. Adaptive walk-forward rows never form their
    banks (see :mod:`ewtforecast.walkforward`).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if signal_length < MIN_SIGNAL_LENGTH:
        raise ValueError(f"signal length must be >= {MIN_SIGNAL_LENGTH}")
    omegas = boundaries.omegas
    gamma_eff = float(_clipped_gamma(omegas[None], gamma)[0])
    aw = _grid(signal_length)
    half = np.ones((omegas.size + 1, aw.size))
    if omegas.size:
        falling, rising = _edge_profiles(omegas, np.array(gamma_eff), aw)
        half[0] = falling[0]
        np.multiply(rising[:-1], falling[1:], out=half[1:-1])
        half[-1] = rising[-1]
    # Bin k > n // 2 mirrors bin n - k, so response[k] == response[n - k] is bit-exact.
    responses = np.concatenate((half, half[:, signal_length - aw.size:0:-1]), axis=1)
    return EwtFilterBank(boundaries, gamma_eff, responses, signal_length, gamma,
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
