"""Independent reference implementations used to pin expected values.

Each oracle deliberately avoids the code paths it checks: the ridge solution
comes from plain gradient descent, and from scipy's ``cho_factor``/``cho_solve``
on the same primal or dual system, spectra from direct O(n^2) summation,
spectral peaks from a scan over runs of equal values, band edges from that scan
plus a Python ranking and one ``argmin`` per edge, filter banks from the
closed-form responses evaluated at every FFT bin, and the signed-rank null
distribution from explicit sign enumeration.
"""

import itertools

import numpy as np
import scipy.linalg


def ridge_gd(H, Y, c_reg, tol=1e-9, max_iter=500_000):
    """Gradient-descent minimizer of (C/2)||H b - Y||^2 + (1/2)||b||^2."""
    H = np.asarray(H, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y.reshape(-1, 1)
    lip = c_reg * float(np.linalg.eigvalsh(H.T @ H)[-1]) + 1.0
    step = 1.0 / lip
    beta = np.zeros((H.shape[1], Y.shape[1]))
    for _ in range(max_iter):
        grad = c_reg * (H.T @ (H @ beta - Y)) + beta
        if np.abs(grad).max() < tol:
            break
        beta = beta - step * grad
    return beta


def cho_factor_solve(A, B):
    """Solve the symmetric positive-definite ``A X = B`` with scipy's
    ``cho_factor`` (upper triangle) and ``cho_solve``."""
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), B)


def ridge_cho_factor(H, Y, c_reg, primal):
    """Ridge weights from the primal ``(H'H + I/C) b = H'Y`` or the dual
    ``b = H'(HH' + I/C)^-1 Y``, both solved by ``cho_factor_solve``."""
    H = np.asarray(H, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64).reshape(H.shape[0], -1)
    delta = 1.0 / c_reg
    if primal:
        return cho_factor_solve(H.T @ H + delta * np.eye(H.shape[1]), H.T @ Y)
    return H.T @ cho_factor_solve(H @ H.T + delta * np.eye(H.shape[0]), Y)


def dft_magnitude(x):
    """One-sided |DFT| by direct summation."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    bins = n // 2 + 1
    out = np.empty(bins)
    t = np.arange(n)
    for k in range(bins):
        out[k] = np.abs(np.sum(x * np.exp(-2j * np.pi * k * t / n)))
    return out


def local_maxima_loop(values):
    """Plateau-aware local maxima by scanning runs of equal values.

    Each flat run strictly above both neighbours counts once, at its center
    bin; edge runs need only their inner neighbour, and a run spanning every
    bin is no maximum.
    """
    n = len(values)
    out = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        left_ok = i == 0 or values[i - 1] < values[i]
        right_ok = j == n - 1 or values[j + 1] < values[i]
        spans_all = i == 0 and j == n - 1
        if left_ok and right_ok and not spans_all:
            out.append((i + j) // 2)
        i = j + 1
    return out


def detect_boundaries_loop(magnitudes, smoothed, signal_length, n_bands):
    """Band edges of one spectrum, one peak and one edge at a time.

    The ``n_bands`` highest local maxima of ``smoothed`` (ties to the lower
    bin) are kept, and each edge sits at the first minimum of ``magnitudes``
    strictly between two consecutive kept peaks. Fewer peaks than bands give
    the uniform split of (0, pi), flagged. Returns ``(omegas, fallback)``.
    """
    if n_bands == 1:
        return np.empty(0), False
    peaks = local_maxima_loop(smoothed)
    if len(peaks) < n_bands:
        return np.pi * np.arange(1, n_bands) / n_bands, True
    ranked = sorted(sorted(peaks, key=lambda p: (-smoothed[p], p))[:n_bands])
    bins = [lo + 1 + int(np.argmin(magnitudes[lo + 1:hi]))
            for lo, hi in zip(ranked[:-1], ranked[1:])]
    return 2.0 * np.pi * np.asarray(bins, dtype=np.float64) / signal_length, False


def filter_bank_full_grid(omegas, signal_length, gamma):
    """Responses of one bank with edges ``omegas`` at every bin of the full grid.

    ``gamma`` is used as given (no clipping). Bin k sits at
    ``|omega| = 2*pi*min(k, n - k)/n``.
    """
    n = signal_length
    idx = np.arange(n)
    aw = 2.0 * np.pi * np.minimum(idx, n - idx) / n
    w = np.asarray(omegas, dtype=np.float64)[:, None]
    x = np.clip((aw - (1.0 - gamma) * w) / (2.0 * gamma * w), 0.0, 1.0)
    arg = 0.5 * np.pi * (x ** 4 * (35.0 - 84.0 * x + 70.0 * x ** 2 - 20.0 * x ** 3))
    rising, falling = np.sin(arg) ** 2, np.cos(arg) ** 2
    return np.vstack([falling[:1], rising[:-1] * falling[1:], rising[-1:]])


def wilcoxon_exact_bruteforce(diff):
    """Two-sided exact signed-rank p-value by enumerating all sign patterns.

    Uses average ranks on tied absolute differences; p = min(1, 2 * P(W+ <= T))
    with T = min(W+, W-) under the enumerated null.
    """
    diff = np.asarray(diff, dtype=np.float64)
    diff = diff[diff != 0.0]
    n = diff.size
    ranks = _average_ranks(np.abs(diff))
    w_plus = ranks[diff > 0].sum()
    w_minus = ranks.sum() - w_plus
    t_obs = min(w_plus, w_minus)
    count = 0
    for signs in itertools.product((0.0, 1.0), repeat=n):
        if np.dot(ranks, signs) <= t_obs + 1e-12:
            count += 1
    p = min(1.0, 2.0 * count / 2.0 ** n)
    return t_obs, p


def _average_ranks(values):
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks
