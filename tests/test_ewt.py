from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ewtforecast import ewt
from ewtforecast.ewt import (
    EwtBoundaries,
    Spectrum,
    _local_maxima,
    _moving_average,
    band_edges,
    build_filter_bank,
    decompose,
    detect_boundaries,
    filter_bank_responses,
    magnitude_spectrum,
)

from oracles import (
    detect_boundaries_loop,
    dft_magnitude,
    filter_bank_full_grid,
    local_maxima_loop,
)


def two_tone(n, lo_bin, hi_bin, lo_amp=1.0, hi_amp=1.0):
    t = np.arange(n)
    return (lo_amp * np.sin(2 * np.pi * lo_bin * t / n)
            + hi_amp * np.sin(2 * np.pi * hi_bin * t / n))


# ------------------------------------------------------- magnitude_spectrum

def test_spectrum_constant_signal_is_dc_only():
    spec = magnitude_spectrum(np.ones(4))
    assert spec.magnitudes[0] == pytest.approx(4.0)
    assert np.all(spec.magnitudes[1:] <= 1e-12)


def test_spectrum_matches_direct_dft_oracle():
    t = np.arange(64)
    x = np.cos(2 * np.pi * 8 * t / 64)
    spec = magnitude_spectrum(x)
    expected = dft_magnitude(x)
    assert np.allclose(spec.magnitudes, expected, atol=1e-9)
    assert int(np.argmax(spec.magnitudes)) == 8


def test_spectrum_rejects_short_signal():
    with pytest.raises(ValueError, match="too short"):
        magnitude_spectrum([1.0, 2.0])


def test_spectrum_parseval():
    rng = np.random.default_rng(0)
    for n in (32, 65, 128):
        x = rng.normal(size=n)
        mag = magnitude_spectrum(x).magnitudes
        # One-sided grid: interior bins appear twice in the full spectrum.
        weights = np.full(mag.size, 2.0)
        weights[0] = 1.0
        if n % 2 == 0:
            weights[-1] = 1.0
        assert np.sum(weights * mag ** 2) / n == pytest.approx(np.sum(x ** 2), rel=1e-10)


# ------------------------------------------------------- detect_boundaries

def test_single_band_has_no_boundaries():
    spec = magnitude_spectrum(np.sin(np.arange(32)))
    b = detect_boundaries(spec, 1)
    assert b.omegas.size == 0 and b.n_bands == 1 and not b.uniform_fallback


def test_two_tone_boundary_sits_between_the_peaks():
    x = two_tone(256, 5, 20)
    b = detect_boundaries(magnitude_spectrum(x), 2)
    assert not b.uniform_fallback
    assert b.omegas.size == 1
    lo, hi = 2 * np.pi * 5 / 256, 2 * np.pi * 20 / 256
    assert lo < b.omegas[0] < hi
    # Oracle: brute-force scan of the raw spectrum between the two known peaks.
    mag = magnitude_spectrum(x).magnitudes
    scan = 6 + int(np.argmin(mag[6:20]))
    assert b.omegas[0] == pytest.approx(2 * np.pi * scan / 256)


def test_fallback_when_peaks_are_too_few():
    # Constructed spectrum with exactly two prominent peaks but four bands asked.
    mag = np.zeros(65)
    mag[10] = 5.0
    mag[30] = 4.0
    spec = Spectrum(mag, 128)
    b = detect_boundaries(spec, 4)
    assert b.uniform_fallback
    assert np.allclose(b.omegas, np.pi * np.arange(1, 4) / 4)


def test_boundaries_strictly_increasing_randomized():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.choice([128, 256, 512]))
        x = rng.normal(size=n) + two_tone(n, 5, 25, rng.uniform(0.5, 3), rng.uniform(0.5, 3))
        for k in (2, 3, 4):
            b = detect_boundaries(magnitude_spectrum(x), k)
            assert b.omegas.size == k - 1
            assert np.all(np.diff(b.omegas) > 0)
            assert np.all((b.omegas > 0) & (b.omegas < np.pi))


@given(st.lists(st.integers(0, 3), max_size=40) | st.lists(st.floats(0.0, 1e3), max_size=40))
def test_local_maxima_matches_the_run_scan(values):
    # Small integers make plateaus and ties common.
    values = np.asarray(values, dtype=np.float64)
    assert _local_maxima(values).tolist() == local_maxima_loop(values)


@st.composite
def spectrum_stacks(draw):
    """1-6 rows of one-sided spectra; small integers make plateaus and ties common."""
    n = draw(st.integers(4, 80))
    rows = draw(st.integers(1, 6))
    level = (st.integers(0, 3).map(float) if draw(st.booleans())
             else st.floats(0.0, 1e3, allow_subnormal=False))
    mags = draw(st.lists(st.lists(level, min_size=n // 2 + 1, max_size=n // 2 + 1),
                         min_size=rows, max_size=rows))
    return np.array(mags), n


@given(spectrum_stacks(), st.integers(1, 5), st.integers(1, 7))
# After smoothing, the raw minimum next to a peak sits on the peak bin itself:
# edges lie strictly between peaks. The first row of the next example falls back.
@example((np.array([[3.0, 0.0, 3.0, 0.0, 2.0]]), 8), 2, 3)
@example((np.array([[1.0, 1.0, 1.0, 1.0, 1.0], [0.0, 2.0, 0.0, 3.0, 0.0]]), 9), 2, 1)
def test_batched_edges_equal_the_loop_oracle_row_by_row(stack, n_bands, smooth_window):
    # The smoothing width is a constant; varying it widens the cases the oracle sees.
    mags, n = stack
    with mock.patch.object(ewt, "SMOOTH_WINDOW", smooth_window):
        omegas, fallback = band_edges(mags, n, n_bands)
        ones = [detect_boundaries(Spectrum(mag, n), n_bands) for mag in mags]
    assert omegas.shape == (mags.shape[0], n_bands - 1) and fallback.shape == (mags.shape[0],)
    for row, mag in enumerate(mags):
        expected, expected_fallback = detect_boundaries_loop(
            mag, _moving_average(mag, smooth_window), n, n_bands)
        assert omegas[row].tobytes() == expected.tobytes()
        assert fallback[row] == expected_fallback
        assert ones[row].omegas.tobytes() == expected.tobytes()
        assert ones[row].uniform_fallback == expected_fallback


@given(st.integers(1, 7), st.data())
def test_moving_average_matches_convolve(width, data):
    values = np.array(data.draw(st.lists(st.floats(0.0, 1e3, allow_subnormal=False),
                                         min_size=width, max_size=60)))
    smoothed = _moving_average(values, width)
    expected = np.convolve(values, np.full(width, 1.0 / width), mode="same")
    inner = slice(width // 2, values.size - (width - 1) // 2)
    assert smoothed[inner].tobytes() == expected[inner].tobytes()
    # Where the window overhangs an end, np.convolve may fuse the multiply-adds.
    # Either way a sum of at most width - 1 non-negative products is within
    # width - 1 ulp of the exact sum, so the two are within 2 * (width - 1) ulp.
    np.testing.assert_array_max_ulp(smoothed, expected, maxulp=2 * (width - 1))
    stacked = _moving_average(np.vstack([values, values[::-1]]), width)
    assert stacked[0].tobytes() == smoothed.tobytes()
    assert stacked[1].tobytes() == _moving_average(values[::-1], width).tobytes()


@given(st.integers(1, 6), st.integers(0, 12), st.data())
def test_stacked_local_maxima_are_the_run_scan_of_each_row(rows, m, data):
    stack = np.array(data.draw(st.lists(st.lists(st.integers(0, 3).map(float),
                                                 min_size=m, max_size=m),
                                        min_size=rows, max_size=rows)))
    expected = [r * m + p for r in range(rows) for p in local_maxima_loop(stack[r])]
    assert _local_maxima(stack).tolist() == expected


def test_band_count_validation():
    spec = magnitude_spectrum(np.sin(np.arange(16)))
    with pytest.raises(ValueError, match=">= 1"):
        detect_boundaries(spec, 0)


# ------------------------------------------------------- build_filter_bank

def test_all_pass_bank():
    bank = build_filter_bank(EwtBoundaries(np.empty(0)), 64)
    assert np.array_equal(bank.responses, np.ones((1, 64)))


def test_brick_wall_limit_at_half_band():
    bank = build_filter_bank(EwtBoundaries(np.array([np.pi / 2])), 128, gamma=1e-9)
    total = bank.responses.sum(axis=0)
    assert np.abs(total - 1.0).max() <= 1e-12
    om = 2 * np.pi * np.minimum(np.arange(128), 128 - np.arange(128)) / 128
    inside = om < np.pi / 2 * (1 - 1e-6)
    outside = om > np.pi / 2 * (1 + 1e-6)
    assert np.all(bank.responses[0][inside] == 1.0)
    assert np.all(bank.responses[0][outside] <= 1e-10)
    assert np.all(bank.responses[1][outside] >= 1.0 - 1e-10)


def test_partition_of_unity_randomized():
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.choice([64, 128, 256, 1024]))
        k = int(rng.integers(1, 6))
        edges = np.sort(rng.uniform(0.05, np.pi - 0.05, size=k - 1))
        if k > 1 and np.any(np.diff(edges) < 1e-3):
            continue
        bank = build_filter_bank(EwtBoundaries(edges), n, gamma=float(rng.uniform(0.01, 0.5)))
        assert np.abs(bank.responses.sum(axis=0) - 1.0).max() <= 1e-12


@given(st.integers(4, 300), st.integers(1, 6), st.integers(1, 5), st.floats(0.01, 0.99),
       st.integers(0, 2**32 - 1))
def test_stacked_banks_equal_one_bank_at_a_time(n, n_bands, n_rows, gamma, seed):
    rng = np.random.default_rng(seed)
    edges = np.sort(rng.uniform(1e-3, np.pi - 1e-3, size=(n_rows, n_bands - 1)), axis=1)
    responses, gamma_used = filter_bank_responses(edges, n, gamma)
    assert responses.shape == (n_rows, n_bands, n)
    for row, omegas in enumerate(edges):
        if np.any(np.diff(omegas) <= 0.0):
            continue  # a repeated draw is no valid boundary set
        bank = build_filter_bank(EwtBoundaries(omegas), n, gamma)
        assert responses[row].tobytes() == bank.responses.tobytes()
        assert gamma_used[row] == bank.gamma
        assert (gamma_used[row] < gamma) == bank.gamma_clipped
        assert np.abs(responses[row].sum(axis=0) - 1.0).max() <= 1e-12


@given(st.integers(4, 300), st.integers(2, 6), st.floats(0.01, 0.99), st.integers(0, 2**32 - 1))
def test_half_grid_bank_equals_the_full_grid_formula(n, n_bands, gamma, seed):
    edges = np.sort(np.random.default_rng(seed).uniform(1e-3, np.pi - 1e-3, size=(1, n_bands - 1)))
    responses, gamma_used = filter_bank_responses(edges, n, gamma)
    expected = filter_bank_full_grid(edges[0], n, float(gamma_used[0]))
    assert responses[0].tobytes() == expected.tobytes()


def test_response_symmetry():
    bank = build_filter_bank(EwtBoundaries(np.array([0.7, 1.9])), 101, gamma=0.2)
    for resp in bank.responses:
        assert np.array_equal(resp[1:], resp[1:][::-1])


def test_gamma_clipped_when_boundaries_close():
    edges = np.array([1.0, 1.1])
    bank = build_filter_bank(EwtBoundaries(edges), 128, gamma=0.4)
    limit = (1.1 - 1.0) / (1.1 + 1.0)
    assert bank.gamma_clipped
    assert bank.gamma == pytest.approx(limit)
    assert bank.gamma_requested == 0.4
    assert np.abs(bank.responses.sum(axis=0) - 1.0).max() <= 1e-12


def test_gamma_out_of_range():
    with pytest.raises(ValueError, match="gamma"):
        build_filter_bank(EwtBoundaries(np.array([1.0])), 64, gamma=1.5)


# ---------------------------------------------------------------- decompose

def test_single_band_decompose_is_identity():
    rng = np.random.default_rng(7)
    x = rng.normal(size=256)
    bank = build_filter_bank(EwtBoundaries(np.empty(0)), 256)
    dec = decompose(x, bank)
    assert np.abs(dec.components[0] - x).max() <= 1e-10


def test_two_tone_components_separate_the_tones():
    n = 512
    t = np.arange(n)
    low = np.sin(2 * np.pi * 5 * t / n)
    high = np.sin(2 * np.pi * 40 * t / n)
    x = low + high
    b = detect_boundaries(magnitude_spectrum(x), 2)
    bank = build_filter_bank(b, n)
    dec = decompose(x, bank)
    assert np.corrcoef(dec.components[0], low)[0, 1] > 0.99
    assert np.corrcoef(dec.components[1], high)[0, 1] > 0.99


def test_reconstruction_and_realness_randomized():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.choice([128, 256]))
        x = rng.normal(size=n) * rng.uniform(0.1, 10)
        k = int(rng.integers(1, 6))
        b = detect_boundaries(magnitude_spectrum(x), k)
        bank = build_filter_bank(b, n)
        dec = decompose(x, bank)
        assert np.abs(dec.components.sum(axis=0) - x).max() <= 1e-8
        assert dec.max_imag_residue <= 1e-10


def test_decompose_length_mismatch():
    bank = build_filter_bank(EwtBoundaries(np.array([1.0])), 64)
    with pytest.raises(ValueError, match="length"):
        decompose(np.zeros(65), bank)


def test_decompose_deterministic():
    rng = np.random.default_rng(9)
    x = rng.normal(size=128)
    b = detect_boundaries(magnitude_spectrum(x), 3)
    d1 = decompose(x, build_filter_bank(b, 128))
    d2 = decompose(x, build_filter_bank(b, 128))
    assert np.array_equal(d1.components, d2.components)

