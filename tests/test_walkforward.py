import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ewtforecast import ewt, walkforward
from ewtforecast.ewt import (
    EwtBoundaries,
    build_filter_bank,
    decompose,
    detect_boundaries,
    magnitude_spectrum,
)
from ewtforecast.series import TimeSeries
from ewtforecast.walkforward import (
    ADAPTIVE_PER_STEP,
    BOUNDARY_MODES,
    FROZEN_FROM_TRAIN,
    WalkForwardConfig,
    build_walkforward_features,
    causal_decompose_at,
    freeze_boundaries,
    leaky_features,
)


def noisy_two_tone(n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return (np.sin(2 * np.pi * 5 * t / n) + 0.5 * np.sin(2 * np.pi * 40 * t / n)
            + 0.05 * rng.normal(size=n))


@pytest.mark.parametrize("mode", [ADAPTIVE_PER_STEP, FROZEN_FROM_TRAIN])
def test_causality_perturbing_the_future_changes_nothing(mode):
    base = noisy_two_tone(400, seed=1)
    cfg = WalkForwardConfig(n_bands=3, lags=4, window=64, boundary_mode=mode)
    stop = 320
    ds = build_walkforward_features(TimeSeries(base), cfg, 300, stop)
    mangled = base.copy()
    mangled[stop - 1 + cfg.horizon + 1:] = 1e6  # anything after the last target
    ds2 = build_walkforward_features(TimeSeries(mangled), cfg, 300, stop)
    assert np.array_equal(ds.X, ds2.X)
    assert np.array_equal(ds.Y, ds2.Y)


def origin_rows(builder, values, cfg, start, stop, origin, future):
    """The row of ``origin`` built from ``values``, and again once every value
    after the origin is overwritten with ``future``."""
    mangled = values.copy()
    mangled[origin + 1:] = future
    return [builder(TimeSeries(v), cfg, start, stop).X[origin - start] for v in (values, mangled)]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(24, 320), lags=st.integers(1, 8),
       n_bands=st.integers(1, 4), mode=st.sampled_from(BOUNDARY_MODES),
       window=st.sampled_from(["auto", "all"]) | st.integers(16, 160),
       chunk_rows=st.integers(1, 5), scale=st.sampled_from([1.0, 1e6]), data=st.data())
def test_no_row_sees_a_value_after_its_origin(seed, n, lags, n_bands, mode, window, chunk_rows,
                                              scale, data):
    cfg = WalkForwardConfig(n_bands=n_bands, lags=lags, window=window, boundary_mode=mode)
    first = cfg.first_origin
    if first >= n - 1:
        return  # no origin has both a full window and a target
    start = data.draw(st.integers(first, n - 2), label="start")
    stop = start + data.draw(st.integers(1, n - 1 - start), label="rows")
    origin = data.draw(st.integers(start, stop - 1), label="origin")
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.normal(size=n))
    future = scale * rng.normal(size=n - origin - 1)
    # A few rows per chunk, so that the origin's row often sits mid-chunk.
    chunk_bytes = chunk_rows * 16 * n_bands * cfg.window_at(stop - 1)
    with mock.patch.object(walkforward, "CHUNK_BYTES", chunk_bytes):
        row, row_after = origin_rows(build_walkforward_features, values, cfg, start, stop,
                                     origin, future)
    assert row.tobytes() == row_after.tobytes()


def test_the_causality_check_catches_the_leaky_control():
    values = noisy_two_tone(300, seed=3)
    cfg = WalkForwardConfig(n_bands=3, lags=4, window=64)
    future = np.random.default_rng(4).normal(size=300 - 201)
    row, row_after = origin_rows(build_walkforward_features, values, cfg, 150, 250, 200, future)
    assert row.tobytes() == row_after.tobytes()
    row, row_after = origin_rows(leaky_features, values, cfg, 150, 250, 200, future)
    assert np.array_equal(row[:cfg.lags], row_after[:cfg.lags])  # the raw lags stay causal
    assert not np.array_equal(row[cfg.lags:], row_after[cfg.lags:])


# Band tails come from a real contraction of each window's spectrum (adaptive
# edges) or from a matrix of impulse-response taps (frozen edges), not from the
# oracle's full inverse FFT. They agree to rounding: within TAIL_RTOL times the
# largest absolute value of the row's window. Raw lags, targets, band edges and
# the fallback and clipped-gamma counts are exact.
TAIL_RTOL = 1e-12


def assert_tails_close(ts, cfg, got, expected):
    lags = cfg.lags
    assert got.origin_indices.tobytes() == expected.origin_indices.tobytes()
    assert got.X[:, :lags].tobytes() == expected.X[:, :lags].tobytes()
    assert got.Y.tobytes() == expected.Y.tobytes()
    scale = [np.abs(ts.values[t - cfg.window_at(t) + 1: t + 1]).max() for t in got.origin_indices]
    assert np.all(np.abs(got.X[:, lags:] - expected.X[:, lags:])
                  <= TAIL_RTOL * np.array(scale)[:, None])


def assert_matches_oracle(ts, cfg, start, stop):
    ds = build_walkforward_features(ts, cfg, start, stop)
    ref = oracles.build_walkforward_features_fft(ts, cfg, start, stop)
    assert_tails_close(ts, cfg, ds, ref)
    for key in ("fallback_count", "gamma_clipped_count"):
        assert ds.meta[key] == ref.meta[key]
    assert ds.meta["max_imag_residue"] == 0.0  # real arithmetic in both modes


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(24, 320), lags=st.integers(1, 8),
       n_bands=st.integers(1, 4), mode=st.sampled_from(BOUNDARY_MODES),
       window=st.sampled_from(["auto", "all"]) | st.integers(16, 160),
       walk=st.booleans(), chunk_rows=st.integers(1, 5), data=st.data())
def test_batched_rows_equal_the_per_origin_oracle(seed, n, lags, n_bands, mode, window, walk,
                                                  chunk_rows, data):
    cfg = WalkForwardConfig(n_bands=n_bands, lags=lags, window=window, boundary_mode=mode)
    first = cfg.first_origin
    if first >= n - 1:
        return  # no origin has both a full window and a target
    start = data.draw(st.integers(first, n - 2), label="start")
    stop = start + data.draw(st.integers(1, n - 1 - start), label="rows")
    noise = np.random.default_rng(seed).normal(size=n)
    ts = TimeSeries(np.cumsum(noise) if walk else noise + np.sin(0.3 * np.arange(n)))
    # A few rows per chunk, so that most ranges cross chunk edges.
    chunk_bytes = chunk_rows * walkforward._row_bytes(n_bands, cfg.window_at(stop - 1))
    with mock.patch.object(walkforward, "CHUNK_BYTES", chunk_bytes):
        assert_matches_oracle(ts, cfg, start, stop)


@pytest.mark.parametrize("mode", BOUNDARY_MODES)
def test_rows_across_the_default_chunk_edges_equal_the_oracle(mode):
    cfg = WalkForwardConfig(n_bands=4, lags=4, window=64, boundary_mode=mode)
    rows_per_chunk = walkforward.CHUNK_BYTES // walkforward._row_bytes(cfg.n_bands, 64)
    stop = 63 + 2 * rows_per_chunk + 5
    assert_matches_oracle(TimeSeries(noisy_two_tone(stop + 1, seed=12)), cfg, 63, stop)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lags=st.integers(1, 8), n_bands=st.integers(1, 4),
       mode=st.sampled_from(BOUNDARY_MODES),
       window=st.sampled_from(["auto", "all"]) | st.integers(16, 160),
       chunk_rows=st.integers(1, 5), data=st.data())
def test_a_row_does_not_depend_on_the_build_range_or_the_chunking(seed, lags, n_bands, mode,
                                                                   window, chunk_rows, data):
    # One-row products and products inside a stack of rows may round differently
    # (another BLAS kernel); this is the guard that each row's product has one shape.
    cfg = WalkForwardConfig(n_bands=n_bands, lags=lags, window=window, boundary_mode=mode)
    first = cfg.first_origin
    n = data.draw(st.integers(first + 2, first + 160), label="n")
    start = data.draw(st.integers(first, n - 2), label="start")
    stop = start + data.draw(st.integers(1, n - 1 - start), label="rows")
    origins = data.draw(st.lists(st.integers(start, stop - 1), min_size=1, max_size=8),
                        label="one-origin builds")
    ts = TimeSeries(np.cumsum(np.random.default_rng(seed).normal(size=n)))
    # Edges frozen once, so that every one-origin build uses the full build's.
    frozen = freeze_boundaries(ts, cfg, start) if mode == FROZEN_FROM_TRAIN else None
    full = build_walkforward_features(ts, cfg, start, stop, frozen).X
    chunk_bytes = chunk_rows * walkforward._row_bytes(n_bands, cfg.window_at(stop - 1))
    with mock.patch.object(walkforward, "CHUNK_BYTES", chunk_bytes):
        assert build_walkforward_features(ts, cfg, start, stop, frozen).X.tobytes() == full.tobytes()
        for t in origins:
            row = build_walkforward_features(ts, cfg, t, t + 1, frozen).X[0]
            assert row.tobytes() == full[t - start].tobytes()


def tone_series(n, n_tones, seed):
    """A level plus ``n_tones`` sinusoids at well-separated periods: a window of
    64 or more samples has a smoothed spectrum with ``n_tones + 1`` peaks."""
    phases = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, size=n_tones)
    t = np.arange(n)
    return 5.0 + sum(np.sin(2 * np.pi * t / p + f) for p, f in zip((11.3, 4.1, 2.6), phases))


def assert_family_equals_single_builds(ts, cfgs, start, stop):
    family = walkforward._build_family(ts, cfgs, start, stop)
    assert len(family) == len(cfgs)
    for cfg, got in zip(cfgs, family):
        try:
            expected = build_walkforward_features(ts, cfg, start, stop)
        except ValueError as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            continue
        for name in ("X", "Y", "origin_indices"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()
        assert got.meta == expected.meta
    return family


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tones=st.integers(0, 3), lags=st.integers(1, 8),
       band_counts=st.lists(st.integers(1, 5), min_size=1, max_size=4, unique=True),
       gammas=st.lists(st.sampled_from([0.05, 0.2, 0.5, 0.9]), min_size=1, max_size=2,
                       unique=True),
       mode=st.sampled_from(BOUNDARY_MODES),
       window=st.sampled_from(["auto", "all"]) | st.integers(16, 160),
       chunk_rows=st.integers(1, 5), failing_bands=st.none() | st.integers(1, 5),
       data=st.data())
def test_a_family_build_equals_one_build_per_config(seed, n_tones, lags, band_counts, gammas,
                                                    mode, window, chunk_rows, failing_bands,
                                                    data):
    # Configs that differ only in n_bands and gamma share one pass over the
    # origins; each must get the single build's dataset bit for bit, or the
    # error its build alone raises. Tone series make band counts above the
    # peak count fall back to uniform edges while smaller counts do not.
    cfgs = [WalkForwardConfig(n_bands=k, lags=lags, window=window, gamma=g, boundary_mode=mode)
            for k in band_counts for g in gammas]
    first = cfgs[0].first_origin
    n = data.draw(st.integers(first + 2, first + 200), label="n")
    start = data.draw(st.integers(first, n - 2), label="start")
    stop = start + data.draw(st.integers(1, n - 1 - start), label="rows")
    noise = np.random.default_rng(seed).normal(size=n)
    ts = TimeSeries(tone_series(n, n_tones, seed) + 1e-3 * noise if n_tones
                    else np.cumsum(noise))
    width = cfgs[0].window_at(stop - 1)
    chunk_bytes = chunk_rows * sum(walkforward._row_bytes(c.n_bands, width) for c in cfgs)
    check_edges = walkforward.check_edges

    def failing_check(omegas):
        if omegas.shape[-1] == failing_bands - 1:
            raise ValueError(f"no edges for {failing_bands} bands")
        check_edges(omegas)

    with mock.patch.object(walkforward, "CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(walkforward, "check_edges",
                              check_edges if failing_bands is None else failing_check):
        assert_family_equals_single_builds(ts, cfgs, start, stop)


@pytest.mark.parametrize("mode", BOUNDARY_MODES)
def test_a_family_where_only_the_largest_band_count_falls_back(mode):
    # Two tones and a level: three spectral peaks in every window, so four
    # bands fall back to uniform edges and two or three do not.
    ts = TimeSeries(tone_series(400, 2, seed=5))
    cfgs = [WalkForwardConfig(n_bands=k, lags=4, window=64, gamma=0.3, boundary_mode=mode)
            for k in (2, 3, 4)]
    family = assert_family_equals_single_builds(ts, cfgs, 63, 390)
    assert [ds.meta["fallback_count"] > 0 for ds in family] == [False, False, True]


# Adaptive band tails are differences of low-pass tails, one per edge, where the
# per-band reference maps each band's filtered spectrum to its tail: the two
# agree to rounding, within PER_BAND_RTOL times the largest absolute value of
# the row's window (the largest ratio seen is 3.3e-15, at windows of 16-1300).
PER_BAND_RTOL = 1e-14


def assert_rows_equal_the_per_band_reference(ts, cfgs, datasets):
    for cfg, ds in zip(cfgs, datasets):
        origins = ds.origin_indices
        expected = oracles.adaptive_rows_per_band(ts, cfg, int(origins[0]), int(origins[-1]) + 1)
        lags = cfg.lags
        assert ds.X[:, :lags].tobytes() == expected[:, :lags].tobytes()
        scale = np.array([np.abs(ts.values[t - cfg.window_at(t) + 1: t + 1]).max()
                          for t in origins])
        assert np.all(np.abs(ds.X[:, lags:] - expected[:, lags:])
                      <= PER_BAND_RTOL * scale[:, None])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tones=st.integers(0, 3), lags=st.integers(1, 8),
       band_counts=st.lists(st.integers(1, 5), min_size=1, max_size=4, unique=True),
       gammas=st.lists(st.sampled_from([0.05, 0.2, 0.5, 0.9]), min_size=1, max_size=2,
                       unique=True),
       window=st.sampled_from(["auto", "all"]) | st.integers(16, 160),
       chunk_rows=st.integers(1, 5), scale=st.sampled_from([1e-3, 1.0, 1e6]), data=st.data())
def test_adaptive_rows_equal_the_per_band_reference(seed, n_tones, lags, band_counts, gammas,
                                                    window, chunk_rows, scale, data):
    # Families of band counts (one band included) and one or two gammas. Large
    # gammas clip often, and on tone series band counts above the peak count
    # fall back to uniform edges.
    cfgs = [WalkForwardConfig(n_bands=k, lags=lags, window=window, gamma=g)
            for k in band_counts for g in gammas]
    first = cfgs[0].first_origin
    n = data.draw(st.integers(first + 2, first + 200), label="n")
    start = data.draw(st.integers(first, n - 2), label="start")
    stop = start + data.draw(st.integers(1, n - 1 - start), label="rows")
    noise = np.random.default_rng(seed).normal(size=n)
    ts = TimeSeries(scale * (tone_series(n, n_tones, seed) + 1e-3 * noise if n_tones
                             else np.cumsum(noise)))
    width = cfgs[0].window_at(stop - 1)
    chunk_bytes = chunk_rows * sum(walkforward._row_bytes(c.n_bands, width) for c in cfgs)
    with mock.patch.object(walkforward, "CHUNK_BYTES", chunk_bytes):
        family = walkforward._build_family(ts, cfgs, start, stop)
    assert_rows_equal_the_per_band_reference(ts, cfgs, family)


def test_clipped_fallback_and_all_pass_rows_equal_the_per_band_reference():
    # One family in which rows clip their gamma, band counts above the peak
    # count fall back to uniform edges, and one band is its raw lags, with two
    # gammas, across the default chunk edges.
    ts = TimeSeries(tone_series(600, 2, seed=6) + 1e-3 * np.random.default_rng(6).normal(size=600))
    cfgs = [WalkForwardConfig(n_bands=k, lags=4, window=64, gamma=g)
            for k in (1, 2, 3, 5) for g in (0.1, 0.9)]
    family = walkforward._build_family(ts, cfgs, 63, 599)
    meta = {(c.n_bands, c.gamma): ds.meta for c, ds in zip(cfgs, family)}
    assert meta[5, 0.1]["fallback_count"] > 0 and meta[3, 0.1]["fallback_count"] == 0
    assert meta[3, 0.9]["gamma_clipped_count"] > 0
    assert_rows_equal_the_per_band_reference(ts, cfgs, family)
    for c, ds in zip(cfgs, family):
        if c.n_bands == 1:
            assert ds.X[:, 4:].tobytes() == ds.X[:, :4].tobytes()


def test_causal_decompose_ignores_future_values():
    base = noisy_two_tone(300, seed=2)
    cfg = WalkForwardConfig(n_bands=2, lags=3, window=64)
    t = 200
    tails = causal_decompose_at(TimeSeries(base), t, cfg).tails
    mangled = base.copy()
    mangled[t + 1:] = -4321.0
    tails2 = causal_decompose_at(TimeSeries(mangled), t, cfg).tails
    assert np.array_equal(tails, tails2)


def test_all_pass_band_tail_equals_raw_slice():
    base = noisy_two_tone(256, seed=3)
    cfg = WalkForwardConfig(n_bands=1, lags=5, window=64)
    cs = causal_decompose_at(TimeSeries(base), 180, cfg)
    assert np.abs(cs.tails[0] - base[176:181]).max() <= 1e-10


def test_causal_decompose_matches_manual_decompose_exactly():
    base = noisy_two_tone(256, seed=4)
    cfg = WalkForwardConfig(n_bands=2, lags=4, window=128)
    t = 127  # earliest feasible origin: the slice is values[0:128]
    cs = causal_decompose_at(TimeSeries(base), t, cfg)
    window = base[:128]
    bounds = detect_boundaries(magnitude_spectrum(window), 2)
    manual = decompose(window, build_filter_bank(bounds, 128, cfg.gamma))
    assert np.array_equal(cs.tails, manual.components[:, -4:])


def test_feature_dimension_and_names():
    cfg = WalkForwardConfig(n_bands=2, lags=2, window=64)
    values = noisy_two_tone(200)
    ds = build_walkforward_features(TimeSeries(values), cfg, 100, 110)
    assert ds.n_features == 6  # (K + 1) * lags
    # Columns: raw lags oldest first, then each band's tail; the bands sum to the raw lags.
    assert ds.X[:, :2].tobytes() == np.stack([values[99:109], values[100:110]], 1).tobytes()
    assert np.abs(ds.X[:, 2:4] + ds.X[:, 4:6] - ds.X[:, :2]).max() <= 1e-10


def test_constant_series_tails():
    cfg = WalkForwardConfig(n_bands=3, lags=3, window=32)
    values = np.full(100, 7.5)
    ds = build_walkforward_features(TimeSeries(values), cfg, 60, 63)
    raw = ds.X[:, :3]
    dc_tail = ds.X[:, 3:6]
    higher = ds.X[:, 6:]
    assert np.all(raw == 7.5)
    assert np.abs(dc_tail - 7.5).max() <= 1e-8
    assert np.abs(higher).max() <= 1e-8
    assert ds.meta["fallback_count"] == ds.n_samples  # flat spectrum has no peaks


def test_leaky_features_have_identical_shape():
    base = noisy_two_tone(300, seed=5)
    cfg = WalkForwardConfig(n_bands=3, lags=4, window=64)
    wf = build_walkforward_features(TimeSeries(base), cfg, 200, 240)
    lk = leaky_features(TimeSeries(base), cfg, 200, 240)
    assert wf.X.shape == lk.X.shape
    assert np.array_equal(wf.Y, lk.Y)


def test_leaky_rows_equal_the_concatenation_of_lag_windows():
    base = noisy_two_tone(300, seed=5)
    cfg = WalkForwardConfig(n_bands=3, lags=4, window=64)
    bounds = detect_boundaries(magnitude_spectrum(base), cfg.n_bands)
    comps = decompose(base, build_filter_bank(bounds, base.size, cfg.gamma)).components
    start, stop = cfg.lags - 1, 299
    rows = [np.concatenate([base[t - 3: t + 1], comps[:, t - 3: t + 1].ravel()])
            for t in range(start, stop)]
    lk = leaky_features(TimeSeries(base), cfg, start, stop)
    assert lk.X.tobytes() == np.array(rows).tobytes()


def test_all_pass_band_makes_both_pipelines_coincide():
    base = noisy_two_tone(300, seed=6)
    cfg = WalkForwardConfig(n_bands=1, lags=4, window=64)
    wf = build_walkforward_features(TimeSeries(base), cfg, 200, 240)
    lk = leaky_features(TimeSeries(base), cfg, 200, 240)
    assert np.abs(wf.X - lk.X).max() <= 1e-8


def test_leakage_inflates_accuracy_on_a_random_walk():
    # Fixed-seed ordering assertion: the leaky control must look better than
    # the causal pipeline when the future is unpredictable by construction.
    from ewtforecast import rvfl

    rng = np.random.default_rng(11)
    walk = np.cumsum(rng.normal(size=800))
    ts = TimeSeries(walk)
    cfg = WalkForwardConfig(n_bands=3, lags=4, window=128)
    split = 600
    learner = rvfl.RvflConfig(n_enhancement=0, regularization=1e4, direct_link=True, seed=0)

    def test_rmse(builder):
        train = builder(ts, cfg, 127, split)
        test = builder(ts, cfg, split, 800 - cfg.horizon)
        model = rvfl.fit(train.X, train.Y, learner)
        pred = rvfl.predict(model, test.X)
        return float(np.sqrt(np.mean((pred - test.Y) ** 2)))

    rmse_wf = test_rmse(build_walkforward_features)
    rmse_lk = test_rmse(leaky_features)
    assert rmse_lk < rmse_wf


def test_frozen_mode_reuses_one_boundary_set():
    base = noisy_two_tone(400, seed=8)
    ts = TimeSeries(base)
    cfg = WalkForwardConfig(n_bands=3, lags=4, window=128, boundary_mode=FROZEN_FROM_TRAIN)
    ds = build_walkforward_features(ts, cfg, 127, 180)
    frozen = freeze_boundaries(ts, cfg, 127)
    assert build_walkforward_features(ts, cfg, 127, 180, frozen).X.tobytes() == ds.X.tobytes()
    assert ds.meta["max_imag_residue"] == 0.0  # the taps come from a real inverse FFT
    # Every row reproduces with those boundaries passed explicitly.
    cs = causal_decompose_at(ts, 150, cfg, frozen)
    assert ds.X[150 - 127, :4].tobytes() == base[147:151].tobytes()
    scale = np.abs(base[23:151]).max()  # the 128-sample window ending at 150
    assert np.abs(ds.X[150 - 127, 4:] - cs.tails.ravel()).max() <= TAIL_RTOL * scale


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(12, 600), n_bands=st.integers(1, 5),
       lags=st.integers(1, 12), gamma=st.floats(0.01, 0.5))
def test_frozen_taps_equal_the_full_grid_complex_ifft(seed, width, n_bands, lags, gamma):
    # The real inverse FFT of the one-sided bank against the real part of the
    # complex inverse FFT of the bank mirrored onto the full grid.
    omegas = np.sort(np.random.default_rng(seed).uniform(0.05, np.pi - 0.05, n_bands - 1))
    if np.any(np.diff(omegas) <= 0.0):
        return  # a tie: no valid bank
    bank = build_filter_bank(EwtBoundaries(omegas), width, gamma)
    taps = walkforward._frozen_taps(bank.responses[:, :width // 2 + 1], width, lags)
    expected = oracles.frozen_taps_ifft(bank, lags)
    assert taps.shape == expected.shape == (width, n_bands * lags)
    assert np.abs(taps - expected).max() <= 1e-15


def test_adaptive_builds_take_no_frozen_edges():
    ts = TimeSeries(noisy_two_tone(400, seed=3))
    cfg = WalkForwardConfig(n_bands=3, lags=4, window=64)
    frozen = freeze_boundaries(ts, cfg, 63)
    with pytest.raises(ValueError, match="frozen band edges need boundary_mode"):
        build_walkforward_features(ts, cfg, 63, 200, frozen)


def test_a_frozen_build_holds_its_rows_once():
    ts = TimeSeries(noisy_two_tone(3000, seed=13))
    cfg = WalkForwardConfig(n_bands=4, lags=8, window=256, boundary_mode=FROZEN_FROM_TRAIN)
    tracemalloc.start()
    try:
        ds = build_walkforward_features(ts, cfg, 255, 2400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The band tails are written into X in place and X is kept without a copy.
    assert peak < 1.5 * ds.X.nbytes


def profile_pairs_per_chunk(ts, cfgs, start, stop):
    """For each adaptive chunk of a family build, counted from the edges the
    build detects: the number of distinct (row, bin) pairs, per gamma, whose edge
    sits on the bin grid in a row whose gamma was not clipped, and the number of
    (row, edge) pairs of every config that are not such."""
    width = cfgs[0].window_at(start)
    chunk = max(1, walkforward.CHUNK_BYTES
                // sum(walkforward._row_bytes(c.n_bands, width) for c in cfgs))
    aw = ewt._grid(width)
    counts = []
    for lo in range(start, stop, chunk):
        windows = np.array([ts.values[t - width + 1: t + 1]
                            for t in range(lo, min(lo + chunk, stop))])
        found = ewt.band_edges(np.abs(np.fft.rfft(windows, axis=1)), width,
                               [c.n_bands for c in cfgs])
        shared, own = {}, 0
        for c, (omegas, _) in zip(cfgs, found):
            unclipped = ewt._clipped_gamma(omegas, c.gamma) == c.gamma
            on_grid = np.isin(omegas, aw) & unclipped[:, None]
            shared.setdefault(c.gamma, set()).update(
                (row, omegas[row, edge]) for row, edge in zip(*np.nonzero(on_grid)))
            own += int(np.count_nonzero(~on_grid))
        counts.append(({gamma: len(pairs) for gamma, pairs in shared.items()}, own))
    return counts


def test_only_builds_that_repay_a_profile_table_build_one():
    # A table of the falling profile of an edge on every inner bin costs about
    # as much as evaluating that many profiles, so a chunk takes it only where it
    # evaluates at least (W - 1) // 2 shared profiles, counted once per distinct
    # (row, bin) pair of the configs with its gamma. Frozen banks,
    # build_filter_bank, one-origin builds, each origin of window="all" and the
    # few-row chunks of a wide window evaluate the formula and build no table.
    ts = TimeSeries(noisy_two_tone(2400, seed=14))
    ewt._profile_table.cache_clear()
    frozen = WalkForwardConfig(n_bands=3, lags=4, window=64, boundary_mode=FROZEN_FROM_TRAIN)
    build_walkforward_features(ts, frozen, 63, 200)
    build_filter_bank(EwtBoundaries(np.array([0.5, 1.5])), 64, 0.1)
    adaptive = [WalkForwardConfig(n_bands=k, lags=4, window=64) for k in (2, 3, 4)]
    for t in (150, 151, 999):
        walkforward._build_family(ts, adaptive, t, t + 1)
    build_walkforward_features(ts, WalkForwardConfig(n_bands=3, lags=4, window="all"), 11, 40)
    wide = [WalkForwardConfig(n_bands=k, lags=4, window=2048) for k in (2, 3, 4)]
    walkforward._build_family(ts, wide, 2047, 2300)
    assert ewt._profile_table.cache_info().currsize == 0
    n_table = (64 - 1) // 2
    for cfgs in (adaptive[1:2], adaptive):
        # The shortest range from origin 150 whose one chunk fills a table.
        stop = 151
        while profile_pairs_per_chunk(ts, cfgs, 150, stop)[0][0][0.1] < n_table:
            stop += 1
        ewt._profile_table.cache_clear()
        walkforward._build_family(ts, cfgs, 150, stop - 1)
        assert ewt._profile_table.cache_info().currsize == 0
        walkforward._build_family(ts, cfgs, 150, stop)
        assert ewt._profile_table.cache_info().currsize == 1
    # The family's configs share most pairs: its rows held over twice a table's
    # worth of edges before its distinct pairs filled one.
    edges_per_row = sum(c.n_bands - 1 for c in adaptive)
    assert (stop - 150) * edges_per_row > 2 * n_table


def test_a_family_filters_each_shared_row_and_edge_once():
    # Configs with one gamma share a (row, edge) pair whose edge sits on the bin
    # grid in an unclipped row: its spectrum is filtered and mapped to a tail
    # once, however many configs hold the edge. Configs with another gamma
    # filter their own.
    ts = TimeSeries(noisy_two_tone(2400, seed=15))
    cfgs = [WalkForwardConfig(n_bands=k, lags=4, window=64, gamma=g)
            for k in (2, 3, 4) for g in (0.05, 0.1)]
    start, stop = 300, 700
    filtered = []
    tail_basis = walkforward._tail_basis

    class Spy(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            assert ufunc is np.matmul
            filtered.append(inputs[0].shape[0])
            return ufunc(*(np.asarray(x) for x in inputs), **kwargs)

    with mock.patch.object(walkforward, "_tail_basis",
                           lambda width, lags: tail_basis(width, lags).view(Spy)):
        family = walkforward._build_family(ts, cfgs, start, stop)
    # One product per chunk, of one filtered spectrum per distinct shared pair
    # and per pair of a clipped row, which each config filters for itself.
    counts = profile_pairs_per_chunk(ts, cfgs, start, stop)
    assert filtered == [sum(shared.values()) + own for shared, own in counts]
    assert 0 < sum(own for _, own in counts) < sum(filtered) / 2
    edges = sum((stop - start) * (c.n_bands - 1) for c in cfgs)
    assert sum(filtered) < edges
    # Each family row equals the one-config build's, bit for bit.
    for cfg, ds in zip(cfgs, family):
        assert ds.X.tobytes() == build_walkforward_features(ts, cfg, start, stop).X.tobytes()


def test_determinism():
    base = noisy_two_tone(300, seed=9)
    cfg = WalkForwardConfig(n_bands=2, lags=4)
    a = build_walkforward_features(TimeSeries(base), cfg, 127, 160)
    b = build_walkforward_features(TimeSeries(base), cfg, 127, 160)
    assert np.array_equal(a.X, b.X)


def test_window_validation():
    with pytest.raises(ValueError, match="too small"):
        WalkForwardConfig(n_bands=2, lags=4, window=8)
    cfg = WalkForwardConfig(n_bands=2, lags=4, window=64)
    with pytest.raises(ValueError, match="observations"):
        causal_decompose_at(TimeSeries(noisy_two_tone(100)), 10, cfg)
    with pytest.raises(ValueError, match="empty origin range"):
        build_walkforward_features(TimeSeries(noisy_two_tone(100)), cfg, 80, 80)


@given(st.integers(1, 40), st.sampled_from(["auto", "all", 0, 1, 100]), st.integers(0, 300),
       st.integers(1, 40))
def test_window_widths_are_window_at_of_each_origin(lags, window, start, n_origins):
    # An int window is drawn as lags + margin + (0, 1 or 100).
    if isinstance(window, int):
        window += lags + walkforward.MIN_WINDOW_MARGIN
    cfg = WalkForwardConfig(n_bands=2, lags=lags, window=window)
    origins = np.arange(start, start + n_origins, dtype=np.int64)
    try:
        expected = [cfg.window_at(int(t)) for t in origins]
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            cfg.window_widths(origins)
        return
    assert cfg.window_widths(origins).tolist() == expected


@given(st.integers(1, 200), st.sampled_from(["auto", "all", 0, 1, 100]))
def test_first_origin_is_the_smallest_origin_whose_window_fits(lags, window):
    # An int window is drawn as lags + margin + (0, 1 or 100).
    if isinstance(window, int):
        window += lags + walkforward.MIN_WINDOW_MARGIN
    cfg = WalkForwardConfig(n_bands=2, lags=lags, window=window)
    origins = np.arange(cfg.first_origin + 300, dtype=np.int64)
    for origin in origins[:cfg.first_origin]:
        with pytest.raises(ValueError):
            cfg.window_widths(origins[origin: origin + 1])
    assert cfg.window_widths(origins[cfg.first_origin:]).size == 300


def test_auto_window_caps_at_history():
    cfg = WalkForwardConfig(n_bands=2, lags=4, window="auto")
    assert cfg.window_at(63) == 64   # capped at the available history
    assert cfg.window_at(500) == 128

