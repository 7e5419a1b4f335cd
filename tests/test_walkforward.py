from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewtforecast import walkforward
from ewtforecast.ewt import build_filter_bank, decompose, detect_boundaries, magnitude_spectrum
from ewtforecast.series import TimeSeries
from ewtforecast.walkforward import (
    ADAPTIVE_PER_STEP,
    BOUNDARY_MODES,
    FROZEN_FROM_TRAIN,
    MIN_WINDOW_MARGIN,
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
    first = window - 1 if isinstance(window, int) else lags + MIN_WINDOW_MARGIN - 1
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


def oracle_build(ts, cfg, start, stop):
    """Rows, fallback and clipped-gamma counts and imaginary residue, one origin at a time."""
    frozen = (walkforward.freeze_boundaries(ts, cfg, start)
              if cfg.boundary_mode == FROZEN_FROM_TRAIN else None)
    values = ts.values
    rows, fallbacks, clipped, residue = [], 0, 0, 0.0
    for t in range(start, stop):
        cs = causal_decompose_at(ts, t, cfg, frozen)
        rows.append(np.concatenate([values[t - cfg.lags + 1: t + 1], cs.tails.ravel()]))
        bank = build_filter_bank(cs.boundaries, cs.window, cfg.gamma)
        residue = max(residue, decompose(values[t - cs.window + 1: t + 1], bank).max_imag_residue)
        fallbacks += cs.boundaries.uniform_fallback
        clipped += bank.gamma_clipped
    if frozen is not None:
        fallbacks, clipped = int(frozen.uniform_fallback), int(bank.gamma_clipped)
    return np.array(rows), fallbacks, clipped, residue


def assert_matches_oracle(ts, cfg, start, stop):
    ds = build_walkforward_features(ts, cfg, start, stop)
    rows, fallbacks, clipped, residue = oracle_build(ts, cfg, start, stop)
    assert ds.X.tobytes() == rows.tobytes()
    assert ds.Y[:, 0].tobytes() == ts.values[start + cfg.horizon: stop + cfg.horizon].tobytes()
    assert (ds.meta["fallback_count"], ds.meta["gamma_clipped_count"]) == (fallbacks, clipped)
    assert ds.meta["max_imag_residue"] == residue


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(24, 320), lags=st.integers(1, 8),
       n_bands=st.integers(1, 4), mode=st.sampled_from(BOUNDARY_MODES),
       window=st.sampled_from(["auto", "all"]) | st.integers(16, 160),
       walk=st.booleans(), chunk_rows=st.integers(1, 5), data=st.data())
def test_batched_rows_equal_the_per_origin_oracle(seed, n, lags, n_bands, mode, window, walk,
                                                  chunk_rows, data):
    cfg = WalkForwardConfig(n_bands=n_bands, lags=lags, window=window, boundary_mode=mode)
    first = window - 1 if isinstance(window, int) else lags + MIN_WINDOW_MARGIN - 1
    if first >= n - 1:
        return  # no origin has both a full window and a target
    start = data.draw(st.integers(first, n - 2), label="start")
    stop = start + data.draw(st.integers(1, n - 1 - start), label="rows")
    noise = np.random.default_rng(seed).normal(size=n)
    ts = TimeSeries(np.cumsum(noise) if walk else noise + np.sin(0.3 * np.arange(n)))
    # A few rows per chunk, so that most ranges cross chunk edges.
    chunk_bytes = chunk_rows * 16 * n_bands * cfg.window_at(stop - 1)
    with mock.patch.object(walkforward, "CHUNK_BYTES", chunk_bytes):
        assert_matches_oracle(ts, cfg, start, stop)


@pytest.mark.parametrize("mode", BOUNDARY_MODES)
def test_rows_across_the_default_chunk_edges_equal_the_oracle(mode):
    cfg = WalkForwardConfig(n_bands=4, lags=4, window=64, boundary_mode=mode)
    rows_per_chunk = walkforward.CHUNK_BYTES // (16 * cfg.n_bands * 64)
    stop = 63 + 2 * rows_per_chunk + 5
    assert_matches_oracle(TimeSeries(noisy_two_tone(stop + 1, seed=12)), cfg, 63, stop)


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
    assert ds.meta["frozen_boundaries"] == [float(w) for w in frozen.omegas]
    # Every row reproduces with those boundaries passed explicitly.
    cs = causal_decompose_at(ts, 150, cfg, frozen)
    row = np.concatenate([base[147:151], cs.tails.ravel()])
    assert np.array_equal(ds.X[150 - 127], row)


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


def test_auto_window_caps_at_history():
    cfg = WalkForwardConfig(n_bands=2, lags=4, window="auto")
    assert cfg.window_at(63) == 64   # capped at the available history
    assert cfg.window_at(500) == 128

