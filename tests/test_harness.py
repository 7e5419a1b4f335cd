import csv
import json
from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from ewtforecast import edrvfl, harness, rvfl
from ewtforecast.edrvfl import EdRvflConfig, fit_edrvfl, ensemble_predict
from ewtforecast.harness import (
    ConfigError,
    CorruptModelError,
    ExperimentConfig,
    GridSpace,
    ModelVersionError,
    grid_search,
    layerwise_grid_search,
    load_experiment_config,
    load_model,
    run_experiment,
    save_model,
    write_report,
)
from ewtforecast.rvfl import ACTIVATIONS
from ewtforecast.series import SplitSpec, TimeSeries, WindowedDataset
from ewtforecast.walkforward import WalkForwardConfig, build_walkforward_features

import oracles
from oracles import cho_factor_solve


def linear_dataset(seed=0, slope=2.0, n=80, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=n)
    X = x.reshape(-1, 1)
    Y = (slope * x + noise * rng.normal(size=n)).reshape(-1, 1)
    return WindowedDataset(X, Y, origin_indices=np.arange(n))


def write_series(tmp_path, values, name="series.csv"):
    path = tmp_path / name
    np.savetxt(path, np.asarray(values), delimiter=",")
    return path


def walk_config(tmp_path, path, family="rvfl", pipeline="raw_lags", **overrides):
    defaults = dict(
        data_path=str(path),
        split=SplitSpec(0.6, 0.2),
        family=family,
        pipeline=pipeline,
        grid=GridSpace(n_enhancement=(10,), regularization=(10.0,), lags=(4,), n_bands=(2,)),
        output_dir=str(tmp_path / "out"),
        window=64,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ------------------------------------------------------------- grid_search

def test_grid_search_singleton_space():
    train = linear_dataset(0)
    val = linear_dataset(1)
    space = GridSpace(n_enhancement=(5,), regularization=(1.0,))
    result = grid_search(space, train, val)
    assert result.best.n_enhancement == 5
    assert len(result.leaderboard) == 1


def test_grid_search_interpolating_candidate_wins():
    # y = 2x exactly: the barely-regularized candidate reproduces it on
    # validation, the heavily shrunk one cannot.
    train = linear_dataset(2, noise=0.0)
    val = linear_dataset(3, noise=0.0)
    space = GridSpace(n_enhancement=(0,), regularization=(1e-4, 1e6))
    result = grid_search(space, train, val)
    assert result.best.regularization == 1e6
    assert result.best_rmse <= 1e-6


def test_grid_search_records_failures_and_skips_them():
    train = linear_dataset(4)
    val = linear_dataset(5)
    space = GridSpace(n_enhancement=(0, 5), direct_link=(False, True))
    result = grid_search(space, train, val)
    failures = [o for o in result.leaderboard if o.error is not None]
    assert len(result.leaderboard) == 4
    assert len(failures) == 1  # L=0 without direct links is invalid
    assert "direct links" in failures[0].error


def small_problem(seed, n_train, n_val, n_features):
    """A small random regression split into train and validation rows."""
    rng = np.random.default_rng(seed)
    n = n_train + n_val
    X = rng.normal(size=(n, n_features))
    Y = np.tanh(X @ rng.normal(size=(n_features, 1))) + 0.1 * rng.normal(size=(n, 1))
    return (WindowedDataset(X[:n_train], Y[:n_train], np.arange(n_train)),
            WindowedDataset(X[n_train:], Y[n_train:], np.arange(n_train, n)))


def axis(values, max_size=3):
    return st.lists(values, min_size=1, max_size=max_size).map(tuple)


# Repeated and unsorted axis values, invalid values (C <= 0; 0 nodes, which
# fails without direct links and in every edrvfl layer), both bias settings.
grid_spaces = st.builds(
    GridSpace,
    n_enhancement=axis(st.integers(0, 6)),
    regularization=axis(st.sampled_from([-1.0, 0.0, 1e-3, 0.5, 1e4])),
    activation=axis(st.sampled_from(sorted(ACTIVATIONS)), 2),
    input_scale=axis(st.sampled_from([0.5, 2.0]), 2),
    direct_link=axis(st.booleans(), 2),
    output_bias=axis(st.booleans(), 2),
    seeds=axis(st.integers(0, 3), 2),
)
problems = st.builds(small_problem, st.integers(0, 2 ** 16), st.integers(1, 24),
                     st.integers(0, 10), st.integers(1, 4))


def outcome_or_error(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except RuntimeError as exc:
        return str(exc)


def assert_same_search(got, ref):
    """Equal leaderboards (params, val_rmse bits, error strings), winners and forecasts."""
    if isinstance(ref, str):
        assert got == ref
        return
    for name in ref.__dataclass_fields__:
        a, b = getattr(got, name), getattr(ref, name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        else:
            assert a == b, name


def failing_large_ridges(solve):
    """``_solve_spd`` that fails every system whose diagonal is all >= 1000
    (C = 1e-3 and below), so that some candidates' solves fail."""
    def patched(A, B):
        if np.diag(A).min() >= 1e3:
            raise RuntimeError("injected factorization failure")
        return solve(A, B)
    return patched


@settings(max_examples=60, deadline=None)
@given(problem=problems, space=grid_spaces, base_seed=st.integers(0, 3),
       max_layers=st.integers(1, 3), fail_solves=st.booleans())
def test_grouped_searches_equal_the_per_candidate_oracle(problem, space, base_seed, max_layers,
                                                         fail_solves):
    train, val = problem
    solve = failing_large_ridges(rvfl._solve_spd) if fail_solves else rvfl._solve_spd
    with mock.patch.object(rvfl, "_solve_spd", solve):
        assert_same_search(outcome_or_error(grid_search, space, train, val, base_seed),
                           outcome_or_error(oracles.grid_search_per_candidate, space, train,
                                            val, base_seed))
        assert_same_search(
            outcome_or_error(layerwise_grid_search, space, train, val, max_layers, base_seed),
            outcome_or_error(oracles.layerwise_per_candidate, space, train, val, max_layers,
                             base_seed))


@settings(max_examples=25, deadline=None)
@given(values=st.lists(st.floats(-3.0, 3.0), min_size=40, max_size=80),
       regs=axis(st.sampled_from([-1.0, 0.0, 1e-3, 0.5, 1e4]), 4),
       lags=axis(st.integers(1, 6)), fail_solves=st.booleans())
def test_grouped_linear_baseline_equals_the_per_candidate_oracle(values, regs, lags, fail_solves):
    ts = TimeSeries(np.cumsum(values))
    cfg = ExperimentConfig(data_path="unused.csv", split=SplitSpec(0.6, 0.2),
                           family="baseline_linear", pipeline="raw_lags",
                           grid=GridSpace(regularization=regs, lags=lags))
    i_train, i_val = harness.split_boundaries(len(ts), cfg.split)
    solve = failing_large_ridges(rvfl._solve_spd) if fail_solves else rvfl._solve_spd
    with mock.patch.object(rvfl, "_solve_spd", solve):
        got, ref = [], []
        try:
            pred, info = harness._linear_baseline(cfg, ts, i_train, i_val, None, got)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=str(exc)):
                oracles.linear_baseline_per_candidate(cfg, ts, i_train, i_val, None, ref)
            assert got == ref
            return
        ref_pred, ref_info = oracles.linear_baseline_per_candidate(cfg, ts, i_train, i_val,
                                                                   None, ref)
    assert got == ref and info == ref_info
    assert pred.tobytes() == ref_pred.tobytes()


@settings(max_examples=30, deadline=None)
@given(problem=problems, space=grid_spaces, max_layers=st.integers(1, 3), data=st.data())
def test_grid_search_winner_is_permutation_independent(problem, space, max_layers, data):
    # Permuting the axis lists changes neither search: candidates are visited in
    # sorted order and ties break on the candidate tuple.
    train, val = problem
    permuted = GridSpace(**{name: data.draw(st.permutations(getattr(space, name)))
                            for name in space.__dataclass_fields__})
    assert_same_search(outcome_or_error(grid_search, permuted, train, val),
                       outcome_or_error(grid_search, space, train, val))
    assert_same_search(outcome_or_error(layerwise_grid_search, permuted, train, val, max_layers),
                       outcome_or_error(layerwise_grid_search, space, train, val, max_layers))


# On this problem the search keeps four layers.
deep_problem = (36, 60, 30, 3)
deep_space = GridSpace(n_enhancement=(4, 9, 2), regularization=(1.0, 0.1, 10.0),
                       activation=("sigmoid", "relu"), output_bias=(False, True))


def test_deep_layerwise_search_equals_the_per_candidate_oracle():
    train, val = small_problem(*deep_problem)
    lw = layerwise_grid_search(deep_space, train, val, 4)
    assert len(lw.layer_nodes) >= 3
    assert_same_search(lw, oracles.layerwise_per_candidate(deep_space, train, val, 4))


def test_a_failed_solve_fails_only_its_candidate():
    train, val = small_problem(35, 40, 20, 2)
    space = GridSpace(n_enhancement=(3, 6), regularization=(1e-3, 1.0))
    with mock.patch.object(rvfl, "_solve_spd", failing_large_ridges(rvfl._solve_spd)):
        gs = grid_search(space, train, val)
        lw = layerwise_grid_search(space, train, val, max_layers=2)
    failed = [o for o in gs.leaderboard if o.error is not None]
    assert [o.params["regularization"] for o in failed] == [1e-3, 1e-3]
    assert all(o.error == "injected factorization failure" for o in failed)
    assert gs.best.regularization == 1.0
    stage2 = [o for o in lw.leaderboard if len(o.params["layer_nodes"]) == 2]
    assert [o.error for o in stage2 if o.params["layer_regs"][1] == 1e-3] == \
        ["layer 2 solve failed: injected factorization failure"] * 2
    assert all(o.val_rmse is not None for o in stage2 if o.params["layer_regs"][1] == 1.0)


def with_nan_weights(monkeypatch, poisoned):
    """Make ``rvfl.ridge_path`` return all-NaN weights where ``poisoned(H, C)`` holds."""
    original = rvfl.ridge_path

    def ridge_path(H, Y, regularizations, mode="auto"):
        betas = original(H, Y, regularizations, mode)
        return [np.full_like(b, np.nan) if poisoned(np.asarray(H), c) else b
                for b, c in zip(betas, regularizations)]

    monkeypatch.setattr(rvfl, "ridge_path", ridge_path)


def test_grid_search_fails_a_candidate_with_a_non_finite_validation_forecast(monkeypatch):
    train, val = linear_dataset(17, noise=0.1), linear_dataset(18, noise=0.1)
    # One input column plus 5 nodes: the 5-node candidate's weights are NaN.
    with_nan_weights(monkeypatch, lambda H, c: H.shape[1] == 6)
    result = grid_search(GridSpace(n_enhancement=(5, 10)), train, val)
    assert result.best.n_enhancement == 10
    assert np.isfinite(result.best_rmse)
    failed = result.leaderboard[0]
    assert failed.params["n_enhancement"] == 5 and failed.val_rmse is None
    assert failed.error == "non-finite validation forecast (80 of 80 values)"
    with pytest.raises(RuntimeError, match=r"every grid candidate failed; the first: non-finite"):
        grid_search(GridSpace(n_enhancement=(5,)), train, val)


# ------------------------------------------------------------- layerwise

def test_layerwise_rejects_a_layer_with_a_non_finite_validation_forecast(monkeypatch):
    train, val = linear_dataset(19, noise=0.1), linear_dataset(20, noise=0.1)
    original = edrvfl.combine_predictions

    # The search ensembles the fixed layers' forecasts with the new layer's.
    def combine_predictions(stacked, rule):
        out = original(stacked, rule)
        return np.full_like(out, np.nan) if len(stacked) > 1 else out

    monkeypatch.setattr(edrvfl, "combine_predictions", combine_predictions)
    space = GridSpace(n_enhancement=(5, 10), regularization=(1.0, 10.0))
    lw = layerwise_grid_search(space, train, val, max_layers=3)
    assert len(lw.layer_nodes) == 1 and len(lw.history) == 1
    assert np.isfinite(lw.best_rmse)
    deeper = [o for o in lw.leaderboard if len(o.params["layer_nodes"]) == 2]
    assert len(deeper) == 4
    assert all(o.val_rmse is None and "non-finite validation forecast" in o.error for o in deeper)


def test_layerwise_single_layer_equals_grid_search():
    train = linear_dataset(10, noise=0.1)
    val = linear_dataset(11, noise=0.1)
    space = GridSpace(n_enhancement=(5, 15), regularization=(1.0, 100.0))
    lw = layerwise_grid_search(space, train, val, max_layers=1)
    assert len(lw.layer_nodes) == 1
    # The one-layer ensemble is the shallow network, so the winner must agree
    # with a shallow search over the same axes (direct links forced on).
    gs = grid_search(space, train, val)
    assert lw.layer_nodes[0] == gs.best.n_enhancement
    assert lw.layer_regs[0] == gs.best.regularization
    assert lw.best_rmse == gs.best_rmse
    assert lw.val_forecast.tobytes() == gs.val_forecast.tobytes()


def test_layerwise_history_is_non_increasing():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(120, 4))
    Y = np.tanh(X @ rng.normal(size=(4, 1))) + 0.05 * rng.normal(size=(120, 1))
    train = WindowedDataset(X[:80], Y[:80], np.arange(80))
    val = WindowedDataset(X[80:], Y[80:], np.arange(80, 120))
    space = GridSpace(n_enhancement=(10, 30), regularization=(1.0, 100.0))
    lw = layerwise_grid_search(space, train, val, max_layers=4)
    assert all(b <= a for a, b in zip(lw.history, lw.history[1:]))
    assert len(lw.layer_nodes) == len(lw.history)


def test_layerwise_early_stop_when_deeper_layers_add_nothing():
    # A vanishing input scale collapses every enhancement feature to a
    # constant, so layer 2 duplicates layer 1 (up to ~1e-12) while the target
    # noise keeps validation RMSE far above that; the layer must be rejected.
    train = linear_dataset(13, noise=0.05)
    val = linear_dataset(14, noise=0.05)
    space = GridSpace(n_enhancement=(5,), regularization=(100.0,), input_scale=(1e-14,))
    lw = layerwise_grid_search(space, train, val, max_layers=4)
    assert len(lw.layer_nodes) == 1
    assert len(lw.history) == 1


# ------------------------------------------------------------- run_experiment

def test_persistence_baseline_forecasts_last_observation(tmp_path):
    rng = np.random.default_rng(15)
    values = np.cumsum(rng.normal(size=300))
    path = write_series(tmp_path, values)
    cfg = walk_config(tmp_path, path, family="baseline_persistence")
    report = run_experiment(cfg)
    origins = np.asarray(report.origins)
    assert np.array_equal(report.forecasts["persistence"], values[origins])
    assert set(report.test_metrics) == {"persistence", "linear"}


def test_runs_are_bit_identical(tmp_path):
    rng = np.random.default_rng(16)
    values = np.sin(np.arange(400) * 0.1) + 0.1 * rng.normal(size=400)
    path = write_series(tmp_path, values)
    cfg = walk_config(tmp_path, path, pipeline="walkforward_ewt",
                      grid=GridSpace(n_enhancement=(10,), regularization=(1.0, 100.0),
                                     lags=(4,), n_bands=(2,)))
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.forecasts == r2.forecasts
    assert r1.test_metrics == r2.test_metrics


def test_report_rerun_reproduces_forecasts(tmp_path):
    rng = np.random.default_rng(17)
    values = np.cumsum(rng.normal(size=300))
    path = write_series(tmp_path, values)
    cfg = walk_config(tmp_path, path)
    report = run_experiment(cfg)
    paths = write_report(report, cfg.output_dir)
    cfg2 = load_experiment_config(paths["report"])
    report2 = run_experiment(cfg2)
    paths2 = write_report(report2, tmp_path / "rerun")
    assert paths["forecasts"].read_text() == paths2["forecasts"].read_text()


def test_report_with_a_jobs_key_reruns_to_the_same_forecasts(tmp_path):
    # Reports written while the search had a thread pool carry "jobs": 1.
    values = np.cumsum(np.random.default_rng(17).normal(size=300))
    cfg = walk_config(tmp_path, write_series(tmp_path, values), family="edrvfl",
                      grid=GridSpace(n_enhancement=(5, 10), regularization=(1.0, 10.0),
                                     lags=(4,)))
    paths = write_report(run_experiment(cfg), tmp_path / "first")
    old = json.loads(paths["report"].read_text())
    old["config"]["jobs"] = 1
    old_report = tmp_path / "old_report.json"
    old_report.write_text(json.dumps(old))
    rerun = load_experiment_config(old_report)
    assert rerun == cfg
    assert ExperimentConfig.from_dict({**old["config"], "jobs": 8}) == cfg
    paths2 = write_report(run_experiment(rerun), tmp_path / "rerun")
    assert paths2["forecasts"].read_bytes() == paths["forecasts"].read_bytes()


def test_metrics_csv_quotes_a_series_name_with_a_comma(tmp_path):
    path = tmp_path / "load.csv"
    values = np.cumsum(np.random.default_rng(32).normal(size=200))
    path.write_text('"load, kW"\n' + "".join(f"{float(v)!r}\n" for v in values))
    cfg = walk_config(tmp_path, path, data_column="load, kW", data_has_header=True)
    paths = write_report(run_experiment(cfg), cfg.output_dir)
    with open(paths["metrics"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["model", "series", "horizon", "n_test",
                       "mae", "mse", "rmse", "mape_pct", "mase", "dstat"]
    assert [len(row) for row in rows[1:]] == [10, 10, 10]
    assert {row[1] for row in rows[1:]} == {"load, kW"}


def test_report_files_shape(tmp_path):
    rng = np.random.default_rng(18)
    values = np.cumsum(rng.normal(size=260))
    path = write_series(tmp_path, values)
    cfg = walk_config(tmp_path, path)
    report = run_experiment(cfg)
    paths = write_report(report, cfg.output_dir)

    metrics_lines = paths["metrics"].read_text().strip().splitlines()
    models = {line.split(",")[0] for line in metrics_lines[1:]}
    assert {"persistence", "linear", "rvfl"} == models

    forecast_lines = paths["forecasts"].read_text().strip().splitlines()
    assert len(forecast_lines) - 1 == len(report.origins) * len(report.forecasts)

    loaded = json.loads(paths["report"].read_text())
    assert loaded["schema_version"] == harness.SCHEMA_VERSION
    assert loaded["meta"]["grid_size"] == 1


def test_metric_selection_limits_report_columns(tmp_path):
    rng = np.random.default_rng(31)
    values = np.cumsum(rng.normal(size=260))
    path = write_series(tmp_path, values)
    cfg = walk_config(tmp_path, path, metrics=("rmse", "dstat"))
    report = run_experiment(cfg)
    assert set(report.test_metrics["persistence"]) == {"rmse", "dstat"}
    paths = write_report(report, cfg.output_dir)
    header = paths["metrics"].read_text().splitlines()[0]
    assert header == "model,series,horizon,n_test,rmse,dstat"


def test_leaky_pipeline_beats_walkforward_on_random_walk(tmp_path):
    rng = np.random.default_rng(19)
    values = np.cumsum(rng.normal(size=700))
    path = write_series(tmp_path, values)
    grid = GridSpace(n_enhancement=(0,), regularization=(1e4,), lags=(4,), n_bands=(3,))
    wf = run_experiment(walk_config(tmp_path, path, pipeline="walkforward_ewt", grid=grid,
                                    window=128))
    lk = run_experiment(walk_config(tmp_path, path, pipeline="leaky_ewt", grid=grid,
                                    window=128))
    assert lk.test_metrics["rvfl"]["rmse"] < wf.test_metrics["rvfl"]["rmse"]


def test_edrvfl_experiment_runs(tmp_path):
    rng = np.random.default_rng(20)
    values = np.sin(np.arange(300) * 0.07) + 0.05 * rng.normal(size=300)
    path = write_series(tmp_path, values)
    cfg = walk_config(tmp_path, path, family="edrvfl", max_layers=2,
                      grid=GridSpace(n_enhancement=(8,), regularization=(10.0,), lags=(4,)))
    report = run_experiment(cfg)
    assert report.chosen["name"] == "edrvfl"
    assert "layer_nodes" in report.chosen
    assert "edrvfl" in report.test_metrics


@pytest.mark.parametrize("family", ["rvfl", "edrvfl"])
@pytest.mark.parametrize("scaler", ["none", "zscore"])
def test_validation_metrics_and_chosen_match_per_candidate_search_and_refit(tmp_path, monkeypatch,
                                                                            family, scaler):
    # The search hands the winner's validation forecast to the report. The
    # report must read as when every candidate is fitted on its own and the
    # winner is refitted on the training rows to forecast the validation rows.
    values = np.sin(np.arange(320) * 0.21) + 0.2 * np.random.default_rng(37).normal(size=320)
    path = write_series(tmp_path, values)
    grid = GridSpace(n_enhancement=(12, 5), regularization=(0.1, 10.0), lags=(4,),
                     n_bands=(2, 3), output_bias=(False, True))
    cfg = walk_config(tmp_path, path, family=family, pipeline="walkforward_ewt", grid=grid,
                      scaler=scaler, max_layers=3)
    report = json.loads(write_report(run_experiment(cfg), tmp_path / "a")["report"].read_text())

    monkeypatch.setattr(harness, "grid_search", oracles.grid_search_per_candidate)
    monkeypatch.setattr(harness, "layerwise_grid_search", oracles.layerwise_per_candidate)
    chosen = run_experiment(cfg).chosen
    ts = harness.load_csv(cfg.data_path)
    i_train, i_val = harness.split_boundaries(len(ts), cfg.split)
    build = harness._PipelineBuild(ts, cfg.pipeline, chosen["pipeline_params"], cfg.horizon,
                                   cfg.window, i_train, i_val)
    val_rows = build.val_rows()
    forecast = oracles.validation_refit_forecast(cfg, build, chosen)
    ev = harness.EvalSeries(val_rows.Y.ravel(), forecast.ravel(),
                            ts.values[val_rows.origin_indices + cfg.horizon - 1],
                            ts.values[:i_train])
    metrics = harness._filter_metrics(harness.compute_metrics(ev), cfg.metrics)
    for got, ref in ((report["chosen"], {**chosen, "name": family}),
                     (report["validation_metrics"], metrics)):
        assert json.dumps(got, indent=2, sort_keys=True) == json.dumps(ref, indent=2, sort_keys=True)


def test_test_rows_extracted_once_after_tuning(tmp_path, monkeypatch):
    rng = np.random.default_rng(21)
    values = np.cumsum(rng.normal(size=300))
    path = write_series(tmp_path, values)
    events = []

    original_extract = harness.extract_test_rows
    original_search = harness.grid_search

    def counting_extract(dataset, indices):
        events.append("extract_test_rows")
        return original_extract(dataset, indices)

    def recording_search(*args, **kwargs):
        events.append("grid_search")
        return original_search(*args, **kwargs)

    monkeypatch.setattr(harness, "extract_test_rows", counting_extract)
    monkeypatch.setattr(harness, "grid_search", recording_search)
    cfg = walk_config(tmp_path, path, pipeline="walkforward_ewt",
                      grid=GridSpace(n_enhancement=(5, 10), regularization=(1.0,),
                                     lags=(4,), n_bands=(2,)))
    run_experiment(cfg)
    # One extraction for the chosen model, one for the linear baseline, both
    # strictly after every tuning call.
    extract_positions = [i for i, e in enumerate(events) if e == "extract_test_rows"]
    search_positions = [i for i, e in enumerate(events) if e == "grid_search"]
    assert len(extract_positions) == 2
    assert min(extract_positions) > max(search_positions)


def test_split_leaving_an_empty_train_segment_is_a_config_error(tmp_path):
    values = np.cumsum(np.random.default_rng(22).normal(size=200))
    cfg = walk_config(tmp_path, write_series(tmp_path, values), split=SplitSpec(0.004, 0.5))
    with pytest.raises(ConfigError, match="empty train or test segment for n=200"):
        run_experiment(cfg)


def test_leaky_pipeline_visits_each_candidate_once_whatever_the_boundary_modes(tmp_path):
    # The full-series decomposition ignores the boundary mode, so that axis
    # must not multiply the leaky candidates.
    values = np.cumsum(np.random.default_rng(33).normal(size=300))
    path = write_series(tmp_path, values)
    grid = GridSpace(n_enhancement=(10,), regularization=(10.0,), lags=(4,), n_bands=(2,),
                     boundary_mode=("frozen_from_train", "adaptive_per_step"))
    assert grid.size("leaky_ewt", "rvfl") == 1
    assert grid.size("walkforward_ewt", "rvfl") == 2
    for split in (SplitSpec(0.6, 0.2), SplitSpec(0.8, 0.0)):
        report = run_experiment(walk_config(tmp_path, path, pipeline="leaky_ewt", grid=grid,
                                            split=split))
        assert report.meta["grid_size"] == len(report.leaderboard) == 1
        assert report.chosen["pipeline_params"]["boundary_mode"] == "adaptive_per_step"


def test_validation_required_for_multi_candidate_grids(tmp_path):
    values = np.cumsum(np.random.default_rng(22).normal(size=200))
    path = write_series(tmp_path, values)
    cfg = walk_config(tmp_path, path, split=SplitSpec(0.8, 0.0),
                      grid=GridSpace(n_enhancement=(5, 10), lags=(4,)))
    with pytest.raises(ConfigError, match="validation"):
        run_experiment(cfg)


def test_zero_validation_single_candidate_runs(tmp_path):
    values = np.cumsum(np.random.default_rng(23).normal(size=200))
    path = write_series(tmp_path, values)
    # Repeated axis values are one candidate, so no validation span is needed.
    grid = GridSpace(n_enhancement=(10, 10), regularization=(10.0, 10.0), lags=(4, 4))
    cfg = walk_config(tmp_path, path, split=SplitSpec(0.8, 0.0), grid=grid)
    report = run_experiment(cfg)
    assert report.validation_metrics is None
    assert "rvfl" in report.test_metrics
    assert report.meta["grid_size"] == grid.size("raw_lags", "rvfl") == 1


@pytest.mark.parametrize("family", ["rvfl", "edrvfl"])
def test_grid_size_counts_the_candidates_on_the_leaderboard(tmp_path, family):
    values = np.cumsum(np.random.default_rng(24).normal(size=200))
    path = write_series(tmp_path, values)
    # edrvfl links every layer directly, so its search folds the direct_link axis.
    grid = GridSpace(n_enhancement=(5, 10), direct_link=(False, True), lags=(3, 4))
    report = run_experiment(walk_config(tmp_path, path, family=family, grid=grid, max_layers=1))
    candidates = [e for e in report.leaderboard if e["pipeline"] is not None]
    assert report.meta["grid_size"] == len(candidates) == (8 if family == "rvfl" else 4)


def test_edrvfl_with_only_the_direct_link_axis_needs_no_validation(tmp_path):
    values = np.cumsum(np.random.default_rng(25).normal(size=200))
    path = write_series(tmp_path, values)
    grid = GridSpace(n_enhancement=(10,), regularization=(10.0,), direct_link=(False, True),
                     lags=(4,))
    cfg = walk_config(tmp_path, path, family="edrvfl", split=SplitSpec(0.8, 0.0), grid=grid,
                      max_layers=1)
    report = run_experiment(cfg)
    assert report.meta["grid_size"] == 1
    assert report.validation_metrics is None


def test_linear_baseline_grid_size_counts_lags_times_regularization(tmp_path):
    values = np.cumsum(np.random.default_rng(29).normal(size=200))
    path = write_series(tmp_path, values)
    # The model axes play no part in the linear baseline's search.
    grid = GridSpace(n_enhancement=(5, 10), regularization=(10.0,), lags=(4,))
    report = run_experiment(walk_config(tmp_path, path, family="baseline_linear",
                                        split=SplitSpec(0.8, 0.0), grid=grid))
    assert report.meta["grid_size"] == len(report.leaderboard) == 1
    grid = GridSpace(n_enhancement=(5, 10), regularization=(1.0, 10.0, 10.0), lags=(3, 4))
    report = run_experiment(walk_config(tmp_path, path, family="baseline_linear", grid=grid))
    assert report.meta["grid_size"] == len(report.leaderboard) == 4


def nan_forecasting_rvfl(monkeypatch, n_rows, n_bad):
    """Make rvfl (not the ridge baseline) forecast ``n_bad`` NaNs for ``n_rows`` rows."""
    original = rvfl.predict

    def predict(model, X):
        out = original(model, X)
        if model.config.n_enhancement and len(out) == n_rows:
            out[:n_bad] = np.nan
        return out

    monkeypatch.setattr(rvfl, "predict", predict)


def test_linear_baseline_skips_a_non_finite_validation_forecast(tmp_path, monkeypatch):
    values = np.cumsum(np.random.default_rng(33).normal(size=200))
    with_nan_weights(monkeypatch, lambda H, c: c == 1e3)
    grid = GridSpace(regularization=(1.0, 1e3), lags=(4,))
    report = run_experiment(walk_config(tmp_path, write_series(tmp_path, values),
                                        family="baseline_linear", grid=grid))
    assert report.chosen["model_params"] == {"lags": 4, "regularization": 1.0}
    [failed] = [e for e in report.leaderboard if e["val_rmse"] is None]
    assert failed["params"]["regularization"] == 1e3
    assert failed["error"].startswith("non-finite validation forecast")


def test_non_finite_test_forecast_raises(tmp_path, monkeypatch):
    values = np.cumsum(np.random.default_rng(30).normal(size=200))
    path = write_series(tmp_path, values)
    nan_forecasting_rvfl(monkeypatch, 60, 3)  # the test span of a 0.6/0.1 split
    with pytest.raises(RuntimeError, match="rvfl model forecast 3 non-finite values"):
        run_experiment(walk_config(tmp_path, path, split=SplitSpec(0.6, 0.1)))


def test_report_files_are_replaced_whole_or_not_at_all(tmp_path, monkeypatch):
    values = np.cumsum(np.random.default_rng(31).normal(size=200))
    report = run_experiment(walk_config(tmp_path, write_series(tmp_path, values)))
    out = tmp_path / "report"
    paths = write_report(report, out)
    before = {name: p.read_bytes() for name, p in paths.items()}
    unserialisable = harness.ExperimentReport(**{**report.__dict__,
                                                 "meta": {**report.meta, "bad": object()}})
    with pytest.raises(TypeError):
        write_report(unserialisable, out)
    assert {name: p.read_bytes() for name, p in paths.items()} == before

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(harness.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        write_report(report, out)
    assert {name: p.read_bytes() for name, p in paths.items()} == before
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in paths.values())


def test_failed_model_save_keeps_the_previous_file(tmp_path, monkeypatch):
    rng = np.random.default_rng(32)
    X, Y = rng.normal(size=(20, 3)), rng.normal(size=(20, 1))
    path = tmp_path / "model.json"
    save_model(rvfl.fit(X, Y, rvfl.RvflConfig(n_enhancement=4, seed=1)), path)
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(harness.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_model(rvfl.fit(X, Y, rvfl.RvflConfig(n_enhancement=5, seed=2)), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def test_report_meta_carries_the_decomposition_counters(tmp_path):
    values = np.cumsum(np.random.default_rng(26).normal(size=200))
    path = write_series(tmp_path, values)
    grid = GridSpace(n_enhancement=(10,), regularization=(10.0,), lags=(4,), n_bands=(4,))
    report = run_experiment(walk_config(tmp_path, path, pipeline="walkforward_ewt", grid=grid))
    # The chosen build's tuning rows (origins 63..158) and test rows (159..198).
    wf_cfg = WalkForwardConfig(n_bands=4, lags=4, window=64)
    metas = [build_walkforward_features(TimeSeries(values), wf_cfg, a, b).meta
             for a, b in ((63, 159), (159, 199))]
    assert report.meta["fallback_count"] == sum(m["fallback_count"] for m in metas)
    assert report.meta["gamma_clipped_count"] == sum(m["gamma_clipped_count"] for m in metas) > 0
    assert report.meta["max_imag_residue"] == max(m["max_imag_residue"] for m in metas)
    assert 0.0 < report.meta["max_imag_residue"] < 1e-10


def test_report_meta_records_the_numeric_stack(tmp_path):
    values = np.cumsum(np.random.default_rng(27).normal(size=200))
    report = run_experiment(walk_config(tmp_path, write_series(tmp_path, values)))
    assert report.meta["numpy_version"] == np.__version__
    assert report.meta["scipy_version"] == scipy.__version__
    assert "numpy_blas" in report.meta


@pytest.mark.parametrize("family", ["rvfl", "edrvfl"])
def test_forecasts_match_the_scipy_cholesky_solve_within_tolerance(tmp_path, monkeypatch, family):
    # The ridge systems are factored by numpy, not scipy; forecasts and
    # validation scores may move by rounding only: 1e-9 relative, with the same
    # candidate chosen. 150 nodes put the systems above ~128 columns.
    values = np.sin(np.arange(600) * 0.3) + 0.1 * np.random.default_rng(28).normal(size=600)
    path = write_series(tmp_path, values)
    grid = GridSpace(n_enhancement=(150, 60), regularization=(1.0, 1e3), lags=(6,), n_bands=(2,))
    cfg = walk_config(tmp_path, path, family=family, grid=grid, max_layers=2)
    report = run_experiment(cfg)
    monkeypatch.setattr(rvfl, "_solve_spd", cho_factor_solve)
    reference = run_experiment(cfg)
    scores = ("validation_rmse", "layerwise_history")
    for key, ref in reference.chosen.items():
        if key in scores:
            assert report.chosen[key] == pytest.approx(ref, rel=1e-9)
        else:
            assert report.chosen[key] == ref
    for name, ref in reference.forecasts.items():
        got, ref = np.asarray(report.forecasts[name]), np.asarray(ref)
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()
    for got, ref in zip(report.leaderboard, reference.leaderboard):
        assert got["val_rmse"] == pytest.approx(ref["val_rmse"], rel=1e-9)


def test_every_public_name_resolves():
    import ewtforecast

    assert len(set(ewtforecast.__all__)) == len(ewtforecast.__all__)
    assert [name for name in ewtforecast.__all__ if not hasattr(ewtforecast, name)] == []


# ------------------------------------------------------------- config parsing

def test_config_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps({
        "data": {"path": "x.csv"},
        "split": {"train_fraction": 0.6, "validation_fraction": 0.2},
        "family": "rvfl", "pipeline": "raw_lags",
        "surprise": 1,
    }))
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_experiment_config(cfg_file)


def test_config_rejects_unknown_grid_keys(tmp_path):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps({
        "data": {"path": "x.csv"},
        "split": {"train_fraction": 0.6, "validation_fraction": 0.2},
        "family": "rvfl", "pipeline": "raw_lags",
        "grid": {"lags": [2], "momentum": [0.9]},
    }))
    with pytest.raises(ConfigError, match="unknown grid keys"):
        load_experiment_config(cfg_file)


def test_config_round_trip():
    cfg = ExperimentConfig(
        data_path="a.csv", split=SplitSpec(0.5, 0.25), family="rvfl",
        pipeline="walkforward_ewt", grid=GridSpace(lags=(2, 4)),
        metrics=("rmse", "mae"), output_dir="out", seed=3, horizon=2,
    )
    restored = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert restored == cfg


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="family"):
        ExperimentConfig(data_path="a.csv", split=SplitSpec(0.6, 0.2),
                         family="xgboost", pipeline="raw_lags")
    with pytest.raises(ConfigError, match="metrics"):
        ExperimentConfig(data_path="a.csv", split=SplitSpec(0.6, 0.2),
                         family="rvfl", pipeline="raw_lags", metrics=("r2",))


# ------------------------------------------------------------- persistence

def test_model_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(24)
    X = rng.normal(size=(30, 4))
    Y = rng.normal(size=(30, 1))
    model = rvfl.fit(X, Y, rvfl.RvflConfig(n_enhancement=7, seed=11))
    path = tmp_path / "model.json"
    save_model(model, path)
    restored = load_model(path)
    assert np.array_equal(rvfl.predict(restored, X), rvfl.predict(model, X))


def test_edrvfl_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(25)
    X = rng.normal(size=(30, 4))
    Y = rng.normal(size=(30, 1))
    model = fit_edrvfl(X, Y, EdRvflConfig(n_layers=2, n_enhancement=6, seed=2))
    path = tmp_path / "model.json"
    save_model(model, path)
    restored = load_model(path)
    assert np.array_equal(ensemble_predict(restored, X), ensemble_predict(model, X))


def test_truncated_model_file_fails_checksum(tmp_path):
    rng = np.random.default_rng(26)
    model = rvfl.fit(rng.normal(size=(10, 2)), rng.normal(size=(10, 1)),
                     rvfl.RvflConfig(n_enhancement=3))
    path = tmp_path / "model.json"
    save_model(model, path)
    content = path.read_text()
    path.write_text(content[: len(content) // 2])
    with pytest.raises(CorruptModelError, match="checksum"):
        load_model(path)


def test_tampered_payload_fails_checksum(tmp_path):
    rng = np.random.default_rng(27)
    model = rvfl.fit(rng.normal(size=(10, 2)), rng.normal(size=(10, 1)),
                     rvfl.RvflConfig(n_enhancement=3))
    path = tmp_path / "model.json"
    save_model(model, path)
    envelope = json.loads(path.read_text())
    envelope["payload"]["n_features"] = 99
    path.write_text(json.dumps(envelope))
    with pytest.raises(CorruptModelError, match="checksum"):
        load_model(path)


def test_unknown_schema_version_rejected(tmp_path):
    rng = np.random.default_rng(28)
    model = rvfl.fit(rng.normal(size=(10, 2)), rng.normal(size=(10, 1)),
                     rvfl.RvflConfig(n_enhancement=3))
    path = tmp_path / "model.json"
    save_model(model, path)
    envelope = json.loads(path.read_text())
    envelope["schema_version"] = "999"
    path.write_text(json.dumps(envelope))
    with pytest.raises(ModelVersionError, match="999"):
        load_model(path)
