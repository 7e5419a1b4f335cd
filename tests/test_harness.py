import csv
import json
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ewtforecast import edrvfl, ewt, harness, rvfl, walkforward
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
from ewtforecast.series import SCALER_KINDS, SplitSpec, TimeSeries, WindowedDataset
from ewtforecast.walkforward import (
    MIN_WINDOW_MARGIN,
    WalkForwardConfig,
    build_walkforward_features,
    freeze_boundaries,
)

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
    """The search's result, or the message of the error it raised: a search
    without a winner, or one asked to rank candidates on no validation rows."""
    try:
        return search(*args, **kwargs)
    except (RuntimeError, ValueError) as exc:
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


def assert_close(a, b, rtol=harness.SEARCH_RTOL):
    """``a`` within ``rtol`` of ``b``, relative to ``b``'s largest magnitude."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.abs(a - b).max(initial=0.0) <= rtol * np.abs(b).max(initial=0.0)


def assert_search_matches(got, search_alone, *args):
    """``got`` is what ``search_alone`` (an oracle that fits every candidate on
    its own) finds: equal candidates, error strings and choices, and scores and
    forecasts within ``SEARCH_RTOL``. At a tie within that tolerance the oracle
    follows ``got``'s choice."""
    ref = outcome_or_error(search_alone, *args, rtol=harness.SEARCH_RTOL,
                           follow=None if isinstance(got, str) else got)
    if isinstance(ref, str) or isinstance(got, str):
        assert got == ref
        return
    assert [o.params for o in got.leaderboard] == [o.params for o in ref.leaderboard]
    assert [o.error for o in got.leaderboard] == [o.error for o in ref.leaderboard]
    for a, b in zip(got.leaderboard, ref.leaderboard):
        if b.val_rmse is not None:
            assert_close(a.val_rmse, b.val_rmse)
    for name in ref.__dataclass_fields__:
        a, b = getattr(got, name), getattr(ref, name)
        if name in ("best_rmse", "history", "val_forecast"):
            assert_close(a, b)
        elif name != "leaderboard":
            assert a == b, name


def failing_large_ridges(factor):
    """``_bordered_cholesky`` that fails every system whose diagonal is all >= 1000
    (C = 1e-3 and below), so that some candidates' solves fail."""
    def patched(A, B):
        if np.diag(A).min() >= 1e3:
            raise RuntimeError("injected factorization failure")
        return factor(A, B)
    return patched


@settings(max_examples=60, deadline=None)
@given(problem=problems, space=grid_spaces, base_seed=st.integers(0, 3),
       max_layers=st.integers(1, 3), fail_solves=st.booleans())
def test_grouped_searches_equal_the_per_candidate_oracle(problem, space, base_seed, max_layers,
                                                         fail_solves):
    train, val = problem
    factor = rvfl._bordered_cholesky
    with mock.patch.object(rvfl, "_bordered_cholesky",
                           failing_large_ridges(factor) if fail_solves else factor):
        assert_search_matches(outcome_or_error(grid_search, space, train, val, base_seed),
                              oracles.grid_search_per_candidate, space, train, val, base_seed)
        assert_search_matches(
            outcome_or_error(layerwise_grid_search, space, train, val, max_layers, base_seed),
            oracles.layerwise_per_candidate, space, train, val, max_layers, base_seed)


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
    factor = rvfl._bordered_cholesky
    with mock.patch.object(rvfl, "_bordered_cholesky",
                           failing_large_ridges(factor) if fail_solves else factor):
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


def test_the_searches_rank_no_candidates_on_zero_validation_rows():
    train, empty = small_problem(3, 40, 0, 2)
    four = GridSpace(n_enhancement=(5, 10), regularization=(0.1, 1.0))
    one = GridSpace(n_enhancement=(10,), regularization=(10.0,))
    with pytest.raises(ValueError, match=r"validation rows \(candidates: 4\)"):
        grid_search(four, train, empty)
    with pytest.raises(ValueError, match=r"validation rows \(candidates: 4, max_layers: 1\)"):
        layerwise_grid_search(four, train, empty, 1)
    # Each depth is a candidate too, so one candidate over four layers is ranked.
    with pytest.raises(ValueError, match=r"validation rows \(candidates: 1, max_layers: 4\)"):
        layerwise_grid_search(one, train, empty, 4)
    # A single one-layer candidate has nothing to rank: it scores 0.0.
    assert grid_search(one, train, empty).best_rmse == 0.0
    result = layerwise_grid_search(one, train, empty, 1)
    assert result.layer_nodes == (10,) and result.history == (0.0,)


# On this problem the search keeps four layers.
deep_problem = (34, 60, 30, 3)
deep_space = GridSpace(n_enhancement=(4, 9, 2), regularization=(1.0, 0.1, 10.0),
                       activation=("sigmoid", "relu"), output_bias=(False, True))


def test_deep_layerwise_search_equals_the_per_candidate_oracle():
    train, val = small_problem(*deep_problem)
    lw = layerwise_grid_search(deep_space, train, val, 4)
    assert len(lw.layer_nodes) >= 3
    assert_search_matches(lw, oracles.layerwise_per_candidate, deep_space, train, val, 4)


def test_a_failed_solve_fails_only_its_candidate():
    train, val = small_problem(35, 40, 20, 2)
    space = GridSpace(n_enhancement=(3, 6), regularization=(1e-3, 1.0))
    with mock.patch.object(rvfl, "_bordered_cholesky",
                           failing_large_ridges(rvfl._bordered_cholesky)):
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
    """Make ``rvfl.nested_ridge_path`` return all-NaN weights for the design
    prefix ``H[:, :w]`` and C where ``poisoned(H[:, :w], C)`` holds."""
    original = rvfl.nested_ridge_path

    def nested_ridge_path(H, Y, widths, regularizations, mode="auto"):
        path = original(H, Y, widths, regularizations, mode)
        return [[np.full_like(b, np.nan) if poisoned(np.asarray(H)[:, :w], c) else b
                 for b, c in zip(betas, regularizations)] for w, betas in zip(widths, path)]

    monkeypatch.setattr(rvfl, "nested_ridge_path", nested_ridge_path)


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
    # Two activations, two seeds and both bias settings make eight groups of
    # shared settings; the layer-wise search ignores the direct-link axis.
    space = GridSpace(n_enhancement=(5, 15), regularization=(1.0, 100.0),
                      activation=("sigmoid", "relu"), seeds=(0, 1), output_bias=(False, True),
                      direct_link=(False, True))
    lw = layerwise_grid_search(space, train, val, max_layers=1)
    assert len(lw.layer_nodes) == 1
    # The one-layer ensemble is the shallow network, so the winner must agree
    # with a shallow search over the same axes (direct links forced on).
    gs = grid_search(replace(space, direct_link=(True,)), train, val)
    assert lw.shared == gs.best
    assert lw.layer_nodes[0] == gs.best.n_enhancement
    assert lw.layer_regs[0] == gs.best.regularization
    assert lw.best_rmse == gs.best_rmse
    assert lw.val_forecast.tobytes() == gs.val_forecast.tobytes()
    assert [o.val_rmse for o in lw.leaderboard] == [o.val_rmse for o in gs.leaderboard]


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
    # Configs written while the search had a thread pool carry "jobs": 1; the
    # key is dropped, in a report's config too.
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


def test_report_with_a_scipy_version_reruns_to_the_same_forecasts(tmp_path):
    # Reports carried scipy's version in meta while the package ran on scipy;
    # a rerun reads only the config.
    values = np.cumsum(np.random.default_rng(18).normal(size=300))
    cfg = walk_config(tmp_path, write_series(tmp_path, values))
    paths = write_report(run_experiment(cfg), tmp_path / "first")
    old = json.loads(paths["report"].read_text())
    old["meta"]["scipy_version"] = "1.17.1"
    old_report = tmp_path / "old_report.json"
    old_report.write_text(json.dumps(old))
    rerun = load_experiment_config(old_report)
    assert rerun == cfg
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


def test_forecasts_csv_has_the_bytes_of_the_csv_writer(tmp_path):
    # forecasts.csv is joined from reprs; it must equal csv.writer's text,
    # including floats whose repr takes an exponent, a sign or 17 digits.
    values = np.cumsum(np.random.default_rng(37).normal(size=200))
    report = run_experiment(walk_config(tmp_path, write_series(tmp_path, values)))
    odd = [1e-7, 1e22, -0.0, 0.1 + 0.2, 5e-324, 2.5e-310, -123.0, 1.0]
    origins = [0, 7, 99, 10**12, 3, 4, 5, 6]
    forecasts = {"rvfl": odd[::-1], "persistence": odd, "linear": [-v for v in odd]}
    report = harness.ExperimentReport(**{**report.__dict__, "origins": origins, "actuals": odd,
                                         "forecasts": forecasts})
    paths = write_report(report, tmp_path / "odd")
    rows = [["model", "origin", "actual", "forecast"]]
    rows += [[model, origin, actual, pred] for model in sorted(forecasts)
             for origin, actual, pred in zip(origins, odd, forecasts[model])]
    assert paths["forecasts"].read_bytes() == harness._csv_text(rows).encode("utf-8")


def test_a_prefix_layer_takes_its_inputs_as_views_of_its_group_designs(monkeypatch):
    # Layer two's input [X | first nodes] is a column range of the stage-one
    # winner's designs [1 | X | A], so the layer-wise search copies no prefix.
    train, val = small_problem(38, 40, 20, 3)
    calls = []
    original = harness._fit_group

    def fit_group(keys, make_config, train, val, enh=None, enh_val=None):
        forecasts, designs = original(keys, make_config, train, val, enh, enh_val)
        calls.append((enh, enh_val, designs))
        return forecasts, designs

    monkeypatch.setattr(harness, "_fit_group", fit_group)
    space = GridSpace(n_enhancement=(5, 9), output_bias=(True,), seeds=(4,))
    result = layerwise_grid_search(space, train, val, max_layers=2)
    assert len(calls) == 2  # one group per stage
    (_, _, designs), (enh, enh_val, _) = calls
    n, lead = result.layer_nodes[0], designs.lead
    for inputs, rows, H in ((enh, train, designs.H), (enh_val, val, designs.H_val)):
        assert np.shares_memory(inputs, H)
        assert np.all(H[:, 0] == 1.0)
        assert inputs.tobytes() == np.hstack([rows.X, H[:, lead:lead + n]]).tobytes()


@pytest.mark.parametrize("pipeline", ["raw_lags", "walkforward_ewt"])
def test_train_and_validation_rows_are_read_only_views_of_the_tuning_rows(pipeline):
    ts = TimeSeries(np.cumsum(np.random.default_rng(39).normal(size=200)))
    i_train, i_val = harness.split_boundaries(len(ts), SplitSpec(0.6, 0.2))
    params = {"lags": 4, "n_bands": 2, "gamma": 0.1, "boundary_mode": "adaptive_per_step"}
    build = harness._PipelineBuild(ts, pipeline, params, 2, 64, i_train, i_val)
    targets = build.tune.origin_indices + build.horizon
    for rows, mask in ((build.train_rows(), targets < i_train),
                       (build.val_rows(), targets >= i_train)):
        assert mask.any()
        for name in ("X", "Y", "origin_indices"):
            view, whole = getattr(rows, name), getattr(build.tune, name)
            assert np.shares_memory(view, whole)
            assert not view.flags.writeable
            assert view.tobytes() == whole[mask].tobytes()


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
    assert loaded["schema_version"] == harness.REPORT_SCHEMA_VERSION
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
    # winner is refitted on the training rows to forecast the validation rows,
    # up to the rounding of the nested solves (SEARCH_RTOL).
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
    assert_json_close(report["chosen"], json.loads(json.dumps({**chosen, "name": family})))
    assert_json_close(report["validation_metrics"], json.loads(json.dumps(metrics)))


def assert_json_close(got, ref):
    """Equal JSON values, except that floats need only lie within ``SEARCH_RTOL``."""
    if isinstance(ref, float):
        assert isinstance(got, float)
        assert_close(got, ref)
    elif isinstance(ref, (dict, list)):
        assert type(got) is type(ref) and len(got) == len(ref)
        if isinstance(ref, dict):
            assert got.keys() == ref.keys()
        for key in (ref if isinstance(ref, dict) else range(len(ref))):
            assert_json_close(got[key], ref[key])
    else:
        assert got == ref


def test_test_rows_extracted_once_after_tuning(tmp_path, monkeypatch):
    rng = np.random.default_rng(21)
    values = np.cumsum(rng.normal(size=300))
    path = write_series(tmp_path, values)
    events = []

    original_test_rows = harness._PipelineBuild.test_rows
    original_search = harness.grid_search

    def counting_test_rows(build):
        events.append("test_rows")
        return original_test_rows(build)

    def recording_search(*args, **kwargs):
        events.append("grid_search")
        return original_search(*args, **kwargs)

    monkeypatch.setattr(harness._PipelineBuild, "test_rows", counting_test_rows)
    monkeypatch.setattr(harness, "grid_search", recording_search)
    cfg = walk_config(tmp_path, path, pipeline="walkforward_ewt",
                      grid=GridSpace(n_enhancement=(5, 10), regularization=(1.0,),
                                     lags=(4,), n_bands=(2,)))
    run_experiment(cfg)
    # One extraction for the chosen model, one for the linear baseline, both
    # strictly after every tuning call.
    test_row_positions = [i for i, e in enumerate(events) if e == "test_rows"]
    search_positions = [i for i, e in enumerate(events) if e == "grid_search"]
    assert len(test_row_positions) == 2
    assert min(test_row_positions) > max(search_positions)


def runs_around_a_cut(tmp_path, seed: int, cut: int, **overrides):
    """One config run on a 400-sample series and on a copy whose values from
    ``cut`` on are noise. Per run: the forecasts' bytes at origins before the
    cut, the leaderboard, the choice and the validation metrics."""
    rng = np.random.default_rng(seed)
    t = np.arange(400)
    values = (np.sin(2 * np.pi * t / 11 + rng.uniform(0, 2 * np.pi))
              + 0.8 * np.sin(2 * np.pi * t / 47) + 0.3 * rng.normal(size=t.size))
    noisy = np.concatenate([values[:cut], rng.normal(size=t.size - cut)])
    runs = []
    for name, series in (("a.csv", values), ("b.csv", noisy)):
        report = run_experiment(walk_config(tmp_path, write_series(tmp_path, series, name),
                                            **overrides))
        before = np.asarray(report.origins) < cut
        runs.append(({m: np.asarray(f)[before].tobytes() for m, f in report.forecasts.items()},
                     report.leaderboard, report.chosen, report.validation_metrics))
    return runs


causality_grid = dict(n_enhancement=(5, 10), regularization=(1.0, 10.0), lags=(4,),
                      n_bands=(2, 3))


@pytest.mark.parametrize("family", ["rvfl", "edrvfl"])
@pytest.mark.parametrize("pipeline, mode", [("raw_lags", "adaptive_per_step"),
                                            ("walkforward_ewt", "adaptive_per_step"),
                                            ("walkforward_ewt", "frozen_from_train")])
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**16), cut=st.integers(320, 399),
       window=st.sampled_from(["auto", "all"]) | st.integers(24, 96),
       scaler=st.sampled_from(SCALER_KINDS), horizon=st.integers(1, 3))
def test_nothing_before_a_cut_in_the_test_span_sees_a_value_after_it(
        tmp_path, family, pipeline, mode, seed, cut, window, scaler, horizon):
    # The split is 0.6/0.2, so the test span holds the targets 320..399.
    before, after = runs_around_a_cut(
        tmp_path, seed, cut, family=family, pipeline=pipeline, window=window, scaler=scaler,
        horizon=horizon, max_layers=2, grid=GridSpace(**causality_grid, boundary_mode=(mode,)))
    assert before == after


def test_the_leaky_pipeline_fails_the_cut_property(tmp_path):
    before, after = runs_around_a_cut(tmp_path, 0, 330, pipeline="leaky_ewt",
                                      grid=GridSpace(**causality_grid))
    assert before[1] != after[1]  # the leaderboard already sees the noise


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lags=st.integers(1, 8), n_bands=st.integers(1, 4),
       window=st.sampled_from(["auto", "all"]) | st.integers(16, 90),
       n=st.integers(140, 260), horizon=st.integers(1, 3))
def test_frozen_tuning_and_test_rows_are_one_build(seed, lags, n_bands, window, n, horizon):
    # Edges are frozen once per candidate; tuning rows then test rows are, bit
    # for bit, one build over the whole range with those edges.
    ts = TimeSeries(np.cumsum(np.random.default_rng(seed).normal(size=n)))
    i_train, i_val = harness.split_boundaries(n, SplitSpec(0.6, 0.2))
    params = {"lags": lags, "n_bands": n_bands, "gamma": 0.1,
              "boundary_mode": "frozen_from_train"}
    if isinstance(window, int) and window - 1 + horizon >= i_train:
        return  # the first origin's target is past the training span: no training rows
    build = harness._PipelineBuild(ts, "walkforward_ewt", params, horizon, window,
                                   i_train, i_val)
    frozen = freeze_boundaries(ts, build.wf_cfg, build.start)
    assert build.frozen.omegas.tobytes() == frozen.omegas.tobytes()
    assert build.frozen.uniform_fallback == frozen.uniform_fallback
    whole = build_walkforward_features(ts, build.wf_cfg, build.start, build.test_stop,
                                       build.frozen)
    test = build.test_rows()
    for name in ("X", "Y", "origin_indices"):
        rows = np.concatenate([getattr(build.tune, name), getattr(test, name)])
        assert rows.tobytes() == getattr(whole, name).tobytes()
    for ds in (build.tune, test):
        assert ds.meta["fallback_count"] == whole.meta["fallback_count"] == frozen.uniform_fallback
        assert ds.meta["max_imag_residue"] == 0.0


@pytest.mark.parametrize("horizon", [1, 3])
@pytest.mark.parametrize("lags", [1, 4, 8, 20, 40])
@pytest.mark.parametrize("i_train", [3, 12, 20, 40, 130, 200])
def test_auto_window_is_the_walkforward_width_at_the_last_training_origin(i_train, lags,
                                                                          horizon):
    ts = TimeSeries(np.sin(0.3 * np.arange(i_train + 30)))
    params = {"lags": lags, "n_bands": 2, "gamma": 0.1, "boundary_mode": "adaptive_per_step"}
    width = min(max(4 * lags, 128), i_train - horizon)
    if width < lags + MIN_WINDOW_MARGIN:
        with pytest.raises(ValueError, match=rf"lags \+ {MIN_WINDOW_MARGIN}"):
            harness._PipelineBuild(ts, "walkforward_ewt", params, horizon, "auto",
                                   i_train, i_train + 10)
        return
    build = harness._PipelineBuild(ts, "walkforward_ewt", params, horizon, "auto",
                                   i_train, i_train + 10)
    assert build.wf_cfg.window == width


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


def test_depth_is_tuned_only_with_a_validation_segment(tmp_path):
    # The layer-wise search tunes the depth even for a one-candidate grid: with
    # no validation rows every stage would score 0.0 and every layer be kept.
    values = np.cumsum(np.random.default_rng(23).normal(size=200))
    cfg = walk_config(tmp_path, write_series(tmp_path, values), family="edrvfl",
                      split=SplitSpec(0.8, 0.0), max_layers=4)
    with pytest.raises(ConfigError, match="requires a validation segment"):
        run_experiment(cfg)
    report = run_experiment(replace(cfg, max_layers=1))
    assert report.chosen["layer_nodes"] == [10]
    assert report.validation_metrics is None


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


grid_size_searches = st.sampled_from([("rvfl", 1), ("edrvfl", 1), ("edrvfl", 2),
                                      ("baseline_linear", 1)])
# Small grids whose every feature build succeeds on a 160-point series.
buildable_grids = st.builds(
    GridSpace,
    n_enhancement=axis(st.sampled_from([3, 6]), 2),
    regularization=axis(st.sampled_from([0.1, 1.0, 10.0]), 3),
    direct_link=axis(st.booleans(), 2),
    output_bias=axis(st.booleans(), 2),
    seeds=axis(st.integers(0, 1), 2),
    lags=axis(st.sampled_from([2, 3, 4]), 2),
    n_bands=axis(st.sampled_from([1, 2, 3]), 2),
    gamma=axis(st.sampled_from([0.1, 0.2]), 2),
    boundary_mode=axis(st.sampled_from(["adaptive_per_step", "frozen_from_train"]), 2),
)


@settings(max_examples=30, deadline=None)
@given(search=grid_size_searches, pipeline=st.sampled_from(["raw_lags", "walkforward_ewt"]),
       grid=buildable_grids)
def test_grid_size_is_the_number_of_candidates_searched(tmp_path_factory, search, pipeline,
                                                        grid):
    tmp_path = tmp_path_factory.mktemp("grid_size")
    values = np.cumsum(np.random.default_rng(30).normal(size=160))
    family, max_layers = search
    report = run_experiment(walk_config(tmp_path, write_series(tmp_path, values), family=family,
                                        pipeline=pipeline, grid=grid, window=32,
                                        max_layers=max_layers))
    # Every build succeeds, so the search leaves one stage-one entry per
    # (pipeline, model) candidate; deeper layer-wise stages add their own.
    assert not any(e["error"] and e["error"].startswith("feature build failed")
                   for e in report.leaderboard)
    stage_one = [e for e in report.leaderboard if len(e["params"].get("layer_nodes", ())) < 2]
    assert report.meta["grid_size"] == len(stage_one)


def test_a_persistence_run_without_validation_leaves_out_a_baseline_it_cannot_tune(tmp_path):
    values = np.cumsum(np.random.default_rng(31).normal(size=300))
    cfg = walk_config(tmp_path, write_series(tmp_path, values), family="baseline_persistence",
                      split=SplitSpec(0.7, 0.0),
                      grid=GridSpace(lags=(4,), regularization=(0.01, 1.0, 100.0)))
    report = run_experiment(cfg)
    assert sorted(report.forecasts) == sorted(report.test_metrics) == ["persistence"]
    assert report.meta["linear_baseline_error"] == (
        "tuning over more than one candidate requires a validation segment")
    assert report.leaderboard == [] and report.meta["grid_size"] == 0
    # With a single C there is nothing to rank: the baseline is fitted as before.
    cfg = replace(cfg, grid=GridSpace(lags=(4,), regularization=(100.0,)))
    report = run_experiment(cfg)
    assert "linear_baseline_error" not in report.meta
    i_train, i_val = harness.split_boundaries(300, cfg.split)
    pred, _ = oracles.linear_baseline_per_candidate(cfg, TimeSeries(values), i_train, i_val, 4,
                                                    [])
    assert np.array(report.forecasts["linear"]).tobytes() == pred.tobytes()


@pytest.mark.parametrize("family", ["rvfl", "baseline_persistence", "baseline_linear"])
def test_a_report_records_the_settings_of_its_linear_baseline(tmp_path, family):
    # Every report with linear forecasts says which lags and C they came from
    # and the validation RMSE that chose them, also where the run chose rvfl.
    values = np.cumsum(np.random.default_rng(32).normal(size=300))
    cfg = walk_config(tmp_path, write_series(tmp_path, values), family=family,
                      grid=GridSpace(n_enhancement=(10,), regularization=(0.1, 10.0, 1e3),
                                     lags=(3, 5)))
    report = run_experiment(cfg)
    lags = (report.chosen["pipeline_params"]["lags"] if family == "rvfl"
            else 3 if family == "baseline_persistence" else None)
    i_train, i_val = harness.split_boundaries(300, cfg.split)
    pred, info = oracles.linear_baseline_per_candidate(cfg, TimeSeries(values), i_train, i_val,
                                                       lags, [])
    assert report.meta["linear_baseline"] == {**info["model_params"],
                                              "validation_rmse": info["validation_rmse"]}
    assert np.array(report.forecasts["linear"]).tobytes() == pred.tobytes()
    if family == "baseline_linear":
        assert report.chosen["model_params"] == info["model_params"]


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


@pytest.mark.parametrize("family", ["rvfl", "edrvfl", "baseline_persistence",
                                    "baseline_linear"])
def test_an_unfittable_linear_baseline_is_left_out_unless_chosen(tmp_path, monkeypatch, family):
    values = np.cumsum(np.random.default_rng(34).normal(size=200))
    cfg = walk_config(tmp_path, write_series(tmp_path, values), family=family,
                      grid=GridSpace(n_enhancement=(5,), regularization=(1.0, 10.0), lags=(4,)))
    assert "linear_baseline_error" not in run_experiment(cfg).meta
    # Only the baseline's zero-node designs are 4 columns wide; every one forecasts NaN.
    with_nan_weights(monkeypatch, lambda H, c: H.shape[1] == 4)
    reason = "every pipeline candidate failed; the first: non-finite validation forecast"
    if family == "baseline_linear":
        with pytest.raises(RuntimeError, match=reason):
            run_experiment(cfg)
        return
    report = run_experiment(cfg)
    assert "linear" not in report.forecasts and "linear" not in report.test_metrics
    assert report.meta["linear_baseline_error"].startswith(reason)
    assert "linear_baseline" not in report.meta


def test_a_scaling_failure_fails_only_its_pipeline_candidate(tmp_path, monkeypatch):
    values = np.cumsum(np.random.default_rng(35).normal(size=200))
    original = harness.fit_scaler

    def fit_scaler(X, kind):
        if X.shape[1] == 4:
            raise ValueError("injected scaling failure")
        return original(X, kind)

    monkeypatch.setattr(harness, "fit_scaler", fit_scaler)
    grid = GridSpace(n_enhancement=(5,), regularization=(1.0, 10.0), lags=(4, 8))
    report = run_experiment(walk_config(tmp_path, write_series(tmp_path, values),
                                        scaler="zscore", grid=grid))
    assert report.leaderboard[0] == {"pipeline": {"lags": 4}, "params": None, "val_rmse": None,
                                     "error": "scaling failed: injected scaling failure"}
    assert [e["pipeline"] for e in report.leaderboard[1:]] == [{"lags": 8}] * 2
    assert report.chosen["pipeline_params"] == {"lags": 8}


@pytest.mark.parametrize("family", ["rvfl", "edrvfl"])
def test_a_search_without_a_winner_lists_every_candidate_and_the_next_one_wins(
        tmp_path, monkeypatch, family):
    values = np.cumsum(np.random.default_rng(36).normal(size=200))
    original = harness._fit_group

    def fit_group(keys, make_config, train, val, *inputs):
        if train.n_features == 4:
            return dict.fromkeys(keys, ValueError("injected fit failure")), None
        return original(keys, make_config, train, val, *inputs)

    monkeypatch.setattr(harness, "_fit_group", fit_group)
    grid = GridSpace(n_enhancement=(5, 10), regularization=(1.0, 10.0), lags=(4, 8))
    report = run_experiment(walk_config(tmp_path, write_series(tmp_path, values), family=family,
                                        grid=grid, max_layers=2))
    candidates = grid.model_candidates(family)
    failed = report.leaderboard[:len(candidates)]
    assert [(e["params"]["n_enhancement"], e["params"]["regularization"]) for e in failed] == \
        [(p.n_enhancement, p.regularization) for p in candidates]
    assert all(e["pipeline"] == {"lags": 4} and e["val_rmse"] is None
               and e["error"] == "injected fit failure" for e in failed)
    assert report.chosen["pipeline_params"] == {"lags": 8}
    assert "linear" in report.forecasts


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
    # Adaptive edges: band tails come from real arithmetic, so nothing is discarded.
    assert report.meta["max_imag_residue"] == max(m["max_imag_residue"] for m in metas) == 0.0


def test_report_meta_records_the_numeric_stack(tmp_path):
    values = np.cumsum(np.random.default_rng(27).normal(size=200))
    report = run_experiment(walk_config(tmp_path, write_series(tmp_path, values)))
    assert report.meta["numpy_version"] == np.__version__
    assert "numpy_blas" in report.meta
    threads = report.meta["numpy_blas_threads"]
    assert threads is None or (isinstance(threads, int) and threads >= 1)
    assert "scipy_version" not in report.meta  # the package runs on numpy alone
    # Which exp kernel numpy dispatches to sets the sigmoid's last bits. A
    # numpy whose show_config takes no mode= does not say, and records None.
    try:
        simd = np.show_config(mode="dicts").get("SIMD Extensions")
    except TypeError:
        simd = None
    assert report.meta["numpy_simd"] == simd


@pytest.mark.parametrize("family", ["rvfl", "edrvfl"])
def test_forecasts_match_the_scipy_cholesky_solve_within_tolerance(tmp_path, monkeypatch, family):
    # The ridge systems are factored and solved by numpy (a bordered Cholesky
    # and a blocked back substitution), not by scipy's cho_factor; forecasts
    # and validation scores may move by rounding only: 1e-9 relative, with the
    # same candidate chosen. 150 nodes make the systems span several blocks.
    values = np.sin(np.arange(600) * 0.3) + 0.1 * np.random.default_rng(28).normal(size=600)
    path = write_series(tmp_path, values)
    grid = GridSpace(n_enhancement=(150, 60), regularization=(1.0, 1e3), lags=(6,), n_bands=(2,))
    cfg = walk_config(tmp_path, path, family=family, grid=grid, max_layers=2)
    report = run_experiment(cfg)
    monkeypatch.setattr(rvfl, "_solve_spd", cho_factor_solve)
    assert_reports_close(report, run_experiment(cfg))


@pytest.mark.parametrize("family, mode", [("rvfl", "adaptive_per_step"),
                                          ("edrvfl", "frozen_from_train")])
def test_forecasts_match_the_full_fft_feature_build_within_tolerance(tmp_path, monkeypatch,
                                                                    family, mode):
    # Band tails differ from a full inverse FFT of every band by rounding only
    # (see test_walkforward); forecasts and validation scores may then move by
    # 1e-9 relative, with the same candidate chosen.
    values = np.sin(np.arange(500) * 0.3) + 0.1 * np.random.default_rng(29).normal(size=500)
    path = write_series(tmp_path, values)
    grid = GridSpace(n_enhancement=(40, 20), regularization=(1.0, 1e3), lags=(6,),
                     n_bands=(2, 3), boundary_mode=(mode,))
    cfg = walk_config(tmp_path, path, family=family, pipeline="walkforward_ewt", grid=grid,
                      max_layers=2)
    report = run_experiment(cfg)
    monkeypatch.setattr(harness, "build_walkforward_features",
                        oracles.build_walkforward_features_fft)
    # One build per candidate, so that the tuning rows go through the oracle too.
    monkeypatch.setattr(harness, "_candidate_builds", oracles.candidate_builds_one_by_one)
    assert_reports_close(report, run_experiment(cfg))


@pytest.mark.parametrize("family", ["rvfl", "edrvfl"])
@pytest.mark.parametrize("failing_bands", [None, 2])
def test_report_files_equal_those_of_one_feature_build_per_candidate(tmp_path, monkeypatch,
                                                                     family, failing_bands):
    # Candidates that differ only in n_bands and gamma share one walk-forward
    # pass over the origins, in either boundary mode. Every output file must
    # read as when each candidate builds its own rows, and a build error of one
    # band count must fail only that count's candidates, each in its usual
    # leaderboard slot.
    values = np.sin(np.arange(360) * 0.23) + 0.2 * np.random.default_rng(41).normal(size=360)
    path = write_series(tmp_path, values)
    grid = GridSpace(n_enhancement=(10,), regularization=(1.0, 10.0), lags=(4, 6),
                     n_bands=(1, 2, 3), gamma=(0.1, 0.3),
                     boundary_mode=("adaptive_per_step", "frozen_from_train"))
    cfg = walk_config(tmp_path, path, family=family, pipeline="walkforward_ewt", grid=grid,
                      max_layers=2)
    if failing_bands is not None:
        check_edges = ewt.check_edges

        def failing_check(omegas):
            if omegas.shape[-1] == failing_bands - 1:
                raise ValueError(f"no edges for {failing_bands} bands")
            check_edges(omegas)

        # Adaptive builds check their edges in walkforward, frozen edges on construction.
        monkeypatch.setattr(walkforward, "check_edges", failing_check)
        monkeypatch.setattr(ewt, "check_edges", failing_check)

    def output_files(name):
        paths = write_report(run_experiment(cfg), tmp_path / name)
        report = json.loads(paths["report"].read_text())
        del report["meta"]["wall_time_s"]
        return (json.dumps(report, indent=2, sort_keys=True), paths["metrics"].read_bytes(),
                paths["forecasts"].read_bytes())

    grouped = output_files("grouped")
    monkeypatch.setattr(harness, "_candidate_builds", oracles.candidate_builds_one_by_one)
    assert grouped == output_files("one_by_one")
    failed = [entry["pipeline"]["n_bands"] for entry in json.loads(grouped[0])["leaderboard"]
              if entry["error"] is not None]
    assert failed == ([] if failing_bands is None else [failing_bands] * 8)


def test_walkforward_candidates_form_one_family_per_lags_and_boundary_mode(tmp_path,
                                                                           monkeypatch):
    values = np.sin(np.arange(360) * 0.23) + 0.2 * np.random.default_rng(43).normal(size=360)
    grid = GridSpace(n_enhancement=(10,), regularization=(1.0,), lags=(4, 6), n_bands=(2, 3),
                     gamma=(0.1, 0.3), boundary_mode=("adaptive_per_step", "frozen_from_train"))
    cfg = walk_config(tmp_path, write_series(tmp_path, values), pipeline="walkforward_ewt",
                      grid=grid)
    families = []

    def build_family(ts, cfgs, *args):
        families.append([(c.lags, c.boundary_mode, c.n_bands, c.gamma) for c in cfgs])
        return walkforward._build_family(ts, cfgs, *args)

    monkeypatch.setattr(harness, "_build_family", build_family)
    run_experiment(cfg)
    bands_and_gammas = [(k, g) for k in (2, 3) for g in (0.1, 0.3)]
    assert families == [[(lags, mode, k, g) for k, g in bands_and_gammas]
                        for lags in (4, 6) for mode in ("adaptive_per_step", "frozen_from_train")]


def test_a_mixed_mode_search_keeps_one_family_of_builds_alive(tmp_path, monkeypatch):
    # Candidates come family by family, and a build that was searched and
    # beaten is freed: whenever a model search starts, at most one family's
    # builds (four here) and the best build so far are alive.
    values = np.sin(np.arange(360) * 0.23) + 0.2 * np.random.default_rng(43).normal(size=360)
    grid = GridSpace(n_enhancement=(10,), regularization=(1.0,), lags=(4, 6), n_bands=(2, 3),
                     gamma=(0.1, 0.3), boundary_mode=("adaptive_per_step", "frozen_from_train"))
    cfg = walk_config(tmp_path, write_series(tmp_path, values), pipeline="walkforward_ewt",
                      grid=grid)
    live, counts = weakref.WeakSet(), []
    setup = harness._PipelineBuild._setup

    def tracked_setup(self, *args):
        live.add(self)
        setup(self, *args)

    def counting_grid_search(*args, **kwargs):
        counts.append(len(live))
        return grid_search(*args, **kwargs)

    monkeypatch.setattr(harness._PipelineBuild, "_setup", tracked_setup)
    monkeypatch.setattr(harness, "grid_search", counting_grid_search)
    run_experiment(cfg)
    assert len(counts) > 16  # the 16 candidates, then the linear baseline's search
    assert max(counts) <= 4 + 1


def _expit_in_place(x):
    return scipy.special.expit(x, out=x)


def _expit_tanh_in_place(x):
    scipy.special.expit(x, out=x)
    x *= 2.0
    x -= 1.0
    return x


@pytest.mark.parametrize("family", ["rvfl", "edrvfl"])
def test_forecasts_match_an_expit_sigmoid_within_tolerance(tmp_path, monkeypatch, family):
    # sigmoid and tanh take numpy's exp, which may round differently from
    # scipy's expit by a few ulp (see test_rvfl); forecasts and validation
    # scores may then move by 1e-9 relative, with the same candidate chosen.
    values = np.sin(np.arange(500) * 0.3) + 0.1 * np.random.default_rng(30).normal(size=500)
    path = write_series(tmp_path, values)
    grid = GridSpace(n_enhancement=(40, 20), regularization=(1.0, 1e3), lags=(6,),
                     n_bands=(3,), activation=("sigmoid", "tanh"), input_scale=(1.0, 4.0))
    cfg = walk_config(tmp_path, path, family=family, pipeline="walkforward_ewt", grid=grid,
                      max_layers=2)
    report = run_experiment(cfg)
    monkeypatch.setitem(rvfl.ACTIVATIONS, "sigmoid", _expit_in_place)
    monkeypatch.setitem(rvfl.ACTIVATIONS, "tanh", _expit_tanh_in_place)
    assert_reports_close(report, run_experiment(cfg))


def assert_reports_close(report, reference):
    """Same choices, and scores and forecasts within 1e-9 relative."""
    scores = ("validation_rmse", "layerwise_history")
    for key, ref in reference.chosen.items():
        if key in scores:
            assert report.chosen[key] == pytest.approx(ref, rel=1e-9)
        else:
            assert report.chosen[key] == ref
    for name, ref in reference.forecasts.items():
        got, ref = np.asarray(report.forecasts[name]), np.asarray(ref)
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()
    assert len(report.leaderboard) == len(reference.leaderboard)
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


def _edrvfl_payload_without_layers():
    rng = np.random.default_rng(29)
    model = fit_edrvfl(rng.normal(size=(10, 2)), rng.normal(size=(10, 1)),
                       EdRvflConfig(n_layers=1, n_enhancement=3))
    payload = {"kind": "edrvfl", **model.to_dict()}
    payload["config"]["n_layers"] = 0
    return payload


@pytest.mark.parametrize("payload", [
    ["rvfl"],
    {"kind": "rvfl"},
    _edrvfl_payload_without_layers(),
], ids=["list", "no-config", "zero-layers"])
def test_malformed_payload_with_a_valid_checksum_is_corrupt(tmp_path, payload):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"schema_version": harness.MODEL_SCHEMA_VERSION,
                                "checksum": harness._payload_checksum(payload),
                                "payload": payload}))
    with pytest.raises(CorruptModelError, match="model.json"):
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
