import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ewtforecast import cli, harness


@pytest.fixture()
def series_csv(tmp_path):
    rng = np.random.default_rng(30)
    values = np.sin(np.arange(300) * 0.1) + 0.1 * rng.normal(size=300)
    path = tmp_path / "series.csv"
    np.savetxt(path, values, delimiter=",")
    return path, values


def experiment_config(tmp_path, series_path, out_name="run", **extra):
    cfg = {
        "data": {"path": str(series_path)},
        "split": {"train_fraction": 0.6, "validation_fraction": 0.2},
        "family": "rvfl",
        "pipeline": "raw_lags",
        "grid": {"n_enhancement": [10], "regularization": [1.0, 100.0], "lags": [4]},
        "output_dir": str(tmp_path / out_name),
        **extra,
    }
    path = tmp_path / f"{out_name}.json"
    path.write_text(json.dumps(cfg))
    return path


def test_decompose_writes_bands_plus_original(series_csv, tmp_path, capsys):
    path, values = series_csv
    out = tmp_path / "bands.csv"
    rc = cli.main(["decompose", "--input", str(path), "--bands", "3", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["band_1", "band_2", "band_3", "original"]
    assert len(rows) == 301
    data = np.array([[float(c) for c in row] for row in rows[1:]])
    assert np.abs(data[:, :3].sum(axis=1) - data[:, 3]).max() <= 1e-8
    assert np.abs(data[:, 3] - values).max() <= 1e-12


def test_run_executes_and_writes_reports(series_csv, tmp_path, capsys):
    path, _ = series_csv
    cfg_path = experiment_config(tmp_path, path)
    rc = cli.main(["run", "--config", str(cfg_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "test rmse" in out
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["config"]["seed"] == 0
    assert (tmp_path / "run" / "forecasts.csv").exists()
    assert (tmp_path / "run" / "metrics.csv").exists()


def test_run_seed_override_lands_in_report(series_csv, tmp_path):
    path, _ = series_csv
    cfg_path = experiment_config(tmp_path, path, out_name="seeded")
    rc = cli.main(["run", "--config", str(cfg_path), "--seed", "5"])
    assert rc == 0
    report = json.loads((tmp_path / "seeded" / "report.json").read_text())
    assert report["config"]["seed"] == 5


def test_run_no_longer_takes_a_jobs_option(series_csv, tmp_path, capsys):
    path, _ = series_csv
    rc = cli.main(["run", "--config", str(experiment_config(tmp_path, path)), "--jobs", "2"])
    assert rc == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_run_with_unknown_config_key_exits_2(series_csv, tmp_path, capsys):
    path, _ = series_csv
    raw = json.loads(experiment_config(tmp_path, path).read_text())
    raw["bogus"] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    rc = cli.main(["run", "--config", str(bad)])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_rerunning_a_report_of_this_schema_reproduces_its_forecasts(series_csv, tmp_path):
    path, _ = series_csv
    assert cli.main(["run", "--config", str(experiment_config(tmp_path, path))]) == 0
    report = tmp_path / "run" / "report.json"
    assert json.loads(report.read_text())["schema_version"] == harness.REPORT_SCHEMA_VERSION
    assert cli.main(["run", "--config", str(report), "--out", str(tmp_path / "rerun")]) == 0
    assert (tmp_path / "rerun" / "forecasts.csv").read_bytes() == \
        (tmp_path / "run" / "forecasts.csv").read_bytes()


@pytest.mark.parametrize("version", ["1", "999"])
def test_rerunning_a_report_of_another_schema_exits_2(series_csv, tmp_path, capsys, version):
    # Schema 1 reports came from another hidden-layer draw: their forecasts
    # cannot be reproduced, so the rerun is refused, naming both versions.
    path, _ = series_csv
    assert cli.main(["run", "--config", str(experiment_config(tmp_path, path))]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    old = tmp_path / "old_report.json"
    old.write_text(json.dumps({**report, "schema_version": version}))
    capsys.readouterr()
    assert cli.main(["run", "--config", str(old), "--out", str(tmp_path / "rerun")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert f"schema version {version!r}" in err and repr(harness.REPORT_SCHEMA_VERSION) in err
    assert not (tmp_path / "rerun").exists()


@pytest.mark.parametrize("bad", [{"horizon": [1]}, {"data": "s.csv"}, {"seed": "3"}])
def test_run_with_malformed_config_value_exits_2(series_csv, tmp_path, capsys, bad):
    path, _ = series_csv
    raw = json.loads(experiment_config(tmp_path, path).read_text())
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps({**raw, **bad}))
    assert cli.main(["run", "--config", str(bad_path)]) == 2
    assert "configuration error:" in capsys.readouterr().err


@pytest.mark.parametrize("axis, values", [
    ("n_enhancement", "50"), ("n_enhancement", [50.0]), ("lags", [True]), ("seeds", ["0"]),
    ("regularization", ["1.0"]), ("direct_link", [1]), ("activation", ["swish"]),
    ("boundary_mode", ["adaptive"]),
    # JSON parsing accepts NaN and Infinity; no float axis does.
    ("regularization", [float("nan"), 1.0]), ("regularization", [float("inf")]),
    ("input_scale", [float("nan")]), ("input_scale", [float("inf")]), ("gamma", [float("-inf")]),
])
def test_run_with_malformed_grid_value_exits_2(series_csv, tmp_path, capsys, axis, values):
    path, _ = series_csv
    raw = json.loads(experiment_config(tmp_path, path).read_text())
    raw["grid"][axis] = values
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(raw))
    assert cli.main(["run", "--config", str(bad_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and f"grid axis {axis!r}" in err


@pytest.mark.parametrize("family, grid", [
    ("edrvfl", {"n_enhancement": [0]}),
    ("rvfl", {"n_enhancement": [0], "direct_link": [False]}),
])
def test_run_whose_grid_has_no_buildable_network_exits_2(series_csv, tmp_path, capsys, family,
                                                         grid):
    # Every candidate would fail: the grid is a configuration error, found
    # before any feature build.
    path, _ = series_csv
    cfg = experiment_config(tmp_path, path, family=family, grid={"lags": [4], **grid})
    assert cli.main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and "n_enhancement" in err
    assert not (tmp_path / "run").exists()


def fuzz_series(kind, n, seed):
    if kind == "constant":
        return np.full(n, 3.0)
    if kind == "step":
        return np.where(np.arange(n) < n // 2, -1.0, 2.0)
    if kind == "spike":
        values = np.zeros(n)
        values[n // 3] = 5.0
        return values
    walk = np.cumsum(np.random.default_rng(seed).normal(size=n))
    return walk * {"random_walk": 1.0, "1e150": 1e150, "1e-150": 1e-150}[kind]


def few(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=2, unique=True)


FUZZ_CONFIGS = st.fixed_dictionaries({
    "family": st.sampled_from(harness.FAMILIES),
    "pipeline": st.sampled_from(harness.PIPELINES),
    "grid": st.fixed_dictionaries({
        "n_enhancement": few([0, 3, 12]), "regularization": few([1e-3, 1.0, 1e3]),
        "lags": few([1, 3, 8]), "n_bands": few([1, 2, 4]), "gamma": few([0.05, 0.5]),
        "direct_link": few([True, False]), "activation": few(["sigmoid", "relu", "sign"]),
        "boundary_mode": few(["adaptive_per_step", "frozen_from_train"])}),
    "window": st.sampled_from(["auto", "all"]) | st.integers(2, 80),
    "scaler": st.sampled_from(["none", "zscore", "minmax"]),
    "split": st.sampled_from([{"train_fraction": 0.6, "validation_fraction": 0.2},
                              {"train_fraction": 0.5, "validation_fraction": 0.3},
                              {"train_fraction": 0.8}]),
    "horizon": st.integers(1, 3),
    "max_layers": st.integers(1, 3),
})
# A run exits 3 only where the series is too short or too degenerate for every
# candidate's feature build or scaling.
FUZZ_EXIT_3_ERRORS = ("error: every pipeline candidate failed; the first: feature build failed: ",
                      "error: every pipeline candidate failed; the first: scaling failed: ")
HUGE_WALKFORWARD = {
    "pipeline": "walkforward_ewt", "window": 64, "scaler": "none", "horizon": 1,
    "max_layers": 2, "split": {"train_fraction": 0.6, "validation_fraction": 0.2},
    "grid": {"n_enhancement": [10], "regularization": [1.0, 100.0], "lags": [4], "n_bands": [2]},
}


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=FUZZ_CONFIGS, n=st.integers(40, 300), seed=st.integers(0, 2**16),
       kind=st.sampled_from(["random_walk", "constant", "step", "spike", "1e150", "1e-150"]))
@example(config={"family": "rvfl", **HUGE_WALKFORWARD}, n=300, seed=0, kind="1e150")
@example(config={"family": "edrvfl", **HUGE_WALKFORWARD}, n=300, seed=0, kind="1e150")
def test_run_on_any_small_config_and_series_succeeds_or_says_why(tmp_path_factory, capsys,
                                                                  config, n, seed, kind):
    work = tmp_path_factory.mktemp("fuzz")
    np.savetxt(work / "series.csv", fuzz_series(kind, n, seed), delimiter=",")
    path = work / "config.json"
    path.write_text(json.dumps({"data": {"path": str(work / "series.csv")}, **config,
                                "output_dir": str(work / "run")}))
    capsys.readouterr()
    rc = cli.main(["run", "--config", str(path)])
    err = capsys.readouterr().err
    if rc == 0:
        with open(work / "run" / "forecasts.csv") as fh:
            rows = list(csv.DictReader(fh))
        values = [float(row[name]) for row in rows for name in ("actual", "forecast")]
        assert rows and np.all(np.isfinite(values))
    elif rc == 2:
        assert "configuration error:" in err
    else:
        assert rc == 3, err
        assert any(line.startswith(FUZZ_EXIT_3_ERRORS) for line in err.splitlines()), err


def test_run_with_non_finite_forecasts_exits_3_without_a_report(series_csv, tmp_path, capsys,
                                                                monkeypatch):
    from test_harness import nan_forecasting_rvfl

    path, _ = series_csv
    nan_forecasting_rvfl(monkeypatch, 90, 2)  # the test span of 300 samples split 0.6/0.1
    split = {"train_fraction": 0.6, "validation_fraction": 0.1}
    assert cli.main(["run", "--config", str(experiment_config(tmp_path, path, split=split))]) == 3
    assert "rvfl model forecast 2 non-finite values" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_run_where_every_feature_build_fails_names_the_first_reason(series_csv, tmp_path, capsys):
    path, _ = series_csv
    # A 150-sample window puts every target past a 40 % training span of 300 samples.
    cfg = experiment_config(tmp_path, path, pipeline="walkforward_ewt", window=150,
                            split={"train_fraction": 0.4, "validation_fraction": 0.2},
                            grid={"n_enhancement": [10], "lags": [4], "n_bands": [40]})
    assert cli.main(["run", "--config", str(cfg)]) == 3
    assert ("error: every pipeline candidate failed; the first: feature build failed: "
            "no training rows inside the training span") in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_run_whose_linear_baseline_cannot_be_fit_leaves_it_out(tmp_path, capsys):
    # 150 lags leave no training row in a 60 % span of 200 samples; persistence needs none.
    path = tmp_path / "series.csv"
    np.savetxt(path, np.sin(np.arange(200) * 0.1), delimiter=",")
    grid = {"lags": [150], "regularization": [1.0]}
    cfg = experiment_config(tmp_path, path, family="baseline_persistence", grid=grid)
    assert cli.main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "run"
    report = json.loads((out / "report.json").read_text())
    assert sorted(report["forecasts"]["models"]) == sorted(report["test_metrics"]) == \
        ["persistence"]
    assert report["meta"]["linear_baseline_error"] == (
        "every pipeline candidate failed; the first: feature build failed: "
        "no training rows inside the training span")
    for name in ("metrics.csv", "forecasts.csv"):
        with open(out / name) as fh:
            assert {row[0] for row in list(csv.reader(fh))[1:]} == {"persistence"}
    assert cli.main(["run", "--config", str(out / "report.json"),
                     "--out", str(tmp_path / "rerun")]) == 0
    assert (tmp_path / "rerun" / "forecasts.csv").read_bytes() == \
        (out / "forecasts.csv").read_bytes()
    # A run that chose the linear baseline still fails without it.
    cfg = experiment_config(tmp_path, path, out_name="linear", family="baseline_linear",
                            grid=grid)
    capsys.readouterr()
    assert cli.main(["run", "--config", str(cfg)]) == 3
    assert "no training rows inside the training span" in capsys.readouterr().err
    assert not (tmp_path / "linear").exists()


def test_run_with_missing_file_exits_2(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(tmp_path / "nope.json")])
    assert rc == 2


def test_decompose_bad_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\nabc\n")
    rc = cli.main(["decompose", "--input", str(bad), "--bands", "2",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_compare_reports(series_csv, tmp_path, capsys):
    path, _ = series_csv
    outputs = []
    # Reports that did not select rmse compare exactly like those that did.
    for metrics in (list(harness.METRIC_NAMES), ["mae"]):
        reports = tmp_path / "_".join(metrics)
        reports.mkdir()
        for name in ("a", "b"):
            cfg_path = experiment_config(reports, path, out_name=name, metrics=metrics)
            assert cli.main(["run", "--config", str(cfg_path), "--seed",
                             "1" if name == "a" else "2"]) == 0
        capsys.readouterr()
        assert cli.main(["compare", "--reports", str(reports)]) == 0
        outputs.append(capsys.readouterr().out)
    assert "average ranks" in outputs[0]
    assert "critical difference" in outputs[0]
    assert "persistence" in outputs[0]
    assert outputs[1] == outputs[0]


def test_compare_needs_two_reports(tmp_path, capsys):
    rc = cli.main(["compare", "--reports", str(tmp_path)])
    assert rc == 2


def test_unknown_subcommand_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2


# Runs the CLI in a fresh interpreter, optionally with scipy made unimportable
# (a None entry in sys.modules makes every import of it, or of a submodule,
# raise ImportError), and prints which scipy modules were imported.
CLI_IN_A_FRESH_INTERPRETER = """
import json, sys
if sys.argv[1] == "block-scipy":
    sys.modules["scipy"] = None
from ewtforecast import cli
rc = cli.main(sys.argv[2:])
print(json.dumps(sorted(m for m, mod in sys.modules.items() if m.startswith("scipy") and mod)))
sys.exit(rc)
"""


def run_cli_subprocess(args, block_scipy, **environ):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, **environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    mode = "block-scipy" if block_scipy else "plain"
    return subprocess.run([sys.executable, "-c", CLI_IN_A_FRESH_INTERPRETER, mode, *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_run_and_compare_succeed_with_scipy_unimportable(series_csv, tmp_path):
    path, _ = series_csv
    reports = tmp_path / "reports"
    reports.mkdir()
    for name, seed in (("a", "1"), ("b", "2")):
        cfg_path = experiment_config(reports, path, out_name=name)
        done = run_cli_subprocess(["run", "--config", str(cfg_path), "--seed", seed],
                                  block_scipy=True)
        assert done.returncode == 0, done.stderr
        assert "test rmse" in done.stdout
    done = run_cli_subprocess(["compare", "--reports", str(reports)], block_scipy=True)
    assert done.returncode == 0, done.stderr
    assert "critical difference" in done.stdout


def test_run_imports_no_scipy_module(series_csv, tmp_path):
    path, _ = series_csv
    done = run_cli_subprocess(["run", "--config", str(experiment_config(tmp_path, path))],
                              block_scipy=False)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


@pytest.mark.skipif(harness._openblas_threads() is None,
                    reason="numpy's BLAS is not an OpenBLAS bundled with numpy")
def test_a_report_records_the_blas_thread_count(series_csv, tmp_path):
    # The thread count can move the last bits of the ridge solves, so the
    # report says what it was: here the one the environment sets.
    path, _ = series_csv
    done = run_cli_subprocess(["run", "--config", str(experiment_config(tmp_path, path))],
                              block_scipy=False, OPENBLAS_NUM_THREADS="1")
    assert done.returncode == 0, done.stderr
    meta = json.loads((tmp_path / "run" / "report.json").read_text())["meta"]
    assert meta["numpy_blas_threads"] == 1
