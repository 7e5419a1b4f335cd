import csv
import json

import numpy as np
import pytest

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
