"""Golden runs: each run under ``tests/golden/runs/`` reruns to the choice,
leaderboard and forecasts it recorded (``tests/golden/regenerate.py`` writes
them). Choices, leaderboard order and error strings must be equal; scores and
forecasts may move by rounding, 1e-9 times the largest absolute actual,
unless the numeric stack equals the recorded one: then ``forecasts.csv`` must
be equal byte for byte."""

import csv
import json

import numpy as np
import pytest

from golden.regenerate import RUNS_DIR, numeric_stack, rerun

SCORES = ("validation_rmse", "layerwise_history", "val_rmse")


def without_scores(entry: dict):
    """The entry with each score replaced by its length, and the scores as one flat list."""
    kept, scores = {}, []
    for key, value in entry.items():
        if key in SCORES and value is not None:
            scores += np.ravel(value).tolist()
            kept[key] = np.size(value)
        else:
            kept[key] = value
    return kept, scores


def read_forecasts(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    keys = [(model, int(origin)) for model, origin, _, _ in rows]
    values = np.array([[float(actual), float(pred)] for _, _, actual, pred in rows])
    return keys, values


@pytest.mark.parametrize("name", sorted(p.name for p in RUNS_DIR.iterdir()))
def test_golden_run_reproduces_its_choice_leaderboard_and_forecasts(tmp_path, name):
    run = RUNS_DIR / name
    expected = json.loads((run / "expected.json").read_text())
    report, forecasts = rerun(run, tmp_path)
    keys, values = read_forecasts(forecasts)
    expected_keys, expected_values = read_forecasts(run / "forecasts.csv")
    tol = 1e-9 * np.abs(expected_values[:, 0]).max()

    entries = [report["chosen"], *report["leaderboard"]]
    expected_entries = [expected["chosen"], *expected["leaderboard"]]
    assert len(entries) == len(expected_entries)
    for entry, expected_entry in zip(entries, expected_entries):
        kept, scores = without_scores(entry)
        expected_kept, expected_scores = without_scores(expected_entry)
        assert kept == expected_kept
        np.testing.assert_allclose(scores, expected_scores, rtol=0, atol=tol)
    assert keys == expected_keys
    np.testing.assert_array_equal(values[:, 0], expected_values[:, 0])
    np.testing.assert_allclose(values[:, 1], expected_values[:, 1], rtol=0, atol=tol)
    if numeric_stack(report["meta"]) == expected["stack"]:
        assert forecasts.read_bytes() == (run / "forecasts.csv").read_bytes()
