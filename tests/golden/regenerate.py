"""Rewrite the golden runs under ``tests/golden/runs/`` with the code in ``src/``.

    PYTHONPATH=src python tests/golden/regenerate.py [name ...]

Each run directory holds:

- ``series.csv``, its input: ``sin(0.1 t)`` plus noise of scale 0.1 from
  ``numpy.random.default_rng(0)``, 300 samples. It is kept as a file, so that
  no random-number generator version enters; it is written only where missing.
- ``config.json``, the experiment config without data path and output
  directory (``RUNS`` below).
- ``forecasts.csv``, as the run wrote it.
- ``expected.json``: the chosen candidate, the leaderboard in order, and the
  numeric stack the run was written on.

``tests/test_golden.py`` reruns every directory. A run whose winner leads the
runner-up by less than ``MARGIN`` (relative) is refused, since rounding on
another stack could reorder the two. Say in CHANGES.md why the runs moved.
"""

import ctypes
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from ewtforecast.harness import ExperimentConfig, run_experiment, write_report

RUNS_DIR = Path(__file__).resolve().parent / "runs"
MARGIN = 1e-6
STACK_FIELDS = ("numpy_version", "numpy_blas", "numpy_blas_threads", "numpy_simd")

_SPLIT = {"train_fraction": 0.6, "validation_fraction": 0.2}
_WALKFORWARD = {"pipeline": "walkforward_ewt", "window": 64}
RUNS = {
    # Both boundary modes, so the leaderboard holds two walk-forward families.
    "a_rvfl_walkforward": {"family": "rvfl", **_WALKFORWARD, "seed": 1, "grid": {
        "n_enhancement": [10], "regularization": [1.0, 100.0], "lags": [4],
        "n_bands": [2, 3], "gamma": [0.1, 0.2],
        "boundary_mode": ["adaptive_per_step", "frozen_from_train"]}},
    "c_baseline_linear": {"family": "baseline_linear", "pipeline": "raw_lags",
                          "grid": {"lags": [4, 8], "regularization": [1.0, 100.0]}},
    "e_edrvfl_walkforward": {"family": "edrvfl", **_WALKFORWARD, "seed": 3, "max_layers": 3,
                             "grid": {"n_enhancement": [10, 20], "regularization": [1, 100],
                                      "lags": [4], "n_bands": [2, 3],
                                      "boundary_mode": ["adaptive_per_step",
                                                        "frozen_from_train"]}},
    # relu takes no exp, so no SIMD kernel choice enters its designs.
    "raw_lags_relu": {"family": "rvfl", "pipeline": "raw_lags", "grid": {
        "n_enhancement": [10, 20], "regularization": [0.1, 10.0], "lags": [4, 8],
        "activation": ["relu"]}},
    "leaky_ewt": {"family": "rvfl", "pipeline": "leaky_ewt", "window": 64, "grid": {
        "n_enhancement": [10], "regularization": [1.0, 100.0], "lags": [4], "n_bands": [2, 3]}},
}


def openblas_core():
    """The kernel set the OpenBLAS bundled with numpy picked for this CPU, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            if hasattr(lib, symbol):
                get = getattr(lib, symbol)
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return None


def numeric_stack(meta: dict) -> dict:
    """What fixes the rounding of a run: the report's numeric stack and the
    OpenBLAS kernel set."""
    return {**{name: meta[name] for name in STACK_FIELDS}, "openblas_core": openblas_core()}


def rerun(run_dir: Path, out_dir: Path):
    """Run ``run_dir``'s config on its series and write the report to
    ``out_dir``; return the report as JSON data and the ``forecasts.csv`` path."""
    raw = json.loads((run_dir / "config.json").read_text())
    raw = {**raw, "data": {"path": str(run_dir / "series.csv")}, "output_dir": str(out_dir)}
    paths = write_report(run_experiment(ExperimentConfig.from_dict(raw)), out_dir)
    return json.loads(paths["report"].read_text()), paths["forecasts"]


def lead(leaderboard: list) -> float:
    """How far the runner-up's validation RMSE lies above the winner's,
    relative to the winner's."""
    scores = sorted(e["val_rmse"] for e in leaderboard if e["val_rmse"] is not None)
    return (scores[1] - scores[0]) / scores[0] if len(scores) > 1 else float("inf")


def regenerate(name: str) -> None:
    run_dir = RUNS_DIR / name
    run_dir.mkdir(parents=True, exist_ok=True)
    series = run_dir / "series.csv"
    if not series.exists():
        t = np.arange(300)
        values = np.sin(0.1 * t) + 0.1 * np.random.default_rng(0).normal(size=t.size)
        np.savetxt(series, values, delimiter=",")
    (run_dir / "config.json").write_text(json.dumps({"split": _SPLIT, **RUNS[name]}, indent=1) + "\n")
    with tempfile.TemporaryDirectory() as out:
        report, forecasts = rerun(run_dir, Path(out))
        margin = lead(report["leaderboard"])
        if margin < MARGIN:
            raise SystemExit(f"{name}: the winner leads the runner-up by {margin:.3g} < {MARGIN:g}")
        shutil.copyfile(forecasts, run_dir / "forecasts.csv")
    expected = {"chosen": report["chosen"], "leaderboard": report["leaderboard"],
                "stack": numeric_stack(report["meta"])}
    (run_dir / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or RUNS:
        regenerate(name)
        print(f"wrote {RUNS_DIR / name}")
