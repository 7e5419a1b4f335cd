"""The traced layers of ewtforecast and the per-layer metrics derived from them.

Every public function named in ``SPANS`` gets ``<module>.<function>.calls``
and ``<module>.<function>.self_s``. ``LayerProbe`` adds counters computed from
each call's arguments and result: how often work repeats within one pass
(spectra, filter banks, Gram matrices, ensemble-deep prefixes), how often the
band split degrades, and how much data the harness writes.

Repeat shares are counted within one pass of a workload: ``reset_pass`` forgets
what earlier passes saw, otherwise every call of a second pass would repeat.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# module.function -> name of the LayerProbe hook that inspects its result
SPANS = {
    "series.load_csv": None,
    "series.embed": None,
    "ewt.magnitude_spectrum": "on_spectrum",
    "ewt.detect_boundaries": "on_boundaries",
    "ewt.build_filter_bank": "on_filter_bank",
    "ewt.decompose": "on_decompose",
    "walkforward.build_walkforward_features": "on_walkforward",
    "walkforward.causal_decompose_at": None,
    "rvfl.init_hidden_layer": None,
    "rvfl.build_design_matrix": None,
    "rvfl.fit_output_weights": "on_output_weights",
    "rvfl.fit": None,
    "rvfl.predict": None,
    "edrvfl.fit_edrvfl": "on_edrvfl",
    "edrvfl.ensemble_predict": None,
    "metrics.compute_metrics": None,
    "harness.run_experiment": None,
    "harness.grid_search": "on_search",
    "harness.layerwise_grid_search": "on_search",
    "harness.write_report": "on_write_report",
    "harness.save_model": "on_save_model",
    "harness.load_model": None,
    "cli.main": None,
}

# Derived metrics beyond calls/self_s, with their units.
EXTRA_UNITS = {
    "ewt.magnitude_spectrum.repeat_frac": "frac",
    "ewt.build_filter_bank.repeat_frac": "frac",
    "ewt.detect_boundaries.fallback_frac": "frac",
    "ewt.build_filter_bank.gamma_clipped_frac": "frac",
    "ewt.decompose.max_imag_residue": "abs",
    "walkforward.rows": "count",
    "walkforward.row_us": "us",
    "rvfl.fit_output_weights.gram_repeat_frac": "frac",
    "rvfl.fit_output_weights.gflop": "GFLOP",
    "edrvfl.layers_fitted": "count",
    "edrvfl.prefix_repeat_frac": "frac",
    "harness.candidates": "count",
    "harness.candidates_failed": "count",
    "harness.write_report.bytes": "bytes",
    "harness.save_model.bytes": "bytes",
}

# Tracing overhead and coverage, measured by the traced run itself.
TRACE_UNITS = {
    "trace.run_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}


def per_layer_units() -> dict:
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units.update(EXTRA_UNITS)
    units.update(TRACE_UNITS)
    return units


def fingerprint(a) -> tuple:
    """Content key of a matrix: shape plus row and column sums.

    Equal matrices always share a key; unequal float matrices of this size
    share one only by an exact coincidence of every sum. It costs two passes
    over the data, where hashing the bytes costs several.
    """
    a = np.asarray(a, dtype=np.float64)
    return (a.shape, a.sum(axis=0).tobytes(), a.sum(axis=1).tobytes())


def ridge_flops(n_rows: int, n_cols: int, n_targets: int, primal: bool) -> float:
    """Dense flops of one closed-form ridge solve, from its shapes.

    Primal: Gram ``H'H`` (2nm^2), right side ``H'Y`` (2nmk), Cholesky (m^3/3),
    two triangular solves (2m^2k). Dual: ``HH'`` (2n^2m), Cholesky (n^3/3),
    solves (2n^2k), back-projection ``H'alpha`` (2nmk).
    """
    n, m, k = n_rows, n_cols, n_targets
    if primal:
        return 2.0 * n * m * m + 2.0 * n * m * k + m ** 3 / 3.0 + 2.0 * m * m * k
    return 2.0 * n * n * m + n ** 3 / 3.0 + 2.0 * n * n * k + 2.0 * n * m * k


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class LayerProbe:
    """Hooks run after each traced call; they write into ``tracer.counters``."""

    def __init__(self):
        self.reset_pass()

    def reset_pass(self):
        self._spectra = set()
        self._banks = set()
        self._grams = set()
        self._prefixes = set()

    def hooks(self, names) -> dict:
        """``{span: hook}`` for the given span names."""
        return {name: (getattr(self, SPANS[name]) if SPANS[name] else None) for name in names}

    def on_spectrum(self, tracer, args, kwargs, result):
        key = np.asarray(_arg(args, kwargs, 0, "signal"), dtype=np.float64).tobytes()
        if key in self._spectra:
            tracer.counters["ewt.magnitude_spectrum.repeats"] += 1
        self._spectra.add(key)

    def on_boundaries(self, tracer, args, kwargs, result):
        tracer.counters["ewt.detect_boundaries.fallbacks"] += int(result.uniform_fallback)

    def on_filter_bank(self, tracer, args, kwargs, result):
        key = (result.boundaries.omegas.tobytes(), result.signal_length, result.gamma_requested)
        if key in self._banks:
            tracer.counters["ewt.build_filter_bank.repeats"] += 1
        self._banks.add(key)
        tracer.counters["ewt.build_filter_bank.gamma_clipped"] += int(result.gamma_clipped)

    def on_decompose(self, tracer, args, kwargs, result):
        name = "ewt.decompose.max_imag_residue"
        tracer.maxima[name] = max(tracer.maxima.get(name, 0.0), result.max_imag_residue)

    def on_walkforward(self, tracer, args, kwargs, result):
        tracer.counters["walkforward.rows"] += result.n_samples

    def on_output_weights(self, tracer, args, kwargs, result):
        H = _arg(args, kwargs, 0, "H")
        H = np.asarray(getattr(H, "H", H), dtype=np.float64)
        key = fingerprint(H)
        if key in self._grams:
            tracer.counters["rvfl.fit_output_weights.gram_repeats"] += 1
        self._grams.add(key)
        mode = _arg(args, kwargs, 3, "mode", "auto")
        n_rows, n_cols = H.shape
        primal = n_cols <= n_rows if mode == "auto" else mode == "primal"
        flops = ridge_flops(n_rows, n_cols, result.shape[1], primal)
        tracer.counters["rvfl.fit_output_weights.gflop"] += flops / 1e9

    def on_edrvfl(self, tracer, args, kwargs, result):
        X = _arg(args, kwargs, 0, "X")
        Y = _arg(args, kwargs, 1, "Y")
        cfg = _arg(args, kwargs, 2, "cfg")
        scaler = _arg(args, kwargs, 3, "scaler")
        scaler_key = None if scaler is None else (
            scaler.kind, scaler.center.tobytes(), scaler.scale.tobytes())
        base = (fingerprint(X), fingerprint(np.asarray(Y).reshape(len(Y), -1)), scaler_key,
                cfg.activation, cfg.input_scale, cfg.output_bias, cfg.layer_norm, cfg.seed)
        for layer in range(result.n_layers):
            key = base + (cfg.n_enhancement[:layer + 1], cfg.regularization[:layer + 1])
            if key in self._prefixes:
                tracer.counters["edrvfl.prefix_repeats"] += 1
            self._prefixes.add(key)
        tracer.counters["edrvfl.layers_fitted"] += result.n_layers

    def on_search(self, tracer, args, kwargs, result):
        tracer.counters["harness.candidates"] += len(result.leaderboard)
        tracer.counters["harness.candidates_failed"] += sum(
            1 for o in result.leaderboard if o.val_rmse is None or not math.isfinite(o.val_rmse))

    def on_write_report(self, tracer, args, kwargs, result):
        tracer.counters["harness.write_report.bytes"] += sum(
            Path(p).stat().st_size for p in result.values())

    def on_save_model(self, tracer, args, kwargs, result):
        path = _arg(args, kwargs, 1, "path")
        tracer.counters["harness.save_model.bytes"] += Path(path).stat().st_size


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: dict, maxima: dict) -> dict:
    """Per-layer metrics (without the ``trace.*`` ones) from per-pass totals.

    ``totals`` holds ``<span>.calls``, ``<span>.self_s``, ``<span>.total_s``
    and the probe counters, each already averaged per pass.
    """
    def get(name):
        return totals.get(name, 0.0)

    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = get(f"{span}.calls")
        out[f"{span}.self_s"] = get(f"{span}.self_s")
    rows = get("walkforward.rows")
    out.update({
        "ewt.magnitude_spectrum.repeat_frac": _share(get("ewt.magnitude_spectrum.repeats"),
                                                     get("ewt.magnitude_spectrum.calls")),
        "ewt.build_filter_bank.repeat_frac": _share(get("ewt.build_filter_bank.repeats"),
                                                    get("ewt.build_filter_bank.calls")),
        "ewt.detect_boundaries.fallback_frac": _share(get("ewt.detect_boundaries.fallbacks"),
                                                      get("ewt.detect_boundaries.calls")),
        "ewt.build_filter_bank.gamma_clipped_frac": _share(
            get("ewt.build_filter_bank.gamma_clipped"), get("ewt.build_filter_bank.calls")),
        "ewt.decompose.max_imag_residue": maxima.get("ewt.decompose.max_imag_residue", 0.0),
        "walkforward.rows": rows,
        "walkforward.row_us": 1e6 * _share(
            get("walkforward.build_walkforward_features.total_s"), rows),
        "rvfl.fit_output_weights.gram_repeat_frac": _share(
            get("rvfl.fit_output_weights.gram_repeats"), get("rvfl.fit_output_weights.calls")),
        "rvfl.fit_output_weights.gflop": get("rvfl.fit_output_weights.gflop"),
        "edrvfl.layers_fitted": get("edrvfl.layers_fitted"),
        "edrvfl.prefix_repeat_frac": _share(get("edrvfl.prefix_repeats"),
                                            get("edrvfl.layers_fitted")),
        "harness.candidates": get("harness.candidates"),
        "harness.candidates_failed": get("harness.candidates_failed"),
        "harness.write_report.bytes": get("harness.write_report.bytes"),
        "harness.save_model.bytes": get("harness.save_model.bytes"),
    })
    return out
