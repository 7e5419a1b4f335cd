"""Tests of the benchmark's own code: tracer arithmetic, inputs, metric names, counters.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from ewtforecast import edrvfl, ewt, rvfl, walkforward  # noqa: E402
from ewtforecast.edrvfl import EdRvflConfig  # noqa: E402
from ewtforecast.ewt import EwtBoundaries  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)

    def advance(dt):
        clock.now += dt

    leaf = tracer.wrap("leaf", lambda: advance(1.0))

    def middle_body():
        advance(2.0)
        leaf()
        advance(0.5)

    middle = tracer.wrap("middle", middle_body)

    def outer_body():
        advance(3.0)
        middle()
        leaf()
        advance(0.25)

    outer = tracer.wrap("outer", outer_body)
    outer()

    # outer spans 3 + (2 + 1 + 0.5) + 1 + 0.25 = 7.75; its direct children cover 3.5 + 1.
    assert tracer.total_s["outer"] == 7.75
    assert tracer.self_s["outer"] == 3.25
    assert tracer.total_s["middle"] == 3.5
    assert tracer.self_s["middle"] == 2.5
    assert tracer.calls["leaf"] == 2
    assert tracer.self_s["leaf"] == 2.0
    # Self times partition the outermost span exactly.
    assert sum(tracer.self_s.values()) == tracer.total_s["outer"]


def test_hook_time_is_charged_to_no_span_and_exceptions_still_close_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def slow_hook(tr, args, kwargs, result):
        clock.now += 10.0

    def fail():
        clock.now += 1.0
        raise ValueError("boom")

    inner = tracer.wrap("inner", lambda: None, slow_hook)
    failing = tracer.wrap("failing", fail)

    def outer_body():
        inner()
        with pytest.raises(ValueError):
            failing()
        clock.now += 2.0

    tracer.wrap("outer", outer_body)()
    assert tracer.total_s["outer"] == 13.0
    assert tracer.self_s["outer"] == 2.0
    assert tracer.calls["failing"] == 1
    assert tracer.self_s["failing"] == 1.0


def test_instrument_patches_importers_and_restores_originals():
    original = ewt.detect_boundaries
    assert walkforward.detect_boundaries is original
    tracer = Tracer()
    with instrument(tracer, "ewtforecast", {"ewt.detect_boundaries": None}):
        assert walkforward.detect_boundaries is not original
        assert ewt.detect_boundaries is walkforward.detect_boundaries
        spectrum = ewt.magnitude_spectrum(np.sin(np.arange(64.0)))
        walkforward.detect_boundaries(spectrum, 2)
    assert tracer.calls["ewt.detect_boundaries"] == 1
    assert walkforward.detect_boundaries is original
    assert ewt.detect_boundaries is original


def test_same_seed_same_series_and_different_seeds_differ():
    a = workloads.make_series(3)
    assert a.shape == (workloads.SERIES_LENGTH,)
    assert np.array_equal(a, workloads.make_series(3))
    assert not np.array_equal(a, workloads.make_series(4))
    assert np.all(np.isfinite(a))


def test_series_round_trips_through_the_csv_exactly(tmp_path):
    values = workloads.make_series(5, n=50)
    path = tmp_path / "s.csv"
    workloads.write_series(values, path)
    from ewtforecast.series import load_csv

    assert load_csv(path).values.tobytes() == values.tobytes()


END_TO_END_NAMES = {"setup_s", "run_s", "step_ms_p50", "step_ms_p99", "peak_rss_mb",
                    "rmse_vs_persistence"}
LAYER_FUNCTIONS = {
    "series": {"load_csv", "embed"},
    "ewt": {"magnitude_spectrum", "detect_boundaries", "build_filter_bank", "decompose"},
    "walkforward": {"build_walkforward_features", "causal_decompose_at"},
    "rvfl": {"init_hidden_layer", "build_design_matrix", "fit_output_weights", "fit", "predict"},
    "edrvfl": {"fit_edrvfl", "ensemble_predict"},
    "metrics": {"compute_metrics"},
    "harness": {"run_experiment", "grid_search", "layerwise_grid_search", "write_report",
                "save_model", "load_model"},
    "cli": {"main"},
}


def test_every_metric_has_a_named_layer_or_end_to_end_name_and_a_unit():
    assert set(run.END_TO_END_UNITS) == END_TO_END_NAMES
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    units = layers.per_layer_units()
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == units
    spans = {span.rsplit(".", 1)[0]: set() for span in layers.SPANS}
    for span in layers.SPANS:
        module, fn = span.rsplit(".", 1)
        spans[module].add(fn)
    assert spans == LAYER_FUNCTIONS
    for name, unit in units.items():
        module = name.split(".", 1)[0]
        assert module in LAYER_FUNCTIONS or module == "trace", name
        assert unit
    # layer_metrics produces exactly the per-layer names the traced run adds trace.* to.
    produced = set(layers.layer_metrics({}, {}))
    assert produced == {n for n in units if not n.startswith("trace.")}


def _probe_run(calls):
    tracer = Tracer()
    probe = layers.LayerProbe()
    with instrument(tracer, "ewtforecast", probe.hooks(layers.SPANS)):
        calls()
    return layers.layer_metrics(tracer.totals(), tracer.maxima)


def test_spectrum_and_filter_bank_repeat_fractions_on_a_hand_grid():
    a = np.sin(np.arange(32.0))
    b = np.cos(np.arange(32.0))
    edges = EwtBoundaries(np.array([1.0]))
    other = EwtBoundaries(np.array([2.0]))

    def calls():
        for window in (a, b, a, a):       # a, b new; then a twice: 2 of 4 repeat
            ewt.magnitude_spectrum(window)
        ewt.build_filter_bank(edges, 32, 0.1)   # new
        ewt.build_filter_bank(edges, 32, 0.1)   # repeat
        ewt.build_filter_bank(edges, 32, 0.2)   # new: gamma differs
        ewt.build_filter_bank(other, 32, 0.1)   # new: edges differ

    m = _probe_run(calls)
    assert m["ewt.magnitude_spectrum.calls"] == 4
    assert m["ewt.magnitude_spectrum.repeat_frac"] == 0.5
    assert m["ewt.build_filter_bank.repeat_frac"] == 0.25


def test_gram_repeat_fraction_on_a_hand_grid():
    rng = np.random.default_rng(0)
    H1 = rng.normal(size=(20, 4))
    H2 = rng.normal(size=(20, 4))
    Y = rng.normal(size=(20, 1))

    def calls():
        for C in (1.0, 10.0, 100.0):            # same H three times: 2 repeats
            rvfl.fit_output_weights(H1, Y, C)
        rvfl.fit_output_weights(H2, Y, 1.0)     # new

    m = _probe_run(calls)
    assert m["rvfl.fit_output_weights.calls"] == 4
    assert m["rvfl.fit_output_weights.gram_repeat_frac"] == 0.5
    primal = layers.ridge_flops(20, 4, 1, primal=True)
    assert primal == 2 * 20 * 16 + 2 * 20 * 4 + 64 / 3 + 2 * 16
    assert m["rvfl.fit_output_weights.gflop"] == pytest.approx(4 * primal / 1e9)


def test_prefix_repeat_fraction_on_a_hand_grid():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 3))
    Y = rng.normal(size=(30, 1))
    X_other = rng.normal(size=(30, 3))

    def fit(x, nodes, regs):
        edrvfl.fit_edrvfl(x, Y, EdRvflConfig(n_layers=len(nodes), n_enhancement=nodes,
                                             regularization=regs))

    def calls():
        fit(X, (5,), (1.0,))                   # 1 layer, new
        fit(X, (5, 6), (1.0, 2.0))             # layer 1 repeats; layer 2 new
        fit(X, (5, 7), (1.0, 2.0))             # layer 1 repeats; layer 2 new
        fit(X, (5, 6, 4), (1.0, 2.0, 3.0))     # layers 1-2 repeat; layer 3 new
        fit(X, (5, 6), (1.0, 9.0))             # layer 1 repeats; layer 2 new (other C)
        fit(X_other, (5,), (1.0,))             # other data: new

    m = _probe_run(calls)
    assert m["edrvfl.fit_edrvfl.calls"] == 6
    assert m["edrvfl.layers_fitted"] == 1 + 2 + 2 + 3 + 2 + 1
    assert m["edrvfl.prefix_repeat_frac"] == 5 / 11


def test_repeat_counters_start_fresh_each_pass():
    a = np.sin(np.arange(32.0))
    tracer = Tracer()
    probe = layers.LayerProbe()
    for _ in range(2):
        probe.reset_pass()
        with instrument(tracer, "ewtforecast", probe.hooks(layers.SPANS)):
            ewt.magnitude_spectrum(a)
    m = layers.layer_metrics(tracer.totals(0.5), tracer.maxima)
    assert m["ewt.magnitude_spectrum.calls"] == 1
    assert m["ewt.magnitude_spectrum.repeat_frac"] == 0.0


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.99) == 99
    assert run.percentile([3.0, 1.0, 2.0], 0.99) == 3.0
    assert run.percentile([7.0], 0.5) == 7.0
