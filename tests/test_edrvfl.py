import json

import numpy as np
import pytest

from ewtforecast import rvfl
from ewtforecast.edrvfl import (
    EdRvflConfig,
    EdRvflModel,
    combine_predictions,
    ensemble_predict,
    fit_edrvfl,
    layer_predictions,
)


def make_data(seed=0, n=60, d=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    Y = (X @ rng.normal(size=(d, 1))) + 0.1 * rng.normal(size=(n, 1))
    return X, Y


def test_single_layer_reduces_to_shallow_bit_identically():
    X, Y = make_data(1)
    ed_cfg = EdRvflConfig(n_layers=1, n_enhancement=25, regularization=5.0,
                          activation="sigmoid", input_scale=0.8, seed=123)
    shallow_cfg = rvfl.RvflConfig(n_enhancement=25, regularization=5.0,
                                  activation="sigmoid", input_scale=0.8,
                                  direct_link=True, seed=123)
    ed = fit_edrvfl(X, Y, ed_cfg)
    sh = rvfl.fit(X, Y, shallow_cfg)
    assert np.array_equal(ensemble_predict(ed, X), rvfl.predict(sh, X))


def test_layer_solve_sizes_stay_small():
    X, Y = make_data(2, d=6)
    cfg = EdRvflConfig(n_layers=3, n_enhancement=(10, 12, 14), regularization=1.0,
                       output_bias=True, seed=0)
    model = fit_edrvfl(X, Y, cfg)
    for layer, nodes in zip(model.layers, (10, 12, 14)):
        assert layer.beta.shape[0] == 6 + nodes + 1  # raw + this layer + bias


def test_layer_inputs_chain_previous_features():
    X, Y = make_data(3, d=4)
    cfg = EdRvflConfig(n_layers=3, n_enhancement=(8, 9, 10), seed=7)
    model = fit_edrvfl(X, Y, cfg)
    assert model.layers[0].hidden.n_inputs == 4
    assert model.layers[1].hidden.n_inputs == 4 + 8
    assert model.layers[2].hidden.n_inputs == 4 + 9


def test_deterministic_for_fixed_seed():
    X, Y = make_data(4)
    cfg = EdRvflConfig(n_layers=2, n_enhancement=10, seed=42)
    a = fit_edrvfl(X, Y, cfg)
    b = fit_edrvfl(X, Y, cfg)
    assert np.array_equal(ensemble_predict(a, X), ensemble_predict(b, X))


def test_layers_differ_in_randomness():
    X, Y = make_data(5)
    cfg = EdRvflConfig(n_layers=2, n_enhancement=10, seed=3)
    model = fit_edrvfl(X, Y, cfg)
    w0 = model.layers[0].hidden.weights[:, :X.shape[1]]
    w1 = model.layers[1].hidden.weights[:, :X.shape[1]]
    assert not np.array_equal(w0, w1)


def test_mean_rule_is_exact_average():
    X, Y = make_data(6)
    cfg = EdRvflConfig(n_layers=2, n_enhancement=10, ensemble_rule="mean", seed=1)
    model = fit_edrvfl(X, Y, cfg)
    per_layer = layer_predictions(model, X)
    assert np.array_equal(ensemble_predict(model, X), (per_layer[0] + per_layer[1]) / 2.0)


def test_median_rule_resists_one_bad_layer():
    stacked = np.array([[[1.0]], [[5.0]], [[100.0]]])
    assert combine_predictions(stacked, "median")[0, 0] == 5.0


def test_degenerate_scale_makes_layers_identical():
    X, Y = make_data(7)
    cfg = EdRvflConfig(n_layers=3, n_enhancement=10, input_scale=1e-14, seed=5)
    model = fit_edrvfl(X, Y, cfg)
    per_layer = layer_predictions(model, X)
    spread = np.abs(per_layer - per_layer[0]).max()
    assert spread <= 1e-8
    assert np.abs(ensemble_predict(model, X) - per_layer[0]).max() <= 1e-8


def test_ensemble_lies_within_layer_envelope():
    X, Y = make_data(8)
    for rule in ("median", "mean"):
        cfg = EdRvflConfig(n_layers=4, n_enhancement=12, ensemble_rule=rule, seed=9)
        model = fit_edrvfl(X, Y, cfg)
        per_layer = layer_predictions(model, X)
        ens = ensemble_predict(model, X)
        assert np.all(ens >= per_layer.min(axis=0) - 1e-12)
        assert np.all(ens <= per_layer.max(axis=0) + 1e-12)


def test_layer_norm_smoke_and_single_layer_equivalence():
    X, Y = make_data(10)
    base = EdRvflConfig(n_layers=1, n_enhancement=15, activation="relu", seed=4)
    normed = EdRvflConfig(n_layers=1, n_enhancement=15, activation="relu",
                          layer_norm=True, seed=4)
    a = fit_edrvfl(X, Y, base)
    b = fit_edrvfl(X, Y, normed)
    # Normalization only affects features handed to deeper layers.
    assert np.array_equal(ensemble_predict(a, X), ensemble_predict(b, X))
    deep = EdRvflConfig(n_layers=3, n_enhancement=15, activation="relu",
                        layer_norm=True, seed=4)
    model = fit_edrvfl(X, Y, deep)
    assert np.all(np.isfinite(ensemble_predict(model, X)))


def test_per_layer_settings_validation():
    with pytest.raises(ValueError, match="entries"):
        EdRvflConfig(n_layers=2, n_enhancement=(5,))
    with pytest.raises(ValueError, match="enhancement node"):
        EdRvflConfig(n_layers=1, n_enhancement=0)
    with pytest.raises(ValueError, match="ensemble_rule"):
        EdRvflConfig(n_layers=1, ensemble_rule="vote")


def test_json_round_trip_is_bit_identical():
    X, Y = make_data(11)
    cfg = EdRvflConfig(n_layers=3, n_enhancement=(8, 10, 12), regularization=(1.0, 2.0, 4.0),
                       activation="selu", layer_norm=True, seed=21)
    model = fit_edrvfl(X, Y, cfg)
    restored = EdRvflModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert np.array_equal(ensemble_predict(restored, X), ensemble_predict(model, X))
