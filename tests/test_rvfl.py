import json
import logging

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ewtforecast import rvfl
from ewtforecast.edrvfl import EdRvflConfig, fit_edrvfl
from ewtforecast.rvfl import (
    ACTIVATIONS,
    RvflConfig,
    RvflModel,
    build_design_matrix,
    fit,
    fit_output_weights,
    init_hidden_layer,
    predict,
    ridge_path,
)
from ewtforecast.series import fit_scaler

from oracles import ACTIVATION_FORMULAS, ridge_cho_factor, ridge_gd, ridge_objective


def random_problem(rng, n_rows=None, n_cols=None):
    n_rows = n_rows or int(rng.integers(10, 61))
    n_cols = n_cols or int(rng.integers(2, 31))
    H = rng.normal(size=(n_rows, n_cols))
    Y = rng.normal(size=(n_rows, 1))
    return H, Y


# ------------------------------------------------------------- hidden layer

def test_hidden_layer_deterministic():
    cfg = RvflConfig(n_enhancement=30, seed=99)
    a = init_hidden_layer(5, cfg)
    b = init_hidden_layer(5, cfg)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.biases, b.biases)


def test_hidden_layer_domain_bounds():
    cfg = RvflConfig(n_enhancement=500, input_scale=0.5, seed=1)
    layer = init_hidden_layer(8, cfg)
    assert np.abs(layer.weights).max() <= 0.5
    assert layer.biases.min() >= 0.0 and layer.biases.max() <= 0.5


def test_empty_hidden_layer_is_valid_with_direct_link():
    cfg = RvflConfig(n_enhancement=0, direct_link=True)
    layer = init_hidden_layer(3, cfg)
    assert layer.weights.shape == (0, 3)
    assert layer.n_nodes == 0


def test_hidden_layer_rejects_bad_input_dim():
    with pytest.raises(ValueError, match="n_inputs"):
        init_hidden_layer(0, RvflConfig())


def test_config_validation():
    with pytest.raises(ValueError, match="direct links"):
        RvflConfig(n_enhancement=0, direct_link=False)
    with pytest.raises(ValueError, match="regularization"):
        RvflConfig(regularization=0.0)
    with pytest.raises(ValueError, match="activation"):
        RvflConfig(activation="swish")


# ------------------------------------------------------------- activations

def activate(name, x):
    """A named activation applied to a float copy of ``x`` (it works in place)."""
    return ACTIVATIONS[name](np.array(x, dtype=np.float64))


def test_activation_spot_values():
    assert activate("sigmoid", 0.0) == 0.5
    assert activate("tribas", 0.5) == 0.5
    assert activate("radbas", 0.0) == 1.0
    assert activate("relu", -3.0) == 0.0
    assert activate("sine", 0.0) == 0.0
    assert list(activate("sign", [-2.0, 0.0, 3.0])) == [-1.0, 0.0, 1.0]
    # The step function is one on the non-positive side.
    assert list(activate("hardlim", [-1.0, 0.0, 0.1])) == [1.0, 1.0, 0.0]


def test_tanh_variant_formula():
    x = np.linspace(-5, 5, 41)
    expected = (1 - np.exp(-x)) / (1 + np.exp(-x))
    assert np.allclose(activate("tanh", x), expected, atol=1e-14)


def test_selu_formula():
    alpha, scale = 1.6732632423543772, 1.0507009873554805
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    expected = scale * np.where(x > 0, x, alpha * (np.exp(x) - 1))
    assert np.allclose(activate("selu", x), expected, atol=1e-14)


def test_unknown_activation():
    with pytest.raises(ValueError, match="unknown activation 'gelu'"):
        RvflConfig(activation="gelu")


def test_activations_are_finite_on_wide_range():
    x = np.array([-745.0, -30.0, 0.0, 30.0, 745.0])
    for name in ACTIVATIONS:
        assert np.all(np.isfinite(activate(name, x))), name


# ------------------------------------------------------------- design matrix

def test_design_matrix_direct_only_equals_input():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(7, 4))
    cfg = RvflConfig(n_enhancement=0, direct_link=True, output_bias=False)
    design = build_design_matrix(X, init_hidden_layer(4, cfg), cfg)
    assert np.array_equal(design, X)


def test_design_matrix_enhancement_formula_at_zero():
    from ewtforecast.rvfl import HiddenLayer
    X = np.array([[1.0, -2.0]])
    layer = HiddenLayer(np.zeros((1, 2)), np.zeros(1), "sigmoid")
    cfg = RvflConfig(n_enhancement=1, direct_link=False)
    design = build_design_matrix(X, layer, cfg)
    assert design.tolist() == [[0.5]]


def test_design_matrix_column_count_with_bias():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(5, 4))
    cfg = RvflConfig(n_enhancement=6, output_bias=True)
    design = build_design_matrix(X, init_hidden_layer(4, cfg), cfg)
    assert design.shape[1] == 4 + 6 + 1
    assert np.all(design[:, -1] == 1.0)


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
@pytest.mark.parametrize("direct_link, output_bias", [(True, False), (False, True), (True, True)])
def test_design_buffer_equals_the_stacked_formula_bit_for_bit(name, direct_link, output_bias):
    # The design is written into one buffer and activated in place; its bytes
    # must be those of stacking [X | g(XW' + b) | 1] with the textbook g.
    rng = np.random.default_rng(36)
    X = 3.0 * rng.normal(size=(300, 7))
    cfg = RvflConfig(n_enhancement=40, activation=name, direct_link=direct_link,
                     output_bias=output_bias, input_scale=2.0)
    hidden = init_hidden_layer(7, cfg)
    enhancement = ACTIVATION_FORMULAS[name](X @ hidden.weights.T + hidden.biases)
    blocks = [X] * direct_link + [enhancement] + [np.ones((300, 1))] * output_bias
    assert build_design_matrix(X, hidden, cfg).tobytes() == np.hstack(blocks).tobytes()
    assert activate(name, X).tobytes() == ACTIVATION_FORMULAS[name](X).tobytes()


def test_design_matrix_dimension_mismatch():
    cfg = RvflConfig(n_enhancement=3)
    layer = init_hidden_layer(4, cfg)
    with pytest.raises(ValueError, match="inputs"):
        build_design_matrix(np.ones((2, 5)), layer, cfg)


# ------------------------------------------------------------- solver

def test_identity_system_shrinkage():
    beta = fit_output_weights(np.eye(2), np.array([[1.0], [2.0]]), 1.0)
    assert np.allclose(beta.ravel(), [0.5, 1.0], atol=1e-12)


def test_zero_targets_give_zero_weights():
    rng = np.random.default_rng(4)
    H = rng.normal(size=(10, 4))
    beta = fit_output_weights(H, np.zeros((10, 1)), 5.0)
    assert np.abs(beta).max() <= 1e-12


def test_gradient_descent_oracle_agreement():
    rng = np.random.default_rng(5)
    for c_reg in (0.1, 10.0, 100.0):
        H, Y = random_problem(rng, n_rows=20, n_cols=5)
        beta = fit_output_weights(H, Y, c_reg)
        beta_gd = ridge_gd(H, Y, c_reg)
        assert np.abs(beta - beta_gd).max() <= 1e-6


def test_primal_and_dual_agree():
    rng = np.random.default_rng(6)
    for _ in range(20):
        H, Y = random_problem(rng)
        c_reg = float(rng.choice([0.1, 1.0, 10.0]))
        bp = fit_output_weights(H, Y, c_reg, mode="primal")
        bd = fit_output_weights(H, Y, c_reg, mode="dual")
        assert np.abs(bp - bd).max() <= 1e-8


def test_pseudoinverse_limit():
    rng = np.random.default_rng(7)
    H, Y = random_problem(rng, n_rows=40, n_cols=10)
    beta = fit_output_weights(H, Y, 1e12)
    lstsq = np.linalg.lstsq(H, Y, rcond=None)[0]
    assert np.abs(beta - lstsq).max() <= 1e-4


def test_solver_rejects_non_finite():
    H = np.array([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        fit_output_weights(H, np.ones((2, 1)), 1.0)


def test_a_bad_regularization_fails_only_itself():
    H, Y = random_problem(np.random.default_rng(12))
    *errors, beta = ridge_path(H, Y, [np.nan, np.inf, -1.0, 1.0])
    assert [type(e) for e in errors] == [ValueError] * 3
    assert beta.tobytes() == fit_output_weights(H, Y, 1.0).tobytes()
    for bad in (np.nan, np.inf, -1.0):
        for field in ("regularization", "input_scale"):
            with pytest.raises(ValueError, match=field):
                RvflConfig(**{field: bad})
        with pytest.raises(ValueError, match="input_scale"):
            EdRvflConfig(n_layers=2, input_scale=bad)
        with pytest.raises(ValueError, match="regularization"):
            EdRvflConfig(n_layers=2, regularization=(1.0, bad))


def test_objective_optimality_under_perturbation():
    rng = np.random.default_rng(8)
    H, Y = random_problem(rng, n_rows=30, n_cols=8)
    c_reg = 10.0
    beta = fit_output_weights(H, Y, c_reg)
    base = ridge_objective(H, Y, beta, c_reg)
    for _ in range(25):
        delta = rng.normal(size=beta.shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert ridge_objective(H, Y, beta + delta, c_reg) >= base


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 260), st.integers(2, 300), st.booleans(), st.booleans(),
       st.floats(-2.0, 4.0), st.integers(0, 2**32 - 1))
def test_solve_matches_the_scipy_cholesky_oracle(n_cols, n_rows, rvfl_like, primal, log_c, seed):
    # Sizes straddle the ~128-column point where a multi-threaded factorization
    # starts. Both solves are backward stable, so they may differ by rounding
    # amplified by the condition number of the factored system: the stated
    # tolerance is 2*(3n+1)*eps*cond(A) relative, n the system size (Higham's
    # Cholesky backward-error constant, once per solve).
    rng = np.random.default_rng(seed)
    if rvfl_like:  # sigmoid features of a few inputs: strongly collinear columns
        H = activate("sigmoid", rng.normal(size=(n_rows, 8)) @ rng.uniform(-1, 1, (8, n_cols)))
    else:
        H = rng.normal(size=(n_rows, n_cols))
    Y = rng.normal(size=(n_rows, 1))
    c_reg = 10.0 ** log_c
    beta = fit_output_weights(H, Y, c_reg, mode="primal" if primal else "dual")
    ref = ridge_cho_factor(H, Y, c_reg, primal)
    system = H.T @ H if primal else H @ H.T
    n = system.shape[0]
    tol = 2 * (3 * n + 1) * np.finfo(float).eps * np.linalg.cond(system + np.eye(n) / c_reg)
    assert np.abs(beta - ref).max() <= tol * np.abs(ref).max()


def test_fit_path_makes_no_call_into_scipy_cholesky(monkeypatch):
    # scipy's bundled OpenBLAS has its own thread pool: a multi-threaded
    # factorization there, right after numpy's products, makes the two pools
    # stall each other. The fit path factors in numpy's runtime only.
    def forbidden(*args, **kwargs):
        raise AssertionError("the fit path called into scipy's Cholesky")

    for name in ("cho_factor", "cho_solve", "cholesky"):
        monkeypatch.setattr(scipy.linalg, name, forbidden)
    rng = np.random.default_rng(40)
    X, Y = rng.normal(size=(300, 8)), rng.normal(size=(300, 1))
    H = rng.normal(size=(300, 150))
    assert np.all(np.isfinite(fit_output_weights(H, Y, 10.0, mode="primal")))
    assert np.all(np.isfinite(fit_output_weights(H[:100], Y[:100], 10.0, mode="dual")))
    assert np.all(np.isfinite(predict(fit(X, Y, RvflConfig(n_enhancement=150, seed=1)), X)))
    ed = fit_edrvfl(X, Y, EdRvflConfig(n_layers=2, n_enhancement=(150, 140),
                                       regularization=(10.0, 1.0), seed=2))
    assert len(ed.layers) == 2


def test_slightly_indefinite_system_is_solved_after_jitter_with_a_warning(caplog):
    A = np.diag([1.0, 1.0, -1e-12])
    b = np.array([[1.0], [2.0], [3.0]])
    with caplog.at_level(logging.WARNING, logger="ewtforecast.rvfl"):
        x = rvfl._solve_spd(A, b)
    jitter = 1e-10 * np.trace(A) / 3
    assert np.allclose((A + jitter * np.eye(3)) @ x, b, rtol=1e-6)
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert "size 3" in record.getMessage() and f"{jitter:.3e}" in record.getMessage()


def test_strongly_indefinite_system_raises(caplog):
    with pytest.raises(RuntimeError, match="failed even with jitter"):
        rvfl._solve_spd(np.diag([1.0, -1.0]), np.ones((2, 1)))
    assert len(caplog.records) == 1


# ------------------------------------------------------------- fit / predict

def test_l0_direct_link_model_is_plain_ridge():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(25, 4))
    Y = rng.normal(size=(25, 1))
    cfg = RvflConfig(n_enhancement=0, regularization=2.0, direct_link=True, output_bias=False)
    model = fit(X, Y, cfg)
    ridge = np.linalg.solve(X.T @ X + 0.5 * np.eye(4), X.T @ Y)
    assert np.abs(predict(model, X) - X @ ridge).max() <= 1e-10


def test_fit_deterministic():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(30, 5))
    Y = rng.normal(size=(30, 1))
    cfg = RvflConfig(n_enhancement=12, seed=77)
    m1, m2 = fit(X, Y, cfg), fit(X, Y, cfg)
    assert np.array_equal(m1.beta, m2.beta)


def test_interpolation_regime_reproduces_training_targets():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 4))
    Y = rng.normal(size=(20, 1))
    cfg = RvflConfig(n_enhancement=60, regularization=1e12, input_scale=0.5, seed=2)
    model = fit(X, Y, cfg)
    assert np.abs(predict(model, X) - Y).max() <= 1e-6


def test_predict_shapes_and_mismatch():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(10, 3))
    Y = rng.normal(size=(10, 1))
    model = fit(X, Y, RvflConfig(n_enhancement=4))
    assert predict(model, X[:1]).shape == (1, 1)
    with pytest.raises(ValueError, match="feature columns"):
        predict(model, np.ones((2, 7)))


def test_direct_link_ablation():
    # Dropping the direct links leaves only the enhancement block, the
    # randomized-network comparison setting.
    rng = np.random.default_rng(16)
    X = rng.normal(size=(20, 3))
    Y = rng.normal(size=(20, 1))
    cfg = RvflConfig(n_enhancement=6, direct_link=False, seed=1)
    design = build_design_matrix(X, init_hidden_layer(3, cfg), cfg)
    assert design.shape[1] == 6
    model = fit(X, Y, cfg)
    assert model.beta.shape == (6, 1)
    assert np.all(np.isfinite(predict(model, X)))


def test_multi_output_shape_support():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(15, 3))
    Y = rng.normal(size=(15, 2))
    model = fit(X, Y, RvflConfig(n_enhancement=5))
    assert predict(model, X).shape == (15, 2)


def test_scaler_travels_with_the_model():
    rng = np.random.default_rng(14)
    X = rng.normal(loc=100.0, size=(40, 3))
    Y = rng.normal(size=(40, 1))
    scaler = fit_scaler(X, "zscore")
    model = fit(X, Y, RvflConfig(n_enhancement=8, seed=5), scaler=scaler)
    assert model.scaler is scaler
    assert np.all(np.isfinite(predict(model, X)))


def test_json_round_trip_is_bit_identical():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(30, 4))
    Y = rng.normal(size=(30, 1))
    scaler = fit_scaler(X, "minmax")
    model = fit(X, Y, RvflConfig(n_enhancement=9, activation="tanh", seed=8), scaler=scaler)
    restored = RvflModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert np.array_equal(predict(restored, X), predict(model, X))
