"""Shallow randomized functional-link network.

The hidden (enhancement) layer is drawn once from a fixed uniform domain and
never trained; the output layer acts on the concatenation of the raw inputs
(direct links) and the enhancement features and is solved in closed form. The
training objective is

    minimize  (C/2) * ||H beta - Y||^2  +  (1/2) * ||beta||^2

whose solution is ``(H'H + I/C)^-1 H'Y`` when the design has no more columns
than rows and ``H'(HH' + I/C)^-1 Y`` otherwise; both are computed via a
symmetric positive-definite factorization, never an explicit inverse.

The Cholesky factor is computed by ``numpy.linalg.cholesky``, in the same BLAS
runtime that forms the Gram matrix. The numpy and scipy wheels each bundle
their own OpenBLAS with its own thread pool; factoring in scipy's runtime right
after a multi-threaded product in numpy's made the two pools contend for the
cores (a stall of several milliseconds per solve from about 128 columns up on a
2-core host). Only the two triangular solves with the few target columns run in
scipy, and those stay single-threaded.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg
from scipy.special import expit

from ewtforecast.series import Scaler, _frozen, apply_scaler

logger = logging.getLogger(__name__)

_SELU_ALPHA = 1.6732632423543772
_SELU_SCALE = 1.0507009873554805


def _selu(x: np.ndarray) -> np.ndarray:
    neg = _SELU_ALPHA * np.expm1(np.minimum(x, 0.0))
    return _SELU_SCALE * np.where(x > 0.0, x, neg)


ACTIVATIONS = {
    "sigmoid": expit,
    "sign": np.sign,
    "relu": lambda x: np.maximum(0.0, x),
    "sine": np.sin,
    "radbas": lambda x: np.exp(-np.square(x)),
    "hardlim": lambda x: np.where(x <= 0.0, 1.0, 0.0),
    "tribas": lambda x: np.maximum(1.0 - np.abs(x), 0.0),
    "tanh": lambda x: 2.0 * expit(x) - 1.0,  # (1 - e^-x) / (1 + e^-x)
    "selu": _selu,
}


def activate(name: str, x) -> np.ndarray:
    """Apply a named activation elementwise."""
    try:
        fn = ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; supported: {sorted(ACTIVATIONS)}"
        ) from None
    return fn(np.asarray(x, dtype=np.float64))


@dataclass(frozen=True)
class RvflConfig:
    """Hyper-parameters of one shallow network.

    ``regularization`` is the data-fit weight C in the training objective:
    larger values fit the data more tightly (the effective ridge penalty on
    the output weights is 1/C). Random weights are drawn uniformly from
    [-input_scale, input_scale] and biases from [0, input_scale].
    """

    n_enhancement: int = 50
    activation: str = "sigmoid"
    regularization: float = 1.0
    input_scale: float = 1.0
    direct_link: bool = True
    output_bias: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n_enhancement < 0:
            raise ValueError("n_enhancement must be >= 0")
        if not self.direct_link and self.n_enhancement < 1:
            raise ValueError("without direct links the model needs at least one enhancement node")
        if self.regularization <= 0.0:
            raise ValueError("regularization must be > 0")
        if self.input_scale <= 0.0:
            raise ValueError("input_scale must be > 0")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}; supported: {sorted(ACTIVATIONS)}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class HiddenLayer:
    """Frozen random enhancement layer: weights (L x d), biases (L,)."""

    weights: np.ndarray
    biases: np.ndarray
    activation: str

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.biases, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.size:
            raise ValueError(f"inconsistent hidden layer shapes {w.shape} / {b.shape}")
        object.__setattr__(self, "weights", _frozen(w))
        object.__setattr__(self, "biases", _frozen(b))

    @property
    def n_nodes(self) -> int:
        return int(self.biases.size)

    @property
    def n_inputs(self) -> int:
        return int(self.weights.shape[1])


def init_hidden_layer(n_inputs: int, cfg: RvflConfig) -> HiddenLayer:
    """Draw the enhancement layer; identical (n_inputs, cfg) give identical layers."""
    if n_inputs < 1:
        raise ValueError("n_inputs must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    s = cfg.input_scale
    weights = rng.uniform(-s, s, size=(cfg.n_enhancement, n_inputs))
    biases = rng.uniform(0.0, s, size=cfg.n_enhancement)
    return HiddenLayer(weights, biases, cfg.activation)


@dataclass(frozen=True)
class DesignMatrix:
    """Output-layer design: [direct-link block | enhancement block | ones?]."""

    H: np.ndarray
    n_direct: int
    n_enhancement: int
    has_bias: bool

    def __post_init__(self):
        H = np.asarray(self.H, dtype=np.float64)
        expected = self.n_direct + self.n_enhancement + int(self.has_bias)
        if H.ndim != 2 or H.shape[1] != expected:
            raise ValueError(f"design matrix has {H.shape[1]} columns, layout says {expected}")
        object.__setattr__(self, "H", _frozen(H))

    @property
    def n_columns(self) -> int:
        return int(self.H.shape[1])


def build_design_matrix(X: np.ndarray, hidden: HiddenLayer, cfg: RvflConfig) -> DesignMatrix:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be a matrix")
    if hidden.n_nodes and hidden.n_inputs != X.shape[1]:
        raise ValueError(
            f"hidden layer expects {hidden.n_inputs} inputs, X has {X.shape[1]} columns"
        )
    blocks = []
    if cfg.direct_link:
        blocks.append(X)
    if hidden.n_nodes:
        blocks.append(activate(hidden.activation, X @ hidden.weights.T + hidden.biases))
    if cfg.output_bias:
        blocks.append(np.ones((X.shape[0], 1)))
    H = np.hstack(blocks)
    return DesignMatrix(H, X.shape[1] if cfg.direct_link else 0, hidden.n_nodes, cfg.output_bias)


def _solve_spd(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``A X = B`` for symmetric positive-definite ``A`` by Cholesky.

    ``A = L L'`` is factored by numpy, in the BLAS runtime that formed ``A``, so
    no multi-threaded call goes into scipy's separate runtime (see the module
    docstring); ``L`` and ``L'`` are then solved by scipy's triangular solver. A
    factorization that fails is retried once with ``trace(A)/n * 1e-10`` added
    to the diagonal, with a warning; a second failure raises ``RuntimeError``.
    """
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        n = A.shape[0]
        jitter = 1e-10 * np.trace(A) / n
        logger.warning("ridge system of size %d is not positive definite; "
                       "retrying with jitter %.3e on the diagonal", n, jitter)
        try:
            L = np.linalg.cholesky(A + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            raise RuntimeError(
                f"ridge system factorization failed even with jitter {jitter:.3e}; "
                f"condition estimate {np.linalg.cond(A):.3e}"
            ) from None
    Z = scipy.linalg.solve_triangular(L, B, lower=True)
    return scipy.linalg.solve_triangular(L, Z, lower=True, trans="T")


def fit_output_weights(H, Y, regularization: float, mode: str = "auto") -> np.ndarray:
    """Closed-form output weights for the ridge objective.

    ``mode`` forces the primal or dual form for testing; ``"auto"`` follows the
    dimension rule (primal when columns <= rows).
    """
    if isinstance(H, DesignMatrix):
        H = H.H
    H = np.asarray(H, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y.reshape(-1, 1)
    if H.ndim != 2 or Y.ndim != 2 or H.shape[0] != Y.shape[0]:
        raise ValueError(f"incompatible shapes H {H.shape}, Y {Y.shape}")
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(Y))):
        raise ValueError("design matrix and targets must be finite")
    if regularization <= 0.0:
        raise ValueError("regularization must be > 0")
    if mode not in ("auto", "primal", "dual"):
        raise ValueError(f"mode must be auto, primal or dual, got {mode!r}")

    n_rows, n_cols = H.shape
    delta = 1.0 / regularization
    use_primal = n_cols <= n_rows if mode == "auto" else mode == "primal"
    if use_primal:
        A = H.T @ H + delta * np.eye(n_cols)
        return _solve_spd(A, H.T @ Y)
    G = H @ H.T + delta * np.eye(n_rows)
    return H.T @ _solve_spd(G, Y)


def ridge_objective(H, Y, beta: np.ndarray, regularization: float) -> float:
    """Value of the training objective at ``beta``."""
    if isinstance(H, DesignMatrix):
        H = H.H
    residual = H @ beta - Y
    return 0.5 * regularization * float(np.sum(residual ** 2)) + 0.5 * float(np.sum(beta ** 2))


@dataclass(frozen=True)
class RvflModel:
    """Trained network: frozen hidden layer plus closed-form output weights."""

    config: RvflConfig
    hidden: HiddenLayer
    beta: np.ndarray
    n_features: int
    scaler: Scaler | None = None

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64)
        expected = (self.n_features if self.config.direct_link else 0) \
            + self.hidden.n_nodes + int(self.config.output_bias)
        if beta.ndim != 2 or beta.shape[0] != expected:
            raise ValueError(f"beta has {beta.shape} but the design layout has {expected} columns")
        object.__setattr__(self, "beta", _frozen(beta))

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "hidden_weights": self.hidden.weights.tolist(),
            "hidden_biases": self.hidden.biases.tolist(),
            "beta": self.beta.tolist(),
            "n_features": self.n_features,
            "scaler": None if self.scaler is None else self.scaler.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RvflModel":
        cfg = RvflConfig(**payload["config"])
        weights = np.asarray(payload["hidden_weights"], dtype=np.float64)
        if cfg.n_enhancement == 0:
            weights = weights.reshape(0, int(payload["n_features"]))
        hidden = HiddenLayer(weights, np.asarray(payload["hidden_biases"], dtype=np.float64),
                             cfg.activation)
        scaler = payload.get("scaler")
        return cls(cfg, hidden, np.asarray(payload["beta"], dtype=np.float64),
                   int(payload["n_features"]), Scaler(**scaler) if scaler else None)


def fit(X, Y, cfg: RvflConfig, scaler: Scaler | None = None) -> RvflModel:
    """Init the hidden layer, build the design matrix, solve the output weights.

    When ``scaler`` is given, ``X`` must be raw: it is transformed here and the
    scaler travels with the model, so prediction expects raw inputs too.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("X must be a non-empty matrix")
    if scaler is not None:
        X = apply_scaler(scaler, X)
    hidden = init_hidden_layer(X.shape[1], cfg)
    design = build_design_matrix(X, hidden, cfg)
    beta = fit_output_weights(design, Y, cfg.regularization)
    return RvflModel(cfg, hidden, beta, X.shape[1], scaler)


def predict(model: RvflModel, X) -> np.ndarray:
    """Forecasts for new rows, shape (N, c)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} feature columns, got shape {X.shape}")
    if model.scaler is not None:
        X = apply_scaler(model.scaler, X)
    design = build_design_matrix(X, model.hidden, model.config)
    return design.H @ model.beta
