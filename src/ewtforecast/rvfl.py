"""Shallow randomized functional-link network.

The hidden (enhancement) layer is drawn once from a fixed uniform domain and
never trained; the output layer acts on the concatenation of the raw inputs
(direct links) and the enhancement features and is solved in closed form. The
training objective is

    minimize  (C/2) * ||H beta - Y||^2  +  (1/2) * ||beta||^2

whose solution is ``(H'H + I/C)^-1 H'Y`` when the design has no more columns
than rows and ``H'(HH' + I/C)^-1 Y`` otherwise; both are computed via a
symmetric positive-definite factorization, never an explicit inverse.

The system, bordered by its right-hand side, is factored by
``numpy.linalg.cholesky``, which yields the forward substitution as well; the
back substitution is blocked, on numpy's dense solver and matrix product. The
fit needs numpy alone.

Model search fits many networks that share one hidden layer and differ only in
C. :func:`ridge_path` serves them from one design: it forms the Gram matrix
once and factors ``G + I/C`` per C. That is the same floating-point operation
as a one-C solve, so each weight vector equals :func:`fit_output_weights`' bit
for bit (the latter is the one-C case). Designs are written into one buffer,
activated in place.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from ewtforecast.series import Scaler, _frozen, apply_scaler

logger = logging.getLogger(__name__)

_SELU_ALPHA = 1.6732632423543772
_SELU_SCALE = 1.0507009873554805


# Each activation overwrites its float64 argument and returns it, so that a
# design matrix is activated where it is built; the operations are those of
# the textbook formulas, so the values are the same bit for bit.

def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, x, out=x)


def _radbas(x: np.ndarray) -> np.ndarray:
    np.square(x, out=x)
    np.negative(x, out=x)
    return np.exp(x, out=x)


def _hardlim(x: np.ndarray) -> np.ndarray:
    x[...] = x <= 0.0
    return x


def _tribas(x: np.ndarray) -> np.ndarray:
    np.abs(x, out=x)
    np.subtract(1.0, x, out=x)
    return np.maximum(x, 0.0, out=x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x); e^-x overflows to inf for x below about -709, giving 0.
    np.negative(x, out=x)
    with np.errstate(over="ignore"):
        np.exp(x, out=x)
    x += 1.0
    return np.reciprocal(x, out=x)


def _tanh(x: np.ndarray) -> np.ndarray:
    # (1 - e^-x) / (1 + e^-x) = 2 * sigmoid(x) - 1
    _sigmoid(x)
    x *= 2.0
    x -= 1.0
    return x


def _selu(x: np.ndarray) -> np.ndarray:
    neg = np.expm1(np.minimum(x, 0.0))
    neg *= _SELU_ALPHA
    np.copyto(x, neg, where=~(x > 0.0))
    x *= _SELU_SCALE
    return x


ACTIVATIONS = {
    "sigmoid": _sigmoid,
    "sign": lambda x: np.sign(x, out=x),
    "relu": _relu,
    "sine": lambda x: np.sin(x, out=x),
    "radbas": _radbas,
    "hardlim": _hardlim,
    "tribas": _tribas,
    "tanh": _tanh,
    "selu": _selu,
}


def _positive_error(name: str, value) -> ValueError | None:
    """The error for a ``name`` that is not finite and > 0 (``NaN`` is not > 0), else None."""
    if not value > 0.0:
        return ValueError(f"{name} must be > 0")
    if not np.isfinite(value):
        return ValueError(f"{name} must be finite")
    return None


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
        for name in ("regularization", "input_scale"):
            error = _positive_error(name, getattr(self, name))
            if error is not None:
                raise error
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


def build_design_matrix(X: np.ndarray, hidden: HiddenLayer, cfg: RvflConfig) -> np.ndarray:
    """The output-layer design ``[X | g(X W' + b) | 1]`` of ``cfg``'s network:
    the direct-link block only with ``cfg.direct_link``, the ones column only
    with ``cfg.output_bias``."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be a matrix")
    if hidden.n_nodes and hidden.n_inputs != X.shape[1]:
        raise ValueError(
            f"hidden layer expects {hidden.n_inputs} inputs, X has {X.shape[1]} columns"
        )
    return _design(X if cfg.direct_link else None, X, hidden, cfg.output_bias)


def _design(direct, enh_input: np.ndarray, hidden: HiddenLayer, output_bias: bool) -> np.ndarray:
    """``[direct | g(enh_input W' + b) | 1]`` written into one preallocated buffer.

    The direct block (``None`` for none) is copied in, the product lands in its
    columns, and the bias and activation ``g`` are applied there in place. The
    values are those of stacking the three blocks, bit for bit.
    """
    n_direct = 0 if direct is None else direct.shape[1]
    n_nodes = hidden.n_nodes
    H = np.empty((enh_input.shape[0], n_direct + n_nodes + int(output_bias)))
    if n_direct:
        H[:, :n_direct] = direct
    if n_nodes:
        A = H[:, n_direct:n_direct + n_nodes]
        np.matmul(enh_input, hidden.weights.T, out=A)
        A += hidden.biases
        ACTIVATIONS[hidden.activation](A)
    if output_bias:
        H[:, -1] = 1.0
    return H


# Diagonal of the corner block of the bordered matrix that _solve_spd factors.
# The factor's other blocks do not depend on it; it only has to exceed
# ||L^-1 B||^2 = B'A^-1 B <= ||B||^2 / lambda_min(A), so that the corner's
# Schur complement stays positive. For that bound to reach 1e300, A must be far
# too ill-conditioned for its own Cholesky factor to exist in float64.
_BORDER = 1e300


def _solve_spd(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``A X = B`` for symmetric positive-definite ``A`` by Cholesky.

    numpy factors ``A`` bordered by ``B``, ``[[A, B], [B', c I]]``, whose
    Cholesky factor is ``[[L, 0], [(L^-1 B)', S]]`` with ``A = L L'``: the
    forward substitution comes out of the factorization, and
    :func:`_back_substitute` solves ``L' X = L^-1 B``. A factorization that
    fails is retried once with ``trace(A)/n * 1e-10`` added to the diagonal of
    ``A``, with a warning, and the jittered factor is the one solved; a second
    failure raises ``RuntimeError``.
    """
    n, k = B.shape
    M = np.empty((n + k, n + k))
    M[:n, :n] = A
    M[:n, n:] = B
    M[n:, :n] = B.T
    M[n:, n:] = _BORDER * np.eye(k)
    try:
        F = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        jitter = 1e-10 * np.trace(A) / n
        logger.warning("ridge system of size %d is not positive definite; "
                       "retrying with jitter %.3e on the diagonal", n, jitter)
        M[:n, :n] += jitter * np.eye(n)
        try:
            F = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            raise RuntimeError(
                f"ridge system factorization failed even with jitter {jitter:.3e}; "
                f"condition estimate {np.linalg.cond(A):.3e}"
            ) from None
    return _back_substitute(F[:n, :n], F[n:, :n].T)


# Rows per block of the back substitution. A block's LU inside np.linalg.solve
# grows with its cube and each call has a fixed cost; 48 was fastest for the
# 60-220 column systems that model search factors.
_SUBSTITUTION_BLOCK = 48


def _back_substitute(L: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``L'^-1 W`` for lower-triangular ``L`` by blocked back substitution
    (Golub and Van Loan, *Matrix Computations*, §3.1): each diagonal block of
    ``L'`` is solved by ``np.linalg.solve`` and the rows above it are updated
    by one matrix product."""
    X = np.array(W, dtype=np.float64)
    for i in reversed(range(0, L.shape[0], _SUBSTITUTION_BLOCK)):
        j = i + _SUBSTITUTION_BLOCK
        X[i:j] = np.linalg.solve(L[i:j, i:j].T, X[i:j])
        X[:i] -= L[i:j, :i].T @ X[i:j]
    return X


def ridge_path(H, Y, regularizations, mode: str = "auto") -> list:
    """Closed-form output weights for each C in ``regularizations``, from one Gram matrix.

    ``H`` and ``Y`` are checked once, and ``H'H`` and ``H'Y`` (``HH'`` in the
    dual form) are formed once; each C then adds ``I/C`` and is factored on its
    own. ``A = G + I/C`` is the same floating-point operation as a one-C solve,
    so entry k is, bit for bit, what ``fit_output_weights(H, Y, C_k, mode)``
    returns, or the exception it would raise for that C alone (``ValueError``
    for a C that is not finite and > 0, ``RuntimeError`` for a failed
    factorization). A bad shape or a non-finite value in ``H`` or ``Y`` raises
    for every C.
    """
    H = np.asarray(H, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y.reshape(-1, 1)
    if H.ndim != 2 or Y.ndim != 2 or H.shape[0] != Y.shape[0]:
        raise ValueError(f"incompatible shapes H {H.shape}, Y {Y.shape}")
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(Y))):
        raise ValueError("design matrix and targets must be finite")
    if mode not in ("auto", "primal", "dual"):
        raise ValueError(f"mode must be auto, primal or dual, got {mode!r}")

    n_rows, n_cols = H.shape
    use_primal = n_cols <= n_rows if mode == "auto" else mode == "primal"
    gram = rhs = None
    betas = []
    for regularization in regularizations:
        error = _positive_error("regularization", regularization)
        if error is not None:
            betas.append(error)
            continue
        if gram is None:
            gram, rhs = (H.T @ H, H.T @ Y) if use_primal else (H @ H.T, Y)
        delta = 1.0 / regularization
        try:
            solution = _solve_spd(gram + delta * np.eye(gram.shape[0]), rhs)
        except RuntimeError as exc:
            betas.append(exc)
            continue
        betas.append(solution if use_primal else H.T @ solution)
    return betas


def fit_output_weights(H, Y, regularization: float, mode: str = "auto") -> np.ndarray:
    """Closed-form output weights for the ridge objective.

    ``mode`` forces the primal or dual form for testing; ``"auto"`` follows the
    dimension rule (primal when columns <= rows).
    """
    [beta] = ridge_path(H, Y, [regularization], mode)
    if isinstance(beta, Exception):
        raise beta
    return beta


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
    beta = fit_output_weights(build_design_matrix(X, hidden, cfg), Y, cfg.regularization)
    return RvflModel(cfg, hidden, beta, X.shape[1], scaler)


def predict(model: RvflModel, X) -> np.ndarray:
    """Forecasts for new rows, shape (N, c)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} feature columns, got shape {X.shape}")
    if model.scaler is not None:
        X = apply_scaler(model.scaler, X)
    return build_design_matrix(X, model.hidden, model.config) @ model.beta
