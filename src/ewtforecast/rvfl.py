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

Model search fits many networks that differ only in node count and C. Node j's
weights and bias are drawn together, as row j of one uniform draw, so a layer
of L nodes is the first L nodes of any larger layer with the same seed. With
the nodes after the direct links and the ones column, a smaller network's
design is a column prefix of the largest one's, its Gram matrix a leading
block, and the Cholesky factor of that block the leading block of the largest
factor (Golub and Van Loan,
*Matrix Computations*, §4.2). :func:`nested_ridge_path` therefore forms one
Gram matrix, factors ``G + I/C`` once per C and back-substitutes each width's
leading block. The leading block of a factor is rounded as part of a larger
factorization, so a nested solution equals the solve of its own system to
rounding, not bit for bit; :func:`fit_output_weights` is its one-width,
one-C case. A design is written into one preallocated buffer, its
activations computed in contiguous blocks of rows.
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
    """Draw the enhancement layer; identical (n_inputs, cfg) give identical layers.

    Node j's weights (in [-s, s]) and bias (in [0, s]) are row j of one
    ``(n_enhancement, n_inputs + 1)`` uniform draw, so a layer of L nodes is,
    bit for bit, the first L nodes of any larger layer with the same inputs,
    seed and scale.
    """
    if n_inputs < 1:
        raise ValueError("n_inputs must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    s = cfg.input_scale
    low = np.full(n_inputs + 1, -s)
    low[-1] = 0.0
    draw = rng.uniform(low, s, size=(cfg.n_enhancement, n_inputs + 1))
    return HiddenLayer(draw[:, :-1], draw[:, -1], cfg.activation)


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


# Bytes of a block of rows in which a design's bias and activation are applied.
# The block stays in cache through the activation's passes, and at 64 KiB it
# is allocated below glibc's default 128 KiB mmap threshold: a 200 KiB block
# (128 rows of 200 nodes) raised the benchmark's peak RSS by ~0.7 MB.
_ACTIVATION_BLOCK_BYTES = 64 * 1024


def _design(direct, enh_input: np.ndarray, hidden: HiddenLayer, output_bias: bool,
            bias_first: bool = False) -> np.ndarray:
    """``[direct | g(enh_input W' + b) | 1]`` written into one preallocated buffer;
    with ``bias_first``, ``[1 | direct | g(enh_input W' + b)]``, so that the
    design of the first L nodes is a column prefix and ``[direct | first L
    nodes]`` a column range.

    The direct block (``None`` for none) is copied in and the product lands in
    its columns. The bias and activation ``g`` are applied to a contiguous copy
    of a few rows at a time (``_ACTIVATION_BLOCK_BYTES``), which is copied
    back: the node columns are strided in the buffer, and the activation's
    passes run faster on a contiguous block. The values are those of stacking
    the blocks, bit for bit.
    """
    n_direct = 0 if direct is None else direct.shape[1]
    n_nodes = hidden.n_nodes
    H = np.empty((enh_input.shape[0], n_direct + n_nodes + int(output_bias)))
    lead = int(output_bias and bias_first)  # columns ahead of the direct block
    if n_direct:
        H[:, lead:lead + n_direct] = direct
    if n_nodes:
        start = lead + n_direct
        A = H[:, start:start + n_nodes]
        np.matmul(enh_input, hidden.weights.T, out=A)
        activate = ACTIVATIONS[hidden.activation]
        step = max(1, _ACTIVATION_BLOCK_BYTES // (8 * n_nodes))
        block = np.empty((min(len(A), step), n_nodes))
        for i in range(0, len(A), step):
            rows = A[i:i + step]
            rows[...] = activate(np.add(rows, hidden.biases, out=block[:len(rows)]))
    if output_bias:
        H[:, 0 if bias_first else -1] = 1.0
    return H


# Diagonal of the corner block of the bordered matrix that _solve_spd factors.
# The factor's other blocks do not depend on it; it only has to exceed
# ||L^-1 B||^2 = B'A^-1 B <= ||B||_F^2 / lambda_min(A), so that the corner's
# Schur complement stays positive. _solve_leading scales B by a power of two
# to entries of at most one, so ||B||_F^2 <= B.size, and for the bound to
# reach 1e300 A must be far too ill-conditioned for its own Cholesky factor to
# exist in float64.
_BORDER = 1e300


def _bordered_cholesky(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Cholesky factor of ``A`` bordered by ``B``, ``[[A, B], [B', c I]]``.

    With ``A = L L'`` the factor is ``[[L, 0], [(L^-1 B)', S]]``: the forward
    substitution comes out of the factorization. Its leading ``w x w`` block
    and the first ``w`` columns of its lower-left block are those of
    ``A[:w, :w]`` bordered by ``B[:w]``. Raises ``np.linalg.LinAlgError`` when
    ``A`` is not numerically positive definite.
    """
    n, k = B.shape
    M = np.empty((n + k, n + k))
    M[:n, :n] = A
    M[:n, n:] = B
    M[n:, :n] = B.T
    M[n:, n:] = _BORDER * np.eye(k)
    return np.linalg.cholesky(M)


def _solve_spd(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``A X = B`` for symmetric positive-definite ``A`` by Cholesky.

    numpy factors ``A`` bordered by ``B`` (:func:`_bordered_cholesky`), and
    :func:`_back_substitute` solves ``L' X = L^-1 B``. A factorization that
    fails is retried once with ``trace(A)/n * 1e-10`` added to the diagonal of
    ``A``, with a warning, and the jittered factor is the one solved; a second
    failure raises ``RuntimeError``.
    """
    [X] = _solve_leading(A, B, [A.shape[0]])
    if isinstance(X, Exception):
        raise X
    return X


def _solve_leading(A: np.ndarray, B: np.ndarray, widths) -> list:
    """Per width w (ascending, the last ``n = A.shape[0]``), the solution of
    ``A[:w, :w] X = B[:w]``, or the ``RuntimeError`` of a width that failed.

    One factorization of ``A`` serves every width: each back-substitutes its
    leading block. When ``A`` does not factor, the leading blocks of a
    jittered factor would be systems jittered for ``A``'s sake, so each
    smaller width is solved on its own by :func:`_solve_spd`, jittered only if
    its own factorization fails, and ``A`` itself is retried with jitter as
    :func:`_solve_spd` describes.

    ``B`` is solved scaled by a power of two to a largest entry of at most
    one, and the solutions are scaled back: both scalings are exact wherever
    no entry leaves float64's normal range, so the solutions do not change,
    and targets of any finite scale keep the bordered factorization positive
    definite (see ``_BORDER``).
    """
    n = A.shape[0]
    exponent = np.frexp(np.abs(B).max(initial=0.0))[1]
    B = np.ldexp(B, -exponent)
    try:
        F = _bordered_cholesky(A, B)
    except np.linalg.LinAlgError:
        out = []
        for w in widths[:-1]:
            try:
                out.append(_solve_spd(A[:w, :w], B[:w]))
            except RuntimeError as exc:
                out.append(exc)
        jitter = 1e-10 * np.trace(A) / n
        logger.warning("ridge system of size %d is not numerically positive definite; "
                       "retrying with jitter %.3e on the diagonal", n, jitter)
        try:
            F = _bordered_cholesky(A + jitter * np.eye(n), B)
        except np.linalg.LinAlgError:
            out.append(RuntimeError(
                f"ridge system factorization failed even with jitter {jitter:.3e}; "
                f"condition estimate {np.linalg.cond(A):.3e}"))
        else:
            out.append(_back_substitute(F[:n, :n], F[n:, :n].T))
    else:
        # L[:w, :w]' x = z is L' [x; 0] = [z; 0], as L' is upper triangular:
        # one back substitution serves every width, each right side padded
        # with zeros.
        k = B.shape[1]
        Z = np.zeros((n, k * len(widths)))
        for i, w in enumerate(widths):
            Z[:w, i * k:(i + 1) * k] = F[n:, :w].T
        X = _back_substitute(F[:n, :n], Z)
        out = [X[:w, i * k:(i + 1) * k] for i, w in enumerate(widths)]
    return [x if isinstance(x, Exception) else np.ldexp(x, exponent) for x in out]


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


def nested_ridge_path(H, Y, widths, regularizations, mode: str = "auto") -> list:
    """Closed-form output weights of every column prefix ``H[:, :w]`` and every C.

    Entry ``[i][k]`` holds the weights for ``widths[i]`` and
    ``regularizations[k]``, or the exception fitting that design alone would
    raise: ``ValueError`` for a C that is not finite and > 0 or a prefix with
    a non-finite value, ``RuntimeError`` for a failed factorization. A bad
    shape or mode, or a non-finite target, raises for every entry.

    Widths in the primal form (no more columns than rows, unless ``mode``
    forces a form) share one Gram matrix ``H'H`` and ``H'Y`` at the largest
    of them, and each C adds ``I/C`` and factors it once: every width
    back-substitutes its leading block (:func:`_solve_leading`). A width in
    the dual form has no nested ``HH'``, so it forms its own ``HH'`` from the
    shared design and factors it per C. A leading block is rounded as part of
    the larger factorization, so its solution equals that of its own system
    within rounding; a single width is the same operation as a one-system
    solve.
    """
    H = np.asarray(H, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y.reshape(-1, 1)
    if H.ndim != 2 or Y.ndim != 2 or H.shape[0] != Y.shape[0]:
        raise ValueError(f"incompatible shapes H {H.shape}, Y {Y.shape}")
    if not np.all(np.isfinite(Y)):
        raise ValueError("design matrix and targets must be finite")
    if mode not in ("auto", "primal", "dual"):
        raise ValueError(f"mode must be auto, primal or dual, got {mode!r}")
    widths = [int(w) for w in widths]
    if not all(0 <= w <= H.shape[1] for w in widths):
        raise ValueError(f"widths {widths} do not fit a design of {H.shape[1]} columns")

    n_rows = H.shape[0]
    finite = np.logical_and.accumulate(np.isfinite(H).all(axis=0))
    deltas = []
    for regularization in regularizations:
        error = _positive_error("regularization", regularization)
        deltas.append(error if error is not None else 1.0 / regularization)
    valid = [k for k, delta in enumerate(deltas) if not isinstance(delta, Exception)]
    # Every entry starts as its C's error; valid C's are solved below.
    betas = {w: list(deltas) for w in widths}
    primal, dual = [], []
    for w in sorted(betas):
        if w and not finite[w - 1]:
            betas[w] = [ValueError("design matrix and targets must be finite")] * len(deltas)
        elif (w <= n_rows if mode == "auto" else mode == "primal"):
            primal.append(w)
        else:
            dual.append(w)
    if not valid:
        return [betas[w] for w in widths]

    if primal:
        top = primal[-1]
        gram, rhs = H[:, :top].T @ H[:, :top], H[:, :top].T @ Y
        for k in valid:
            try:
                solutions = _solve_leading(gram + deltas[k] * np.eye(top), rhs, primal)
            except RuntimeError as exc:
                solutions = [exc] * len(primal)
            for w, solution in zip(primal, solutions):
                betas[w][k] = solution
    for w in dual:
        Hw = H[:, :w]
        gram = Hw @ Hw.T
        for k in valid:
            try:
                betas[w][k] = Hw.T @ _solve_spd(gram + deltas[k] * np.eye(n_rows), Y)
            except RuntimeError as exc:
                betas[w][k] = exc
    return [betas[w] for w in widths]


def fit_output_weights(H, Y, regularization: float, mode: str = "auto") -> np.ndarray:
    """Closed-form output weights for the ridge objective.

    ``mode`` forces the primal or dual form for testing; ``"auto"`` follows the
    dimension rule (primal when columns <= rows).
    """
    H = np.asarray(H, dtype=np.float64)
    [[beta]] = nested_ridge_path(H, Y, [H.shape[1] if H.ndim == 2 else 0], [regularization],
                                 mode)
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
