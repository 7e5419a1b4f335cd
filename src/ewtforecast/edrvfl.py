"""Ensemble deep randomized functional-link network.

Enhancement layers are stacked: layer l maps the concatenation of the raw
input and layer l-1's enhancement features through its own frozen random
weights. Every layer also gets its own direct-linked output layer solved
independently, so the training cost is a sequence of small ridge systems (one
per layer, each no wider than raw-input + that layer's nodes + bias) instead
of one solve over all layers jointly. The per-layer forecasts are combined by
the median (default) or mean per sample.

A single-layer instance is, by construction, exactly the shallow network with
the same seed and settings.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ewtforecast.rvfl import (
    HiddenLayer,
    RvflConfig,
    _design,
    fit_output_weights,
    init_hidden_layer,
)
from ewtforecast.series import Scaler, _frozen, apply_scaler

ENSEMBLE_RULES = ("median", "mean")


def _per_layer(value, n_layers: int, what: str) -> tuple:
    if isinstance(value, (tuple, list)):
        if len(value) != n_layers:
            raise ValueError(f"{what} has {len(value)} entries for {n_layers} layers")
        return tuple(value)
    return (value,) * n_layers


@dataclass(frozen=True)
class EdRvflConfig:
    """Stacked-network settings; node counts and regularization may vary per layer."""

    n_layers: int
    n_enhancement: int | tuple = 50
    regularization: float | tuple = 1.0
    activation: str = "sigmoid"
    input_scale: float = 1.0
    ensemble_rule: str = "median"
    output_bias: bool = False
    layer_norm: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        nodes = _per_layer(self.n_enhancement, self.n_layers, "n_enhancement")
        regs = _per_layer(self.regularization, self.n_layers, "regularization")
        if any(l < 1 for l in nodes):
            raise ValueError("every layer needs at least one enhancement node")
        if any(c <= 0.0 for c in regs):
            raise ValueError("regularization must be > 0 in every layer")
        if self.ensemble_rule not in ENSEMBLE_RULES:
            raise ValueError(f"ensemble_rule must be one of {ENSEMBLE_RULES}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        object.__setattr__(self, "n_enhancement", nodes)
        object.__setattr__(self, "regularization", regs)
        # Delegate the shared-field validation (activation, input_scale).
        self.layer_config(0)

    def layer_config(self, layer_index: int) -> RvflConfig:
        """Shallow-network view of one layer (direct link is structural)."""
        return RvflConfig(
            n_enhancement=self.n_enhancement[layer_index],
            activation=self.activation,
            regularization=self.regularization[layer_index],
            input_scale=self.input_scale,
            direct_link=True,
            output_bias=self.output_bias,
            seed=_layer_seed(self.seed, layer_index),
        )


def _layer_seed(seed: int, layer_index: int) -> int:
    # Layer 0 must reuse the seed verbatim so a 1-layer stack reproduces the
    # shallow network bit for bit; deeper layers get derived streams.
    if layer_index == 0:
        return seed
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(layer_index,))
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class EdRvflLayer:
    """One trained layer: frozen hidden weights, its output solve, feed-forward stats."""

    hidden: HiddenLayer
    beta: np.ndarray
    norm_center: np.ndarray | None = None
    norm_scale: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "beta", _frozen(np.asarray(self.beta, dtype=np.float64)))


@dataclass(frozen=True)
class EdRvflModel:
    config: EdRvflConfig
    layers: tuple[EdRvflLayer, ...]
    n_features: int
    scaler: Scaler | None = None

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "n_features": self.n_features,
            "layers": [
                {
                    "weights": layer.hidden.weights.tolist(),
                    "biases": layer.hidden.biases.tolist(),
                    "beta": layer.beta.tolist(),
                    "norm_center": None if layer.norm_center is None else layer.norm_center.tolist(),
                    "norm_scale": None if layer.norm_scale is None else layer.norm_scale.tolist(),
                }
                for layer in self.layers
            ],
            "scaler": None if self.scaler is None else self.scaler.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EdRvflModel":
        cfg = EdRvflConfig(**payload["config"])
        layers = tuple(
            EdRvflLayer(
                HiddenLayer(np.asarray(entry["weights"], dtype=np.float64),
                            np.asarray(entry["biases"], dtype=np.float64),
                            cfg.activation),
                np.asarray(entry["beta"], dtype=np.float64),
                None if entry["norm_center"] is None else np.asarray(entry["norm_center"]),
                None if entry["norm_scale"] is None else np.asarray(entry["norm_scale"]),
            )
            for entry in payload["layers"]
        )
        scaler = payload.get("scaler")
        return cls(cfg, layers, int(payload["n_features"]), Scaler(**scaler) if scaler else None)


def _forward_features(A: np.ndarray, layer: EdRvflLayer) -> np.ndarray:
    if layer.norm_center is None:
        return A
    return (A - layer.norm_center) / layer.norm_scale


def fit_edrvfl(X, Y, cfg: EdRvflConfig, scaler: Scaler | None = None) -> EdRvflModel:
    """Train the stack: one forward pass, one independent ridge solve per layer."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("X must be a non-empty matrix")
    if scaler is not None:
        X = apply_scaler(scaler, X)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y.reshape(-1, 1)

    layers = []
    carried = None  # features handed to the next layer's random map
    d = X.shape[1]
    for l in range(cfg.n_layers):
        layer_cfg = cfg.layer_config(l)
        enh_input = X if carried is None else np.hstack([X, carried])
        hidden = init_hidden_layer(enh_input.shape[1], layer_cfg)
        H = _design(X, enh_input, hidden, cfg.output_bias)
        A = H[:, d:d + hidden.n_nodes]

        norm_center = norm_scale = None
        if cfg.layer_norm:
            norm_center = A.mean(axis=0)
            norm_scale = np.where(A.std(axis=0) == 0.0, 1.0, A.std(axis=0))

        try:
            beta = fit_output_weights(H, Y, layer_cfg.regularization)
        except RuntimeError as exc:
            raise RuntimeError(f"layer {l + 1} solve failed: {exc}") from exc

        layer = EdRvflLayer(hidden, beta, norm_center, norm_scale)
        layers.append(layer)
        carried = _forward_features(A, layer)
    return EdRvflModel(cfg, tuple(layers), d, scaler)


def _layer_designs(model: EdRvflModel, X: np.ndarray):
    """Yield each layer's output design matrix for the given raw-input rows."""
    carried = None
    d = X.shape[1]
    for layer in model.layers:
        enh_input = X if carried is None else np.hstack([X, carried])
        H = _design(X, enh_input, layer.hidden, model.config.output_bias)
        yield H
        carried = _forward_features(H[:, d:d + layer.hidden.n_nodes], layer)


def _prepare_input(model: EdRvflModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} feature columns, got shape {X.shape}")
    if model.scaler is not None:
        X = apply_scaler(model.scaler, X)
    return X


def layer_predictions(model: EdRvflModel, X) -> np.ndarray:
    """All per-layer forecasts, stacked as (n_layers, N, c)."""
    X = _prepare_input(model, X)
    return np.stack([design @ layer.beta
                     for design, layer in zip(_layer_designs(model, X), model.layers)])


def combine_predictions(stacked: np.ndarray, rule: str) -> np.ndarray:
    """Per-sample median or mean across the layer axis."""
    if rule == "median":
        return np.median(stacked, axis=0)
    if rule == "mean":
        return np.mean(stacked, axis=0)
    raise ValueError(f"ensemble rule must be one of {ENSEMBLE_RULES}, got {rule!r}")


def ensemble_predict(model: EdRvflModel, X) -> np.ndarray:
    """Ensembled forecast across all layers."""
    return combine_predictions(layer_predictions(model, X), model.config.ensemble_rule)
