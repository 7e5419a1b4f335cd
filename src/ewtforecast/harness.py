"""Experiment orchestration: hyper-parameter search, backtesting runs, persistence.

An experiment loads a series, splits it chronologically, builds features for
one of three pipelines (raw lags, walk-forward band decomposition, or the
deliberately leaky full-series decomposition), tunes hyper-parameters on the
validation span, refits on train+validation, and evaluates the test span.
Persistence and plain-ridge baselines are always evaluated alongside so
improvements stay interpretable. Test rows are assembled exactly once, after
tuning has finished.

Model search solves each ridge problem once: candidates that differ only in
regularization share one hidden layer, one pair of designs and one Gram matrix,
and the layer-wise search fits its fixed layers once and reuses their
activations and forecasts. Every score is bit for bit that of fitting the
candidate from scratch, and the winner's validation forecast comes from the
search, not from a refit.

Reports embed their fully-resolved configuration, so rerunning a report
reproduces its forecasts bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import logging
import math
import os
import secrets
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple, get_args, get_type_hints

import numpy as np
import scipy

from ewtforecast import edrvfl as edrvfl_mod
from ewtforecast import rvfl as rvfl_mod
from ewtforecast.ewt import EwtBoundaries
from ewtforecast.metrics import EvalSeries, compute_metrics
from ewtforecast.rvfl import ACTIVATIONS, RvflConfig, RvflModel
from ewtforecast.edrvfl import EdRvflConfig, EdRvflModel
from ewtforecast.series import (
    SCALER_KINDS,
    SplitSpec,
    TimeSeries,
    WindowedDataset,
    apply_scaler,
    embed,
    fit_scaler,
    load_csv,
    split_boundaries,
)
from ewtforecast.walkforward import (
    BOUNDARY_MODES,
    DEFAULT_WINDOW_FLOOR,
    MIN_WINDOW_MARGIN,
    WalkForwardConfig,
    build_walkforward_features,
    leaky_features,
)

logger = logging.getLogger(__name__)

SCHEMA_VERSION = "1"
FAMILIES = ("rvfl", "edrvfl", "baseline_persistence", "baseline_linear")
PIPELINES = ("raw_lags", "walkforward_ewt", "leaky_ewt")
METRIC_NAMES = ("mae", "mse", "rmse", "mape", "mase", "dstat")
MIN_RELATIVE_GAIN = 1e-6  # layer acceptance threshold for the layer-wise search
_DATA = "data_"  # prefix of the ExperimentConfig fields kept under "data" in JSON
# Config keys that are read and dropped, whatever their value. Every report
# written while the model search had a thread pool carries "jobs": 1; the key
# never changed a forecast, and dropping it keeps those reports rerunnable.
_IGNORED_KEYS = ("jobs",)


class ConfigError(ValueError):
    """Invalid experiment configuration (bad value, unknown key, missing file)."""


class ModelVersionError(RuntimeError):
    """Persisted model uses an unsupported schema version."""


class CorruptModelError(RuntimeError):
    """Persisted model file is unreadable or fails its checksum."""


class ModelParams(NamedTuple):
    n_enhancement: int
    regularization: float
    activation: str
    input_scale: float
    direct_link: bool
    output_bias: bool
    seed: int

    def as_dict(self) -> dict:
        return dict(self._asdict())


# Grid axes whose values must be one of these names.
_AXIS_NAMES = {"activation": tuple(ACTIVATIONS), "boundary_mode": BOUNDARY_MODES}


def _axis_values(name: str, values, kind: type) -> tuple:
    """``values`` as a tuple, once it is a non-empty list of ``kind`` values.

    bool is an int subclass but no count; a float axis also takes ints, but not
    the ``NaN`` and ``Infinity`` that JSON parsing lets through.
    """
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"grid axis {name!r} must be a list, got {values!r}")
    if not values:
        raise ConfigError(f"grid axis {name!r} must not be empty")
    kinds = (int, float) if kind is float else kind
    for value in values:
        if not isinstance(value, kinds) or (isinstance(value, bool) and kind is not bool):
            raise ConfigError(f"grid axis {name!r} takes {kind.__name__} values, got {value!r}")
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"grid axis {name!r} takes finite values, got {value!r}")
        if name in _AXIS_NAMES and value not in _AXIS_NAMES[name]:
            raise ConfigError(f"grid axis {name!r} takes one of {_AXIS_NAMES[name]}, "
                              f"got {value!r}")
    return tuple(values)


def _field_names(cls) -> list[str]:
    return [f.name for f in fields(cls)]


def _check_keys(section: str, raw, known) -> dict:
    """``raw`` itself, once it is known to be a JSON object with only ``known`` keys."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{section} must be a JSON object, got {raw!r}")
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
    return raw


@dataclass(frozen=True)
class GridSpace:
    """Candidate values for every tunable axis; single-valued axes pin a choice.

    Model axes (nodes, regularization, activation, scale, links, bias, seed)
    are searched by :func:`grid_search`; pipeline axes (lags, bands, gamma,
    boundary mode) select feature builds and are iterated by
    :func:`run_experiment` around it.
    """

    n_enhancement: tuple[int, ...] = (50,)
    regularization: tuple[float, ...] = (1.0,)
    activation: tuple[str, ...] = ("sigmoid",)
    input_scale: tuple[float, ...] = (1.0,)
    lags: tuple[int, ...] = (8,)
    n_bands: tuple[int, ...] = (3,)
    gamma: tuple[float, ...] = (0.1,)
    direct_link: tuple[bool, ...] = (True,)
    output_bias: tuple[bool, ...] = (False,)
    boundary_mode: tuple[str, ...] = ("adaptive_per_step",)
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        for name, hint in get_type_hints(type(self)).items():
            object.__setattr__(self, name,
                               _axis_values(name, getattr(self, name), get_args(hint)[0]))

    def size(self, pipeline: str, family: str) -> int:
        """Number of distinct (pipeline, model) candidates the search of ``family`` visits.

        ``baseline_linear`` fits ridge on raw lags only, over lags x regularization.
        """
        if family == "baseline_linear":
            return len(set(self.lags)) * len(set(self.regularization))
        return len(self.model_candidates(family)) * len(self.pipeline_candidates(pipeline))

    def model_candidates(self, family: str) -> list[ModelParams]:
        """Distinct model settings in sorted order.

        Direct links are structural in ``edrvfl``, so its candidates pin that
        axis to ``True``.
        """
        direct_link = (True,) if family == "edrvfl" else self.direct_link
        combos = itertools.product(
            sorted(set(self.n_enhancement)), sorted(set(self.regularization)),
            sorted(set(self.activation)), sorted(set(self.input_scale)),
            sorted(set(direct_link)), sorted(set(self.output_bias)),
            sorted(set(self.seeds)),
        )
        return [ModelParams(*c) for c in combos]

    def pipeline_candidates(self, pipeline: str) -> list[dict]:
        """Distinct feature-build settings in sorted order.

        The full-series decomposition of ``leaky_ewt`` has no boundary mode, so
        its candidates pin that axis to its first sorted value.
        """
        if pipeline == "raw_lags":
            return [{"lags": int(l)} for l in sorted(set(self.lags))]
        modes = sorted(set(self.boundary_mode))
        combos = itertools.product(
            sorted(set(self.lags)), sorted(set(self.n_bands)), sorted(set(self.gamma)),
            modes[:1] if pipeline == "leaky_ewt" else modes,
        )
        return [
            {"lags": int(l), "n_bands": int(k), "gamma": float(g), "boundary_mode": m}
            for l, k, g, m in combos
        ]

    @classmethod
    def from_dict(cls, raw: dict) -> "GridSpace":
        return cls(**_check_keys("grid", raw, _field_names(cls)))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; its JSON form nests the ``data_*`` fields under ``data``.

    The fields are the schema: :meth:`to_dict` and :meth:`from_dict` derive
    every key from them, and absent optional keys take the defaults below.
    """

    data_path: str
    split: SplitSpec
    family: str
    pipeline: str
    grid: GridSpace = field(default_factory=GridSpace)
    data_column: int | str = 0
    data_has_header: bool = False
    metrics: tuple = METRIC_NAMES
    output_dir: str = "runs"
    seed: int = 0
    horizon: int = 1
    max_layers: int = 3
    scaler: str = "none"
    window: int | str = "auto"
    refit_on_train_plus_validation: bool = True

    def __post_init__(self):
        object.__setattr__(self, "metrics", tuple(self.metrics))
        for name, kind in get_type_hints(type(self)).items():
            value = getattr(self, name)
            # bool is an int subclass, but true/false is no count and no seed.
            if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
                raise ConfigError(f"{name} must be {getattr(kind, '__name__', kind)}, "
                                  f"got {value!r}")
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.pipeline not in PIPELINES:
            raise ConfigError(f"pipeline must be one of {PIPELINES}, got {self.pipeline!r}")
        bad = set(self.metrics) - set(METRIC_NAMES)
        if bad:
            raise ConfigError(f"unknown metrics: {sorted(bad)}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.max_layers < 1:
            raise ConfigError("max_layers must be >= 1")
        if self.scaler not in SCALER_KINDS:
            raise ConfigError(f"unknown scaler {self.scaler!r}")
        if isinstance(self.window, str):
            if self.window not in ("auto", "all"):
                raise ConfigError(f"window must be an int, 'auto' or 'all', got {self.window!r}")
        elif self.window < 2:
            raise ConfigError("explicit window must be >= 2")

    def to_dict(self) -> dict:
        # The JSON round trip turns nested dataclasses into objects, tuples into lists.
        flat = json.loads(json.dumps(asdict(self)))
        data = {name[len(_DATA):]: flat.pop(name) for name in list(flat) if name.startswith(_DATA)}
        return {"data": data, **flat}

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        names = _field_names(cls)
        required = [f.name for f in fields(cls)
                    if f.default is MISSING and f.default_factory is MISSING]
        try:
            _check_keys("config", raw, ["data", *_IGNORED_KEYS]
                        + [n for n in names if not n.startswith(_DATA)])
            for name in required:
                key = "data" if name.startswith(_DATA) else name
                if key not in raw:
                    raise ConfigError(f"missing config key {key!r}")
            data = _check_keys("data", raw["data"],
                               [n[len(_DATA):] for n in names if n.startswith(_DATA)])
            kwargs = {k: v for k, v in raw.items() if k not in ("data", *_IGNORED_KEYS)}
            kwargs.update((_DATA + k, v) for k, v in data.items())
            for name in required:
                if name not in kwargs:
                    raise ConfigError(f"missing data.{name[len(_DATA):]}")
            kwargs["split"] = SplitSpec(**_check_keys("split", raw["split"],
                                                      _field_names(SplitSpec)))
            if "grid" in raw:
                kwargs["grid"] = GridSpace.from_dict(raw["grid"])
            return cls(**kwargs)
        except ConfigError:
            raise
        except (TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc


def load_experiment_config(path) -> ExperimentConfig:
    """Parse a config file; a report file is accepted via its embedded config."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if isinstance(raw, dict) and "schema_version" in raw and "config" in raw:
        raw = raw["config"]
    return ExperimentConfig.from_dict(raw)


@dataclass
class CandidateOutcome:
    params: dict
    val_rmse: float | None
    error: str | None = None


@dataclass
class GridSearchResult:
    best: ModelParams
    best_rmse: float
    leaderboard: list
    val_forecast: np.ndarray  # the winner's validation forecast


@dataclass
class LayerwiseResult:
    layer_nodes: tuple
    layer_regs: tuple
    shared: ModelParams
    best_rmse: float
    history: tuple
    leaderboard: list
    val_forecast: np.ndarray  # the winning ensemble's validation forecast


def _rmse(pred: np.ndarray, target: np.ndarray) -> float:
    """Validation RMSE; a non-finite forecast raises ``ValueError`` so that the
    searches record the candidate as failed instead of ranking a ``nan``."""
    pred = np.asarray(pred).ravel()
    target = np.asarray(target).ravel()
    n_bad = int(np.count_nonzero(~np.isfinite(pred)))
    if n_bad:
        raise ValueError(f"non-finite validation forecast ({n_bad} of {pred.size} values)")
    if target.size == 0:
        # Only reachable for single-candidate grids (no validation span).
        return 0.0
    return float(np.sqrt(np.mean((pred - target) ** 2)))


def _outcome(params: dict, forecast, target) -> CandidateOutcome:
    """Score a validation forecast, or record the exception raised in its place."""
    if isinstance(forecast, Exception):
        return CandidateOutcome(params, None, str(forecast))
    try:
        return CandidateOutcome(params, _rmse(forecast, target))
    except ValueError as exc:
        return CandidateOutcome(params, None, str(exc))


def _rvfl_config(p: ModelParams, base_seed: int) -> RvflConfig:
    return RvflConfig(
        n_enhancement=p.n_enhancement, activation=p.activation,
        regularization=p.regularization, input_scale=p.input_scale,
        direct_link=p.direct_link, output_bias=p.output_bias,
        seed=base_seed + p.seed,
    )


def _edrvfl_config(nodes: tuple, regs: tuple, p: ModelParams, base_seed: int) -> EdRvflConfig:
    return EdRvflConfig(
        n_layers=len(nodes), n_enhancement=tuple(nodes), regularization=tuple(regs),
        activation=p.activation, input_scale=p.input_scale, output_bias=p.output_bias,
        seed=base_seed + p.seed,
    )


def _groups(candidates, key) -> list[list[int]]:
    """Indices of ``candidates`` grouped by ``key``, groups in order of first appearance."""
    groups: dict = {}
    for i, candidate in enumerate(candidates):
        groups.setdefault(key(candidate), []).append(i)
    return list(groups.values())


def _without_regularization(p: ModelParams) -> ModelParams:
    return p._replace(regularization=None)


def _group_forecasts(keys, make_config, fit) -> dict:
    """Per key, its candidate's validation forecast or the exception it raised.

    ``make_config(key)`` validates one candidate's settings, so an invalid value
    fails its candidate alone; ``fit(configs)`` fits the valid candidates of the
    group together and returns their forecasts (or exceptions) in order. An
    exception ``fit`` raises is every valid candidate's failure.
    """
    configs, forecasts = {}, {}
    for key in keys:
        try:
            configs[key] = make_config(key)
        except ValueError as exc:
            forecasts[key] = exc
    if configs:
        try:
            path = fit(list(configs.values()))
        except (ValueError, RuntimeError) as exc:
            path = [exc] * len(configs)
        forecasts.update(zip(configs, path))
    return forecasts


def _fit_group(configs: list[RvflConfig], train: WindowedDataset, val: WindowedDataset,
               enh=None, enh_val=None):
    """Validation forecasts of networks that differ only in regularization.

    ``enh``/``enh_val`` feed the hidden layer (default: the rows' ``X``, which
    always feeds the direct links). One hidden layer is drawn, the train and
    validation designs are built once, and one Gram matrix serves every C
    (:func:`rvfl.ridge_path`). Returns both designs and, per config, the
    forecast or the exception its solve raised.
    """
    if train.n_samples < 1:
        raise ValueError("X must be a non-empty matrix")
    enh = train.X if enh is None else enh
    enh_val = val.X if enh_val is None else enh_val
    cfg = configs[0]
    hidden = rvfl_mod.init_hidden_layer(enh.shape[1], cfg)
    H = rvfl_mod._design(train.X if cfg.direct_link else None, enh, hidden, cfg.output_bias)
    betas = rvfl_mod.ridge_path(H, train.Y, [c.regularization for c in configs])
    H_val = rvfl_mod._design(val.X if cfg.direct_link else None, enh_val, hidden,
                             cfg.output_bias)
    return H, H_val, [b if isinstance(b, Exception) else H_val @ b for b in betas]


def grid_search(space: GridSpace, train: WindowedDataset, val: WindowedDataset,
                base_seed: int = 0) -> GridSearchResult:
    """Exhaustive search of the model axes, scored by validation RMSE.

    Every combination is evaluated; failures, including a non-finite
    validation forecast, are recorded on the leaderboard and skipped. Ties
    break on the lexicographic order of the candidate tuple, so permuting the
    axis lists cannot change the winner.

    Candidates that differ only in ``regularization`` form a group: it draws
    one hidden layer, builds one train and one validation design and forms one
    Gram matrix, and each C only adds its ridge and factors. Every score is, bit
    for bit, that of ``rvfl.fit`` and ``rvfl.predict`` with the candidate's
    settings.
    """
    candidates = space.model_candidates("rvfl")
    logger.info("grid search over %d model candidates", len(candidates))
    forecasts = {}
    for group in _groups(candidates, _without_regularization):
        forecasts.update(_group_forecasts(group, lambda i: _rvfl_config(candidates[i], base_seed),
                                          lambda configs: _fit_group(configs, train, val)[2]))
    outcomes = [_outcome(p.as_dict(), forecasts[i], val.Y) for i, p in enumerate(candidates)]
    best, best_rmse = _pick_winner(candidates, outcomes)
    return GridSearchResult(best, best_rmse, outcomes, forecasts[candidates.index(best)])


def _no_winner(outcomes) -> RuntimeError:
    return RuntimeError(f"every grid candidate failed; the first: {outcomes[0].error}")


def _pick_winner(candidates, outcomes):
    scored = [(o.val_rmse, tuple(c)) for c, o in zip(candidates, outcomes) if o.val_rmse is not None]
    if not scored:
        raise _no_winner(outcomes)
    best_rmse, best_tuple = min(scored)
    return type(candidates[0])(*best_tuple), best_rmse


@dataclass(frozen=True)
class _Prefix:
    """The fixed layers of the layer-wise search, as far as the next layer needs them."""

    train_in: np.ndarray  # the next layer's enhancement input [X | A], train rows
    val_in: np.ndarray    # the same for the validation rows
    forecasts: tuple = ()  # each fixed layer's validation forecast

    def extend(self, n_features: int, n_nodes: int, H, H_val, forecast) -> "_Prefix":
        """The prefix with one more layer, from that layer's designs ``[X | A | 1?]``."""
        width = n_features + n_nodes
        return _Prefix(np.ascontiguousarray(H[:, :width]), np.ascontiguousarray(H_val[:, :width]),
                       self.forecasts + (forecast,))


def layerwise_grid_search(space: GridSpace, train: WindowedDataset, val: WindowedDataset,
                          max_layers: int, base_seed: int = 0) -> LayerwiseResult:
    """Greedy deep-network tuning: fix each layer's size/regularization in turn.

    Candidates are ranked by the validation RMSE of their median ensemble.
    Stage one searches the full model grid for a one-layer network. Each later
    stage searches nodes x regularization for the new layer while all earlier
    layers stay fixed, and the layer is kept only when validation RMSE improves
    by at least a relative ``1e-6``; otherwise the search stops early. Direct
    links are structural in this architecture, so that axis is ignored.

    The fixed layers are fitted once: the search keeps the accepted layers'
    activations and validation forecasts, and a candidate fits only its new
    layer and combines its forecast with theirs. Candidates of a stage that
    differ only in the new layer's ``regularization`` share its hidden layer,
    designs and Gram matrix. Every score is, bit for bit, that of
    ``fit_edrvfl`` and ``ensemble_predict`` on the candidate's whole stack.
    Only the running winner's designs are kept.
    """
    if max_layers < 1:
        raise ValueError("max_layers must be >= 1")
    leaderboard = []

    def run_stage(prefix: _Prefix, stage: list):
        """Leaderboard entries of one stage, and its winner with its designs (None if none)."""
        outcomes = [None] * len(stage)
        best = None
        for group in _groups(stage, lambda s: (s[0], _without_regularization(s[2]))):
            designs = [None, None]

            def fit(configs: list[EdRvflConfig]) -> list:
                """Fit the group's new layer; its forecast (or failure) per config."""
                layer = configs[0].n_layers
                H, H_val, path = _fit_group([c.layer_config(layer - 1) for c in configs],
                                            train, val, prefix.train_in, prefix.val_in)
                designs[:] = H, H_val
                return [RuntimeError(f"layer {layer} solve failed: {f}")
                        if isinstance(f, RuntimeError) else f for f in path]

            forecasts = _group_forecasts(
                group, lambda k: _edrvfl_config(*stage[k], base_seed), fit)
            for k in group:
                nodes, regs, shared = stage[k]
                layer_forecast = ensemble = forecasts[k]
                if not isinstance(layer_forecast, Exception):
                    ensemble = edrvfl_mod.combine_predictions(
                        np.stack(prefix.forecasts + (layer_forecast,)), "median")
                params = {"layer_nodes": list(nodes), "layer_regs": list(regs),
                          **shared.as_dict()}
                outcomes[k] = outcome = _outcome(params, ensemble, val.Y)
                key = (outcome.val_rmse, nodes, regs, tuple(shared))
                if outcome.val_rmse is not None and (best is None or key < best[0]):
                    best = (key, shared, layer_forecast, ensemble, *designs)
        leaderboard.extend(outcomes)
        return outcomes, best

    stage1 = [((p.n_enhancement,), (p.regularization,), p)
              for p in space.model_candidates("edrvfl")]
    prefix = _Prefix(train.X, val.X)
    outcomes, best = run_stage(prefix, stage1)
    if best is None:
        raise _no_winner(outcomes)
    (best_rmse, nodes, regs, _), shared, *_ = best
    history = [best_rmse]

    pairs = sorted(set(itertools.product(space.n_enhancement, space.regularization)))
    for _ in range(2, max_layers + 1):
        _, _, layer_forecast, _, H, H_val = best
        prefix = prefix.extend(train.n_features, nodes[-1], H, H_val, layer_forecast)
        stage = [(nodes + (l,), regs + (c,), shared) for l, c in pairs]
        _, stage_best = run_stage(prefix, stage)
        if stage_best is None:
            break
        (rmse_l, nodes_l, regs_l, _), *_ = stage_best
        if rmse_l > best_rmse * (1.0 - MIN_RELATIVE_GAIN):
            break
        nodes, regs, best_rmse, best = nodes_l, regs_l, rmse_l, stage_best
        history.append(best_rmse)
    return LayerwiseResult(nodes, regs, shared, best_rmse, tuple(history), leaderboard, best[3])


def extract_test_rows(dataset: WindowedDataset, indices: np.ndarray) -> WindowedDataset:
    """The single gate through which test rows leave a feature build."""
    return dataset.take(indices)


class _PipelineBuild:
    """Feature datasets for one pipeline candidate.

    Tuning rows (targets before the test span) are built eagerly; test rows
    are assembled only on request, so nothing downstream can touch them before
    tuning is over.
    """

    def __init__(self, ts: TimeSeries, pipeline: str, params: dict, horizon: int,
                 window_policy, i_train: int, i_val: int):
        self.ts = ts
        self.pipeline = pipeline
        self.params = params
        self.horizon = horizon
        n = len(ts)
        h = horizon
        lags = params["lags"]

        if pipeline == "raw_lags":
            self.wf_cfg = None
            self.start = lags - 1
        else:
            window = self._resolve_window(window_policy, lags, i_train, h)
            self.wf_cfg = WalkForwardConfig(
                n_bands=params["n_bands"], lags=lags, horizon=h, window=window,
                gamma=params["gamma"], boundary_mode=params["boundary_mode"],
            )
            self.start = (lags + MIN_WINDOW_MARGIN - 1) if window == "all" else window - 1
        self.tune_stop = i_val - h
        self.test_stop = n - h
        if self.tune_stop <= self.start:
            raise ValueError(
                f"no tuning rows: first origin {self.start} reaches past the validation span"
            )
        self.tune = self._build(self.start, self.tune_stop)
        targets = self.tune.origin_indices + h
        self.train_mask = targets < i_train
        self.val_mask = targets >= i_train
        if not self.train_mask.any():
            raise ValueError("no training rows inside the training span")
        self.frozen = None
        if self.tune.meta and self.tune.meta.get("frozen_boundaries") is not None:
            self.frozen = EwtBoundaries(np.asarray(self.tune.meta["frozen_boundaries"]),
                                        uniform_fallback=bool(self.tune.meta["fallback_count"]))

    @staticmethod
    def _resolve_window(policy, lags: int, i_train: int, horizon: int):
        if policy == "all":
            return "all"
        nominal = max(4 * lags, DEFAULT_WINDOW_FLOOR) if policy == "auto" else int(policy)
        if policy == "auto":
            nominal = min(nominal, i_train - horizon)  # keep at least one training row
        if nominal < lags + MIN_WINDOW_MARGIN:
            raise ValueError(f"window {nominal} too small for lags {lags}")
        return nominal

    def _build(self, start: int, stop: int, frozen: EwtBoundaries | None = None) -> WindowedDataset:
        if self.pipeline == "raw_lags":
            full = embed(self.ts, self.params["lags"], self.horizon)
            keep = (full.origin_indices >= start) & (full.origin_indices < stop)
            return full.take(np.flatnonzero(keep))
        if self.pipeline == "walkforward_ewt":
            return build_walkforward_features(self.ts, self.wf_cfg, start, stop,
                                              frozen_boundaries=frozen)
        return leaky_features(self.ts, self.wf_cfg, start, stop)

    def train_rows(self) -> WindowedDataset:
        return self.tune.take(np.flatnonzero(self.train_mask))

    def val_rows(self) -> WindowedDataset:
        return self.tune.take(np.flatnonzero(self.val_mask))

    def refit_rows(self, include_validation: bool) -> WindowedDataset:
        return self.tune if include_validation else self.train_rows()

    def test_rows(self) -> WindowedDataset:
        test = self._build(self.tune_stop, self.test_stop, self.frozen)
        return extract_test_rows(test, np.arange(test.n_samples))

    @staticmethod
    def decomposition_counters(*datasets) -> dict:
        """Fallback and clipped-gamma counts summed over EWT feature builds, and
        the largest imaginary residue any of them discarded."""
        metas = [d.meta for d in datasets if d.meta and "fallback_count" in d.meta]
        return {
            "fallback_count": sum(int(m["fallback_count"]) for m in metas),
            "gamma_clipped_count": sum(int(m["gamma_clipped_count"]) for m in metas),
            "max_imag_residue": max((float(m["max_imag_residue"]) for m in metas), default=0.0),
        }


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    chosen: dict
    validation_metrics: dict | None
    test_metrics: dict
    origins: list
    actuals: list
    forecasts: dict
    leaderboard: list
    meta: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "chosen": self.chosen,
            "validation_metrics": self.validation_metrics,
            "test_metrics": self.test_metrics,
            "forecasts": {"origins": self.origins, "actuals": self.actuals,
                          "models": self.forecasts},
            "leaderboard": self.leaderboard,
            "meta": self.meta,
        }


def _scale_pair(kind: str, train: WindowedDataset, val: WindowedDataset):
    if kind == "none":
        return None, train, val
    scaler = fit_scaler(train.X, kind)
    return (scaler, replace(train, X=apply_scaler(scaler, train.X)),
            replace(val, X=apply_scaler(scaler, val.X)))


def _filter_metrics(metric_set, selection) -> dict:
    raw = metric_set.to_dict()
    out = {}
    for name in METRIC_NAMES:
        if name in selection:
            out["mape_pct" if name == "mape" else name] = (
                None if raw[name] is None
                else raw[name] * 100.0 if name == "mape"
                else raw[name]
            )
    return out


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """End-to-end run: load, split, tune, refit, evaluate, assemble the report."""
    started = time.perf_counter()
    try:
        ts = load_csv(cfg.data_path, cfg.data_column, cfg.data_has_header)
    except (FileNotFoundError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    n = len(ts)
    i_train, i_val = split_boundaries(n, cfg.split)
    n_val = i_val - i_train
    if i_train < 1 or n - i_val < 1:
        raise ConfigError(f"split leaves an empty train or test segment for n={n}")
    h = cfg.horizon
    if i_val - h < 0:
        raise ConfigError("horizon reaches past the start of the test span")

    needs_tuning = cfg.family in ("rvfl", "edrvfl", "baseline_linear")
    grid_size = cfg.grid.size(cfg.pipeline, cfg.family) if needs_tuning else 0
    if needs_tuning and grid_size > 1 and n_val < 1:
        raise ConfigError("tuning over more than one candidate requires a validation segment")
    logger.info("experiment %s/%s: grid size %d", cfg.family, cfg.pipeline, grid_size)

    leaderboard: list[dict] = []
    best = None  # (rmse, pipeline params, build, model info, validation forecast)

    if cfg.family in ("rvfl", "edrvfl"):
        best = _tune_family(cfg, ts, i_train, i_val, leaderboard)
    counters = _PipelineBuild.decomposition_counters()

    # Test-span scaffolding shared by every model.
    test_origins = np.arange(i_val - h, n - h, dtype=np.int64)
    test_actuals = ts.values[test_origins + h]
    previous = ts.values[test_origins + h - 1]
    refit_span = i_val if cfg.refit_on_train_plus_validation else i_train
    train_series = ts.values[:refit_span]

    forecasts: dict[str, np.ndarray] = {}
    chosen: dict = {"family": cfg.family}
    validation_metrics = None

    if cfg.family in ("rvfl", "edrvfl"):
        rmse_val, pipe_params, build, model_info, val_pred = best
        chosen.update({"pipeline_params": pipe_params, **model_info,
                       "validation_rmse": rmse_val})
        final_model = _refit_chosen(cfg, build, model_info)
        val_rows = build.val_rows()
        if val_rows.n_samples:
            ev = EvalSeries(val_rows.Y.ravel(), val_pred.ravel(),
                            ts.values[val_rows.origin_indices + h - 1], ts.values[:i_train])
            validation_metrics = _filter_metrics(compute_metrics(ev), cfg.metrics)
        test_ds = build.test_rows()
        if not np.array_equal(test_ds.origin_indices, test_origins):
            raise RuntimeError("test rows do not cover the expected origins")
        if cfg.family == "rvfl":
            pred = rvfl_mod.predict(final_model, test_ds.X)
        else:
            pred = edrvfl_mod.ensemble_predict(final_model, test_ds.X)
        forecasts[cfg.family] = pred.ravel()
        chosen_name = cfg.family
        counters = build.decomposition_counters(build.tune, test_ds)
        lags_for_baseline = pipe_params["lags"]
    elif cfg.family == "baseline_persistence":
        chosen_name = "persistence"
        lags_for_baseline = min(cfg.grid.lags)
    else:
        chosen_name = "linear"
        lags_for_baseline = None  # tuned below

    # Baselines are always evaluated on the same test origins.
    forecasts["persistence"] = ts.values[test_origins].copy()
    linear_forecast, linear_info = _linear_baseline(
        cfg, ts, i_train, i_val, lags_for_baseline, leaderboard if cfg.family == "baseline_linear" else [],
    )
    forecasts["linear"] = linear_forecast
    if cfg.family == "baseline_linear":
        chosen.update(linear_info)
        chosen["validation_rmse"] = linear_info.get("validation_rmse")
    n_bad = int(np.count_nonzero(~np.isfinite(forecasts[chosen_name])))
    if n_bad:
        raise RuntimeError(f"the refit {cfg.family} model forecast {n_bad} non-finite "
                           f"values on the test span")

    test_metrics = {}
    for name in sorted(forecasts):
        ev = EvalSeries(test_actuals, forecasts[name], previous, train_series)
        test_metrics[name] = _filter_metrics(compute_metrics(ev), cfg.metrics)

    report = ExperimentReport(
        config=cfg,
        chosen={**chosen, "name": chosen_name},
        validation_metrics=validation_metrics,
        test_metrics=test_metrics,
        origins=[int(t) for t in test_origins],
        actuals=[float(v) for v in test_actuals],
        forecasts={name: [float(v) for v in vals] for name, vals in sorted(forecasts.items())},
        leaderboard=leaderboard,
        meta={
            "schema_version": SCHEMA_VERSION,
            "series_name": ts.name,
            "series_length": n,
            "split_indices": {"train_end": i_train, "validation_end": i_val},
            "grid_size": grid_size,
            **counters,
            **_numeric_stack(),
            "base_seed": cfg.seed,
            "wall_time_s": round(time.perf_counter() - started, 6),
        },
    )
    return report


def _numeric_stack() -> dict:
    """numpy and scipy versions and numpy's BLAS library, which together fix the
    rounding of the forecasts; ``numpy_blas`` is None where numpy does not say."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        numpy_blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        numpy_blas = None
    return {"numpy_version": np.__version__, "scipy_version": scipy.__version__,
            "numpy_blas": numpy_blas}


def _tune_family(cfg: ExperimentConfig, ts: TimeSeries, i_train: int, i_val: int,
                 leaderboard: list):
    """Search pipeline x model candidates; return the winning build, params and
    the winner's validation forecast."""
    best = None
    for pipe_params in cfg.grid.pipeline_candidates(cfg.pipeline):
        try:
            build = _PipelineBuild(ts, cfg.pipeline, pipe_params, cfg.horizon,
                                   cfg.window, i_train, i_val)
        except ValueError as exc:
            leaderboard.append({"pipeline": pipe_params, "params": None,
                                "val_rmse": None, "error": f"feature build failed: {exc}"})
            continue
        train_rows, val_rows = build.train_rows(), build.val_rows()
        scaler, scaled_train, scaled_val = _scale_pair(cfg.scaler, train_rows, val_rows)
        if cfg.family == "rvfl":
            result = grid_search(cfg.grid, scaled_train, scaled_val, base_seed=cfg.seed)
            model_info = {"model_params": result.best.as_dict()}
            key = (result.best_rmse, tuple(sorted(pipe_params.items())), tuple(result.best))
        else:
            result = layerwise_grid_search(cfg.grid, scaled_train, scaled_val, cfg.max_layers,
                                           base_seed=cfg.seed)
            model_info = {
                "model_params": result.shared.as_dict(),
                "layer_nodes": list(result.layer_nodes),
                "layer_regs": list(result.layer_regs),
                "layerwise_history": list(result.history),
            }
            key = (result.best_rmse, tuple(sorted(pipe_params.items())),
                   tuple(result.layer_nodes), tuple(result.layer_regs), tuple(result.shared))
        for outcome in result.leaderboard:
            leaderboard.append({"pipeline": pipe_params, **outcome.__dict__})
        if best is None or key < best[0]:
            best = (key, pipe_params, build, model_info, result.val_forecast)
    if best is None:
        # Only feature builds fail here: a search whose every candidate fails raises.
        raise RuntimeError(f"every pipeline candidate failed; the first: {leaderboard[0]['error']}")
    key, pipe_params, build, model_info, val_forecast = best
    return key[0], pipe_params, build, model_info, val_forecast


def _refit_chosen(cfg: ExperimentConfig, build: _PipelineBuild, model_info: dict):
    """Refit the winner on train(+validation) rows."""
    refit_rows = build.refit_rows(cfg.refit_on_train_plus_validation)
    scaler = None if cfg.scaler == "none" else fit_scaler(refit_rows.X, cfg.scaler)
    params = ModelParams(**model_info["model_params"])
    if cfg.family == "rvfl":
        return rvfl_mod.fit(refit_rows.X, refit_rows.Y, _rvfl_config(params, cfg.seed), scaler)

    ed_cfg = _edrvfl_config(model_info["layer_nodes"], model_info["layer_regs"], params, cfg.seed)
    return edrvfl_mod.fit_edrvfl(refit_rows.X, refit_rows.Y, ed_cfg, scaler)


def _linear_baseline(cfg: ExperimentConfig, ts: TimeSeries, i_train: int, i_val: int,
                     lags: int | None, leaderboard: list):
    """Ridge on raw lags: persistence's honest competitor.

    The lag budget follows the chosen model when one exists; regularization is
    tuned on the validation span. Features stay unscaled by definition.
    """
    lag_candidates = [lags] if lags is not None else sorted(set(cfg.grid.lags))
    reg_candidates = sorted(set(cfg.grid.regularization))
    best = None
    for lag in lag_candidates:
        try:
            build = _PipelineBuild(ts, "raw_lags", {"lags": lag}, cfg.horizon, cfg.window,
                                   i_train, i_val)
        except ValueError:
            continue
        # One Gram matrix per lag serves every regularization value.
        train_rows, val_rows = build.train_rows(), build.val_rows()
        forecasts = _group_forecasts(reg_candidates, _ridge_config,
                                     lambda configs: _fit_group(configs, train_rows, val_rows)[2])
        for reg in reg_candidates:
            outcome = _outcome({"lags": lag, "regularization": reg}, forecasts[reg],
                               val_rows.Y)
            leaderboard.append({"pipeline": None, **outcome.__dict__})
            key = (outcome.val_rmse, lag, reg)
            if outcome.val_rmse is not None and (best is None or key < best[0]):
                best = (key, build)
    if best is None:
        raise RuntimeError("linear baseline could not be fit on any lag candidate")
    (rmse, lag, reg), build = best
    refit_rows = build.refit_rows(cfg.refit_on_train_plus_validation)
    model = rvfl_mod.fit(refit_rows.X, refit_rows.Y, _ridge_config(reg))
    pred = rvfl_mod.predict(model, build.test_rows().X).ravel()
    info = {"model_params": {"lags": lag, "regularization": reg}, "validation_rmse": rmse}
    return pred, info


def _ridge_config(regularization: float) -> RvflConfig:
    """Plain ridge on the raw lags: direct links only, no bias."""
    return RvflConfig(n_enhancement=0, regularization=regularization, direct_link=True,
                      output_bias=False, seed=0)


def _write_atomically(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` in one step: a failed write leaves it as it was."""
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_text(rows) -> str:
    """``rows`` as CSV text, one ``\n``-terminated line each; a cell holding a
    comma or a quote is quoted."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def save_model(model, path) -> None:
    """Persist a trained model as one JSON document with a payload checksum."""
    if isinstance(model, RvflModel):
        kind = "rvfl"
    elif isinstance(model, EdRvflModel):
        kind = "edrvfl"
    else:
        raise TypeError(f"cannot persist object of type {type(model).__name__}")
    payload = {"kind": kind, **model.to_dict()}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "checksum": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "payload": payload,
    }
    _write_atomically(Path(path), json.dumps(envelope, sort_keys=True))


def load_model(path):
    """Inverse of :func:`save_model`; checksum and version are verified first."""
    try:
        envelope = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptModelError(f"model file {path} failed checksum verification: "
                                f"unparseable content ({exc})") from exc
    if not isinstance(envelope, dict) or "payload" not in envelope:
        raise CorruptModelError(f"model file {path} has no payload")
    version = envelope.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ModelVersionError(f"model schema {version!r} unsupported, expected {SCHEMA_VERSION!r}")
    canonical = json.dumps(envelope["payload"], sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    if digest != envelope.get("checksum"):
        raise CorruptModelError(f"model file {path} failed checksum verification")
    payload = envelope["payload"]
    kind = payload.pop("kind", None)
    if kind == "rvfl":
        return RvflModel.from_dict(payload)
    if kind == "edrvfl":
        return EdRvflModel.from_dict(payload)
    raise CorruptModelError(f"model file {path} has unknown kind {kind!r}")


def write_report(report: ExperimentReport, out_dir) -> dict:
    """Emit report.json plus flat metrics.csv and forecasts.csv (plot-ready)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "report": out / "report.json",
        "metrics": out / "metrics.csv",
        "forecasts": out / "forecasts.csv",
    }
    _write_atomically(paths["report"], json.dumps(report.to_dict(), indent=2, sort_keys=True))

    selected = [m for m in METRIC_NAMES if m in report.config.metrics]
    columns = ["mape_pct" if m == "mape" else m for m in selected]
    metrics = [["model", "series", "horizon", "n_test", *columns]]
    for model in sorted(report.test_metrics):
        vals = report.test_metrics[model]
        cells = ["" if vals[c] is None else repr(vals[c]) for c in columns]
        metrics.append([model, report.meta["series_name"], report.config.horizon,
                        len(report.origins), *cells])
    _write_atomically(paths["metrics"], _csv_text(metrics))

    rows = [["model", "origin", "actual", "forecast"]]
    for model in sorted(report.forecasts):
        for origin, actual, pred in zip(report.origins, report.actuals, report.forecasts[model]):
            rows.append([model, origin, repr(actual), repr(pred)])
    _write_atomically(paths["forecasts"], _csv_text(rows))
    return paths
