"""Experiment orchestration: hyper-parameter search, backtesting runs, persistence.

An experiment loads a series, splits it chronologically, builds features for
one of three pipelines (raw lags, walk-forward band decomposition, or the
deliberately leaky full-series decomposition), tunes hyper-parameters on the
validation span, refits on train+validation, and evaluates the test span.
Persistence and linear baselines are always evaluated alongside so improvements
stay interpretable. The linear baseline, ridge on the raw lags, is the RVFL
search with no enhancement nodes, run by the same candidate loop. Every search,
the baseline's included, ends before any test row is assembled, and none ranks
more than one candidate without validation rows (:func:`_tune_family` raises
before its first build). A candidate's settings are named once, by the fields
of :class:`ModelParams`, which :class:`~ewtforecast.rvfl.RvflConfig` shares.

Model search solves each group of ridge problems once (:func:`_fit_group`):
candidates that differ only in node count and regularization share one hidden
layer (a smaller layer is the first nodes of the largest), one pair of
designs, one Gram matrix and one factorization per C. One rule picks every
winner (:func:`_winner`). The layer-wise search is one loop over the layers:
each stage fits only its new layer, on views of the accepted layers'
activations, and combines its forecasts with theirs. Every score equals that
of fitting the candidate from scratch to within rounding
(:data:`SEARCH_RTOL`), and the winner's validation forecast comes from the
search, not from a refit. The winner is refitted and forecasts the test rows
in one place (:func:`_test_forecast`).
Walk-forward candidates that share lags and boundary mode (a family) come one
after another and get their tuning rows from one pass over the origins, bit
for bit the rows each would build alone.

Reports embed their fully-resolved configuration, so rerunning a report of
this schema version reproduces its forecasts bit for bit; a report of another
version is a configuration error, as its forecasts came from another draw.
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
from functools import cache
from pathlib import Path
from typing import NamedTuple, get_args, get_type_hints

import numpy as np

from ewtforecast import edrvfl as edrvfl_mod
from ewtforecast import rvfl as rvfl_mod
from ewtforecast.metrics import EvalSeries, MetricSet, compute_metrics
from ewtforecast.rvfl import ACTIVATIONS, RvflConfig, RvflModel
from ewtforecast.edrvfl import EdRvflConfig, EdRvflModel
from ewtforecast.series import (
    SCALER_KINDS,
    SplitSpec,
    TimeSeries,
    WindowedDataset,
    _embed_range,
    apply_scaler,
    fit_scaler,
    load_csv,
    split_boundaries,
)
from ewtforecast.walkforward import (
    BOUNDARY_MODES,
    FROZEN_FROM_TRAIN,
    WalkForwardConfig,
    _build_family,
    build_walkforward_features,
    freeze_boundaries,
    leaky_features,
)

logger = logging.getLogger(__name__)

# Version 2 reports come from hidden layers whose nodes are drawn one
# (weights, bias) row at a time; version 1 reports drew all weights first, so
# they do not rerun to their forecasts. Version 3 builds adaptive walk-forward
# band tails as differences of per-edge low-pass tails, which moved adaptive
# forecasts at rounding level, so version 2 reports do not rerun to theirs
# either. Model files store the drawn weights, so neither change moves them.
REPORT_SCHEMA_VERSION = "3"
MODEL_SCHEMA_VERSION = "1"
FAMILIES = ("rvfl", "edrvfl", "baseline_persistence", "baseline_linear")
PIPELINES = ("raw_lags", "walkforward_ewt", "leaky_ewt")
METRIC_NAMES = tuple(f.name for f in fields(MetricSet))
MIN_RELATIVE_GAIN = 1e-6  # layer acceptance threshold for the layer-wise search
# Relative distance within which a search score or validation forecast equals
# that of fitting its candidate alone: a nested solve rounds a smaller
# network's factor as part of the largest one.
SEARCH_RTOL = 1e-9
_DATA = "data_"  # prefix of the ExperimentConfig fields kept under "data" in JSON
# Config keys that are read and dropped, whatever their value. Configs written
# while the model search had a thread pool may carry "jobs"; the key never
# changed a forecast.
_IGNORED_KEYS = ("jobs",)
_type_hints = cache(get_type_hints)  # a config class's hints never change


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
        for name, hint in _type_hints(type(self)).items():
            object.__setattr__(self, name,
                               _axis_values(name, getattr(self, name), get_args(hint)[0]))

    def size(self, pipeline: str, family: str) -> int:
        """Number of distinct (pipeline, model) candidates the search of ``family``
        (``rvfl`` or ``edrvfl``) visits.

        The linear baseline is counted as what it is, the ``rvfl`` search of
        its own grid (:func:`_ridge_search`).
        """
        return len(self.model_candidates(family)) * len(self.pipeline_candidates(pipeline))

    def model_candidates(self, family: str) -> list[ModelParams]:
        """Distinct model settings in sorted order, axes in field order.

        The ``seed`` field reads the ``seeds`` axis. Direct links are structural
        in ``edrvfl``, so its candidates pin that axis to ``True``.
        """
        axes = [getattr(self, "seeds" if name == "seed" else name) for name in ModelParams._fields]
        if family == "edrvfl":
            axes[ModelParams._fields.index("direct_link")] = (True,)
        return [ModelParams(*c) for c in itertools.product(*(sorted(set(a)) for a in axes))]

    def pipeline_candidates(self, pipeline: str) -> list[dict]:
        """Distinct feature-build settings, sorted by lags, boundary mode, band
        count and gamma, so that the candidates of one walk-forward family
        (one ``lags`` and boundary mode) come one after another.

        The full-series decomposition of ``leaky_ewt`` has no boundary mode, so
        its candidates pin that axis to its first sorted value.
        """
        if pipeline == "raw_lags":
            return [{"lags": int(l)} for l in sorted(set(self.lags))]
        modes = sorted(set(self.boundary_mode))
        combos = itertools.product(
            sorted(set(self.lags)), modes[:1] if pipeline == "leaky_ewt" else modes,
            sorted(set(self.n_bands)), sorted(set(self.gamma)),
        )
        return [
            {"lags": int(l), "n_bands": int(k), "gamma": float(g), "boundary_mode": m}
            for l, m, k, g in combos
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
        for name, kind in _type_hints(type(self)).items():
            value = getattr(self, name)
            # bool is an int subclass, but true/false is no count and no seed.
            if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
                raise ConfigError(f"{name} must be {getattr(kind, '__name__', kind)}, "
                                  f"got {value!r}")
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.pipeline not in PIPELINES:
            raise ConfigError(f"pipeline must be one of {PIPELINES}, got {self.pipeline!r}")
        # A network needs an enhancement node or, in rvfl, a direct link.
        nodes, links = self.grid.n_enhancement, self.grid.direct_link
        if self.family == "edrvfl" and max(nodes) < 1:
            raise ConfigError("an edrvfl grid needs an n_enhancement of at least 1")
        if self.family == "rvfl" and max(nodes) < 1 and not (0 in nodes and any(links)):
            raise ConfigError("an rvfl grid needs an n_enhancement of at least 1, "
                              "or 0 with a true direct_link")
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
        version = raw["schema_version"]
        if version != REPORT_SCHEMA_VERSION:
            raise ConfigError(f"report {path} has schema version {version!r}; this version "
                              f"reruns reports of schema {REPORT_SCHEMA_VERSION!r} only")
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
        # Only reachable for a single one-layer candidate: the searches refuse
        # to rank more on zero rows.
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
    return RvflConfig(**p._replace(seed=base_seed + p.seed)._asdict())


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


def _nested_group(p: ModelParams) -> ModelParams:
    """The settings a search group shares: all but node count and regularization."""
    return p._replace(n_enhancement=None, regularization=None)


class _GroupDesigns(NamedTuple):
    """A search group's designs ``[1? | X? | A]`` for its largest node count."""

    H: np.ndarray       # train rows
    H_val: np.ndarray   # validation rows
    lead: int           # columns ahead of the nodes


def _fit_group(keys, make_config, train: WindowedDataset, val: WindowedDataset,
               enh=None, enh_val=None):
    """Validation forecasts of one search group: networks that differ only in
    node count and regularization.

    ``make_config(key)`` gives a candidate's :class:`RvflConfig`; a
    ``ValueError`` it raises fails that candidate alone. ``enh``/``enh_val``
    feed the hidden layer (default: the rows' ``X``, which always feeds the
    direct links). The valid candidates are fitted together: one hidden layer
    of the largest node count is drawn, a smaller one being its first nodes,
    and the train and validation designs are built once, ones column first and
    the nodes last, so that each node count's design is a column prefix, and
    one Gram matrix and one factorization per C serve every node count
    (:func:`rvfl.nested_ridge_path`).

    Returns, per key, the forecast or the exception raised in its place (an
    exception raised for the whole group is every valid candidate's), and the
    designs, or None when they were not built.
    """
    configs, forecasts = {}, {}
    for key in keys:
        try:
            configs[key] = make_config(key)
        except ValueError as exc:
            forecasts[key] = exc
    if not configs:
        return forecasts, None
    enh = train.X if enh is None else enh
    enh_val = val.X if enh_val is None else enh_val
    cfg = max(configs.values(), key=lambda c: c.n_enhancement)
    lead = train.n_features * cfg.direct_link + cfg.output_bias
    widths = list(dict.fromkeys(lead + c.n_enhancement for c in configs.values()))
    regs = list(dict.fromkeys(c.regularization for c in configs.values()))

    def design(rows: WindowedDataset, rows_enh: np.ndarray) -> np.ndarray:
        return rvfl_mod._design(rows.X if cfg.direct_link else None, rows_enh, hidden,
                                cfg.output_bias, bias_first=True)

    try:
        if train.n_samples < 1:
            raise ValueError("X must be a non-empty matrix")
        hidden = rvfl_mod.init_hidden_layer(enh.shape[1], cfg)
        H = design(train, enh)
        path = rvfl_mod.nested_ridge_path(H, train.Y, widths, regs)
        designs = _GroupDesigns(H, design(val, enh_val), lead)
    except (ValueError, RuntimeError) as exc:
        return {**forecasts, **dict.fromkeys(configs, exc)}, None
    for key, c in configs.items():
        width = lead + c.n_enhancement
        beta = path[widths.index(width)][regs.index(c.regularization)]
        forecasts[key] = beta if isinstance(beta, Exception) else designs.H_val[:, :width] @ beta
    return forecasts, designs


class _NoWinner(RuntimeError):
    """Every candidate of a model search failed; ``outcomes`` are their entries."""

    def __init__(self, outcomes):
        super().__init__(f"every grid candidate failed; the first: {outcomes[0].error}")
        self.outcomes = outcomes


def _winner(candidates, outcomes):
    """Index of the candidate with the lowest ``(val_rmse, tuple(candidate))``,
    or None when none has a score; an outcome of None is one not yet scored."""
    scored = [(o.val_rmse, tuple(c), i) for i, (c, o) in enumerate(zip(candidates, outcomes))
              if o is not None and o.val_rmse is not None]
    return min(scored)[2] if scored else None


def grid_search(space: GridSpace, train: WindowedDataset, val: WindowedDataset,
                base_seed: int = 0) -> GridSearchResult:
    """Exhaustive search of the model axes, scored by validation RMSE.

    Every combination is evaluated; failures, including a non-finite
    validation forecast, are recorded on the leaderboard and skipped. Ties
    break on the lexicographic order of the candidate tuple, so permuting the
    axis lists cannot change the winner.

    Candidates that differ only in ``n_enhancement`` and ``regularization``
    form a group: it draws one hidden layer of its largest node count, builds
    one train and one validation design and forms one Gram matrix, and each C
    adds its ridge and factors once for every node count. Every score equals,
    within :data:`SEARCH_RTOL` relative, that of ``rvfl.fit`` and
    ``rvfl.predict`` with the candidate's settings.

    Ranking needs validation rows: with none, more than one candidate raises
    ``ValueError``, and a single candidate scores 0.0.
    """
    candidates = space.model_candidates("rvfl")
    if len(candidates) > 1 and not val.n_samples:
        raise ValueError(f"ranking requires validation rows (candidates: {len(candidates)})")
    logger.info("grid search over %d model candidates", len(candidates))
    forecasts = {}
    for group in _groups(candidates, _nested_group):
        forecasts.update(_fit_group(group, lambda i: _rvfl_config(candidates[i], base_seed),
                                    train, val)[0])
    outcomes = [_outcome(p._asdict(), forecasts[i], val.Y) for i, p in enumerate(candidates)]
    best = _winner(candidates, outcomes)
    if best is None:
        raise _NoWinner(outcomes)
    return GridSearchResult(candidates[best], outcomes[best].val_rmse, outcomes, forecasts[best])


def layerwise_grid_search(space: GridSpace, train: WindowedDataset, val: WindowedDataset,
                          max_layers: int, base_seed: int = 0) -> LayerwiseResult:
    """Greedy deep-network tuning: fix each layer's size/regularization in turn.

    Candidates are ranked by the validation RMSE of their median ensemble, in
    one stage per layer. Stage one searches the full model grid for a
    one-layer network. Each later stage searches nodes x regularization for
    the new layer while all earlier layers stay fixed, and the layer is kept
    only when validation RMSE improves by at least a relative
    :data:`MIN_RELATIVE_GAIN`; otherwise the search stops early. Direct links
    are structural in this architecture, so that axis is ignored.

    The fixed layers are fitted once: the search keeps the accepted layers'
    validation forecasts, and the next layer's input ``[X | A]`` is a column
    range of the winner's designs, taken as views. A candidate fits only its
    new layer and combines its forecast with theirs. Candidates of a stage
    that differ only in the new layer's ``n_enhancement`` and
    ``regularization`` are one :func:`_fit_group`. Every score equals, within
    :data:`SEARCH_RTOL` relative, that of ``fit_edrvfl`` and
    ``ensemble_predict`` on the candidate's whole stack. Only the running
    winner's designs are kept.

    Ranking needs validation rows: with none, more than one stage-one
    candidate or more than one layer raises ``ValueError``, and a single
    one-layer candidate scores 0.0.
    """
    if max_layers < 1:
        raise ValueError("max_layers must be >= 1")
    stage = [((p.n_enhancement,), (p.regularization,), p)
             for p in space.model_candidates("edrvfl")]
    if (len(stage) > 1 or max_layers > 1) and not val.n_samples:
        raise ValueError(f"ranking requires validation rows (candidates: {len(stage)}, "
                         f"max_layers: {max_layers})")
    pairs = sorted(set(itertools.product(space.n_enhancement, space.regularization)))
    leaderboard, history = [], []
    fixed, enh, enh_val = (), train.X, val.X  # the fixed layers' forecasts, the next one's input
    for layer in range(1, max_layers + 1):
        outcomes = [None] * len(stage)
        for group in _groups(stage, lambda s: (s[0][:-1], s[1][:-1], _nested_group(s[2]))):
            fitted, designs = _fit_group(
                group, lambda k: _edrvfl_config(*stage[k], base_seed).layer_config(layer - 1),
                train, val, enh, enh_val)
            ensembles = {}
            for k in group:
                ensemble = fitted[k]
                if isinstance(ensemble, RuntimeError):
                    ensemble = RuntimeError(f"layer {layer} solve failed: {ensemble}")
                elif not isinstance(ensemble, Exception):
                    ensemble = edrvfl_mod.combine_predictions(np.stack(fixed + (ensemble,)),
                                                              "median")
                ensembles[k] = ensemble
                params = {"layer_nodes": list(stage[k][0]), "layer_regs": list(stage[k][1]),
                          **stage[k][2]._asdict()}
                outcomes[k] = _outcome(params, ensemble, val.Y)
            best = _winner(stage, outcomes)
            if best in group:
                won = designs, fitted[best], ensembles[best]
            del designs  # only the stage's running winner keeps its designs
        leaderboard.extend(outcomes)
        if best is None:
            if layer == 1:
                raise _NoWinner(outcomes)
            break
        rmse = outcomes[best].val_rmse
        if history and rmse > history[-1] * (1.0 - MIN_RELATIVE_GAIN):
            break
        history.append(rmse)
        (nodes, regs, shared), (designs, forecast, val_forecast) = stage[best], won
        inputs = slice(designs.lead - train.n_features, designs.lead + nodes[-1])
        enh, enh_val = designs.H[:, inputs], designs.H_val[:, inputs]
        fixed += (forecast,)
        stage = [(nodes + (l,), regs + (c,), shared) for l, c in pairs]
    return LayerwiseResult(nodes, regs, shared, history[-1], tuple(history), leaderboard,
                           val_forecast)


class _PipelineBuild:
    """Feature datasets for one pipeline candidate.

    Tuning rows (targets before the test span) are built eagerly; test rows
    are assembled only on request, by :meth:`test_rows`, so nothing downstream
    can touch them before tuning is over. A ``"auto"`` window is the
    walk-forward width at the last training origin, and frozen band edges are
    detected once, on the first tuning origin's window, for both builds.
    :func:`_candidate_builds` gives the builds of one walk-forward family
    their tuning rows from one pass.
    """

    def __init__(self, ts: TimeSeries, pipeline: str, params: dict, horizon: int,
                 window_policy, i_train: int, i_val: int):
        self._setup(ts, pipeline, params, horizon, window_policy, i_train, i_val)
        self._keep_tune(self._build(self.start, self.tune_stop))

    def _setup(self, ts: TimeSeries, pipeline: str, params: dict, horizon: int,
               window_policy, i_train: int, i_val: int) -> None:
        """Everything but the tuning rows: the resolved config, the origin
        ranges and any frozen edges."""
        self.ts = ts
        self.pipeline = pipeline
        self.params = params
        self.horizon = h = horizon
        self.i_train = i_train
        if pipeline == "raw_lags":
            self.wf_cfg = None
            self.start = params["lags"] - 1
        else:
            self.wf_cfg = WalkForwardConfig(**params, horizon=h, window=window_policy)
            if window_policy == "auto":  # keep at least one training row
                self.wf_cfg = replace(self.wf_cfg, window=self.wf_cfg.window_at(i_train - h - 1))
            self.start = self.wf_cfg.first_origin
        self.tune_stop = i_val - h
        self.test_stop = len(ts) - h
        if self.tune_stop <= self.start:
            raise ValueError(f"no tuning rows: first origin {self.start} reaches past the "
                             "validation span")
        self.frozen = None
        if pipeline == "walkforward_ewt" and self.wf_cfg.boundary_mode == FROZEN_FROM_TRAIN:
            self.frozen = freeze_boundaries(ts, self.wf_cfg, self.start)

    def _keep_tune(self, tune) -> None:
        """Keep the tuning rows and count those whose targets lie in the
        training span; ``tune`` may be the ``ValueError`` its build raised."""
        if isinstance(tune, ValueError):
            raise tune
        self.tune = tune
        # Origins increase, so the training rows come first.
        self.n_train = int(np.searchsorted(tune.origin_indices, self.i_train - self.horizon))
        if not self.n_train:
            raise ValueError("no training rows inside the training span")

    def _build(self, start: int, stop: int) -> WindowedDataset:
        if self.pipeline == "raw_lags":
            return _embed_range(self.ts, self.params["lags"], self.horizon, start, stop)
        if self.pipeline == "walkforward_ewt":
            return build_walkforward_features(self.ts, self.wf_cfg, start, stop,
                                              frozen_boundaries=self.frozen)
        return leaky_features(self.ts, self.wf_cfg, start, stop)

    def train_rows(self) -> WindowedDataset:
        """The tuning rows before the validation span, as read-only views."""
        return self.tune.take(slice(self.n_train))

    def val_rows(self) -> WindowedDataset:
        """The tuning rows in the validation span, as read-only views."""
        return self.tune.take(slice(self.n_train, None))

    def test_rows(self) -> WindowedDataset:
        """The single gate through which test rows leave a feature build."""
        return self._build(self.tune_stop, self.test_stop)

    @staticmethod
    def decomposition_counters(*datasets) -> dict:
        """Fallback and clipped-gamma counts summed over EWT feature builds, and
        the largest ``max_imag_residue`` any of them recorded."""
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
            "schema_version": REPORT_SCHEMA_VERSION,
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
    """Both datasets scaled by a scaler fitted on ``train``, each scaled ``X``
    held once."""
    if kind == "none":
        return train, val
    scaler = fit_scaler(train.X, kind)
    return tuple(WindowedDataset._adopt(apply_scaler(scaler, ds.X), ds.Y, ds.origin_indices,
                                        ds.meta) for ds in (train, val))


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
    if i_train < 1 or n - i_val < 1:
        raise ConfigError(f"split leaves an empty train or test segment for n={n}")
    h = cfg.horizon
    if i_val - h < 0:
        raise ConfigError("horizon reaches past the start of the test span")

    search = _ridge_search(cfg) if cfg.family == "baseline_linear" else cfg
    grid_size = (search.grid.size(search.pipeline, search.family)
                 if search.family in ("rvfl", "edrvfl") else 0)
    logger.info("experiment %s/%s: grid size %d", cfg.family, cfg.pipeline, grid_size)

    leaderboard: list[dict] = []
    forecasts: dict[str, np.ndarray] = {}
    chosen: dict = {"family": cfg.family}
    validation_metrics = None
    counters = _PipelineBuild.decomposition_counters()

    if cfg.family in ("rvfl", "edrvfl"):
        rmse_val, pipe_params, build, model_info, val_pred = _tune_family(
            cfg, ts, i_train, i_val, leaderboard)
        chosen_name, baseline_lags = cfg.family, pipe_params["lags"]
    elif cfg.family == "baseline_persistence":
        chosen_name, baseline_lags = "persistence", min(cfg.grid.lags)
    else:
        chosen_name, baseline_lags = "linear", None  # tuned by the baseline's search

    # The baseline's search is tuning too, so it runs before any test row is built.
    try:
        forecasts["linear"], linear_info = _linear_baseline(
            cfg, ts, i_train, i_val, baseline_lags,
            leaderboard if chosen_name == "linear" else [])
    except (RuntimeError, ConfigError) as exc:
        if chosen_name == "linear":
            raise
        # A baseline the run did not choose is left out, and the report says why.
        baseline_meta = {"linear_baseline_error": str(exc)}
    else:
        baseline_meta = {"linear_baseline": {**linear_info["model_params"],
                                             "validation_rmse": linear_info["validation_rmse"]}}
    if chosen_name == "linear":
        chosen.update(linear_info)

    # Test-span scaffolding shared by every model.
    test_origins = np.arange(i_val - h, n - h, dtype=np.int64)
    test_actuals = ts.values[test_origins + h]
    previous = ts.values[test_origins + h - 1]
    refit_span = i_val if cfg.refit_on_train_plus_validation else i_train
    train_series = ts.values[:refit_span]

    if cfg.family in ("rvfl", "edrvfl"):
        chosen.update({"pipeline_params": pipe_params, **model_info,
                       "validation_rmse": rmse_val})
        val_rows = build.val_rows()
        if val_rows.n_samples:
            ev = EvalSeries(val_rows.Y.ravel(), val_pred.ravel(),
                            ts.values[val_rows.origin_indices + h - 1], ts.values[:i_train])
            validation_metrics = _filter_metrics(compute_metrics(ev), cfg.metrics)
        forecasts[cfg.family], test_ds = _test_forecast(cfg, build, model_info)
        counters = build.decomposition_counters(build.tune, test_ds)

    # Baselines are always evaluated on the same test origins.
    forecasts["persistence"] = ts.values[test_origins].copy()
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
            "schema_version": REPORT_SCHEMA_VERSION,
            "series_name": ts.name,
            "series_length": n,
            "split_indices": {"train_end": i_train, "validation_end": i_val},
            "grid_size": grid_size,
            **counters,
            **baseline_meta,
            **_numeric_stack(),
            "base_seed": cfg.seed,
            "wall_time_s": round(time.perf_counter() - started, 6),
        },
    )
    return report


def _numeric_stack() -> dict:
    """numpy's version, its BLAS library and thread count and the SIMD
    extensions it dispatches to (its ``exp`` kernel sets the sigmoid's
    rounding), which together fix the rounding of the forecasts;
    ``numpy_blas``, ``numpy_blas_threads`` and ``numpy_simd`` are None where
    numpy or its BLAS does not say."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        config = {}
    try:
        blas = config["Build Dependencies"]["blas"]
        numpy_blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except KeyError:
        numpy_blas = None
    threads = _openblas_threads()
    return {"numpy_version": np.__version__, "numpy_blas": numpy_blas,
            "numpy_blas_threads": None if threads is None else int(threads()),
            "numpy_simd": config.get("SIMD Extensions")}


@cache
def _openblas_threads():
    """The thread-count getter of the OpenBLAS bundled with numpy, or None."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)
    return None


def _candidate_builds(cfg: ExperimentConfig, ts: TimeSeries, i_train: int, i_val: int):
    """Yield each pipeline candidate in order with its build, or the
    ``ValueError`` the build raised.

    Walk-forward candidates come family by family, a family being those that
    share ``lags`` and boundary mode (:meth:`GridSpace.pipeline_candidates`).
    The tuning rows of a family come from one pass over the origins
    (:func:`walkforward._build_family`), and its builds are handed out one at
    a time, so that a build that was searched and beaten is freed: besides
    the search's best so far, at most one family is alive. Every other
    candidate builds its own rows.
    """
    rest = (cfg.horizon, cfg.window, i_train, i_val)
    candidates = cfg.grid.pipeline_candidates(cfg.pipeline)
    if cfg.pipeline != "walkforward_ewt":
        for params in candidates:
            try:
                build = _PipelineBuild(ts, cfg.pipeline, params, *rest)
            except ValueError as exc:
                build = exc
            yield params, build
        return
    for _, family in itertools.groupby(candidates, lambda p: (p["lags"], p["boundary_mode"])):
        family = list(family)
        builds = [object.__new__(_PipelineBuild) for _ in family]
        for i, params in enumerate(family):
            try:
                builds[i]._setup(ts, cfg.pipeline, params, *rest)
            except ValueError as exc:
                builds[i] = exc
        live = [build for build in builds if isinstance(build, _PipelineBuild)]
        try:
            tunes = _build_family(ts, [b.wf_cfg for b in live], live[0].start, live[0].tune_stop,
                                  [b.frozen for b in live]) if live else []
        except ValueError as exc:
            tunes = [exc] * len(live)
        del live  # each build is then held only by the list it is popped from
        for params in family:
            build = builds.pop(0)
            if isinstance(build, _PipelineBuild):
                try:
                    build._keep_tune(tunes.pop(0))
                except ValueError as exc:
                    build = exc
            yield params, build


def _tune_family(cfg: ExperimentConfig, ts: TimeSeries, i_train: int, i_val: int,
                 leaderboard: list):
    """Search pipeline x model candidates; return the winning build, params and
    the winner's validation forecast.

    Ranking needs validation rows, so with none a search over more than one
    candidate raises :class:`ConfigError` before any build; the layer-wise
    search tunes the depth too, so each depth counts as a candidate.

    A candidate whose feature build or scaling fails, or whose model search has
    no winner, leaves its failures on the leaderboard and the search moves on;
    it raises only when no candidate wins.
    """
    deep = cfg.family == "edrvfl" and cfg.max_layers > 1
    if i_val <= i_train and (deep or cfg.grid.size(cfg.pipeline, cfg.family) > 1):
        raise ConfigError("tuning over more than one candidate requires a validation segment")
    first, best = len(leaderboard), None
    for pipe_params, build in _candidate_builds(cfg, ts, i_train, i_val):
        error = f"feature build failed: {build}" if isinstance(build, ValueError) else None
        if error is None:
            try:
                train_rows, val_rows = _scale_pair(cfg.scaler, build.train_rows(),
                                                   build.val_rows())
            except ValueError as exc:
                error = f"scaling failed: {exc}"
        if error is not None:
            leaderboard.append({"pipeline": pipe_params, "params": None, "val_rmse": None,
                                "error": error})
            continue
        try:
            if cfg.family == "rvfl":
                result = grid_search(cfg.grid, train_rows, val_rows, base_seed=cfg.seed)
                model_info = {"model_params": result.best._asdict()}
                model_key = (tuple(result.best),)
            else:
                result = layerwise_grid_search(cfg.grid, train_rows, val_rows, cfg.max_layers,
                                               base_seed=cfg.seed)
                model_info = {
                    "model_params": result.shared._asdict(),
                    "layer_nodes": list(result.layer_nodes),
                    "layer_regs": list(result.layer_regs),
                    "layerwise_history": list(result.history),
                }
                model_key = (tuple(result.layer_nodes), tuple(result.layer_regs),
                             tuple(result.shared))
        except _NoWinner as exc:
            result, outcomes = None, exc.outcomes
        else:
            outcomes = result.leaderboard
        leaderboard.extend({"pipeline": pipe_params, **o.__dict__} for o in outcomes)
        if result is None:
            continue
        key = (result.best_rmse, tuple(sorted(pipe_params.items())), *model_key)
        if best is None or key < best[0]:
            best = (key, pipe_params, build, model_info, result.val_forecast)
    if best is None:
        raise RuntimeError("every pipeline candidate failed; the first: "
                           f"{leaderboard[first]['error']}")
    key, pipe_params, build, model_info, val_forecast = best
    return key[0], pipe_params, build, model_info, val_forecast


def _test_forecast(cfg: ExperimentConfig, build: _PipelineBuild, model_info: dict):
    """The winner refitted on train(+validation) rows, and its forecast of the
    test rows: returns the forecast and the rows, which must cover the origins
    ``[tune_stop, test_stop)``. The refit comes first, so that its designs are
    freed before the test rows are built."""
    rows = build.tune if cfg.refit_on_train_plus_validation else build.train_rows()
    scaler = None if cfg.scaler == "none" else fit_scaler(rows.X, cfg.scaler)
    params = ModelParams(**model_info["model_params"])
    if cfg.family == "rvfl":
        model = rvfl_mod.fit(rows.X, rows.Y, _rvfl_config(params, cfg.seed), scaler)
    else:
        ed_cfg = _edrvfl_config(model_info["layer_nodes"], model_info["layer_regs"], params,
                                cfg.seed)
        model = edrvfl_mod.fit_edrvfl(rows.X, rows.Y, ed_cfg, scaler)
    predict = rvfl_mod.predict if cfg.family == "rvfl" else edrvfl_mod.ensemble_predict
    test_rows = build.test_rows()
    if not np.array_equal(test_rows.origin_indices, np.arange(build.tune_stop, build.test_stop)):
        raise RuntimeError("test rows do not cover the expected origins")
    return predict(model, test_rows.X).ravel(), test_rows


def _ridge_search(cfg: ExperimentConfig, lags: int | None = None) -> ExperimentConfig:
    """The linear baseline's search: the RVFL search with no enhancement
    nodes, whose design is the lag matrix itself, on unscaled raw lags, over
    the grid's lags (``lags`` alone when given) and regularization values."""
    grid = GridSpace(n_enhancement=(0,), regularization=cfg.grid.regularization,
                     lags=cfg.grid.lags if lags is None else (lags,))
    return replace(cfg, family="rvfl", pipeline="raw_lags", scaler="none", grid=grid)


def _linear_baseline(cfg: ExperimentConfig, ts: TimeSeries, i_train: int, i_val: int,
                     lags: int | None, leaderboard: list):
    """Ridge on raw lags: persistence's honest competitor.

    :func:`_tune_family` runs its search (:func:`_ridge_search`, on the chosen
    model's lags when one exists), and the winner is refitted as any other.
    Leaderboard entries name only the lags and, once the build succeeded, the C.
    """
    ridge = _ridge_search(cfg, lags)
    entries: list = []
    try:
        rmse, pipe_params, build, model_info, _ = _tune_family(ridge, ts, i_train, i_val, entries)
    finally:
        for entry in entries:
            params = dict(entry["pipeline"])
            if entry["params"] is not None:
                params["regularization"] = entry["params"]["regularization"]
            leaderboard.append({**entry, "pipeline": None, "params": params})
    pred, _ = _test_forecast(ridge, build, model_info)
    reg = model_info["model_params"]["regularization"]
    return pred, {"model_params": {**pipe_params, "regularization": reg}, "validation_rmse": rmse}


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


_MODEL_KINDS = {"rvfl": RvflModel, "edrvfl": EdRvflModel}


def _payload_checksum(payload: dict) -> str:
    """SHA-256 of the payload's canonical JSON (sorted keys, no whitespace)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_model(model, path) -> None:
    """Persist a trained model as one JSON document with a payload checksum."""
    kind = next((k for k, cls in _MODEL_KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise TypeError(f"cannot persist object of type {type(model).__name__}")
    payload = {"kind": kind, **model.to_dict()}
    envelope = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "checksum": _payload_checksum(payload),
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
    if version != MODEL_SCHEMA_VERSION:
        raise ModelVersionError(f"model schema {version!r} unsupported, "
                                f"expected {MODEL_SCHEMA_VERSION!r}")
    payload = envelope["payload"]
    if _payload_checksum(payload) != envelope.get("checksum"):
        raise CorruptModelError(f"model file {path} failed checksum verification")
    if not isinstance(payload, dict):
        raise CorruptModelError(f"model file {path} has a payload that is not an object")
    kind = payload.pop("kind", None)
    if not (isinstance(kind, str) and kind in _MODEL_KINDS):
        raise CorruptModelError(f"model file {path} has unknown kind {kind!r}")
    try:
        return _MODEL_KINDS[kind].from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptModelError(f"model file {path} has a malformed {kind} payload: "
                                f"{type(exc).__name__}: {exc}") from exc


def write_report(report: ExperimentReport, out_dir) -> dict:
    """Emit report.json plus flat metrics.csv and forecasts.csv (plot-ready)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "report": out / "report.json",
        "metrics": out / "metrics.csv",
        "forecasts": out / "forecasts.csv",
    }
    _write_atomically(paths["report"], json.dumps(report.to_dict(), sort_keys=True))

    models = sorted(report.test_metrics)
    # Every model's metrics were filtered by the same selection, in one order.
    columns = list(report.test_metrics[models[0]]) if models else []
    metrics = [["model", "series", "horizon", "n_test", *columns]]
    for model in models:
        vals = report.test_metrics[model]
        metrics.append([model, report.meta["series_name"], report.config.horizon,
                        len(report.origins), *(vals[c] for c in columns)])
    _write_atomically(paths["metrics"], _csv_text(metrics))

    # The cells are ints, floats and model names that need no quoting, so the
    # lines are joined directly, with the bytes _csv_text would give: csv
    # writes an int by str and a float by repr. Each origin's leading cells are
    # formed once for every model.
    heads = [f"{origin},{actual!r}," for origin, actual in zip(report.origins, report.actuals)]
    lines = ["model,origin,actual,forecast\n"]
    for model in sorted(report.forecasts):
        lines += [f"{model},{head}{pred!r}\n"
                  for head, pred in zip(heads, report.forecasts[model])]
    _write_atomically(paths["forecasts"], "".join(lines))
    return paths
