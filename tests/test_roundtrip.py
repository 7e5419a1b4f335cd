"""Round trips of the JSON formats: experiment configs and persisted models."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ewtforecast.edrvfl import EdRvflConfig, ensemble_predict, fit_edrvfl
from ewtforecast.harness import (
    FAMILIES,
    METRIC_NAMES,
    PIPELINES,
    ConfigError,
    ExperimentConfig,
    GridSpace,
    load_model,
    save_model,
)
from ewtforecast.rvfl import ACTIVATIONS, RvflConfig, fit, predict
from ewtforecast.series import SCALER_KINDS, SplitSpec, fit_scaler
from ewtforecast.walkforward import BOUNDARY_MODES

GOLDEN = Path(__file__).parent / "golden"


def axis(values):
    return st.lists(values, min_size=1, max_size=3).map(tuple)


finite = st.floats(min_value=1e-6, max_value=1e6)
grids = st.builds(
    GridSpace,
    # A grid whose every node count is 0 is a configuration error for edrvfl.
    n_enhancement=axis(st.integers(0, 500)).filter(lambda nodes: max(nodes) >= 1),
    regularization=axis(finite),
    activation=axis(st.sampled_from(sorted(ACTIVATIONS))), input_scale=axis(finite),
    lags=axis(st.integers(1, 64)), n_bands=axis(st.integers(1, 8)),
    gamma=axis(st.floats(0.01, 0.99)), direct_link=axis(st.booleans()),
    output_bias=axis(st.booleans()), boundary_mode=axis(st.sampled_from(BOUNDARY_MODES)),
    seeds=axis(st.integers(0, 2**32)),
)
configs = st.builds(
    ExperimentConfig,
    data_path=st.text(min_size=1),
    split=st.builds(SplitSpec, st.floats(0.01, 0.6), st.floats(0.0, 0.39)),
    family=st.sampled_from(FAMILIES),
    pipeline=st.sampled_from(PIPELINES),
    grid=grids,
    data_column=st.one_of(st.integers(0, 20), st.text()),
    data_has_header=st.booleans(),
    metrics=st.lists(st.sampled_from(METRIC_NAMES), unique=True).map(tuple),
    output_dir=st.text(),
    seed=st.integers(0, 2**32),
    horizon=st.integers(1, 50),
    max_layers=st.integers(1, 10),
    scaler=st.sampled_from(SCALER_KINDS),
    window=st.one_of(st.sampled_from(["auto", "all"]), st.integers(2, 10_000)),
    refit_on_train_plus_validation=st.booleans(),
)


@given(configs)
def test_config_json_round_trip(cfg):
    assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


VALID = {
    "data": {"path": "s.csv"},
    "split": {"train_fraction": 0.6, "validation_fraction": 0.2},
    "family": "rvfl",
    "pipeline": "raw_lags",
}
TOP_LEVEL_KEYS = sorted(ExperimentConfig.from_dict(VALID).to_dict())
malformed_values = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False),
    st.lists(st.integers(), min_size=1, max_size=3),
    # Keys from this alphabet name no field and no metric.
    st.dictionaries(st.text(alphabet="xyz", max_size=3), st.integers(), min_size=1, max_size=2),
)


@given(key=st.sampled_from(TOP_LEVEL_KEYS), value=malformed_values)
def test_malformed_top_level_value_is_a_config_error(key, value):
    if key == "refit_on_train_plus_validation" and isinstance(value, bool):
        return  # a well-formed value
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**VALID, key: value})


def test_missing_keys_keep_their_wording():
    for key in ("data", "split", "family", "pipeline"):
        with pytest.raises(ConfigError, match=f"missing config key '{key}'"):
            ExperimentConfig.from_dict({k: v for k, v in VALID.items() if k != key})
    with pytest.raises(ConfigError, match=r"missing data\.path"):
        ExperimentConfig.from_dict({**VALID, "data": {"column": 1}})
    with pytest.raises(ConfigError, match="unknown data keys"):
        ExperimentConfig.from_dict({**VALID, "data": {"path": "s.csv", "sheet": 1}})
    with pytest.raises(ConfigError, match="unknown split keys"):
        ExperimentConfig.from_dict({**VALID, "split": {"train_fraction": 0.5, "test": 0.5}})
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({**VALID, "data_path": "s.csv"})


scalers = st.sampled_from([None, "zscore", "minmax"])
model_settings = settings(max_examples=25, deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])


def training_rows(seed: int):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(20, 3)) * 3.0 + 1.0, rng.normal(size=(20, 1))


@model_settings
@given(seed=st.integers(0, 2**16), nodes=st.integers(0, 12),
       activation=st.sampled_from(sorted(ACTIVATIONS)), output_bias=st.booleans(),
       scaler=scalers)
def test_saved_rvfl_predicts_bit_identically(tmp_path, seed, nodes, activation, output_bias, scaler):
    X, Y = training_rows(seed)
    model = fit(X, Y, RvflConfig(n_enhancement=nodes, activation=activation,
                                 output_bias=output_bias, seed=seed),
                None if scaler is None else fit_scaler(X, scaler))
    save_model(model, tmp_path / "model.json")
    restored = load_model(tmp_path / "model.json")
    assert predict(restored, X).tobytes() == predict(model, X).tobytes()


@model_settings
@given(seed=st.integers(0, 2**16), nodes=st.lists(st.integers(1, 8), min_size=1, max_size=3),
       layer_norm=st.booleans(), rule=st.sampled_from(["median", "mean"]), scaler=scalers)
def test_saved_edrvfl_predicts_bit_identically(tmp_path, seed, nodes, layer_norm, rule, scaler):
    X, Y = training_rows(seed)
    cfg = EdRvflConfig(n_layers=len(nodes), n_enhancement=tuple(nodes), layer_norm=layer_norm,
                       ensemble_rule=rule, seed=seed)
    model = fit_edrvfl(X, Y, cfg, None if scaler is None else fit_scaler(X, scaler))
    save_model(model, tmp_path / "model.json")
    restored = load_model(tmp_path / "model.json")
    assert ensemble_predict(restored, X).tobytes() == ensemble_predict(model, X).tobytes()


@pytest.mark.parametrize("name", ["rvfl_zscore.json", "edrvfl_layernorm_minmax.json"])
def test_golden_model_file_loads_and_resaves_byte_for_byte(tmp_path, name):
    # Written by save_model before the formats were derived from the dataclasses;
    # the file format must not change.
    save_model(load_model(GOLDEN / name), tmp_path / name)
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
