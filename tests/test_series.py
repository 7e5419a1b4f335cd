import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ewtforecast import harness
from ewtforecast.series import (
    Scaler,
    SplitSpec,
    TimeSeries,
    WindowedDataset,
    _embed_range,
    apply_scaler,
    embed,
    fit_scaler,
    load_csv,
    split_boundaries,
)


# ---------------------------------------------------------------- load_csv

def test_load_csv_with_header(tmp_path):
    f = tmp_path / "data.csv"
    f.write_text("load,temp\n1.0,9\n2.0,9\n3.0,9\n")
    ts = load_csv(f, "load", has_header=True)
    assert list(ts.values) == [1.0, 2.0, 3.0]
    assert ts.name == "load"


def test_load_csv_by_index_without_header(tmp_path):
    f = tmp_path / "data.csv"
    f.write_text("5\n6\n7\n")
    ts = load_csv(f, 0, has_header=False)
    assert list(ts.values) == [5.0, 6.0, 7.0]


def test_load_csv_empty_data_section(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("load\n")
    with pytest.raises(ValueError, match="empty series"):
        load_csv(f, "load", has_header=True)


def test_load_csv_bad_cell_reports_row_number(tmp_path):
    f = tmp_path / "bad.csv"
    rows = ["1.0"] * 6 + ["abc"] + ["2.0"]
    f.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="row 7"):
        load_csv(f, 0)


def test_load_csv_rejects_non_finite(tmp_path):
    f = tmp_path / "inf.csv"
    f.write_text("1.0\ninf\n")
    with pytest.raises(ValueError, match="non-finite"):
        load_csv(f, 0)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", " NaN "])
def test_load_csv_names_a_non_finite_cell_and_its_row(tmp_path, cell):
    # Blank lines are skipped but counted: the bad cell is on row 5.
    f = tmp_path / "non_finite.csv"
    f.write_text(f"1.0\n\n2.0\n\n{cell}\n3.0\n")
    with pytest.raises(ValueError, match=rf"non-finite cell '{cell.strip()}' at row 5 of "):
        load_csv(f, 0)


HEADER = ("a", "b, with a comma", "c")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                       max_size=30),
       column=st.sampled_from(range(3)) | st.sampled_from(HEADER), data=st.data())
def test_load_csv_round_trips_values_through_a_header_blank_lines_and_quoted_cells(
        tmp_path, values, column, data):
    idx = HEADER.index(column) if isinstance(column, str) else column
    lines = [",".join(f'"{name}"' for name in HEADER)]
    for value in values:
        lines += data.draw(st.lists(st.sampled_from(["", "  ", " , ,", '"",""']), max_size=2),
                           label="blank lines")
        cell = data.draw(st.sampled_from(["{}", " {} ", '"{}"', '" {} "']), label="cell")
        cells = ['"x, y"', "z", "7"]
        cells[idx] = cell.format(repr(value))
        lines.append(",".join(cells))
    f = tmp_path / "round_trip.csv"
    f.write_text("\n".join(lines) + "\n")
    ts = load_csv(f, column, has_header=True)
    assert ts.values.tobytes() == np.array(values).tobytes()
    assert ts.name == HEADER[idx]


def test_load_csv_missing_file():
    with pytest.raises(FileNotFoundError):
        load_csv("/nonexistent/nowhere.csv", 0)


def test_load_csv_missing_column(tmp_path):
    f = tmp_path / "data.csv"
    f.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="missing column"):
        load_csv(f, "c", has_header=True)


# ---------------------------------------------------------------- TimeSeries

def test_timeseries_rejects_nan():
    with pytest.raises(ValueError, match="non-finite"):
        TimeSeries([1.0, np.nan, 2.0])


def test_timeseries_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        TimeSeries([])


# ---------------------------------------------------------------- split

def test_split_fractions_example():
    assert split_boundaries(10, SplitSpec(0.6, 0.2)) == (6, 8)


def test_split_small_series():
    # floor(5 * 0.6) = 3 and floor(5 * 0.8) = 4: train 3, validation 1, test 1.
    assert split_boundaries(5, SplitSpec(0.6, 0.2)) == (3, 4)


def test_split_boundaries_floor_and_may_leave_the_validation_span_empty():
    # floor(10 * 0.9) = floor(10 * 0.99) = 9; run_experiment rejects an empty
    # train or test span, and a multi-candidate grid without validation rows.
    assert split_boundaries(10, SplitSpec(0.9, 0.09)) == (9, 9)


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(0.7, 0.3)
    with pytest.raises(ValueError):
        SplitSpec(0.0, 0.2)


def test_split_segments_cover_input_exactly():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(5, 200))
        tf = float(rng.uniform(0.2, 0.7))
        vf = float(rng.uniform(0.05, 0.25))
        i_train, i_val = split_boundaries(n, SplitSpec(tf, vf))
        assert (i_train, i_val) == (int(np.floor(n * tf)), int(np.floor(n * (tf + vf))))
        spans = [range(0, i_train), range(i_train, i_val), range(i_val, n)]
        assert [i for span in spans for i in span] == list(range(n))


# ---------------------------------------------------------------- embed

def test_embed_basic():
    ds = embed(TimeSeries([1.0, 2.0, 3.0, 4.0]), lags=2, horizon=1)
    assert ds.X.tolist() == [[1.0, 2.0], [2.0, 3.0]]
    assert ds.Y.tolist() == [[3.0], [4.0]]
    assert ds.origin_indices.tolist() == [1, 2]


def test_embed_horizon_two():
    ds = embed(TimeSeries([1.0, 2.0, 3.0, 4.0, 5.0]), lags=1, horizon=2)
    assert ds.X.tolist() == [[1.0], [2.0], [3.0]]
    assert ds.Y.tolist() == [[3.0], [4.0], [5.0]]


def test_embed_too_short():
    with pytest.raises(ValueError, match="series too short"):
        embed(TimeSeries([1.0, 2.0, 3.0]), lags=3, horizon=1)


def test_embed_row_count_randomized():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(3, 60))
        lags = int(rng.integers(1, 8))
        horizon = int(rng.integers(1, 4))
        ts = TimeSeries(rng.normal(size=n))
        if n - lags - horizon + 1 < 1:
            with pytest.raises(ValueError):
                embed(ts, lags, horizon)
            continue
        ds = embed(ts, lags, horizon)
        assert ds.n_samples == n - lags - horizon + 1
        assert ds.n_features == lags


def test_an_embedded_origin_range_is_that_slice_of_the_full_embedding():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(3, 60))
        lags = int(rng.integers(1, 8))
        horizon = int(rng.integers(1, 4))
        if n - lags - horizon + 1 < 1:
            continue
        ts = TimeSeries(rng.normal(size=n))
        full = embed(ts, lags, horizon)
        start = int(rng.integers(lags - 1, n - horizon))
        stop = int(rng.integers(start + 1, n - horizon + 1))
        part = _embed_range(ts, lags, horizon, start, stop)
        keep = (full.origin_indices >= start) & (full.origin_indices < stop)
        ref = full.take(np.flatnonzero(keep))
        for name in ("X", "Y", "origin_indices"):
            assert getattr(part, name).tobytes() == getattr(ref, name).tobytes()


# ------------------------------------------------------- WindowedDataset

def test_no_reference_a_caller_holds_can_change_a_dataset():
    X, Y, origins = np.arange(6.0).reshape(3, 2), np.zeros((3, 1)), np.arange(3)
    # A read-only array may still be written through a view made before it was frozen.
    frozen_X = np.arange(6.0).reshape(3, 2)
    writer = frozen_X[:]
    frozen_X.setflags(write=False)
    for ds in (WindowedDataset(X, Y, origins), WindowedDataset(frozen_X, Y, origins)):
        X[0, 0] = writer[0, 0] = Y[0, 0] = origins[0] = -1
        assert ds.X[0, 0] == 0.0 and ds.Y[0, 0] == 0.0 and ds.origin_indices[0] == 0
        for arr in (ds.X, ds.Y, ds.origin_indices):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 5


def test_package_made_datasets_hold_their_rows_once():
    ts = TimeSeries(np.cumsum(np.random.default_rng(2).normal(size=3000)))
    full = embed(ts, 40, 1)
    train, val = full.take(np.arange(2200)), full.take(np.arange(2200, full.n_samples))
    builds = [lambda: [embed(ts, 40, 1)], lambda: [full.take(np.arange(0, 2900, 2))]]
    builds += [lambda kind=kind: harness._scale_pair(kind, train, val)
               for kind in ("zscore", "minmax")]
    for build in builds:
        tracemalloc.start()
        try:
            datasets = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One copy of each X, plus Y and the origins: a second copy would double it.
        assert peak < 1.3 * sum(ds.X.nbytes for ds in datasets)
        assert not any(ds.X.flags.writeable for ds in datasets)


# ---------------------------------------------------------------- scalers

def test_zscore_two_point_example():
    s = fit_scaler(np.array([[0.0], [2.0]]), "zscore")
    assert s.center[0] == 1.0 and s.scale[0] == 1.0
    assert apply_scaler(s, np.array([[1.0]]))[0, 0] == 0.0


def test_none_scaler_is_identity():
    rows = np.arange(6.0).reshape(3, 2)
    s = fit_scaler(rows, "none")
    assert np.array_equal(apply_scaler(s, rows), rows)


def test_minmax_example():
    s = fit_scaler(np.array([[0.0], [10.0]]), "minmax")
    assert apply_scaler(s, np.array([[5.0]]))[0, 0] == 0.5


def test_scaler_round_trip_randomized():
    # apply_scaler is (x - center) / scale exactly, and x * scale + center
    # inverts it to within rounding.
    rng = np.random.default_rng(3)
    for kind in ("none", "zscore", "minmax"):
        for _ in range(20):
            rows = rng.normal(scale=rng.uniform(0.1, 50), size=(int(rng.integers(2, 40)), 5))
            s = fit_scaler(rows, kind)
            other = rng.normal(size=(7, 5))
            scaled = apply_scaler(s, other)
            assert scaled.tobytes() == ((other - s.center) / s.scale).tobytes()
            back = scaled * s.scale + s.center
            scale = max(1.0, float(np.abs(rows).max()), float(np.abs(other).max()))
            assert np.abs(back - other).max() <= 1e-12 * scale


def test_scaler_statistics_ignore_validation_rows():
    rng = np.random.default_rng(4)
    full = rng.normal(size=(50, 4))
    n_train = 30
    s1 = fit_scaler(full[:n_train], "zscore")
    # Mangling every validation/test row must leave the fitted statistics alone.
    full[n_train:] = 1e9
    s2 = fit_scaler(full[:n_train], "zscore")
    assert np.array_equal(s1.center, s2.center) and np.array_equal(s1.scale, s2.scale)


def test_zscore_rejects_constant_column():
    with pytest.raises(ValueError, match="constant"):
        fit_scaler(np.ones((5, 2)), "zscore")


def test_minmax_constant_column_round_trips():
    rows = np.column_stack([np.ones(4), np.arange(4.0)])
    s = fit_scaler(rows, "minmax")
    scaled = apply_scaler(s, rows)
    assert np.array_equal(scaled[:, 0], np.zeros(4)) and s.scale[0] == 1.0
    assert np.array_equal(scaled * s.scale + s.center, rows)


def test_apply_scaler_dimension_mismatch():
    s = fit_scaler(np.ones((3, 2)) * np.arange(2), "minmax")
    with pytest.raises(ValueError, match="feature columns"):
        apply_scaler(s, np.ones((3, 5)))


def test_scaler_kind_validation():
    with pytest.raises(ValueError, match="unknown scaler"):
        fit_scaler(np.ones((2, 2)), "robust")
    with pytest.raises(ValueError, match="unknown scaler"):
        Scaler("robust", np.zeros(1), np.ones(1))
