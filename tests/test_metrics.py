import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ewtforecast import metrics
from ewtforecast.metrics import (
    EvalSeries,
    compute_metrics,
    dstat,
    friedman_nemenyi,
    wilcoxon_signed_rank,
)

from oracles import wilcoxon_exact_bruteforce


# ------------------------------------------------------------- error metrics

def test_two_point_example():
    ms = compute_metrics(EvalSeries(actuals=[2.0, 4.0], forecasts=[1.0, 2.0]))
    assert ms.mae == 1.5
    assert ms.mse == 2.5
    assert ms.rmse == pytest.approx(np.sqrt(2.5))


def test_perfect_forecasts_are_all_zero():
    x = np.array([3.0, -1.0, 2.0])
    ms = compute_metrics(EvalSeries(x, x.copy(), previous=[2.5, 3.0, -1.0], train=[1.0, 2.0, 4.0]))
    assert ms.mae == 0.0 and ms.mse == 0.0 and ms.rmse == 0.0 and ms.mase == 0.0


def test_mase_unrolled_example():
    # Training diffs of [1,2,3] average to 1; test absolute errors are 1 and 3.
    ms = compute_metrics(EvalSeries(actuals=[10.0, 10.0], forecasts=[11.0, 13.0],
                                    train=[1.0, 2.0, 3.0]))
    assert ms.mase == 2.0


def test_mape_is_a_raw_fraction():
    ms = compute_metrics(EvalSeries(actuals=[2.0], forecasts=[3.0]))
    assert ms.mape == 0.5


def test_mape_unavailable_on_zero_actual():
    ms = compute_metrics(EvalSeries(actuals=[0.0, 1.0], forecasts=[1.0, 1.0]))
    assert ms.mape is None


def test_mase_unavailable_on_constant_training_series():
    ms = compute_metrics(EvalSeries(actuals=[1.0], forecasts=[2.0], train=[5.0, 5.0, 5.0]))
    assert ms.mase is None


def test_mae_never_exceeds_rmse_randomized():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        ms = compute_metrics(EvalSeries(rng.normal(size=n), rng.normal(size=n)))
        assert ms.mae <= ms.rmse + 1e-12
        assert ms.mse == pytest.approx(ms.rmse ** 2)


# ------------------------------------------------------------- dstat

def test_dstat_both_steps_correct():
    ev = EvalSeries(actuals=[2.0, 1.0], forecasts=[1.5, 1.2], previous=[1.0, 2.0])
    assert dstat(ev) == 100.0


def test_dstat_ties_score_zero():
    # Forecasting no move gives a zero product, which the strict inequality rejects.
    ev = EvalSeries(actuals=[2.0, 3.0], forecasts=[1.0, 2.0], previous=[1.0, 2.0])
    assert dstat(ev) == 0.0


def test_dstat_anti_forecast_scores_zero():
    ev = EvalSeries(actuals=[2.0, 1.0], forecasts=[0.5, 2.5], previous=[1.0, 2.0])
    assert dstat(ev) == 0.0


def test_dstat_requires_previous():
    with pytest.raises(ValueError, match="preceding"):
        dstat(EvalSeries(actuals=[1.0], forecasts=[1.0]))


def test_dstat_range_randomized():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        ev = EvalSeries(rng.normal(size=n), rng.normal(size=n), previous=rng.normal(size=n))
        val = dstat(ev)
        assert 0.0 <= val <= 100.0


# ------------------------------------------------------------- wilcoxon

def test_wilcoxon_identical_samples_degenerate():
    a = np.arange(8.0)
    res = wilcoxon_signed_rank(a, a.copy())
    assert res.method == "degenerate"
    assert res.p_value == 1.0


def test_wilcoxon_uniform_shift_minimal_statistic():
    a = np.arange(6.0) + 1.0
    res = wilcoxon_signed_rank(a, a - 0.5)
    assert res.statistic == 0.0
    assert res.p_value == pytest.approx(2.0 / 2 ** 6)
    assert res.p_value < 0.05


def test_wilcoxon_swap_symmetry():
    rng = np.random.default_rng(2)
    for n in (8, 15, 40):
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        r1 = wilcoxon_signed_rank(a, b)
        r2 = wilcoxon_signed_rank(b, a)
        assert r1.p_value == pytest.approx(r2.p_value, abs=1e-12)
        assert r1.statistic == r2.statistic


def test_wilcoxon_exact_matches_bruteforce_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(6, 12))
        a = rng.normal(size=n)
        b = a - rng.choice([-1.0, 0.5, 1.0, 2.0], size=n) * rng.uniform(0.1, 1.0)
        res = wilcoxon_signed_rank(a, b)
        t_obs, p_obs = wilcoxon_exact_bruteforce(a - b)
        assert res.statistic == pytest.approx(t_obs)
        assert res.p_value == pytest.approx(p_obs, abs=1e-12)


def test_wilcoxon_exact_handles_tied_ranks():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    b = a - np.array([0.5, -0.5, 0.5, 0.5, -0.5, 0.5, 1.0])  # many tied |d|
    res = wilcoxon_signed_rank(a, b)
    t_obs, p_obs = wilcoxon_exact_bruteforce(a - b)
    assert res.method == "exact"
    assert res.p_value == pytest.approx(p_obs, abs=1e-12)


def tie_pattern_sample(rng, size, distinct):
    """``size`` finite values drawn from ``distinct`` levels (heavy ties when
    few, mixed when moderate) or, for ``distinct=None``, continuous (no ties)."""
    if distinct is None:
        return rng.normal(size=size)
    return rng.integers(-distinct, distinct + 1, size=size) * 0.25


TIE_PATTERNS = st.sampled_from([1, 3, 20, 1000, None])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 120), TIE_PATTERNS, st.integers(0, 2**32 - 1))
def test_average_ranks_equal_scipy_rankdata_bit_for_bit(size, distinct, seed):
    x = tie_pattern_sample(np.random.default_rng(seed), size, distinct)
    assert metrics._average_ranks(x).tobytes() == scipy.stats.rankdata(x).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.integers(2, 30), TIE_PATTERNS, st.integers(0, 2**32 - 1))
def test_nemenyi_rank_table_equals_scipy_rankdata_by_column(k, n, distinct, seed):
    table = tie_pattern_sample(np.random.default_rng(seed), (k, n), distinct)
    expected = scipy.stats.rankdata(table, axis=0)
    assert friedman_nemenyi(table).rank_table.tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(26, 200), TIE_PATTERNS, st.integers(-4, 4), st.integers(0, 2**32 - 1))
def test_wilcoxon_normal_branch_matches_scipy(n, distinct, shift, seed):
    # Differences on a grid of quarters tie heavily or mildly, continuous ones
    # do not; a shift moves them off zero, out to the far tail. Zero
    # differences are dropped by both; the normal branch needs 26 others.
    rng = np.random.default_rng(seed)
    diff = tie_pattern_sample(rng, n, distinct) + 0.25 * shift
    a = rng.integers(-400, 401, size=n) * 0.25  # a - (a - diff) == diff on the grid
    b = a - diff
    res = wilcoxon_signed_rank(a, b)
    if np.count_nonzero(a - b) <= 25:
        assert res.method in ("exact", "degenerate")
        return
    assert res.method == "normal"
    ref = scipy.stats.wilcoxon(a, b, correction=False, method="approx")
    assert res.statistic == ref.statistic
    assert res.p_value == pytest.approx(ref.pvalue, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_wilcoxon_rejects_a_non_finite_sample(bad):
    a = np.arange(8.0)
    for errors_a, errors_b in ((np.r_[a[:-1], bad], a + 1.0), (a, np.r_[bad, a[1:]])):
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank(errors_a, errors_b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nemenyi_rejects_a_non_finite_table(bad):
    errors = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 4.0]])
    errors[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        friedman_nemenyi(errors)


def test_wilcoxon_length_validation():
    with pytest.raises(ValueError, match="at least 6"):
        wilcoxon_signed_rank([1.0, 2.0], [2.0, 1.0])
    with pytest.raises(ValueError, match="equal length"):
        wilcoxon_signed_rank(np.ones(6), np.ones(7))


# ------------------------------------------------------------- nemenyi

def test_dominant_model_gets_rank_one():
    errors = np.array([
        [1.0, 1.0, 1.0, 1.0],
        [2.0, 3.0, 2.0, 5.0],
        [3.0, 2.0, 4.0, 2.0],
    ])
    res = friedman_nemenyi(errors)
    assert res.average_ranks[0] == 1.0


def test_tied_columns_share_average_ranks():
    errors = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
    res = friedman_nemenyi(errors)
    assert np.allclose(res.average_ranks, [1.5, 1.5, 3.0])


def test_critical_difference_hand_value():
    # k = 2, N = 10: 1.960 * sqrt(2 * 3 / 60) = 1.960 * 0.31622776601683794.
    errors = np.vstack([np.arange(10.0), np.arange(10.0) + 1.0])
    res = friedman_nemenyi(errors, alpha=0.05)
    assert res.critical_difference == pytest.approx(0.6198064213930023, abs=1e-12)


def test_alpha_ten_percent_value():
    errors = np.vstack([np.arange(10.0), np.arange(10.0) + 1.0])
    res = friedman_nemenyi(errors, alpha=0.10)
    assert res.critical_difference == pytest.approx(1.645 * np.sqrt(6.0 / 60.0), abs=1e-12)


def test_nemenyi_validation():
    errors = np.ones((2, 3))
    with pytest.raises(ValueError, match="alpha"):
        friedman_nemenyi(errors, alpha=0.01)
    with pytest.raises(ValueError, match="at least 2"):
        friedman_nemenyi(np.ones((1, 5)))
    with pytest.raises(ValueError, match="2..10|tabulated"):
        friedman_nemenyi(np.ones((11, 3)))
