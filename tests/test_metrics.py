"""Metric tests against a brute-force enumeration oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynabo.engine import RunTrace, StepRecord
from dynabo.metrics import (
    ScoredSeries,
    TraceStats,
    best_so_far,
    offline_performance,
    summarize,
    windowed_best,
)


def brute_force_b(values, w):
    """Oracle: literal double loop over the definition, exact summation."""
    import math

    bests = []
    for t in range(len(values)):
        best = values[t]
        for i in range(max(0, t - w), t + 1):
            best = min(best, values[i])
        bests.append(best)
    return math.fsum(bests) / len(values)


def test_hand_case():
    series = ScoredSeries([5, 3, 4, 6, 2], window=5)
    assert np.allclose(windowed_best(series), [5, 3, 3, 3, 2])
    assert offline_performance(series) == pytest.approx(3.2)


def test_constant_series():
    assert offline_performance(ScoredSeries([4.5, 4.5, 4.5], window=3)) == 4.5


def test_window_one():
    # window 1 keeps only the previous value in play
    series = ScoredSeries([3, 5, 1, 4], window=1)
    assert np.allclose(windowed_best(series), [3, 3, 1, 1])


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        w = int(rng.choice([1, 5, 10]))
        values = rng.normal(size=n)
        assert offline_performance(ScoredSeries(values, w)) == brute_force_b(values, w)


def test_validation():
    with pytest.raises(ValueError):
        ScoredSeries([], window=5)
    with pytest.raises(ValueError):
        ScoredSeries([1.0], window=0)
    with pytest.raises(ValueError):
        ScoredSeries([np.nan], window=5)
    with pytest.raises(ValueError):
        best_so_far([])


def test_best_so_far():
    assert np.allclose(best_so_far([3, 1, 2]), [3, 1, 1])
    dec = [5.0, 4.0, 2.0, 1.0]
    assert np.allclose(best_so_far(dec), dec)


def test_best_so_far_equals_full_window():
    rng = np.random.default_rng(5)
    values = rng.normal(size=30)
    series = ScoredSeries(values, window=len(values))
    assert np.allclose(windowed_best(series), best_so_far(values))


@given(
    values=st.lists(st.floats(-100, 100), min_size=1, max_size=50),
    w=st.integers(1, 12),
)
@settings(max_examples=100, deadline=None)
def test_windowed_best_below_raw(values, w):
    series = ScoredSeries(values, w)
    assert offline_performance(series) <= np.mean(values) + 1e-9
    assert np.all(windowed_best(series) <= np.asarray(values) + 1e-12)


@given(
    values=st.lists(st.floats(-50, 50), min_size=1, max_size=30),
    w=st.integers(1, 8),
)
@settings(max_examples=100, deadline=None)
def test_matches_oracle_property(values, w):
    assert offline_performance(ScoredSeries(values, w)) == brute_force_b(values, w)


def trace_of(scored, warmup=(9.0,)):
    """A run trace whose warmup steps precede the given scored values."""
    phases = ["warmup"] * len(warmup) + ["scored"] * len(scored)
    steps = tuple(
        StepRecord(i, np.zeros(1), float(i), float(y), phase, "explore_exploit",
                   np.nan, 0.0, 1.0)
        for i, (y, phase) in enumerate(zip([*warmup, *scored], phases))
    )
    return RunTrace(steps, ())


def test_summarize_single_trace():
    # the warmup value 9.0 would be the series' worst; it must not count
    summary = summarize([trace_of([1.0, 2.0, 3.0])], window=5)
    assert summary.mean.offline_performance == offline_performance(
        ScoredSeries([1.0, 2.0, 3.0], 5)
    )
    assert summary.std == TraceStats(0.0, 0.0, 0.0)
    assert summary.per_trace[0].steps == 3


def test_summarize_two_traces_hand_arithmetic():
    # constant traces make B equal the constant: mean 2, sample std sqrt(2)
    summary = summarize([trace_of([1.0, 1.0]), trace_of([3.0, 3.0])], window=5)
    assert summary.mean.offline_performance == pytest.approx(2.0)
    assert summary.std.offline_performance == pytest.approx(np.sqrt(2.0))


def test_summarize_pct_diff():
    summary = summarize([trace_of([1.0] * 10), trace_of([1.0] * 15)], window=5,
                        reference_steps=10)
    assert summary.per_trace[0].iters_pct_diff == pytest.approx(0.0)
    assert summary.per_trace[1].iters_pct_diff == pytest.approx(50.0)
    assert summary.mean.iters_pct_diff == pytest.approx(25.0)
    no_ref = summarize([trace_of([1.0] * 10)], window=5)
    assert no_ref.per_trace[0].iters_pct_diff == 0.0


def test_summarize_applies_one_rule_to_every_column():
    # sample mean and std of each column, as numpy computes them on that column
    traces = [trace_of([float(k)] * n) for k, n in [(1, 4), (2, 7), (5, 5), (3, 9)]]
    summary = summarize(traces, window=3, reference_steps=6)
    for name in ("offline_performance", "steps", "iters_pct_diff"):
        column = np.array([getattr(t, name) for t in summary.per_trace], dtype=float)
        assert getattr(summary.mean, name) == float(column.mean())
        assert getattr(summary.std, name) == float(column.std(ddof=1))
    assert summary.std.steps == pytest.approx(np.sqrt(14.75 / 3.0))  # steps 4, 7, 5, 9


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([], window=5)
