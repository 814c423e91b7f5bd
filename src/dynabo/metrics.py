"""Tracking-quality metrics over run traces.

The central score is offline performance: the mean over iterations of the
best value seen within a trailing window.  Lower is better throughout.
Warmup evaluations are excluded in one place, ``RunTrace.scored_values``, so
every consumer of a trace gets the same scored series.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

__all__ = [
    "ScoredSeries",
    "offline_performance",
    "best_so_far",
    "ModeSummary",
    "TraceStats",
    "summarize",
]


@dataclass(frozen=True)
class ScoredSeries:
    """Scored objective values in evaluation order plus the metric window."""

    values: np.ndarray
    window: int = 5

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).ravel()
        if values.size == 0:
            raise ValueError("series must be nonempty")
        if not np.all(np.isfinite(values)):
            raise ValueError("series values must be finite")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        object.__setattr__(self, "values", values)


def windowed_best(series: ScoredSeries) -> np.ndarray:
    """Best value within the trailing window at each iteration.

    Element ``t`` is the minimum of the current value and the ``window``
    values before it; the window truncates at the start of the series.
    """
    values, w = series.values, series.window
    return np.array([values[max(0, t - w) : t + 1].min() for t in range(len(values))])


def offline_performance(series: ScoredSeries) -> float:
    """Mean of the trailing-window best values; lower is better.

    The mean uses exact (correctly rounded) summation so the result does
    not depend on accumulation order.
    """
    wb = windowed_best(series)
    return math.fsum(wb) / wb.size


def best_so_far(values) -> np.ndarray:
    """Running minimum of a nonempty value sequence."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("values must be nonempty")
    return np.minimum.accumulate(values)


@dataclass(frozen=True)
class TraceStats:
    """Summary columns of one trace, or their mean or std over traces."""

    offline_performance: float
    steps: float
    iters_pct_diff: float


@dataclass(frozen=True)
class ModeSummary:
    per_trace: list[TraceStats]
    mean: TraceStats
    std: TraceStats


def summarize(traces, window: int = 5, reference_steps: int | None = None) -> ModeSummary:
    """Aggregate offline performance across repeated run traces.

    Each trace contributes its scored values (warmup steps are dropped).
    ``reference_steps`` anchors the iteration-count difference column:
    each trace reports ``(steps - reference) / reference`` in percent, 0
    when no reference is given.  Every column's spread is the sample
    standard deviation, 0.0 for a single trace.
    """
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace")
    per_trace = []
    for trace in traces:
        values = trace.scored_values
        b = offline_performance(ScoredSeries(values, window))
        steps = int(values.size)
        if reference_steps:
            pct = 100.0 * (steps - reference_steps) / reference_steps
        else:
            pct = 0.0
        per_trace.append(TraceStats(b, steps, pct))
    # one contiguous array per column, so each mean keeps numpy's summation order
    columns = [np.array(c, dtype=float) for c in zip(*(astuple(t) for t in per_trace))]
    return ModeSummary(
        per_trace=per_trace,
        mean=TraceStats(*(float(c.mean()) for c in columns)),
        std=TraceStats(*(float(c.std(ddof=1)) if c.size > 1 else 0.0 for c in columns)),
    )
