"""Output checks and objective oracles, written apart from the dynabo package.

Nothing here imports dynabo.  The objective formulas, the slice minima
f*(t), the Gaussian-process posterior and the offline-performance score are
implemented again from their textbook definitions, so a check compares the
program with an independent computation, never with a stored copy of its own
output.  Every check returns a list of error strings; an empty list passes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar

# Branin on the unit square, centred and scaled by the usual constants
# 54.81 and 51.95 (Picheny et al. 2013), with the textbook coefficients.
_BRANIN_B = 5.1 / (4 * math.pi**2)
_BRANIN_C = 5 / math.pi
_BRANIN_T = 1 / (8 * math.pi)
BRANIN_GLOBAL_MIN = -1.0473938910928506

# Styblinski-Tang: minimum per coordinate, attained at u = -2.903534...
STYBLINSKI_TANG_MIN_PER_DIM = -39.16616570377142

VALUE_RTOL = 1e-9
ORACLE_TOL = 1e-9
METRIC_WINDOW = 5
_GRID = 4097


def branin_scaled(u1, u2):
    """Scaled Branin at unit-square coordinates ``(u1, u2)`` (broadcasts)."""
    x = 15.0 * np.asarray(u1, dtype=float) - 5.0
    y = 15.0 * np.asarray(u2, dtype=float)
    branin = (y - _BRANIN_B * x**2 + _BRANIN_C * x - 6.0) ** 2 + 10.0 * (1 - _BRANIN_T) * np.cos(x) + 10.0
    return (branin - 54.81) / 51.95


def styblinski_tang(u):
    """Styblinski-Tang summed over the last axis of ``u``."""
    u = np.asarray(u, dtype=float)
    return 0.5 * np.sum(u**4 - 16.0 * u**2 + 5.0 * u, axis=-1)


class BraninSlices:
    """Branin with one coordinate driven by time; f*(t) by grid plus refinement.

    ``time_dim`` is the Branin coordinate that time replaces.  The slice
    minimum comes from a dense grid over the free coordinate, refined by a
    bounded scalar search around every grid-local minimum.
    """

    lower = np.zeros(1)
    upper = np.ones(1)
    horizon = (0.0, 1.0)

    def __init__(self, time_dim: int):
        if time_dim not in (0, 1):
            raise ValueError("branin has two coordinates")
        self.time_dim = time_dim
        self._grid = np.linspace(0.0, 1.0, _GRID)
        self._cache: dict[float, float] = {}

    def value(self, x, t):
        x = np.asarray(x, dtype=float)[..., 0]
        return branin_scaled(t, x) if self.time_dim == 0 else branin_scaled(x, t)

    def _slice(self, t: float):
        if self.time_dim == 0:
            return lambda x: branin_scaled(t, x)
        return lambda x: branin_scaled(x, t)

    def fstar(self, t: float) -> float:
        t = float(t)
        if t not in self._cache:
            f = self._slice(t)
            g = self._grid
            v = f(g)
            best = float(v.min())
            interior = np.flatnonzero((v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:])) + 1
            for i in interior:
                res = minimize_scalar(
                    lambda z: float(f(z)), bounds=(g[i - 1], g[i + 1]),
                    method="bounded", options={"xatol": 1e-13},
                )
                best = min(best, float(res.fun))
            self._cache[t] = best
        return self._cache[t]


class StyblinskiTangSlices:
    """Styblinski-Tang in ``dims`` coordinates, one of them driven by time.

    The function is a sum over coordinates, so which one time replaces does
    not change it, and f*(t) has a closed form.
    """

    horizon = (-5.0, 5.0)

    def __init__(self, dims: int):
        self.lower = np.full(dims - 1, -5.0)
        self.upper = np.full(dims - 1, 5.0)
        self._rest = (dims - 1) * STYBLINSKI_TANG_MIN_PER_DIM

    def value(self, x, t):
        return styblinski_tang(x) + 0.5 * (t**4 - 16.0 * t**2 + 5.0 * t)

    def fstar(self, t: float) -> float:
        return self._rest + 0.5 * (t**4 - 16.0 * t**2 + 5.0 * t)


@dataclass
class Samples:
    """One engine run as the program reported it, in evaluation order."""

    x: np.ndarray  # (n, d)
    t: np.ndarray  # (n,)
    y: np.ndarray  # (n,)
    scored: np.ndarray  # (n,) bool
    window_lo: np.ndarray  # (n,)
    window_hi: np.ndarray  # (n,)


def check_domain(s: Samples, problem) -> list[str]:
    """Every sample inside the box and the horizon; time strictly increasing."""
    errors = []
    if np.any(s.x < problem.lower) or np.any(s.x > problem.upper):
        errors.append("a sample lies outside the box")
    t0, t1 = problem.horizon
    if np.any(s.t < t0) or np.any(s.t > t1):
        errors.append(f"a sample time lies outside the horizon [{t0}, {t1}] (max t {s.t.max()!r})")
    if np.any(np.diff(s.t) <= 0):
        errors.append("sample times do not strictly increase")
    return errors


def check_windows(s: Samples) -> list[str]:
    """Every scored sample of an adaptive run lies inside its recorded window."""
    t, lo, hi = s.t[s.scored], s.window_lo[s.scored], s.window_hi[s.scored]
    bad = np.flatnonzero((t < lo) | (t > hi))
    return [f"{bad.size} scored samples lie outside their window"] if bad.size else []


def check_budget(s: Samples, budget: int) -> list[str]:
    n = int(np.sum(s.scored))
    return [] if n == budget else [f"scored {n} steps, budget is {budget}"]


def check_values(s: Samples, problem) -> list[str]:
    """Every reported y equals the objective recomputed from its x and t."""
    want = np.array([problem.value(x, t) for x, t in zip(s.x, s.t)])
    bad = np.flatnonzero(np.abs(s.y - want) > VALUE_RTOL * (1.0 + np.abs(want)))
    return [f"{bad.size} values differ from the objective formula"] if bad.size else []


def check_above_oracle(s: Samples, problem) -> list[str]:
    """No y lies below the true minimum of its time slice."""
    fstar = np.array([problem.fstar(t) for t in s.t])
    bad = np.flatnonzero(s.y < fstar - ORACLE_TOL * (1.0 + np.abs(fstar)))
    return [f"{bad.size} values lie below f*(t)"] if bad.size else []


def windowed_regret(s: Samples, problem, window: int = METRIC_WINDOW) -> np.ndarray:
    """Per scored step, the smallest ``y - f*(t)`` over that step and the
    ``window`` scored steps before it (the CLI's ``metric_window`` rule)."""
    gap = np.array([y - problem.fstar(t) for t, y in zip(s.t[s.scored], s.y[s.scored])])
    return np.array([gap[max(0, i - window) : i + 1].min() for i in range(gap.size)])


def offline_performance(values, window: int = METRIC_WINDOW) -> float:
    values = np.asarray(values, dtype=float)
    best = [values[max(0, i - window) : i + 1].min() for i in range(values.size)]
    return math.fsum(best) / len(best)


def se_posterior(points, targets, query, log_ls, log_lt, log_sig2, log_noise):
    """Dense-inverse posterior of a separable squared-exponential GP.

    Targets are standardized first (population std; a spread below 1e-12
    counts as 1, as in dynabo); mean and variance are returned on the
    original scale, without observation noise.
    """
    points, query = np.asarray(points, float), np.asarray(query, float)
    mu = float(np.mean(targets))
    sd = float(np.std(targets))
    sd = sd if sd > 1e-12 else 1.0
    z = (np.asarray(targets, float) - mu) / sd
    scale = np.append(np.exp(log_ls), np.exp(log_lt))

    def k(a, b):
        diff = (a[:, None, :] - b[None, :, :]) / scale
        return math.exp(log_sig2) * np.exp(-0.5 * np.sum(diff**2, axis=-1))

    k_inv = np.linalg.inv(k(points, points) + math.exp(log_noise) * np.eye(len(points)))
    k_star = k(points, query)
    mean = k_star.T @ k_inv @ z
    var = math.exp(log_sig2) - np.sum(k_star * (k_inv @ k_star), axis=0)
    return mu + sd * mean, sd**2 * np.maximum(var, 0.0)


def check_posterior(mean, var, want_mean, want_var, scale: float) -> list[str]:
    """Program posterior against the dense-inverse one, to 1e-6 of the target scale."""
    errors = []
    if np.max(np.abs(mean - want_mean)) > 1e-6 * scale:
        errors.append(f"posterior mean off by {np.max(np.abs(mean - want_mean)):.3e}")
    if np.max(np.abs(var - want_var)) > 1e-6 * scale**2:
        errors.append(f"posterior variance off by {np.max(np.abs(var - want_var)):.3e}")
    return errors


# ---------------------------------------------------------------------------
# CLI artifacts


def read_cli_trace(path: Path) -> Samples:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    xs = sorted((k for k in rows[0] if k.startswith("x_")), key=lambda k: int(k[2:]))

    def col(key):
        return np.array([float(r[key]) for r in rows])

    return Samples(
        x=np.column_stack([col(k) for k in xs]),
        t=col("t"),
        y=col("y"),
        scored=np.array([r["phase"] == "scored" for r in rows]),
        window_lo=col("window_lo"),
        window_hi=col("window_hi"),
    )


def check_summary(summary_path: Path, mode: str, rep: int, s: Samples,
                  window: int = METRIC_WINDOW) -> list[str]:
    """The summary.csv row of one run against a recomputation from its trace:
    offline performance and scored-step count."""
    with open(summary_path, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if (r["mode"], r["repetition"]) == (mode, str(rep))]
    if len(rows) != 1:
        return [f"summary has {len(rows)} rows for {mode} rep {rep}"]
    errors = []
    want = offline_performance(s.y[s.scored], window)
    if abs(float(rows[0]["B"]) - want) > 1e-12 * (1.0 + abs(want)):
        errors.append(f"summary B for {mode} rep {rep} is {rows[0]['B']}, recomputed {want!r}")
    if float(rows[0]["steps"]) != float(np.sum(s.scored)):
        errors.append(f"summary steps for {mode} rep {rep} disagree with the trace")
    return errors


def check_identical(dir_a: Path, dir_b: Path) -> list[str]:
    """Two artifact directories hold the same file names with the same bytes."""
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    if names_a != names_b:
        return [f"artifact sets differ: {sorted(set(names_a) ^ set(names_b))}"]
    return [
        f"{name} differs between identical runs"
        for name in names_a
        if (dir_a / name).read_bytes() != (dir_b / name).read_bytes()
    ]
