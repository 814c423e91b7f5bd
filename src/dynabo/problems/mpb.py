"""Moving-peaks landscape: drifting cones whose envelope is the objective.

The landscape is the pointwise best of ``m`` peaks; each discrete change
perturbs every peak's height and width with Gaussian noise and slides its
location along a shift vector of fixed length.  Heights and widths reflect
at their configured range edges so the landscape never degenerates, and
locations reflect at the box walls with the shift component flipped.

Stepping is functional: a state carries its seed and step index, and the
next state is a pure function of the current one, so a change schedule can
be precomputed and evaluation stays deterministic.

The objective is returned negated (peaks are maxima; the library minimizes).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from importlib import resources

import numpy as np

from dynabo.optimizer import Box
from dynabo.problems.base import Problem

__all__ = [
    "MpbConfig",
    "MpbState",
    "mpb_init",
    "mpb_eval",
    "mpb_step",
    "scenario_presets",
    "make_mpb_scenario",
]


@dataclass(frozen=True)
class MpbConfig:
    peaks: int = 10
    dims: int = 5
    lower: float = 0.0
    upper: float = 100.0
    height_range: tuple[float, float] = (30.0, 70.0)
    width_range: tuple[float, float] = (1.0, 12.0)
    height_severity: float = 7.0
    width_severity: float = 1.0
    shift_severity: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.peaks < 1 or self.dims < 1:
            raise ValueError("need at least one peak and one dimension")
        if not self.lower < self.upper:
            raise ValueError("invalid bounds")
        for name, (lo, hi) in (
            ("height_range", self.height_range),
            ("width_range", self.width_range),
        ):
            if not (0 < lo <= hi):
                raise ValueError(f"{name} must be positive and ordered")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        for sev in (self.height_severity, self.width_severity, self.shift_severity):
            if sev < 0:
                raise ValueError("severities must be nonnegative")


@dataclass(frozen=True)
class MpbState:
    """Snapshot of all peaks after ``step_index`` changes."""

    config: MpbConfig
    heights: np.ndarray
    widths: np.ndarray
    locations: np.ndarray
    shifts: np.ndarray
    seed: int
    step_index: int


def _normalize_rows(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    return np.where(norms > 0, vectors / safe, 0.0)


def _reflect_interval(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Fold values back into [lo, hi] by reflection at the edges."""
    span = hi - lo
    if span == 0:
        return np.full_like(values, lo)
    phase = np.mod(values - lo, 2 * span)
    return lo + np.where(phase > span, 2 * span - phase, phase)


def mpb_init(config: MpbConfig, seed: int) -> MpbState:
    """Uniformly random peaks inside the configured ranges."""
    rng = np.random.default_rng([int(seed), 0])
    m, d = config.peaks, config.dims
    locations = rng.uniform(config.lower, config.upper, size=(m, d))
    heights = rng.uniform(*config.height_range, size=m)
    widths = rng.uniform(*config.width_range, size=m)
    directions = _normalize_rows(rng.normal(size=(m, d)))
    return MpbState(
        config=config,
        heights=heights,
        widths=widths,
        locations=locations,
        shifts=config.shift_severity * directions,
        seed=int(seed),
        step_index=0,
    )


def mpb_eval(state: MpbState, x) -> float:
    """Negated height of the best peak at ``x``."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape != (state.config.dims,):
        raise ValueError(f"expected {state.config.dims} coordinates")
    dist_sq = np.sum((x[None, :] - state.locations) ** 2, axis=1)
    return -float(np.max(state.heights / (1.0 + state.widths * dist_sq)))


def mpb_step(state: MpbState) -> MpbState:
    """One landscape change; pure, seeded by (seed, next step index)."""
    cfg = state.config
    rng = np.random.default_rng([state.seed, state.step_index + 1])
    m, d = cfg.peaks, cfg.dims
    h_noise = rng.normal(size=m)
    w_noise = rng.normal(size=m)
    r = rng.normal(size=(m, d))

    heights = _reflect_interval(
        state.heights + cfg.height_severity * h_noise, *cfg.height_range
    )
    widths = _reflect_interval(
        state.widths + cfg.width_severity * w_noise, *cfg.width_range
    )
    # blend a fresh random direction with the previous one, keep length fixed
    combined = (1.0 - cfg.alpha) * r + cfg.alpha * state.shifts
    shifts = cfg.shift_severity * _normalize_rows(combined)

    locations = state.locations + shifts
    low = locations < cfg.lower
    locations = np.where(low, 2 * cfg.lower - locations, locations)
    high = locations > cfg.upper
    locations = np.where(high, 2 * cfg.upper - locations, locations)
    shifts = np.where(low | high, -shifts, shifts)
    locations = np.clip(locations, cfg.lower, cfg.upper)

    return replace(
        state,
        heights=heights,
        widths=widths,
        locations=locations,
        shifts=shifts,
        step_index=state.step_index + 1,
    )


def scenario_presets() -> dict:
    """Scenario table shipped with the package."""
    text = resources.files("dynabo.problems").joinpath("mpb_scenarios.json").read_text()
    return json.loads(text)


def _config_from_preset(preset: dict) -> MpbConfig:
    """An ``MpbConfig`` from a preset's entries of the same names; the JSON
    lists become tuples."""
    values = (preset[f.name] for f in fields(MpbConfig))
    return MpbConfig(*(tuple(v) if isinstance(v, list) else v for v in values))


def make_mpb_scenario(scenario: int | str, seed: int = 0) -> Problem:
    """Benchmark scenario as a time-varying Problem.

    The landscape changes at fixed epochs along the horizon; the full change
    schedule is precomputed so ``evaluate`` is pure.  Between changes the
    objective is constant in ``t``.
    """
    presets = scenario_presets()["scenarios"]
    key = str(scenario)
    if key not in presets:
        raise ValueError(f"unknown scenario {scenario!r}; have {sorted(presets)}")
    preset = presets[key]
    config = _config_from_preset(preset)
    interval = float(preset["change_interval"])
    horizon = float(preset["horizon"])
    if interval <= 0 or horizon <= 0:
        raise ValueError("change_interval and horizon must be positive")
    n_changes = int(np.ceil(horizon / interval))
    states = [mpb_init(config, seed)]
    for _ in range(n_changes):
        states.append(mpb_step(states[-1]))

    def evaluate(x, t: float) -> float:
        idx = int(np.clip(np.floor(t / interval), 0, n_changes))
        return mpb_eval(states[idx], x)

    d = config.dims
    return Problem(
        name=f"mpb_scenario_{key}",
        spatial_bounds=Box(np.full(d, config.lower), np.full(d, config.upper)),
        horizon=(0.0, horizon),
        evaluate=evaluate,
        metadata={
            "scenario": key,
            "preset": dict(preset),
            "change_interval": interval,
            "n_changes": n_changes,
            "max_height": config.height_range[1],
            "states": states,
        },
    )
