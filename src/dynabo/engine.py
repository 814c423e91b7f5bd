"""Optimization loops over a time-varying objective.

Four modes share one loop skeleton: sample a space-filling warmup, then
repeatedly train the surrogate, pick the feasible time range for the next
evaluation, minimize the acquisition over space x time, and evaluate.
They differ only in how the time range is chosen and how the surrogate
treats the time coordinate:

``abo_adaptive_time``
    The next sample's time is free inside a window derived from the
    learnt temporal length-scale; the run ends when that window's lower
    edge passes the horizon, so the step count adapts to how fast the
    objective drifts.
``abo_fixed``
    Time advances by a fixed interval each step; the surrogate still
    learns temporal correlation and extrapolates to the next slice.  The
    run ends early when the next slice would pass the horizon.
``standard_bo``
    Time-naive control: same fixed stepping, but the surrogate is fit
    with a single isotropic length-scale across every input dimension,
    time included, so no temporal structure is exploited.
``tvb``
    Like ``abo_fixed`` but the temporal kernel is forced to the
    exponential (Matern 1/2) form, equivalent to discounting old samples
    by a constant forgetting factor per unit time; heuristic switching
    is disabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from dynabo.acquisition import (
    AcquisitionSpec,
    ExpectedImprovement,
    LowerConfidenceBound,
    PosteriorMean,
)
from dynabo.gp import (
    Dataset,
    GpModel,
    TrainConfig,
    TrainingError,
    _bounds_array,
    _tie_blocks,
    default_log_bounds,
    train,
)
from dynabo.kernels import (
    Hyperparameters,
    KernelForm,
    KernelSpec,
    _check_shapes,
    _check_spatial_dim,
    n_hyperparameters,
)
from dynabo.optimizer import Box, PsoConfig, latin_hypercube, optimize_acquisition
from dynabo.problems import Problem

__all__ = [
    "Mode",
    "DetectorConfig",
    "WarmupConfig",
    "EngineConfig",
    "StepRecord",
    "IncumbentRecord",
    "RunTrace",
    "feasible_window",
    "check_horizon",
    "learning_detector",
    "choose_heuristic",
    "run",
]

PHASE_WARMUP = "warmup"
PHASE_SCORED = "scored"
TAG_EXPLORE = "explore_exploit"
TAG_EXPLOIT = "pure_exploit"

# model-guided steps between exploring fits; the fits in between train from
# the previous fit alone
_RESTART_EVERY = 2


class Mode(str, Enum):
    STANDARD_BO = "standard_bo"
    ABO_FIXED = "abo_fixed"
    ABO_ADAPTIVE_TIME = "abo_adaptive_time"
    TVB = "tvb"


@dataclass(frozen=True)
class DetectorConfig:
    """Settling test on the learnt temporal length-scale.

    The model counts as learnt when the average change of the length-scale
    over the last ``window`` steps stays within ``rate`` per step.
    """

    window: int = 3
    rate: float = 0.1

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("detector window must be at least 1")
        if not (np.isfinite(self.rate) and self.rate > 0):
            raise ValueError("detector rate must be positive")


@dataclass(frozen=True)
class WarmupConfig:
    """Initial design: ``lhd`` space-filling samples over the first
    ``span`` of the horizon, then ``bo_steps`` model-guided steps that are
    tagged as warmup and excluded from scored metrics.  ``span`` defaults
    to ``lhd * fixed_interval``.
    """

    lhd: int = 2
    bo_steps: int = 0
    span: float | None = None

    def __post_init__(self):
        if self.lhd < 1:
            raise ValueError("need at least one initial sample")
        if self.bo_steps < 0:
            raise ValueError("bo_steps must be nonnegative")
        if self.span is not None and not (np.isfinite(self.span) and self.span > 0):
            raise ValueError("warmup span must be positive")


@dataclass(frozen=True)
class EngineConfig:
    """Everything a run needs besides the problem itself.

    ``min_lookahead`` is the smallest time gap between the current sample
    and the next one (no sampling in the past, nor at the present
    instant); ``lookahead_fraction`` caps how far ahead the adaptive mode
    may reach, as a fraction of the learnt temporal length-scale, and
    must lie in (0, 1].  ``budget`` counts scored evaluations only; every
    mode also ends its run when the next sample's earliest time would pass
    the horizon.

    ``fixed_hp`` skips training entirely and runs the loop with the given
    hyperparameters; ``freeze_after_warmup`` trains once at the first
    model-guided step and reuses that fit for the rest of the run.

    A fit explores, from the previous fit plus the best of
    ``8 * (train.restarts - 1)`` random vectors, each probed once (see
    ``TrainConfig``), when the run has no fit yet, during warmup, on every
    second model-guided step, and on the retry after a ``TrainingError``.
    Every other fit trains from the previous fit alone: consecutive
    datasets differ by one sample, so that fit already sits near the next
    optimum.

    ``seed`` is the run's only seed: each fit and each search draws from a
    seed derived from it, which ``run`` passes to ``train`` and
    ``optimize_acquisition``.
    """

    mode: Mode
    budget: int = 50
    min_lookahead: float = 0.1
    lookahead_fraction: float = 1.0
    fixed_interval: float = 1.0
    warmup: WarmupConfig = field(default_factory=WarmupConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    flexible_heuristics: bool = False
    acquisition: AcquisitionSpec = field(default_factory=LowerConfidenceBound)
    kernel: KernelSpec = field(default_factory=KernelSpec)
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    fixed_hp: Hyperparameters | None = None
    freeze_after_warmup: bool = False
    pso: PsoConfig = field(default_factory=PsoConfig)

    def __post_init__(self):
        object.__setattr__(self, "mode", Mode(self.mode))
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if not (np.isfinite(self.min_lookahead) and self.min_lookahead > 0):
            raise ValueError("min_lookahead must be positive")
        if not (0.0 < self.lookahead_fraction <= 1.0):
            raise ValueError("lookahead_fraction must lie in (0, 1]")
        if not (np.isfinite(self.fixed_interval) and self.fixed_interval > 0):
            raise ValueError("fixed_interval must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.mode is Mode.STANDARD_BO:
            k = self.kernel
            if k.has_sum or k.spatial is not k.temporal:
                raise ValueError(
                    "standard_bo fits one isotropic form across all inputs; "
                    "spatial and temporal kernel forms must match and be plain"
                )
        # the fit's tie rule and the fixed hyperparameters' shapes, checked
        # here so that no run fails on them midway
        kernel = _mode_kernel(self)
        _tie_blocks(kernel, 0, _mode_tie(self))
        if self.fixed_hp is not None:
            try:
                _check_shapes(kernel, self.fixed_hp)
            except ValueError as err:
                raise ValueError(f"fixed_hp does not fit mode {self.mode.value}: {err}") from None


@dataclass(frozen=True)
class StepRecord:
    """One evaluation: where, when, what it scored, and the loop state
    (phase, acquisition tag, learnt temporal length-scale, active time
    range) at the moment it was chosen.  ``lt_hat`` is NaN for the
    space-filling warmup samples, which precede any model.
    """

    index: int
    x: np.ndarray
    t: float
    y: float
    phase: str
    heuristic: str
    lt_hat: float
    window_lo: float
    window_hi: float


@dataclass(frozen=True)
class IncumbentRecord:
    step_index: int
    x: np.ndarray
    t: float
    y: float


@dataclass(frozen=True)
class RunTrace:
    """Complete record of one run; immutable once produced.

    ``aborted`` marks a run cut short by repeated training failure; its
    steps up to that point are kept.
    """

    steps: tuple[StepRecord, ...]
    incumbents: tuple[IncumbentRecord, ...]
    aborted: bool = False

    @property
    def scored_values(self) -> np.ndarray:
        return np.array([s.y for s in self.steps if s.phase == PHASE_SCORED], dtype=float)

    @property
    def n_scored(self) -> int:
        return sum(1 for s in self.steps if s.phase == PHASE_SCORED)


def feasible_window(t_c: float, min_lookahead: float, fraction: float, l_t: float):
    """Time range for the next sample given current time ``t_c``.

    Lower edge: ``t_c + min_lookahead``.  Upper edge: ``t_c + fraction *
    l_t`` so the model never extrapolates further than a (scaled)
    temporal length-scale.  A learnt length-scale short enough to put the
    upper edge below the lower one degenerates to a slice at the lower
    edge, preserving forward progress.
    """
    t_lo = t_c + min_lookahead
    t_hi = t_c + fraction * l_t
    if t_hi < t_lo:
        t_hi = t_lo
    return t_lo, t_hi


def learning_detector(lt_history, window: int, rate: float) -> bool:
    """True when the learnt temporal length-scale has settled.

    Compares the newest value against the one ``window`` entries back;
    settled means the average change per step is within ``rate`` in
    magnitude.  Histories too short for that comparison are never
    settled.
    """
    history = list(lt_history)
    if len(history) <= window:
        return False
    delta = (history[-1] - history[-1 - window]) / window
    return -rate <= delta <= rate


def choose_heuristic(flexible: bool, learned: bool, base: AcquisitionSpec) -> AcquisitionSpec:
    """Switch to pure exploitation once the model has settled, if allowed."""
    if flexible and learned:
        return PosteriorMean()
    return base


def _tag(acq: AcquisitionSpec) -> str:
    return TAG_EXPLOIT if isinstance(acq, PosteriorMean) else TAG_EXPLORE


def _derived_seed(base: int, *path: int) -> int:
    return int(np.random.default_rng([base, *path]).integers(0, 2**63 - 1))


def _windowed_incumbent(dataset: Dataset, window: int):
    """Lowest raw target among the last ``window`` evaluations.

    A moving landscape makes old minima stale, so the incumbent only
    looks back as far as the settling detector does.
    """
    y = dataset.targets[-window:]
    k = int(np.argmin(y)) + max(0, dataset.n - window)
    point = dataset.points[k]
    return point[:-1].copy(), float(point[-1]), float(dataset.targets[k])


def _mode_kernel(config: EngineConfig) -> KernelSpec:
    """The kernel a mode fits: ``tvb`` forces the exponential temporal form."""
    if config.mode is Mode.TVB:
        return replace(config.kernel, temporal=KernelForm.MATERN12)
    return config.kernel


def _mode_tie(config: EngineConfig) -> str:
    """``standard_bo`` ties every length-scale; the other modes train as set."""
    return "all" if config.mode is Mode.STANDARD_BO else config.train.tie_lengthscales


def _warmup_span(config: EngineConfig) -> float:
    span = config.warmup.span
    return config.warmup.lhd * config.fixed_interval if span is None else span


def check_horizon(problem: Problem, config: EngineConfig) -> None:
    """Reject a warmup span longer than the problem's horizon: its
    space-filling samples would land past the horizon's end, where
    ``Problem.evaluate`` need not be defined."""
    t_start, t_end = problem.horizon
    span = _warmup_span(config)
    if t_start + span > t_end:  # the warmup box's upper time edge
        raise ValueError(
            f"warmup span {span!r} is longer than the horizon {problem.horizon!r}"
        )


def _initial_hp(problem: Problem, kernel: KernelSpec, span: float) -> Hyperparameters:
    widths = np.maximum(problem.spatial_bounds.width, 1e-12)
    spatial = 0.5 * float(np.exp(np.mean(np.log(widths))))
    return Hyperparameters.default(
        problem.spatial_dim, kernel, spatial_scale=spatial, temporal_scale=span
    )


def run(problem: Problem, config: EngineConfig) -> RunTrace:
    """Execute one optimization run; deterministic given ``config.seed``.

    Every sample lies in the problem's box and horizon; ``check_horizon``
    raises ``ValueError`` for a config whose warmup cannot.  So does a
    ``fixed_hp`` of another spatial dimension than the problem's, or a
    ``train.log_bounds`` whose row count does not fit the kernel, before
    the first evaluation.
    """
    check_horizon(problem, config)
    d = problem.spatial_dim
    t_start, t_end = problem.horizon
    mode = config.mode

    kernel = _mode_kernel(config)
    if config.fixed_hp is not None:
        _check_spatial_dim("fixed_hp", config.fixed_hp, d)
    if config.train.log_bounds is not None:
        _bounds_array(config.train.log_bounds, n_hyperparameters(kernel, d))
    flexible = config.flexible_heuristics and mode is not Mode.TVB
    tie = _mode_tie(config)
    span = _warmup_span(config)

    # hyperparameter bounds from the problem geometry, not the visited
    # region: stable across iterations so warm starts stay comparable
    log_bounds = config.train.log_bounds
    if log_bounds is None:
        log_bounds = default_log_bounds(
            kernel, problem.spatial_bounds.width, max(t_end - t_start, span)
        )
    train_cfg = replace(config.train, tie_lengthscales=tie, log_bounds=log_bounds)

    base_acq = config.acquisition
    base_tag = _tag(base_acq)
    steps: list[StepRecord] = []
    incumbents: list[IncumbentRecord] = []

    # ---- warmup: space-filling over the first span of the horizon
    warm_box = Box(
        np.append(problem.spatial_bounds.lower, t_start),
        np.append(problem.spatial_bounds.upper, t_start + span),
    )
    pts = latin_hypercube(config.warmup.lhd, warm_box, _derived_seed(config.seed, 0))
    pts = pts[np.argsort(pts[:, -1])]
    if config.warmup.lhd > 1 and not np.all(np.diff(pts[:, -1]) > 0):
        # one-per-stratum sampling makes ties measure-zero; guard anyway
        pts[:, -1] = np.linspace(t_start, t_start + span, config.warmup.lhd)
    targets = []
    for i, p in enumerate(pts):
        y = float(problem.evaluate(p[:d], float(p[d])))
        targets.append(y)
        steps.append(
            StepRecord(i, p[:d].copy(), float(p[d]), y, PHASE_WARMUP, base_tag,
                       math.nan, t_start, t_start + span)
        )
    dataset = Dataset(pts, np.array(targets))

    hp: Hyperparameters | None = None
    model: GpModel | None = None
    lt_history: list[float] = []
    scored = 0
    bo_warmup_left = config.warmup.bo_steps
    iteration = 0
    aborted = False

    while scored < config.budget:
        in_warmup = bo_warmup_left > 0
        t_c = float(dataset.times[-1])

        # ---- surrogate: fixed, frozen after warmup, or trained; then one fit
        frozen = config.freeze_after_warmup and hp is not None and not in_warmup
        if config.fixed_hp is not None:
            hp = config.fixed_hp
        elif not frozen:
            start = hp if hp is not None else _initial_hp(problem, kernel, span)
            explore = hp is None or in_warmup or iteration % _RESTART_EVERY == 0
            result = None
            for attempt in range(2):
                # a retry after a failed fit always explores
                restarts = train_cfg.restarts if explore or attempt else 1
                try:
                    result = train(
                        dataset, kernel, start, replace(train_cfg, restarts=restarts),
                        _derived_seed(config.seed, 1, iteration, attempt),
                    )
                    break
                except TrainingError:
                    continue
            if result is None:
                aborted = True
                break
            hp = result.hp
        # under unchanged hyperparameters the fit appends to the last one
        model = GpModel.fit(dataset, kernel, hp, previous=model)
        lt = model.time_lengthscale
        lt_history.append(lt)

        # ---- heuristic
        learned = learning_detector(lt_history, config.detector.window, config.detector.rate)
        acq = choose_heuristic(flexible, learned, base_acq)
        if isinstance(acq, ExpectedImprovement):
            _, _, best_y = _windowed_incumbent(dataset, config.detector.window)
            acq = replace(acq, best_value=best_y)

        # ---- where in time the next sample may go
        if mode is Mode.ABO_ADAPTIVE_TIME:
            t_lo, t_hi = feasible_window(
                t_c, config.min_lookahead, config.lookahead_fraction, lt
            )
        else:
            t_lo = t_hi = t_c + config.fixed_interval
        if t_lo > t_end:
            break  # nothing left of the horizon to sample
        t_hi = min(t_hi, t_end)
        box = Box(
            np.append(problem.spatial_bounds.lower, t_lo),
            np.append(problem.spatial_bounds.upper, t_hi),
        )

        # ---- choose, evaluate, record
        point = optimize_acquisition(
            model, acq, box, config.pso, _derived_seed(config.seed, 2, iteration)
        )
        t_next = float(point[d])
        y = float(problem.evaluate(point[:d], t_next))
        dataset = dataset.append(point, y)
        phase = PHASE_WARMUP if in_warmup else PHASE_SCORED
        steps.append(
            StepRecord(len(steps), point[:d].copy(), t_next, y, phase, _tag(acq),
                       lt, t_lo, t_hi)
        )
        if in_warmup:
            bo_warmup_left -= 1
        else:
            scored += 1
            inc_x, inc_t, inc_y = _windowed_incumbent(dataset, config.detector.window)
            incumbents.append(IncumbentRecord(len(steps) - 1, inc_x, inc_t, inc_y))
        iteration += 1

    return RunTrace(tuple(steps), tuple(incumbents), aborted)
