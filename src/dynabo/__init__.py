"""Bayesian optimization of time-varying objectives.

The surrogate is a Gaussian process over joint space-time inputs; each
optimization step proposes both where and when to sample next, subject to a
moving feasibility window on the time coordinate.
"""

from dynabo.acquisition import (
    ExpectedImprovement,
    LowerConfidenceBound,
    PosteriorMean,
)
from dynabo.engine import (
    DetectorConfig,
    EngineConfig,
    Mode,
    RunTrace,
    StepRecord,
    WarmupConfig,
    run,
)
from dynabo.gp import Dataset, GpModel, TrainConfig, train
from dynabo.kernels import Hyperparameters, KernelForm, KernelSpec
from dynabo.metrics import ScoredSeries, offline_performance, windowed_best
from dynabo.optimizer import Box, PsoConfig, optimize_acquisition
from dynabo.problems import Problem, make_mpb_scenario, make_standard

__all__ = [
    "Box",
    "Dataset",
    "DetectorConfig",
    "EngineConfig",
    "ExpectedImprovement",
    "GpModel",
    "Hyperparameters",
    "KernelForm",
    "KernelSpec",
    "LowerConfidenceBound",
    "Mode",
    "PosteriorMean",
    "Problem",
    "PsoConfig",
    "RunTrace",
    "ScoredSeries",
    "StepRecord",
    "TrainConfig",
    "WarmupConfig",
    "make_mpb_scenario",
    "make_standard",
    "offline_performance",
    "optimize_acquisition",
    "run",
    "train",
    "windowed_best",
]

__version__ = "0.1.0"
