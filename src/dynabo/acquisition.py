"""Acquisition scores over GP posteriors.

Scores follow a minimization convention: the next sample is the feasible
point with the lowest score.  Expected improvement is therefore returned
negated, so that larger expected gains give lower scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "LowerConfidenceBound",
    "ExpectedImprovement",
    "PosteriorMean",
    "AcquisitionSpec",
    "score",
    "evaluate_on_model",
]


@dataclass(frozen=True)
class LowerConfidenceBound:
    """Optimistic bound ``mean - kappa * std``; ``kappa`` trades off exploration."""

    kappa: float = 2.0

    def __post_init__(self):
        if not (np.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError("kappa must be positive")


@dataclass(frozen=True)
class ExpectedImprovement:
    """Negated expected improvement below the incumbent ``best_value``."""

    best_value: float

    def __post_init__(self):
        if not np.isfinite(self.best_value):
            raise ValueError("best_value must be finite")


@dataclass(frozen=True)
class PosteriorMean:
    """Pure exploitation: the posterior mean itself."""


AcquisitionSpec = Union[LowerConfidenceBound, ExpectedImprovement, PosteriorMean]


def score(acq: AcquisitionSpec, mean, variance) -> np.ndarray:
    """Score posterior summaries; lower is better.

    ``mean`` and ``variance`` broadcast together; variance must be
    nonnegative.  Zero variance degrades gracefully for every score type.
    """
    mean = np.asarray(mean, dtype=float)
    variance = np.asarray(variance, dtype=float)
    if np.any(variance < 0):
        raise ValueError("variance must be nonnegative")
    if isinstance(acq, LowerConfidenceBound):
        return mean - acq.kappa * np.sqrt(variance)
    if isinstance(acq, ExpectedImprovement):
        # loaded here: only expected improvement needs scipy.special
        from scipy.special import ndtr

        std = np.sqrt(variance)
        gap = acq.best_value - mean
        with np.errstate(invalid="ignore", divide="ignore"):
            z = np.where(std > 0, gap / np.where(std > 0, std, 1.0), 0.0)
        z = np.clip(z, -40.0, 40.0)  # cdf/pdf are saturated past this anyway
        pdf = np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)
        ei = np.where(
            std > 0,
            gap * ndtr(z) + std * pdf,
            np.maximum(gap, 0.0),
        )
        return -ei
    if isinstance(acq, PosteriorMean):
        return mean + np.zeros_like(variance)
    raise TypeError(f"unknown acquisition type {type(acq).__name__}")


def evaluate_on_model(acq: AcquisitionSpec, model, points) -> np.ndarray:
    """Score a batch of candidate points under a GP posterior."""
    mean, var = model.predict(points)
    return score(acq, mean, var)
