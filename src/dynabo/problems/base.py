"""Problem abstraction: a time-varying objective over a spatial box."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from dynabo.optimizer import Box

__all__ = ["Problem"]


@dataclass(frozen=True)
class Problem:
    """A minimization target ``evaluate(x, t)`` over ``spatial_bounds`` and a
    time horizon.

    ``evaluate`` must be total on the box times the horizon and
    deterministic: repeated calls with the same arguments agree bitwise.
    ``metadata`` carries problem-specific extras (the index of the
    coordinate a static function donates to time, oracle values, dynamics
    configuration) without widening the core interface.
    """

    name: str
    spatial_bounds: Box
    horizon: tuple[float, float]
    evaluate: Callable[[np.ndarray, float], float]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        t0, t1 = self.horizon
        if not (np.isfinite(t0) and np.isfinite(t1) and t0 < t1):
            raise ValueError("horizon must be a finite increasing interval")
        object.__setattr__(self, "horizon", (float(t0), float(t1)))

    @property
    def spatial_dim(self) -> int:
        return self.spatial_bounds.dim
