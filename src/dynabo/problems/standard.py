"""Classical test functions, dynamized by donating one coordinate to time.

Each static function is defined in batch form over its canonical region.
``make_standard`` picks a coordinate (fixed or seeded-random), exposes the
remaining coordinates as the spatial search space, and routes the time
variable into the chosen one, so the optimizer chases a moving slice of a
static landscape.  Stated minima are the functions' known global optima,
revalidated against a multistart oracle in the test suite.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from dynabo.optimizer import Box
from dynabo.problems.base import Problem

__all__ = ["StaticFunction", "static_function", "make_standard"]


def camel6(u: np.ndarray) -> np.ndarray:
    x, y = u[:, 0], u[:, 1]
    return (
        (4 - 2.1 * x**2 + x**4 / 3) * x**2 + x * y + (-4 + 4 * y**2) * y**2
    )


def branin_scaled(u: np.ndarray) -> np.ndarray:
    # unit-square inputs mapped onto the classical rectangle, output centered
    # and rescaled by the usual standardization constants 44.81 and 51.95
    x = 15 * u[:, 0] - 5
    y = 15 * u[:, 1]
    term = y - 5.1 * x**2 / (4 * math.pi**2) + 5 * x / math.pi - 6
    return (term**2 + (10 - 10 / (8 * math.pi)) * np.cos(x) - 44.81) / 51.95


def goldstein_price(u: np.ndarray) -> np.ndarray:
    x, y = u[:, 0], u[:, 1]
    a = 1 + (x + y + 1) ** 2 * (
        19 - 14 * x + 3 * x**2 - 14 * y + 6 * x * y + 3 * y**2
    )
    b = 30 + (2 * x - 3 * y) ** 2 * (
        18 - 32 * x + 12 * x**2 + 48 * y - 36 * x * y + 27 * y**2
    )
    return a * b


def griewank(u: np.ndarray) -> np.ndarray:
    idx = np.arange(1, u.shape[1] + 1)
    return 1 + np.sum(u**2, axis=1) / 4000 - np.prod(np.cos(u / np.sqrt(idx)), axis=1)


_HARTMANN3_A = np.array(
    [[3.0, 10.0, 30.0], [0.1, 10.0, 35.0], [3.0, 10.0, 30.0], [0.1, 10.0, 35.0]]
)
_HARTMANN3_P = 1e-4 * np.array(
    [[3689, 1170, 2673], [4699, 4387, 7470], [1091, 8732, 5547], [381, 5743, 8828]]
)
_HARTMANN6_A = np.array(
    [
        [10.0, 3.0, 17.0, 3.5, 1.7, 8.0],
        [0.05, 10.0, 17.0, 0.1, 8.0, 14.0],
        [3.0, 3.5, 1.7, 10.0, 17.0, 8.0],
        [17.0, 8.0, 0.05, 10.0, 0.1, 14.0],
    ]
)
_HARTMANN6_P = 1e-4 * np.array(
    [
        [1312, 1696, 5569, 124, 8283, 5886],
        [2329, 4135, 8307, 3736, 1004, 9991],
        [2348, 1451, 3522, 2883, 3047, 6650],
        [4047, 8828, 8732, 5743, 1091, 381],
    ]
)
_HARTMANN_C = np.array([1.0, 1.2, 3.0, 3.2])


def _hartmann(u: np.ndarray, a: np.ndarray, p: np.ndarray) -> np.ndarray:
    inner = np.einsum("ij,nij->ni", a, (u[:, None, :] - p[None, :, :]) ** 2)
    return -np.exp(-inner) @ _HARTMANN_C


def hartmann3(u: np.ndarray) -> np.ndarray:
    return _hartmann(u, _HARTMANN3_A, _HARTMANN3_P)


def hartmann6(u: np.ndarray) -> np.ndarray:
    return _hartmann(u, _HARTMANN6_A, _HARTMANN6_P)


_SHEKEL_A = np.array(
    [
        [4.0, 4.0, 4.0, 4.0],
        [1.0, 1.0, 1.0, 1.0],
        [8.0, 8.0, 8.0, 8.0],
        [6.0, 6.0, 6.0, 6.0],
        [3.0, 7.0, 3.0, 7.0],
        [2.0, 9.0, 2.0, 9.0],
        [5.0, 5.0, 3.0, 3.0],
        [8.0, 1.0, 8.0, 1.0],
        [6.0, 2.0, 6.0, 2.0],
        [7.0, 3.6, 7.0, 3.6],
    ]
)
_SHEKEL_C = np.array([0.1, 0.2, 0.2, 0.4, 0.4, 0.6, 0.3, 0.7, 0.5, 0.5])


def shekel(u: np.ndarray) -> np.ndarray:
    dist_sq = np.sum((u[:, None, :] - _SHEKEL_A[None, :, :]) ** 2, axis=2)
    return -np.sum(1.0 / (dist_sq + _SHEKEL_C), axis=1)


def styblinski_tang(u: np.ndarray) -> np.ndarray:
    return 0.5 * np.sum(u**4 - 16 * u**2 + 5 * u, axis=1)


@dataclass(frozen=True)
class StaticFunction:
    name: str
    dims: int
    lower: np.ndarray
    upper: np.ndarray
    batch: Callable[[np.ndarray], np.ndarray]
    minimum_value: float | None = None
    minimizer: np.ndarray | None = None


# the sized families ``<family><d>``, d >= 2, on [-5, 5]^d: the batch
# function, the minimum per dimension and the minimizer's coordinate
_SIZED = {
    "griewank": (griewank, 0.0, 0.0),
    "styblinski_tang": (styblinski_tang, -39.16616570377142, -2.903534018185960),
}


def _registry() -> dict:
    fns = {
        "camel6": StaticFunction(
            "camel6",
            2,
            np.array([-3.0, -2.0]),
            np.array([3.0, 2.0]),
            camel6,
            -1.031628453489877,
            np.array([0.08984201368301331, -0.7126564032704135]),
        ),
        "branin_scaled": StaticFunction(
            "branin_scaled",
            2,
            np.zeros(2),
            np.ones(2),
            branin_scaled,
            -1.0473938910928506,
            np.array([0.5427728435726529, 0.151666666666666]),
        ),
        "goldstein_price": StaticFunction(
            "goldstein_price",
            2,
            np.full(2, -2.0),
            np.full(2, 2.0),
            goldstein_price,
            3.0,
            np.array([0.0, -1.0]),
        ),
        "hartmann3": StaticFunction(
            "hartmann3",
            3,
            np.zeros(3),
            np.ones(3),
            hartmann3,
            -3.862779787332663,
            np.array([0.11458888, 0.55564889, 0.85254698]),
        ),
        "hartmann6": StaticFunction(
            "hartmann6",
            6,
            np.zeros(6),
            np.ones(6),
            hartmann6,
            -3.3223680114155156,
            np.array([0.20168952, 0.15001069, 0.47687398, 0.27533243, 0.31165162, 0.65730054]),
        ),
        "shekel": StaticFunction(
            "shekel",
            4,
            np.zeros(4),
            np.full(4, 10.0),
            shekel,
            -10.536409816692046,
            np.array([4.00074653, 4.00059293, 3.9996634, 3.9995098]),
        ),
    }
    return fns


def static_function(name: str) -> StaticFunction:
    """Look up a static function; parameterized families parse their size."""
    fns = _registry()
    if name in fns:
        return fns[name]
    m = re.fullmatch(rf"({'|'.join(_SIZED)})(\d+)", name)
    if m:
        family, d = m.group(1), int(m.group(2))
        if d < 2:
            raise ValueError(f"{family} needs at least 2 dimensions")
        batch, minimum_per_dim, coordinate = _SIZED[family]
        return StaticFunction(name, d, np.full(d, -5.0), np.full(d, 5.0), batch,
                              minimum_per_dim * d, np.full(d, coordinate))
    raise ValueError(f"unknown function name: {name!r}")


def make_standard(name: str, time_dim: int | None = None, seed: int = 0) -> Problem:
    """Dynamize a static function by driving one coordinate with time.

    ``time_dim`` picks the donated coordinate; None draws it uniformly from
    ``seed``.  The remaining coordinates, in their original order, form the
    spatial search space; the horizon is the donated coordinate's range.
    """
    fn = static_function(name)
    if time_dim is None:
        time_dim = int(np.random.default_rng(seed).integers(fn.dims))
    if not 0 <= time_dim < fn.dims:
        raise ValueError(f"time_dim {time_dim} out of range for {name} ({fn.dims}D)")
    spatial = np.delete(np.arange(fn.dims), time_dim)
    bounds = Box(fn.lower[spatial], fn.upper[spatial])

    def evaluate(x, t: float) -> float:
        x = np.asarray(x, dtype=float).ravel()
        if x.shape != (fn.dims - 1,):
            raise ValueError(f"expected {fn.dims - 1} spatial coordinates")
        u = np.empty(fn.dims)
        u[spatial] = x
        u[time_dim] = t
        return float(fn.batch(u[None, :])[0])

    return Problem(
        name=name,
        spatial_bounds=bounds,
        horizon=(float(fn.lower[time_dim]), float(fn.upper[time_dim])),
        evaluate=evaluate,
        metadata={
            "time_dim": int(time_dim),
            "static_dims": fn.dims,
            "static_minimum": fn.minimum_value,
        },
    )
