"""Search-space types, Latin hypercube sampling, and acquisition optimization.

Acquisition search is particle-swarm optimization seeded from a Latin
hypercube, and returns the swarm's best position without a polish.  A
dimension whose bounds coincide is a slice: it is held fixed and removed
from the search space instead of being searched at zero width.
``PsoConfig`` sets the swarm's size and length; each search takes its seed
as an argument, as ``latin_hypercube`` does.

``PsoConfig.iterations`` is a cap; the swarm has two earlier stops.  It
stops once no particle can move again: every particle sits on its own best
and the swarm's best, with a velocity of 0 or one pointing out of the box at
the bound it sits on.  The test runs on each iteration's clipped positions,
before they are scored: a batch that passes it holds only stored bests, so
scoring it could improve nothing, and every later iteration would repeat it.
That stop is exact.  The swarm also stops once it has stalled: 15 scored
iterations in a row that each lowered its best by no more than ``1e-9``
times the best's magnitude (the ``ftol``/``ftol_iter`` rule of PySwarms).
That stop is not exact: a later iteration might still have found a lower
value.

Objectives are batch maps: given an ``(M, dim)`` array of candidate points
they return ``(M,)`` scores.  Evaluations within one swarm iteration are
independent and may therefore run concurrently (here: vectorized), with the
reduction order fixed by particle index so results are reproducible.

``local_refine``, a quasi-Newton polish with numerical gradients, is no
longer part of the search: it returned its start in 89 to 100 % of calls,
cost about a quarter of a fixed-hyperparameter run's time, and turned the
posterior's rounding into different sample points.  It stays exported and
tested because the benchmark's tracer patches it by name; it goes when the
tracer stops doing so.  It runs ``_routines._lbfgsb``, the package's one
L-BFGS-B driver, which hyperparameter training (``gp.train``) runs too with
its own cap and tolerance: the loop over scipy's ``setulb`` that
``scipy.optimize.minimize(method="L-BFGS-B")`` runs, so every polish gives
scipy's point and value bit for bit.  It starts from the value and gradient
the polish already has, and the candidate's value is the driver's last
evaluation when it stops there, so no batch is scored twice for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dynabo._routines import _lbfgsb
from dynabo.acquisition import AcquisitionSpec, evaluate_on_model

__all__ = [
    "Box",
    "PsoConfig",
    "latin_hypercube",
    "pso_minimize",
    "local_refine",
    "optimize_acquisition",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned bounds; equal lower and upper pin that coordinate."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise ValueError("bounds must be matching nonempty vectors")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def degenerate(self) -> np.ndarray:
        """Mask of slice dimensions (zero width)."""
        return self.width == 0

    def clip(self, points: np.ndarray) -> np.ndarray:
        return np.clip(points, self.lower, self.upper)

    def contains(self, points: np.ndarray, atol: float = 0.0) -> bool:
        points = np.atleast_2d(points)
        return bool(
            np.all(points >= self.lower - atol) and np.all(points <= self.upper + atol)
        )


# swarm weights: inertia, then the pulls toward each particle's own best and
# the swarm's best (the common constriction-equivalent defaults)
_INERTIA = 0.729
_COGNITIVE = 1.49445
_SOCIAL = 1.49445

# the stall stop: an iteration is stalled when the swarm's best fell by no
# more than this share of its magnitude, and the swarm stops after this many
# stalled iterations in a row
_STALL_FTOL = 1e-9
_STALL_ITERS = 15

# the polish: L-BFGS-B's iteration cap and relative objective tolerance
_REFINE_MAX_ITERS = 100
_REFINE_FTOL = 1e-8


@dataclass(frozen=True)
class PsoConfig:
    particles: int = 50
    iterations: int = 120

    def __post_init__(self):
        if self.particles < 2:
            raise ValueError("need at least 2 particles")
        if self.iterations < 1:
            raise ValueError("need at least 1 iteration")


def latin_hypercube(n: int, box: Box, seed) -> np.ndarray:
    """``n`` points stratified one-per-interval along every free dimension.

    Slice dimensions stay at their pinned value.  Output is deterministic in
    ``seed`` and has shape ``(n, box.dim)``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    out = np.tile(box.lower, (n, 1))
    for j in np.flatnonzero(~box.degenerate):
        strata = (rng.permutation(n) + rng.uniform(size=n)) / n
        out[:, j] = box.lower[j] + strata * (box.upper[j] - box.lower[j])
    return out


def _freeze_degenerate(box: Box):
    """Split a box into free dimensions and pinned values.  ``embed`` puts a
    batch of free coordinates back among the pinned ones; with none pinned,
    a batch is its own embedding, not a copy."""
    free = ~box.degenerate
    reduced = None
    if free.any():
        reduced = Box(box.lower[free], box.upper[free])
    if free.all():
        return free, reduced, np.atleast_2d

    blocks = {}  # row count -> rows of the pinned values, copied per call

    def embed(points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        m = points.shape[0]
        if m not in blocks:
            blocks[m] = np.tile(box.lower, (m, 1))
        full = blocks[m].copy()
        full[:, free] = points
        return full

    return free, reduced, embed


def pso_minimize(
    objective, box: Box, config: PsoConfig = PsoConfig(), seed: int = 0, init=None
):
    """Global minimization by a velocity-clamped particle swarm.

    ``objective`` maps an ``(M, dim)`` array to ``(M,)`` scores; non-finite
    scores count as +inf and the search continues.  ``init`` optionally
    seeds particle positions (rows beyond the particle count are dropped,
    missing rows drawn uniformly).  Deterministic given ``seed``.

    ``config.iterations`` caps the scored iterations; two stops end the
    search sooner.  The swarm stops before it scores a batch once no
    particle can move again (see ``_cannot_move``): that batch and every
    later one would be the stored bests.  That stop is exact for an
    objective that scores each row the same whatever else is in its batch:
    every best and the returned point and value are bit for bit what the
    search gives without it.  The swarm also stops after ``_STALL_ITERS``
    scored iterations in a row that each lowered its best by no more than
    ``_STALL_FTOL`` times that best's magnitude; a best of +inf never
    stalls.  That stop is not exact: later iterations might have gone lower.
    """
    free, reduced, embed = _freeze_degenerate(box)
    if reduced is None:
        point = box.lower.copy()
        value = _batch_eval(objective, point[None, :])[0]
        return point, float(value)

    rng = np.random.default_rng(seed)
    p, dim = config.particles, reduced.dim
    width = reduced.width
    positions = rng.uniform(reduced.lower, reduced.upper, size=(p, dim))
    if init is not None:
        init = np.atleast_2d(np.asarray(init, dtype=float))[:p, free]
        positions[: init.shape[0]] = np.clip(init, reduced.lower, reduced.upper)
    v_max = 0.5 * width
    velocities = rng.uniform(-v_max, v_max, size=(p, dim))

    values = _batch_eval(objective, embed(positions))
    best_pos = positions.copy()
    best_val = values.copy()
    g_idx = int(best_val.argmin())
    g_pos, g_val = best_pos[g_idx].copy(), float(best_val[g_idx])

    stalled = 0
    for _ in range(config.iterations):
        r_cog, r_soc = rng.uniform(size=(2, p, dim))  # the stream of two (p, dim) draws
        velocities = (
            _INERTIA * velocities
            + _COGNITIVE * r_cog * (best_pos - positions)
            + _SOCIAL * r_soc * (g_pos - positions)
        )
        # the ndarray method skips np.clip's wrapper; the clip is the same
        velocities.clip(-v_max, v_max, out=velocities)
        positions = positions + velocities
        positions.clip(reduced.lower, reduced.upper, out=positions)
        if _cannot_move(positions, velocities, best_pos, g_pos, reduced):
            break
        values = _batch_eval(objective, embed(positions))
        before = g_val
        improved = values < best_val
        if improved.any():
            best_pos[improved] = positions[improved]
            best_val[improved] = values[improved]
            g_idx = int(best_val.argmin())
            if best_val[g_idx] < g_val:
                g_pos, g_val = best_pos[g_idx].copy(), float(best_val[g_idx])
        # inf - inf is nan, so a best still at +inf never counts as stalled
        stalled = stalled + 1 if g_val >= before - _STALL_FTOL * abs(before) else 0
        if stalled == _STALL_ITERS:
            break

    return embed(g_pos[None, :])[0], g_val


def _cannot_move(positions, velocities, best_pos, g_pos, box: Box) -> bool:
    """Whether no particle can leave its position again.

    Every particle sits on its own best and on the swarm's best, so both
    pulls are exactly 0 and the next velocity is the inertia times this one,
    of the same sign; and each velocity is 0 or points out of the box at the
    bound the particle sits on, where the clip puts it back."""
    return bool(
        (positions == best_pos).all()
        and (positions == g_pos).all()
        and (
            (velocities == 0)
            | ((velocities < 0) & (positions == box.lower))
            | ((velocities > 0) & (positions == box.upper))
        ).all()
    )


def _batch_eval(objective, points: np.ndarray) -> np.ndarray:
    return _finite_or_inf(_raw_eval(objective, points))


def local_refine(objective, start, box: Box):
    """Quasi-Newton polish from ``start``, kept inside the box.

    Gradients are central differences with step ``1e-6`` of each dimension
    width; probe points are clipped to the box, so the difference quotient
    degrades to one-sided at a boundary.  A non-finite gradient at the start
    returns the start unchanged; otherwise L-BFGS-B runs as
    ``scipy.optimize.minimize`` runs it, with ``maxiter=_REFINE_MAX_ITERS``,
    ``ftol=_REFINE_FTOL`` and a non-finite gradient entry read as 0, and
    gives the same point and value.  A probe batch that is bit for bit its
    point's batch is not scored again.  The result never scores worse than
    the start.
    """
    start = np.asarray(start, dtype=float).ravel()
    if start.shape != (box.dim,):
        raise ValueError("start has the wrong dimension")
    if not box.contains(start[None, :]):
        raise ValueError("start must lie inside the box")
    free, reduced, embed = _freeze_degenerate(box)
    start_batch = start[None, :]
    start_raw = _raw_eval(objective, start_batch)
    start_value = float(_finite_or_inf(start_raw)[0])
    if reduced is None:
        return start.copy(), start_value

    steps = np.diag(1e-6 * reduced.width)

    def grad(z: np.ndarray, batch: np.ndarray, raw: np.ndarray) -> np.ndarray:
        """Central differences at ``z``, whose one-row ``batch`` scored
        ``raw``.  In a one-dimensional search a probe clipped back onto ``z``
        at a bound is that batch bit for bit; it takes ``raw`` instead of
        being scored again."""
        probes_hi = np.clip(z + steps, reduced.lower, reduced.upper)
        probes_lo = np.clip(z - steps, reduced.lower, reduced.upper)
        hi, lo = (
            raw if probes.tobytes() == batch.tobytes() else _raw_eval(objective, probes)
            for probes in (embed(probes_hi), embed(probes_lo))
        )
        span = np.diag(probes_hi - probes_lo).copy()
        span[span == 0] = 1.0
        return (hi - lo) / span

    def fg(z: np.ndarray) -> tuple[float, np.ndarray]:
        batch = embed(z[None, :])
        raw = _raw_eval(objective, batch)
        g = grad(z, batch, raw)
        return float(_finite_or_inf(raw)[0]), np.where(np.isfinite(g), g, 0.0)

    z0 = start[free]
    g0 = grad(z0, start_batch, start_raw)
    if not np.all(np.isfinite(g0)):
        return start.copy(), start_value
    z, (last_z, cand_value, _), _ = _lbfgsb(
        fg, z0, start_value, g0, reduced.lower, reduced.upper, _REFINE_MAX_ITERS, _REFINE_FTOL
    )
    z = np.clip(z, reduced.lower, reduced.upper)
    candidate = embed(z[None, :])[0]
    # the driver usually stops on the point it evaluated last
    if z.tobytes() != last_z.tobytes():
        cand_value = float(_batch_eval(objective, candidate[None, :])[0])
    if cand_value <= start_value:
        return candidate, cand_value
    return start.copy(), start_value


def _raw_eval(objective, points: np.ndarray) -> np.ndarray:
    values = np.asarray(objective(points), dtype=float).ravel()
    if values.shape != (points.shape[0],):
        raise ValueError("objective must return one score per point")
    return values


def _finite_or_inf(values: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(values), values, np.inf)


def optimize_acquisition(
    model, acq: AcquisitionSpec, box: Box, pso: PsoConfig = PsoConfig(), seed: int = 0
) -> np.ndarray:
    """Best scoring point in the box: the swarm's best, from a Latin
    hypercube seed, clipped to the box; deterministic given ``seed``, which
    the hypercube and the swarm share.  No polish follows (see the module
    docstring on ``local_refine``).

    Every batch the swarm proposes is scored on ``model``;
    ``evaluate_on_model`` is looked up at each call, so a wrapper installed
    on this module sees them all.
    """

    def objective(points):
        return evaluate_on_model(acq, model, points)

    probes = latin_hypercube(pso.particles, box, seed)
    point, _ = pso_minimize(objective, box, pso, seed, init=probes)
    return box.clip(point)
