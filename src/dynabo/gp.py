"""Gaussian-process regression over space-time samples.

Targets are standardized internally (zero mean, unit standard deviation);
predictions are mapped back to the original scale.  The marginal likelihood
and its analytic gradient, plus a one-sided prior on each temporal
length-scale, drive hyperparameter training by L-BFGS-B (Byrd, Lu, Nocedal
& Zhu, 1995) from the warm start and, when restarts are asked for, one
screened random start: the best of eight one-probe random draws per restart
beyond the warm one, drawn from the seed ``train`` takes as an argument.
Each L-BFGS-B run is bounded by its start plus and minus 2 log units, within
the bounds, and a start reruns from its best point while that point sits on
an inner edge of its box: a first step of plain L-BFGS-B over the whole box
can land in a flat corner that it never leaves, which the box keeps it from.
The runs go through ``_routines._lbfgsb``, the driver the acquisition polish
uses, with scipy's default tolerances.  The prior is a
soft ceiling: flat up to a tenth of the temporal width (the centre of the
entry's bounds before tying, plus log 0.1), and a normal with sd 1 in log
units above it.  It keeps short warmups, which span a small part of the
horizon, from learning a temporal scale far longer than the horizon, and
leaves shorter scales alone: a two-sided prior that pulled them up locked a
fixed-interval run onto the box edge.  It enters only what training
maximizes, and the reported LML is the marginal likelihood alone.  When every
length-scale is tied (time treated as one more input, as the time-blind
``standard_bo`` mode trains), there is no prior.

Training evaluates the likelihood through one objective per dataset: it
keeps the standardized targets, the raw pairwise space and time differences
and the constant term, takes the log-hyperparameter vector directly, and
reuses the Cholesky factor and the covariance's factors (the unit spatial
and temporal parts, the spatial part times the signal variance) of the last
vector it evaluated, so a gradient at that vector costs no second
factorization and no second exponential.  It fills one
``(P, n, n)`` stack with the derivatives and reduces them all at once, each
reduction bitwise the per-matrix one.  ``log_marginal_likelihood`` and
``lml_and_gradient`` are thin wrappers over the same objective, without
the prior.

Training probes and gradients avoid numpy's per-call wrappers, which at
n ~ 18 cost more than the factorization itself.  The vector's layout in the
covariance shapes, the gram buffer and its diagonal view are made once per
dataset; reductions call ``np.add.reduce`` (bitwise what ``sum`` and
``mean`` return).  The factorization tries the plain matrix first and
builds the jitter ladder only when that fails.

``GpModel.fit`` keeps what every posterior predict on that fit shares: the
target mean and std, the kernel's signal variance, the hyperparameters
checked once and laid out in the covariance shapes, and the training points
dimension-major, ``(d, n, 1)`` spatial and ``(1, n, 1)`` temporal.  A predict
subtracts the query batch from those arrays and builds the cross-covariance
with the kernels' ``_cov``, bitwise what ``cross_gram`` gives.  When every
query in the batch has the same time, as in every step of a fixed-interval
mode, the temporal factor is one ``(n, 1)`` column broadcast over the batch;
elementwise arithmetic gives the same bits whatever the array's shape.
Every factorization and solve calls LAPACK directly, through ``_routines``.

A predict solves only against the samples its batch still correlates with
in time.  When the sample times are non-decreasing, as ``engine.run`` always
makes them, the fit keeps a temporal reach: the time gap beyond which the
unit temporal correlation falls below ``_WINDOW_TOL`` (1e-16), sqrt(2 ln
1e16) ~ 8.58 length-scales for SE and ln 1e16 ~ 36.8 for Matern 1/2, the
larger of its two components' reaches for the sum form.  Out of time order
the reach is infinite.  A batch keeps the samples from the first one whose
time is at least its earliest query time minus the reach: the trailing
block of the Cholesky factor, of ``alpha`` and of the training columns.
The dropped cross-covariances ``k_head`` are below 1e-16 times the signal
variance sigma^2.  Leading zero rows of ``k_star`` would give leading zero
rows of ``L^-1 k_star`` (Rasmussen & Williams 2006, Alg. 2.1), and the
trailing block of ``L^-1`` is the inverse of the trailing block of ``L``,
so the variance moves by about the solve's rounding.  The mean drops ``k_head^T
alpha_head``, at most 1e-16 sigma^2 ||alpha_head||_1: about 1e-16 on
spread samples, but ``alpha`` grows toward 1/noise when samples nearly
coincide at a small noise, and there the mean moves by up to that bound.
A window that keeps every sample is the full solve, bit for bit; one that
keeps none returns the prior (mean 0, the signal variance) without a
solve.  The window follows the batch's earliest time, which is one more way
a row's result depends on the other rows of its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from dynabo._routines import _cho_solve, _dpotrf, _lbfgsb, _tri_solve
from dynabo.kernels import (
    Hyperparameters,
    KernelForm,
    KernelSpec,
    _cov,
    _cov_grads,
    _cov_parts,
    _diffs,
    _layout,
    _params,
    _Params,
    _params_from_vector,
    cross_gram,  # noqa: F401  bench/tracing.py wraps it in this namespace
    grad_gram_log_hp,  # noqa: F401  bench/tracing.py wraps it in this namespace
    gram,
    hp_from_vector,
    hp_to_vector,
    n_hyperparameters,
)

__all__ = [
    "Dataset",
    "GpModel",
    "TrainConfig",
    "TrainResult",
    "TrainingError",
    "FactorizationError",
    "chol_with_jitter",
    "log_marginal_likelihood",
    "lml_and_gradient",
    "default_log_bounds",
    "train",
]


# standardization is skipped when the target spread is below this
_STD_FLOOR = 1e-12
# training's L-BFGS-B runs: each is bounded by its start plus and minus this
# many log units (within the bounds), and a start reruns from its best point
# while that point sits on an inner edge of its box, at most this many times
_TRUST_RADIUS = 2.0
_TRUST_RERUNS = 20
# an exploring fit probes this many random vectors per restart beyond the
# warm one, and runs L-BFGS-B from the best of them only
_SCREENS_PER_RESTART = 8
# the prior on each log temporal length-scale: flat up to this far above the
# centre of the entry's untied bounds (a tenth of the temporal width under
# ``default_log_bounds``), and a normal with this sd above it
_PRIOR_SD = 1.0
_PRIOR_OFFSET = math.log(0.1)
# a predict drops the samples whose unit temporal correlation with every
# query is below this; the time gap at which each plain temporal form's
# correlation reaches it, in length-scales
_WINDOW_TOL = 1e-16
_UNIT_REACH = {
    KernelForm.SE: math.sqrt(-2.0 * math.log(_WINDOW_TOL)),
    KernelForm.MATERN12: -math.log(_WINDOW_TOL),
}


class FactorizationError(RuntimeError):
    """Gram matrix stayed non-positive-definite after all jitter levels."""


class TrainingError(RuntimeError):
    """No restart produced a finite marginal likelihood."""


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of samples: rows are spatial coords then time."""

    points: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        tgt = np.asarray(self.targets, dtype=float).ravel()
        if pts.shape[0] != tgt.shape[0]:
            raise ValueError("points and targets disagree on sample count")
        if pts.shape[0] == 0:
            raise ValueError("dataset needs at least one sample")
        if pts.shape[1] < 2:
            raise ValueError("points need at least one spatial column plus time")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(tgt))):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "targets", tgt)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def spatial_dim(self) -> int:
        return self.points.shape[1] - 1

    @property
    def times(self) -> np.ndarray:
        return self.points[:, -1]

    @property
    def target_mean(self) -> float:
        return float(self.targets.mean())

    @property
    def target_std(self) -> float:
        s = float(self.targets.std())
        return s if s > _STD_FLOOR else 1.0

    @property
    def normalized_targets(self) -> np.ndarray:
        return (self.targets - self.target_mean) / self.target_std

    def append(self, point, target: float) -> "Dataset":
        point = np.asarray(point, dtype=float).ravel()
        return Dataset(
            np.vstack([self.points, point[None, :]]),
            np.append(self.targets, float(target)),
        )


def chol_with_jitter(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor, adding diagonal jitter only when needed.

    The plain matrix is tried first.  Only when it fails does jitter start,
    at 1e-9 times the mean diagonal, growing tenfold per attempt up to 1e-3
    times the mean diagonal; a matrix that still fails raises
    ``FactorizationError``.  This is the one place factorizations happen and
    where a non-finite matrix is rejected (``ValueError``).  LAPACK
    ``dpotrf`` is called directly: it is the routine ``scipy.linalg.cholesky``
    runs, without its per-call wrapper cost.
    """
    matrix = np.asarray(matrix, dtype=float)
    diag = matrix.diagonal()
    mean_diag = float(np.add.reduce(diag) / diag.size)  # bitwise diag.mean()
    if not (math.isfinite(mean_diag) and mean_diag > 0):
        raise FactorizationError("matrix diagonal is not positive")
    if not np.logical_and.reduce(np.isfinite(matrix).ravel()):
        raise ValueError("array must not contain infs or NaNs")
    el, info = _dpotrf(matrix)
    if info == 0:
        return el, 0.0
    eye = np.eye(len(matrix))
    jitters = [mean_diag * 10.0**e for e in range(-9, -2)]
    for jitter in jitters:
        el, info = _dpotrf(matrix + jitter * eye)
        if info == 0:
            return el, jitter
    raise FactorizationError(
        f"factorization failed up to jitter {jitters[-1]:.3e}"
    )


class _MarginalLikelihood:
    """Log marginal likelihood of one dataset as a function of the
    log-hyperparameter vector, in ``hp_to_vector`` order.

    Remembers the factorization of the last vector it evaluated; a gradient
    requested at that vector reuses it.  Every factorization goes through
    ``chol_with_jitter``, which rejects a non-finite gram matrix.

    The vector is laid out once: a buffer that each new vector is copied
    into, with views of it in the covariance shapes (0-d views for the
    free scalars).  The gram matrix is built in one buffer too, the noise
    added through a view of its diagonal.
    """

    def __init__(self, dataset: Dataset, spec: KernelSpec):
        d, n = dataset.spatial_dim, dataset.n
        x, t = dataset.points[:, :d], dataset.points[:, d:]
        self._spec = spec
        self._y = dataset.normalized_targets
        self._neg_half_y = -0.5 * self._y
        self._dx, self._dt = _diffs(x, x), _diffs(t, t)
        self._eye = np.eye(n)
        self._log_norm = 0.5 * n * math.log(2 * math.pi)
        self._gram = np.empty((n, n))
        self._gram_diagonal = self._gram.reshape(-1)[:: n + 1]
        self._theta = np.zeros(n_hyperparameters(spec, d))
        self._params = _params_from_vector(self._theta, spec, d)
        self._grads = np.empty((len(self._theta), n, n))
        self._last = None  # (theta bytes, params, parts, factor, alpha, value)

    def _evaluate(self, theta):
        theta = np.asarray(theta, dtype=float)
        key = theta.tobytes()  # bit-equal vectors give bit-equal results
        if self._last is not None and self._last[0] == key:
            return self._last
        if theta.shape != self._theta.shape:
            raise ValueError(f"theta has shape {theta.shape}, expected {self._theta.shape}")
        if not np.logical_and.reduce(np.isfinite(theta)):
            raise ValueError("hyperparameters must be finite")
        self._last = None  # its params view the buffer overwritten here
        self._theta[:] = theta
        p = self._params
        parts = _cov_parts(self._spec, self._dx, self._dt, p)
        k = np.multiply(parts.scaled_spatial, parts.temporal_part, out=self._gram)
        self._gram_diagonal += float(np.exp(p.log_noise_variance))
        el, _ = chol_with_jitter(k)
        alpha = _cho_solve(el, self._y)
        value = float(
            self._neg_half_y @ alpha - np.add.reduce(np.log(el.diagonal())) - self._log_norm
        )
        self._last = (key, p, parts, el, alpha, value)
        return self._last

    def value(self, theta) -> float:
        return self._evaluate(theta)[5]

    def value_and_gradient(self, theta) -> tuple[float, np.ndarray]:
        _, p, parts, el, alpha, value = self._evaluate(theta)
        k_inv = _cho_solve(el, self._eye)
        g = _cov_grads(self._spec, self._dx, self._dt, p, parts, self._grads)
        # 0.5 * tr((alpha alpha^T - K^-1) dK) for every dK at once, each
        # reduction bitwise the per-matrix one; ``a @ alpha`` would run gemv
        # and round differently from ``alpha @ dk @ alpha``
        a = alpha @ g
        quad = np.matmul(a[:, None, :], alpha)[:, 0]
        trace = np.add.reduce((k_inv * g).reshape(len(g), -1), axis=1)
        return value, 0.5 * (quad - trace)


class _TrainingObjective:
    """What ``train`` maximizes: the log marginal likelihood plus a one-sided
    log-normal prior on each temporal length-scale.  The prior's log density
    is flat up to the ceiling, the centre of that entry's row in ``bounds``
    plus ``_PRIOR_OFFSET``, and falls as a normal with sd ``_PRIOR_SD`` in log
    units above it; the normal's constant is left out.  With ``tied`` the
    temporal entry shares its value with the spatial length-scales, and the
    objective is the marginal likelihood alone.  Both methods also return the
    marginal likelihood alone.  The temporal entries are found through
    ``kernels._layout``; they are contiguous.
    """

    def __init__(self, dataset: Dataset, spec: KernelSpec, bounds: np.ndarray, tied: bool):
        fields = [f for f, _, names in _layout(spec, dataset.spatial_dim) for _ in names]
        first = fields.index("log_temporal_lengthscale")
        count = 0 if tied else fields.count("log_temporal_lengthscale")
        self._temporal = slice(first, first + count)
        rows = bounds[self._temporal]
        self._ceiling = 0.5 * (rows[:, 0] + rows[:, 1]) + _PRIOR_OFFSET
        self._likelihood = _MarginalLikelihood(dataset, spec)

    def _scaled_offset(self, theta: np.ndarray) -> np.ndarray:
        excess = theta[self._temporal] - self._ceiling
        return np.maximum(excess, 0.0, out=excess) / _PRIOR_SD

    def value(self, theta) -> tuple[float, float]:
        lml = self._likelihood.value(theta)
        z = self._scaled_offset(theta)
        return lml - 0.5 * float(z @ z), lml

    def value_and_gradient(self, theta) -> tuple[float, float, np.ndarray]:
        lml, grad = self._likelihood.value_and_gradient(theta)
        z = self._scaled_offset(theta)
        grad[self._temporal] -= z / _PRIOR_SD
        return lml - 0.5 * float(z @ z), lml, grad


def log_marginal_likelihood(
    dataset: Dataset, spec: KernelSpec, hp: Hyperparameters
) -> float:
    """Log marginal likelihood of the standardized targets under ``hp``."""
    return _MarginalLikelihood(dataset, spec).value(hp_to_vector(hp, spec))


def lml_and_gradient(
    dataset: Dataset, spec: KernelSpec, hp: Hyperparameters
) -> tuple[float, np.ndarray]:
    """Marginal likelihood and its gradient in the log-hyperparameter vector order."""
    return _MarginalLikelihood(dataset, spec).value_and_gradient(hp_to_vector(hp, spec))


@dataclass(frozen=True)
class GpModel:
    """Trained-or-fixed GP posterior over one dataset."""

    dataset: Dataset
    spec: KernelSpec
    hp: Hyperparameters
    _factor_l: np.ndarray = field(repr=False)
    _alpha: np.ndarray = field(repr=False)
    # per-fit invariants (see the module docstring); the std is guarded
    _target_mean: float = field(repr=False)
    _target_std: float = field(repr=False)
    _signal_variance: float = field(repr=False)
    _kernel_params: _Params = field(repr=False)
    _space: np.ndarray = field(repr=False)
    _time: np.ndarray = field(repr=False)
    # the time gap beyond which a sample drops out of a predict (see the
    # module docstring); infinite when the sample times are out of order
    _reach: float = field(repr=False)

    @classmethod
    def fit(cls, dataset: Dataset, spec: KernelSpec, hp: Hyperparameters) -> "GpModel":
        if hp.spatial_dim != dataset.spatial_dim:
            raise ValueError("hyperparameter dimensionality does not match data")
        mean, std = dataset.target_mean, dataset.target_std
        y = (dataset.targets - mean) / std
        el, _ = chol_with_jitter(gram(dataset.points, spec, hp, with_noise=True))
        alpha = _cho_solve(el, y)
        columns = dataset.points.T.copy()[:, :, None]
        times = columns[-1, :, 0]
        reach = math.inf
        if np.all(times[1:] >= times[:-1]):
            # the sum form's length-scales are its SE one, then its Matern 1/2 one
            forms = [spec.temporal]
            if spec.temporal is KernelForm.SUM:
                forms = [KernelForm.SE, KernelForm.MATERN12]
            ells = np.exp(np.atleast_1d(hp.log_temporal_lengthscale))
            reach = max(float(ell) * _UNIT_REACH[f] for f, ell in zip(forms, ells))
        return cls(
            dataset, spec, hp, el, alpha, mean, std, hp.signal_variance,
            _params(spec, hp), columns[:-1], columns[-1:], reach,
        )

    def _query(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.dataset.spatial_dim + 1:
            raise ValueError("query points have the wrong number of columns")
        if not np.all(np.isfinite(points)):
            raise ValueError("query points must be finite")
        return points

    def predict_normalized(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance on the standardized-target scale."""
        queries = self._query(points).T.copy()[:, None, :]
        times = queries[-1:]
        if (times == times[..., :1]).all():
            times = times[..., :1]  # one shared time: one temporal column
        # the samples from ``first`` on; the older ones are beyond the reach
        # of every query
        first = 0
        if times.size:
            first = self._time[0, :, 0].searchsorted(times.min() - self._reach)
        if first == len(self._alpha):  # the prior, without a 0 x 0 solve
            m = queries.shape[-1]
            return np.zeros(m), np.full(m, self._signal_variance)
        dx = self._space[:, first:] - queries[:-1]
        dt = self._time[:, first:] - times
        k_star = _cov(self.spec, dx, dt, self._kernel_params)
        mean = k_star.T @ self._alpha[first:]
        v = _tri_solve(self._factor_l[first:, first:], k_star)
        v *= v
        var = self._signal_variance - v.sum(axis=0)
        return mean, np.maximum(var, 0.0, out=var)

    def predict(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance of the latent objective (no noise term)."""
        mean, var = self.predict_normalized(points)
        std = self._target_std
        return self._target_mean + std * mean, std**2 * var

    @property
    def time_lengthscale(self) -> float:
        """Temporal length-scale; the faster (smaller) component for sum forms."""
        return float(np.exp(self.hp.log_temporal_lengthscale).min())


@dataclass(frozen=True)
class TrainConfig:
    """Training knobs.

    ``restarts`` sizes an exploring fit: besides the warm start, it probes
    ``8 * (restarts - 1)`` random vectors once each and runs L-BFGS-B from
    the best of them only; ``restarts = 1`` runs from the warm start alone.
    ``max_iters`` caps the L-BFGS-B iterations from each start, summed over
    its trust-box runs; 0 keeps the better start as probed.

    ``log_bounds`` is the box training stays in (by default
    ``default_log_bounds`` over the data's extent).  It also places the
    prior on each temporal length-scale: flat up to the centre of that
    entry's row plus log 0.1, a tenth of the temporal width under the
    default bounds, and normal with sd 1 in log units above it.

    ``tie_lengthscales``: "none" trains every length-scale freely (ARD),
    "spatial" ties the spatial ones into a single isotropic value, and
    "all" additionally ties the temporal one to them (time treated as just
    another input dimension; plain kernel forms only; no temporal prior).
    """

    restarts: int = 5
    max_iters: int = 200
    log_bounds: np.ndarray | None = None
    tie_lengthscales: str = "none"

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("need at least 1 restart")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.tie_lengthscales not in ("none", "spatial", "all"):
            raise ValueError("tie_lengthscales must be none, spatial, or all")


@dataclass(frozen=True)
class TrainResult:
    """The trained hyperparameters, their log marginal likelihood (without
    the prior training adds) and the L-BFGS-B iterations of every run from
    every start."""

    hp: Hyperparameters
    lml: float
    iterations: int


def default_log_bounds(
    spec: KernelSpec, spatial_widths, temporal_width: float
) -> np.ndarray:
    """Box constraints for the log-hyperparameter vector.

    Length-scales range over [1e-3, 1e3] times the corresponding domain
    width, variances over [1e-4, 1e4], and observation noise over [1e-8, 1];
    rows follow ``kernels._layout``.
    """
    spatial_widths = np.maximum(np.asarray(spatial_widths, dtype=float), _STD_FLOOR)
    temporal_width = max(float(temporal_width), _STD_FLOOR)
    # length-scale rows are centred on the log width of their input
    centres = {
        "log_spatial_lengthscales": np.log(spatial_widths),
        "log_temporal_lengthscale": math.log(temporal_width),
    }
    scale_lo, scale_hi = math.log(1e-3), math.log(1e3)
    rows = []
    for f, shape, names in _layout(spec, len(spatial_widths)):
        if f in centres:
            rows += [[c + scale_lo, c + scale_hi]
                     for c in np.broadcast_to(centres[f], shape).ravel()]
        elif f == "log_noise_variance":
            rows += [[math.log(1e-8), 0.0]]
        else:
            rows += [[math.log(1e-4), math.log(1e4)]] * len(names)
    return np.array(rows, dtype=float)


def _tie_blocks(spec: KernelSpec, d: int, mode: str) -> list[slice]:
    if mode == "none":
        return []
    if mode == "spatial":
        if spec.spatial is KernelForm.SUM:
            return [slice(0, d), slice(d, 2 * d)]
        return [slice(0, d)]
    # "all": spatial and temporal length-scales share one value
    if spec.has_sum:
        raise ValueError("tie_lengthscales='all' requires plain kernel forms")
    return [slice(0, d + 1)]  # theta starts with D spatial then 1 temporal


def train(
    dataset: Dataset,
    spec: KernelSpec,
    init: Hyperparameters,
    config: TrainConfig = TrainConfig(),
    seed: int = 0,
) -> TrainResult:
    """Maximize the marginal likelihood, plus a soft ceiling on each temporal
    length-scale (none under ``tie_lengthscales="all"``), over the
    log-hyperparameters.

    L-BFGS-B on the negated objective ``_TrainingObjective`` defines, with
    one variable per tie block (the block's gradients summed), run from the
    supplied warm start and, when ``restarts > 1``, from one screened random
    start: the fit draws ``_SCREENS_PER_RESTART * (restarts - 1)`` vectors
    log-uniformly within the bounds, probes each once and runs only from the
    best (the first drawn among equals); ``seed`` seeds those draws.  Each
    run is bounded by its start plus and minus ``_TRUST_RADIUS`` within the
    bounds; a start reruns from the best point it evaluated while that point
    sits on an inner edge of its box (one that is not a bound), at most
    ``_TRUST_RERUNS`` times, and its runs share ``max_iters`` iterations.  A
    failed factorization, or a gradient that is not finite, reads as +inf.
    Returns the best point evaluated, with its marginal likelihood alone as
    ``lml``; raises ``TrainingError`` when no start gives a finite value.
    """
    d = dataset.spatial_dim
    if init.spatial_dim != d:
        raise ValueError("warm start dimensionality does not match data")
    n_hp = n_hyperparameters(spec, d)
    bounds = config.log_bounds
    if bounds is None:
        widths = dataset.points[:, :d].max(axis=0) - dataset.points[:, :d].min(axis=0)
        t_width = dataset.times.max() - dataset.times.min()
        bounds = default_log_bounds(spec, np.maximum(widths, 1.0), max(t_width, 1.0))
    # a copy: tying below must not write into the caller's array
    bounds = np.array(bounds, dtype=float)
    if bounds.shape != (n_hp, 2):
        raise ValueError(f"bounds must have shape ({n_hp}, 2)")
    # the prior's ceiling comes from the temporal row before tying
    maximized = _TrainingObjective(dataset, spec, bounds, config.tie_lengthscales == "all")
    tie_blocks = _tie_blocks(spec, d, config.tie_lengthscales)
    # L-BFGS-B runs over one variable per tie block, the block's first entry:
    # ``x[spread]`` is the full vector
    kept = np.ones(n_hp, dtype=bool)
    for block in tie_blocks:
        kept[block.start + 1 : block.stop] = False
        # tied entries share one box, so clipping keeps their mean inside it
        bounds[block, 0] = bounds[block, 0].max()
        bounds[block, 1] = bounds[block, 1].min()
    first, spread = np.flatnonzero(kept), np.cumsum(kept) - 1
    low, high = bounds[first, 0], bounds[first, 1]
    no_gradient = np.zeros(first.size)

    def variables(theta: np.ndarray) -> np.ndarray:
        """The L-BFGS-B variables of a full vector: clipped to the bounds,
        each tie block's mean in its first entry."""
        theta = theta.clip(bounds[:, 0], bounds[:, 1])
        for block in tie_blocks:
            # bitwise theta[block].mean()
            theta[block.start] = np.add.reduce(theta[block]) / (block.stop - block.start)
        return theta[first]

    def probe(x: np.ndarray) -> tuple[np.ndarray, float, float]:
        try:
            return (x, *maximized.value(x[spread]))
        except FactorizationError:
            return x, -np.inf, -np.inf

    def descend(x: np.ndarray, value: float, lml: float):
        """L-BFGS-B on the negated objective from a probed start, bounded by
        the start plus and minus ``_TRUST_RADIUS`` within the bounds, and
        rerun from the best point evaluated while that point sits on an inner
        edge of its box: that point, its value and LML, and the iterations
        summed over the runs."""
        best = [x, value, lml, None]  # and the best point's gradient

        def fg(x: np.ndarray) -> tuple[float, np.ndarray]:
            try:
                value, lml, grad = maximized.value_and_gradient(x[spread])
            except FactorizationError:
                return math.inf, no_gradient
            g = np.negative(np.bincount(spread, weights=grad))  # blocks summed
            if not np.logical_and.reduce(np.isfinite(g)):
                return math.inf, no_gradient
            if best[3] is None or value > best[1]:
                best[:] = x, value, lml, g
            return -value, g

        iters = 0
        if config.max_iters:
            fg(x)
        for _ in range(1 + _TRUST_RERUNS):
            x, value, _, g = best
            if g is None or iters == config.max_iters:
                break
            box_low = np.maximum(low, x - _TRUST_RADIUS)
            box_high = np.minimum(high, x + _TRUST_RADIUS)
            remaining = config.max_iters - iters
            iters += _lbfgsb(fg, x, -value, g, box_low, box_high, remaining)[2]
            x = best[0]
            on_inner_edge = ((x == box_low) & (box_low > low)) | ((x == box_high) & (box_high < high))
            if not on_inner_edge.any():
                break
        return (*best[:3], iters)

    def starts():
        """The warm start, then the best of the screened random draws, each
        with its value and LML; drawn only once the warm start's runs are done."""
        yield probe(variables(hp_to_vector(init, spec)))
        if config.restarts > 1:
            rng = np.random.default_rng(seed)
            draws = rng.uniform(bounds[:, 0], bounds[:, 1],
                                (_SCREENS_PER_RESTART * (config.restarts - 1), n_hp))
            screened = [probe(variables(theta)) for theta in draws]
            yield max(screened, key=lambda start: start[1])  # the first of equals

    best_x, best_value, best_lml, total_iters = None, -np.inf, -np.inf, 0
    for x, value, lml in starts():
        if not math.isfinite(value):
            continue
        x, value, lml, iters = descend(x, value, lml)
        total_iters += iters
        if value > best_value:
            best_x, best_value, best_lml = x, value, lml
    if best_x is None:
        raise TrainingError("all restarts failed to factorize")
    return TrainResult(hp_from_vector(best_x[spread], spec, d), best_lml, total_iters)
