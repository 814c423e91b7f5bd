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
The runs go through ``_routines._lbfgsb``, the driver
``optimizer.local_refine`` uses too, with scipy's default tolerances.  The
prior is a soft ceiling: flat up to a tenth of the temporal width (the
centre of the entry's bounds before tying, plus log 0.1), and a normal with
sd 1 in log units above it.  It keeps short warmups, which span a small part of the
horizon, from learning a temporal scale far longer than the horizon, and
leaves shorter scales alone: a two-sided prior that pulled them up locked a
fixed-interval run onto the box edge.  It enters only what training
maximizes, and the reported LML is the marginal likelihood alone.  When every
length-scale is tied (time treated as one more input, as the time-blind
``standard_bo`` mode trains), there is no prior.

Training, the temporal prior and the public likelihood functions share one
objective per dataset: it keeps the standardized targets, the raw pairwise
space and time differences laid out once as ``[dx; dt]`` in the order of
the vector's length-scale entries (``kernels._lagged``) and the constant
term, and takes the log-hyperparameter vector directly.  A probe
exponentiates the vector once, divides and squares every slab in one
stacked pass, and builds each component's unit covariance, the parts and
the noise-free gram ``K_nf`` from those squares into buffers made once per
dataset, bitwise what the public ``gram`` gives, and turns the squares into
slopes (each unit covariance's derivative by a log length-scale over the
covariance: the square, divided by the distance for Matern 1/2).  It keeps
the slopes, the unit covariances, the parts, ``K_nf``, the Cholesky factor
of the noisy gram and ``alpha`` of the last vector it evaluated, so a
gradient at that vector costs no second factorization and no second
exponential.

The gradient is 0.5 sum(W * dK) with W = alpha alpha^T - K^-1 (Rasmussen &
Williams 2006, eq. 5.9), contracted without a derivative stack.  K^-1 comes
from LAPACK ``dpotri`` on the factor, in one triangle only; every dK is
symmetric, so the sum runs over that triangle with a per-dataset mask that
counts the diagonal once and the rest twice.  The length-scale entries of
every plain component come from one product of their kept slopes with
W * K_nf; a sum component's from its slopes times W, the other part and its
unit covariance, scaled by its variance.  The signal variance's entry is
sum(W * K_nf), a sum component variance's the sum of that matrix times the
variance, and the noise's sigma_n^2 tr W.  No identity is solved.
``log_marginal_likelihood`` and ``lml_and_gradient`` build the objective
without bounds, so without the prior, and return its LML (and gradient).

Training's screened random draws are probed as one stack, chunked so that
no stack holds more than ``_SCREEN_BYTES`` of gram factors; each row is
factorized on its own and reads bitwise what a probe of that vector alone
reads.  The best row's factorization, the start the descent evaluates
first, is kept as the last one evaluated.

Training probes and gradients avoid numpy's per-call wrappers, which at
n ~ 18 cost more than the factorization itself.  Reductions call
``np.add.reduce`` (bitwise what ``sum`` and ``mean`` return).  The
factorization tries the plain matrix first and builds the jitter ladder
only when that fails.

``GpModel.fit`` checks the hyperparameters through ``gram`` and again when it
flattens them; an append checks them once, through ``cross_gram``, and takes
``previous``'s exponentiated vector, which is the same one.  A fit keeps
what every posterior predict on that fit shares: the Cholesky factor ``L``
of the noisy gram and its inverse, both lower triangular, ``alpha = K^-1 y``
(LAPACK ``dpotrs`` on ``L``), the target mean and std, the kernel's signal
variance, the exponentiated log vector and its component table
(``kernels._stack_layout``), and the training points dimension-major,
``(d, n, 1)`` spatial and ``(1, n, 1)`` temporal.  A predict subtracts the
query batch from those arrays and builds the cross-covariance with the
kernels' ``_cov`` on that vector and table, bitwise what ``cross_gram``
gives.  When every query in the batch has the same time,
as in every step of a fixed-interval mode, the temporal factor is one
``(n, 1)`` column broadcast over the batch; elementwise arithmetic gives the
same bits whatever the array's shape.  A predict multiplies the
cross-covariances by ``L^-1`` with BLAS ``dtrmm`` (Rasmussen & Williams
2006, Alg. 2.1, with the solve against ``L`` replaced by the product with
its inverse): at these shapes OpenBLAS's triangular multiply runs about
twice as fast as its triangular solve ``dtrtrs``.  Every factorization,
inversion, solve and multiply calls LAPACK or BLAS directly, through
``_routines``.

Under unchanged hyperparameters a fit appends to the previous one instead of
refitting, so that a step of a ``fixed_hp`` or frozen run costs O(n^2) in
the GP, not the O(n^2 d) gram and the O(n^3) factorization.  ``fit`` appends
to ``previous`` when all of these hold: ``previous.hp`` is the same object
as ``hp`` and the spec is equal; ``previous`` needed no jitter; and the
dataset's points are ``previous``'s plus exactly one.  With ``k`` the new
point's covariances with the old ones and ``kappa`` its own plus the noise
(one ``cross_gram`` column, bitwise the noisy gram's last column), ``l``
solves ``L l = k`` and the pivot is ``lambda^2 = kappa - l^T l``; when it is
positive, the factor becomes ``[[L, 0], [l^T, lambda]]`` and its inverse
``[[L^-1, 0], [-x^T / lambda, 1 / lambda]]``, where ``x`` solves ``L^T x =
l`` (``x^T`` is ``l^T L^-1``).  Both rows are triangular solves, not
products with ``L^-1``: at a noise on its 1e-8 floor (a gram's condition
number near 1e10), the product ``L^-1 k`` gave predicts 70 to 400 times
further from an iteratively refined dense solve than a fresh fit's, and the
product ``l^T L^-1`` an inverse whose residual ``L^-1 L - I`` was about 1e4
times a fresh one's, after 300 appends.  Anything else, a pivot that is not
positive included, takes the fresh path: ``gram``, ``chol_with_jitter``, and
LAPACK ``dtrtri`` for the inverse.  ``jitter`` records the jitter of a fresh
fit (0 after an append).  An appended factor is not bitwise ``dpotrf``'s;
after those 300 appends its predicts stayed within about 3 times a fresh
fit's distance from the refined solve.

A predict uses only the samples its batch still correlates with in time.
When the sample times are non-decreasing, as ``engine.run`` always makes
them, the fit keeps a temporal reach: the time gap beyond which the unit
temporal correlation falls below ``_WINDOW_TOL`` (1e-16), sqrt(2 ln 1e16) ~
8.58 length-scales for SE and ln 1e16 ~ 36.8 for Matern 1/2, the larger of
its two components' reaches for the sum form.  Out of time order the reach
is infinite.  A batch keeps the samples from the first one whose time is at
least its earliest query time minus the reach: the trailing block of the
factor's inverse, of ``alpha`` and of the training columns.  The dropped
cross-covariances ``k_head`` are below 1e-16 times the signal variance
sigma^2.  Leading zero rows of ``k_star`` would give leading zero rows of
``L^-1 k_star``, and the trailing block of ``L^-1`` is the inverse of the
trailing block of ``L``, so the predict multiplies by that block and the
variance moves by about the multiply's rounding.  The mean drops ``k_head^T
alpha_head``, at most 1e-16 sigma^2 ||alpha_head||_1: about 1e-16 on spread
samples, but ``alpha`` grows toward 1/noise when samples nearly coincide at
a small noise, and there the mean moves by up to that bound.  A window that
keeps every sample is the full product, bit for bit; one that keeps none
returns the prior (mean 0, the signal variance) without a multiply.  The
window follows the batch's earliest time, which is one more way a row's
result depends on the other rows of its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from dynabo._routines import (
    _cho_inv,
    _cho_solve,
    _dpotrf,
    _lbfgsb,
    _tri_inv,
    _tri_mul,
    _tri_solve,
)
from dynabo.kernels import (
    Hyperparameters,
    KernelForm,
    KernelSpec,
    _check_spatial_dim,
    _cov,
    _diffs,
    _lagged,
    _layout,
    _Stack,
    _stack_layout,
    _StackLayout,
    _stacked_cov,
    cross_gram,  # bench/tracing.py wraps it in this namespace
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
# the bytes of gram factors the screened vectors are built in at once: about
# 1 MB holds the 32 default draws at n ~ 20 in one stack, and a long run's
# peak memory does not grow with the draws
_SCREEN_BYTES = 1 << 21
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


class _Probe(NamedTuple):
    """What ``_MarginalLikelihood`` keeps of the last vector it evaluated."""

    key: bytes  # the vector's bytes
    exps: np.ndarray  # its entries exponentiated
    stack: _Stack  # its gram and the gram's factors, without the leading axis
    factor: np.ndarray
    alpha: np.ndarray
    lml: float


class _MarginalLikelihood:
    """What ``train`` maximizes, as a function of the log-hyperparameter
    vector in ``hp_to_vector`` order: the log marginal likelihood of one
    dataset plus a one-sided log-normal prior on each temporal length-scale.
    The prior's log density is flat up to the ceiling, the centre of that
    entry's row in ``bounds`` plus ``_PRIOR_OFFSET``, and falls as a normal
    with sd ``_PRIOR_SD`` in log units above it; the normal's constant is
    left out.  Without ``bounds``, or with ``tied`` (the temporal entry
    shares its value with the spatial length-scales), the objective is the
    marginal likelihood exactly.  Every method also returns the marginal
    likelihood alone.  The temporal entries are the temporal components'
    length-scales in ``kernels._stack_layout``; they are contiguous.

    Remembers the factorization and the gram's factors of the last vector it
    evaluated, or of the best row of the last ``screen``; a gradient
    requested at that vector reuses them.  Every factorization goes through
    ``chol_with_jitter``, which rejects a non-finite gram matrix.  A probe
    of one vector builds its gram in buffers made once per dataset.
    """

    def __init__(self, dataset: Dataset, spec: KernelSpec, bounds=None, tied: bool = False):
        d, n = dataset.spatial_dim, dataset.n
        x, t = dataset.points[:, :d], dataset.points[:, d:]
        self._stack_layout = _stack_layout(spec, d)
        temporal = self._stack_layout.parts[1]
        first = temporal[0].lengthscales.start
        stop = first if tied or bounds is None else temporal[-1].lengthscales.stop
        self._temporal = slice(first, stop)
        rows = np.empty((0, 2)) if bounds is None else bounds[self._temporal]
        self._ceiling = 0.5 * (rows[:, 0] + rows[:, 1]) + _PRIOR_OFFSET
        self._n_hp = n_hyperparameters(spec, d)
        self._lagged = _lagged(self._stack_layout, _diffs(x, x), _diffs(t, t))
        self._y = dataset.normalized_targets
        self._neg_half_y = -0.5 * self._y
        self._log_norm = 0.5 * n * math.log(2 * math.pi)
        self._gram = np.empty((n, n))
        self._gram_diagonal = self._gram.reshape(-1)[:: n + 1]
        # a probe's grams, reused by every probe
        self._buffers = _Stack.empty(self._stack_layout, n)
        # one triangle of W = alpha alpha^T - K^-1 (see the module docstring):
        # the diagonal once, the strict upper triangle twice
        self._mask = np.triu(np.full((n, n), 2.0))
        self._mask.reshape(-1)[:: n + 1] = 1.0
        self._row_bytes = self._buffers.nbytes + self._gram.nbytes  # a screened row's
        self._last = None

    def _exps(self, thetas: np.ndarray, stacked: bool = False) -> np.ndarray:
        """A vector, or a stack of vectors ``(B, P)``, exponentiated once
        checked."""
        want = (*thetas.shape[:1], self._n_hp) if stacked else (self._n_hp,)
        if thetas.shape != want:
            raise ValueError(f"theta has shape {thetas.shape}, expected {want}")
        if not np.logical_and.reduce(np.isfinite(thetas).ravel()):
            raise ValueError("hyperparameters must be finite")
        return np.exp(thetas)

    def _factorize(self, noisy: np.ndarray):
        """The factor of the noisy gram, ``alpha`` and the LML."""
        el, _ = chol_with_jitter(noisy)
        alpha = _cho_solve(el, self._y)
        lml = float(
            self._neg_half_y @ alpha - np.add.reduce(np.log(el.diagonal())) - self._log_norm
        )
        return el, alpha, lml

    def _evaluate(self, theta: np.ndarray) -> _Probe:
        key = theta.tobytes()  # bit-equal vectors give bit-equal results
        if self._last is not None and self._last.key == key:
            return self._last
        self._last = None
        exps = self._exps(theta)
        stack = _stacked_cov(self._stack_layout, self._lagged, exps, self._buffers)
        np.copyto(self._gram, stack.gram)
        self._gram_diagonal += float(exps[-1])
        self._last = _Probe(key, exps, stack, *self._factorize(self._gram))
        return self._last

    def _scaled_offset(self, theta: np.ndarray) -> np.ndarray:
        """The prior's z of ``theta``, or of each row of a stack of vectors:
        how far each temporal entry lies above its ceiling, in sds."""
        excess = theta[..., self._temporal] - self._ceiling
        return np.maximum(excess, 0.0, out=excess) / _PRIOR_SD

    def value(self, theta) -> tuple[float, float]:
        theta = np.asarray(theta, dtype=float)
        lml = self._evaluate(theta).lml
        z = self._scaled_offset(theta)
        return lml - 0.5 * float(z @ z), lml

    def screen(self, thetas) -> tuple[int, np.ndarray, np.ndarray]:
        """``value`` of each row of ``thetas``, each bitwise its own probe,
        with a failed factorization read as -inf: the best row (the first of
        equals), the values and the LMLs.  The grams are built as stacks of
        at most ``_SCREEN_BYTES``, and the best row's factorization is kept
        as the last evaluated."""
        thetas = np.asarray(thetas, dtype=float)
        values, lmls = np.full(len(thetas), -np.inf), np.full(len(thetas), -np.inf)
        n = len(self._y)
        chunk = max(1, _SCREEN_BYTES // self._row_bytes)
        best, self._last = 0, None
        for start in range(0, len(thetas), chunk):
            rows = thetas[start : start + chunk]
            exps = self._exps(rows, stacked=True)
            stack = _stacked_cov(self._stack_layout, self._lagged, exps,
                                 _Stack.empty(self._stack_layout, n, len(rows)))
            noisy = stack.gram.copy()
            noisy.reshape(len(rows), -1)[:, :: n + 1] += exps[:, -1:]
            zs = self._scaled_offset(rows)
            kept = None
            for b, (theta, z) in enumerate(zip(rows, zs)):
                try:
                    el, alpha, lml = self._factorize(noisy[b])
                except FactorizationError:
                    continue
                i = start + b
                values[i], lmls[i] = lml - 0.5 * float(z @ z), lml
                if i == 0 or values[i] > values[best]:
                    best, kept = i, (theta.tobytes(), exps[b], b, el, alpha, lml)
            if kept is not None:  # into the probe buffers, so the stack can go
                key, e, b, el, alpha, lml = kept
                self._last = _Probe(key, e.copy(), stack.copy_row(b, self._buffers),
                                    el, alpha, lml)
        return best, values, lmls

    def value_and_gradient(self, theta) -> tuple[float, float, np.ndarray]:
        theta = np.asarray(theta, dtype=float)
        exps, stack, el, alpha, lml = self._evaluate(theta)[1:]
        # 0.5 * sum(W * dK) for every dK at once over one triangle (the
        # module docstring): dpotri's K^-1 fills the lower triangle in
        # Fortran order, the upper one of its transpose
        w = alpha[:, None] * alpha
        w -= _cho_inv(el).T
        w *= self._mask
        grad = np.empty(self._n_hp)
        slopes = stack.slopes
        wk = w * stack.gram
        if self._stack_layout.signal:
            grad[-2] = np.add.reduce(wk.ravel())
        if self._stack_layout.plain:  # every plain component in one product
            rows, lengthscales = self._stack_layout.plain
            grad[lengthscales] = slopes[rows].reshape(-1, wk.size) @ wk.ravel()
        for c, unit in zip(self._stack_layout.components, stack.units):
            if c.variance is None:
                continue
            # a sum component: W times the other part times its unit covariance
            m = w * (stack.temporal_part if c.spatial else stack.scaled_spatial)
            m *= unit
            variance = exps[c.variance]
            grad[c.variance] = np.add.reduce(m.ravel()) * variance
            grad[c.lengthscales] = slopes[c.rows].reshape(-1, m.size) @ m.ravel()
            grad[c.lengthscales] *= variance
        grad[-1] = exps[-1] * np.add.reduce(w.diagonal())
        grad *= 0.5
        z = self._scaled_offset(theta)
        grad[self._temporal] -= z / _PRIOR_SD
        return lml - 0.5 * float(z @ z), lml, grad


def log_marginal_likelihood(
    dataset: Dataset, spec: KernelSpec, hp: Hyperparameters
) -> float:
    """Log marginal likelihood of the standardized targets under ``hp``."""
    return _MarginalLikelihood(dataset, spec).value(hp_to_vector(hp, spec))[1]


def lml_and_gradient(
    dataset: Dataset, spec: KernelSpec, hp: Hyperparameters
) -> tuple[float, np.ndarray]:
    """Marginal likelihood and its gradient in the log-hyperparameter vector order."""
    return _MarginalLikelihood(dataset, spec).value_and_gradient(hp_to_vector(hp, spec))[1:]


@dataclass(frozen=True)
class GpModel:
    """Trained-or-fixed GP posterior over one dataset.

    ``jitter`` is the diagonal jitter ``chol_with_jitter`` added to the
    noisy gram of a fresh fit (0 when the plain gram factorized, and after
    an append)."""

    dataset: Dataset
    spec: KernelSpec
    hp: Hyperparameters
    jitter: float
    # the Cholesky factor of the noisy gram and its inverse, both lower
    # triangular and Fortran-ordered
    _factor_l: np.ndarray = field(repr=False)
    _factor_inv: np.ndarray = field(repr=False)
    _alpha: np.ndarray = field(repr=False)
    # per-fit invariants (see the module docstring); the std is guarded
    _target_mean: float = field(repr=False)
    _target_std: float = field(repr=False)
    _signal_variance: float = field(repr=False)
    _stack_layout: _StackLayout = field(repr=False)
    _exps: np.ndarray = field(repr=False)  # the exponentiated log vector
    _space: np.ndarray = field(repr=False)
    _time: np.ndarray = field(repr=False)
    # the time gap beyond which a sample drops out of a predict (see the
    # module docstring); infinite when the sample times are out of order
    _reach: float = field(repr=False)

    @classmethod
    def fit(
        cls, dataset: Dataset, spec: KernelSpec, hp: Hyperparameters,
        previous: "GpModel | None" = None,
    ) -> "GpModel":
        """The posterior of ``dataset`` under ``hp``.  When ``previous`` was
        fit with this same ``hp`` object and an equal spec, without jitter,
        on this dataset's points but its last, the factor and its inverse
        are ``previous``'s with one row appended (see the module docstring);
        otherwise, or when the new row's pivot is not positive, they are
        computed afresh."""
        _check_spatial_dim("hp", hp, dataset.spatial_dim)
        mean, std = dataset.target_mean, dataset.target_std
        y = (dataset.targets - mean) / std
        factors = None
        if previous is not None:
            factors = _appended(previous, dataset, spec, hp)
        if factors is None:
            el, jitter = chol_with_jitter(gram(dataset.points, spec, hp, with_noise=True))
            factors = el, _tri_inv(el), jitter
            exps = np.exp(hp_to_vector(hp, spec))
        else:
            exps = previous._exps  # an append keeps ``previous.hp``: the same vector
        el, el_inv, jitter = factors
        alpha = _cho_solve(el, y)
        layout = _stack_layout(spec, dataset.spatial_dim)
        columns = dataset.points.T.copy()[:, :, None]
        times = columns[-1, :, 0]
        reach = math.inf
        if (times[1:] >= times[:-1]).all():
            reach = max(float(exps[c.lengthscales.start]) * _UNIT_REACH[c.form]
                        for c in layout.parts[1])
        return cls(
            dataset, spec, hp, jitter, el, el_inv, alpha, mean, std, hp.signal_variance,
            layout, exps, columns[:-1], columns[-1:], reach,
        )

    def _query(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.dataset.spatial_dim + 1:
            raise ValueError("query points have the wrong number of columns")
        if not np.isfinite(points).all():
            raise ValueError("query points must be finite")
        return points

    def predict_normalized(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance on the standardized-target scale."""
        queries = self._query(points).T.copy()[:, None, :]
        times = queries[-1:]
        # the samples from ``first`` on; the older ones are beyond the reach
        # of every query
        first = 0
        if times.size:
            earliest = times.min()
            if earliest == times.max():
                times = times[..., :1]  # one shared time: one temporal column
            first = self._time[0, :, 0].searchsorted(earliest - self._reach)
        if first == len(self._alpha):  # the prior, without a 0 x 0 multiply
            m = queries.shape[-1]
            return np.zeros(m), np.full(m, self._signal_variance)
        dx = self._space[:, first:] - queries[:-1]
        dt = self._time[:, first:] - times
        k_star = _cov(self._stack_layout, self._exps, dx, dt)
        mean = k_star.T @ self._alpha[first:]
        v = _tri_mul(self._factor_inv[first:, first:], k_star)
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


def _appended(previous: GpModel, dataset: Dataset, spec: KernelSpec, hp: Hyperparameters):
    """``previous``'s factor and its inverse bordered by the row of
    ``dataset``'s last point, and the jitter 0; ``None`` when the module
    docstring's append rule does not hold."""
    n = previous.dataset.n
    points = dataset.points
    if not (
        previous.hp is hp and previous.spec == spec and previous.jitter == 0.0
        and dataset.n == n + 1 and np.array_equal(points[:-1], previous.dataset.points)
    ):
        return None
    # the noisy gram's last column, bit for bit
    k_new = cross_gram(points, points[-1:], spec, hp)
    kappa = float(k_new[n, 0]) + hp.noise_variance
    el, el_inv = previous._factor_l, previous._factor_inv
    # a solve, not ``el_inv @ k_new``: at a noise near its floor the product
    # carries the inverse's larger rounding into every later predict
    row = _tri_solve(el, k_new[:n])[:, 0]
    pivot = kappa - float(row @ row)
    if not pivot > 0.0:
        return None
    pivot = math.sqrt(pivot)
    grown = np.zeros((n + 1, n + 1), order="F")
    grown[:n, :n] = el
    grown[n, :n] = row
    grown[n, n] = pivot
    grown_inv = np.zeros((n + 1, n + 1), order="F")
    grown_inv[:n, :n] = el_inv
    # ``row^T el^-1`` as the solve ``el^T x = row`` for the same reason: the
    # product's rounding, divided by the small pivot, reached the variance
    grown_inv[n, :n] = _tri_solve(el, row, trans=1)
    grown_inv[n, :n] /= -pivot
    grown_inv[n, n] = 1.0 / pivot
    return grown, grown_inv, 0.0


@dataclass(frozen=True)
class TrainConfig:
    """Training knobs.

    ``restarts`` sizes an exploring fit: besides the warm start, it probes
    ``8 * (restarts - 1)`` random vectors once each and runs L-BFGS-B from
    the best of them only; ``restarts = 1`` runs from the warm start alone.
    ``max_iters`` caps the L-BFGS-B iterations from each start, summed over
    its trust-box runs; 0 keeps the better start as probed.

    ``log_bounds`` is the box training stays in (by default
    ``default_log_bounds`` over the data's extent), finite (low, high) rows
    with low <= high, one per entry of the log vector.  It also places the
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
        if self.log_bounds is not None:
            # the row count depends on the kernel and the data: train checks it
            rows = np.asarray(self.log_bounds, dtype=float)
            if (rows.ndim != 2 or rows.shape[1] != 2 or not np.isfinite(rows).all()
                    or (rows[:, 0] > rows[:, 1]).any()):
                raise ValueError("log_bounds must be finite (low, high) rows with low <= high")


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


def _bounds_array(bounds, n_hp: int) -> np.ndarray:
    """A float copy of ``bounds``, which must hold one (low, high) row per
    entry of the log vector."""
    bounds = np.array(bounds, dtype=float)
    if bounds.shape != (n_hp, 2):
        raise ValueError(f"bounds must have shape ({n_hp}, 2)")
    return bounds


def _tie_blocks(spec: KernelSpec, d: int, mode: str) -> list[slice]:
    if mode == "none":
        return []
    layout = _stack_layout(spec, d)
    if mode == "spatial":  # one block per spatial component
        return [c.lengthscales for c in layout.parts[0]]
    # "all": spatial and temporal length-scales share one value
    if spec.has_sum:
        raise ValueError("tie_lengthscales='all' requires plain kernel forms")
    return [layout.plain[1]]  # every length-scale entry, all of them plain


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

    L-BFGS-B on the negated objective, one ``_MarginalLikelihood`` that
    carries the prior and hands back the LML alongside, with one variable
    per tie block (the block's gradients summed), run from the supplied warm
    start and, when ``restarts > 1``, from one screened random start: the
    fit draws ``_SCREENS_PER_RESTART * (restarts - 1)`` vectors
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
    _check_spatial_dim("init", init, d)
    n_hp = n_hyperparameters(spec, d)
    bounds = config.log_bounds
    if bounds is None:
        widths = dataset.points[:, :d].max(axis=0) - dataset.points[:, :d].min(axis=0)
        t_width = dataset.times.max() - dataset.times.min()
        bounds = default_log_bounds(spec, np.maximum(widths, 1.0), max(t_width, 1.0))
    # a copy: tying below must not write into the caller's array
    bounds = _bounds_array(bounds, n_hp)
    # the prior's ceiling comes from the temporal row before tying
    maximized = _MarginalLikelihood(dataset, spec, bounds, config.tie_lengthscales == "all")
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
        """The L-BFGS-B variables of a full vector, or of each row of a
        stack of them: clipped to the bounds, each tie block's mean in its
        first entry."""
        theta = theta.clip(bounds[:, 0], bounds[:, 1])
        for block in tie_blocks:
            # bitwise theta[block].mean(), row by row
            theta[..., block.start] = (np.add.reduce(theta[..., block], axis=-1)
                                       / (block.stop - block.start))
        return theta[..., first]

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
            xs = variables(draws)
            best, values, lmls = maximized.screen(xs[:, spread])
            yield xs[best], values[best], lmls[best]

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
