"""Stationary covariance functions over space-time inputs.

Inputs live in ``R^{D+1}``: ``D`` spatial coordinates followed by a scalar
time coordinate in the last column.  The covariance is always the separable
product ``K_S(x, x') * K_T(t, t')`` of a spatial and a temporal part.  Each
part is a squared exponential, a Matern 1/2 (exponential), or a sum of the
two with independent variance/length-scale sets.

All hyperparameters are stored in log space so that unconstrained training
keeps them positive.  ``_layout`` is the one table of the log-hyperparameter
vector's order: which ``Hyperparameters`` fields a ``KernelSpec`` leaves
free, their shapes and their element names.  The vector converters, names,
counts, shape checks and defaults here, and the training bounds in
``dynabo.gp``, all read it.  ``grad_gram_log_hp`` returns analytic
derivatives with respect to each free log-hyperparameter in that order.

The arithmetic is dimension-major: pairwise differences are laid out
``(p, n, m)``, one ``(n, m)`` slab per input dimension.  The scaled squared
distance is summed one dimension at a time into one ``(n, m)`` array (eight
from eight dimensions on), and the exponentials run on it in place.  The
additions follow numpy's pairwise order for a reduction over a short last
axis, so the result is bitwise the one an ``(n, m, p)`` layout reduced with
``sum(axis=-1)`` gives, without its ``(n, m, p)`` temporaries.

A covariance is built from its factors (``_cov_parts``): the unit-variance
covariance of each plain component of either part, the spatial part times
the signal variance, and the temporal part.  The derivatives take those
factors instead of recomputing them, so a training gradient reuses what the
probe at the same vector built; ``grad_gram_log_hp`` builds them itself and
runs the same derivative routine.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "KernelForm",
    "KernelSpec",
    "Hyperparameters",
    "gram",
    "cross_gram",
    "grad_gram_log_hp",
    "hp_to_vector",
    "hp_from_vector",
    "n_hyperparameters",
    "hyperparameter_names",
]


class KernelForm(str, Enum):
    """Shape of one separable part (spatial or temporal)."""

    SE = "se"
    MATERN12 = "matern12"
    SUM = "sum"  # SE + Matern 1/2 with independent parameter sets


@dataclass(frozen=True)
class KernelSpec:
    """Forms of the two separable parts; composition is always their product."""

    spatial: KernelForm = KernelForm.SE
    temporal: KernelForm = KernelForm.SE

    @property
    def has_sum(self) -> bool:
        return KernelForm.SUM in (self.spatial, self.temporal)

    @property
    def signal_variance_free(self) -> bool:
        # With a sum part the component variances absorb the overall scale,
        # so the top-level signal variance is pinned to 1.
        return not self.has_sum


@dataclass(frozen=True, eq=False)
class Hyperparameters:
    """Log-space kernel parameters for a model with D spatial dimensions.

    ``log_spatial_lengthscales`` has shape ``(D,)`` for plain spatial forms
    and ``(2, D)`` for the sum form (SE row first, Matern 1/2 row second).
    ``log_temporal_lengthscale`` is a scalar for plain temporal forms and a
    length-2 array for the sum form.  The component variance fields are set
    only for sum parts; with any sum part present ``log_signal_variance``
    must be 0 (variance 1).  ``log_noise_variance`` is observation noise on
    the targets; nothing is noisy in the time coordinate itself.
    """

    log_spatial_lengthscales: np.ndarray
    log_temporal_lengthscale: float | np.ndarray
    log_signal_variance: float
    log_noise_variance: float
    log_spatial_variances: np.ndarray | None = None
    log_temporal_variances: np.ndarray | None = None

    def __post_init__(self):
        # every field that is set becomes a finite float, or a float array
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue  # a component variance, which only sum parts set
            value = np.asarray(value, dtype=float)
            if not np.all(np.isfinite(value)):
                raise ValueError("hyperparameters must be finite")
            if f.name == "log_spatial_lengthscales":
                value = np.atleast_1d(value)
            object.__setattr__(self, f.name, float(value) if value.ndim == 0 else value)

    @property
    def spatial_dim(self) -> int:
        return int(self.log_spatial_lengthscales.shape[-1])

    @property
    def noise_variance(self) -> float:
        return float(np.exp(self.log_noise_variance))

    @property
    def signal_variance(self) -> float:
        """Total variance of the kernel at zero lag."""
        total = np.exp(self.log_signal_variance)
        if self.log_spatial_variances is not None:
            total *= np.sum(np.exp(self.log_spatial_variances))
        if self.log_temporal_variances is not None:
            total *= np.sum(np.exp(self.log_temporal_variances))
        return float(total)

    @classmethod
    def default(
        cls,
        spatial_dim: int,
        spec: KernelSpec = KernelSpec(),
        spatial_scale: float = 1.0,
        temporal_scale: float = 1.0,
        signal_variance: float = 1.0,
        noise_variance: float = 1e-4,
    ) -> "Hyperparameters":
        """Build parameters with shapes matching ``spec``; component
        variances start at 1."""
        if spatial_dim < 1:
            raise ValueError("spatial_dim must be at least 1")
        fill = {
            "log_spatial_lengthscales": np.log(spatial_scale),
            "log_temporal_lengthscale": np.log(temporal_scale),
            "log_signal_variance": np.log(signal_variance),
            "log_noise_variance": np.log(noise_variance),
        }
        values = dict(_PINNED)
        for f, shape, _ in _layout(spec, spatial_dim):
            values[f] = np.full(shape, fill.get(f, 0.0))
        return cls(**values)


# the fields a spec may leave out of the vector, and their values then:
# component variances exist only for sum parts; a sum part pins the signal
# variance to 1
_PINNED = {
    "log_spatial_variances": None, "log_temporal_variances": None, "log_signal_variance": 0.0
}


def _part_layout(part: str, field: str, shape: tuple, suffixes: list[str], form: KernelForm):
    """Entries of one separable part: its length-scales (an SE row, then a
    Matern 1/2 row, for the sum form), then the sum form's two variances."""
    if form is not KernelForm.SUM:
        return ((field, shape, tuple(f"{part}_lengthscale{s}" for s in suffixes)),)
    components = ("se", "m12")
    return (
        (field, (2, *shape),
         tuple(f"{part}_{c}_lengthscale{s}" for c in components for s in suffixes)),
        (f"log_{part}_variances", (2,), tuple(f"{part}_{c}_variance" for c in components)),
    )


@functools.cache
def _layout(spec: KernelSpec, d: int) -> tuple[tuple[str, tuple, tuple[str, ...]], ...]:
    """The log-hyperparameter vector's order, the one table of it.

    One ``(field, shape, names)`` entry per ``Hyperparameters`` field that
    ``spec`` leaves free, in vector order: spatial length-scales, spatial
    component variances (sum form), temporal length-scales, temporal
    component variances (sum form), signal variance (plain forms only),
    noise variance.  ``shape`` is the field's shape in ``Hyperparameters``;
    ``names`` has one entry per vector element, in C order of that shape.
    The fields left out take their ``_PINNED`` values.
    """
    layout = [
        *_part_layout("spatial", "log_spatial_lengthscales", (d,),
                      [f"_{j}" for j in range(d)], spec.spatial),
        *_part_layout("temporal", "log_temporal_lengthscale", (), [""], spec.temporal),
    ]
    if spec.signal_variance_free:
        layout.append(("log_signal_variance", (), ("signal_variance",)))
    layout.append(("log_noise_variance", (), ("noise_variance",)))
    return tuple(layout)


def _check_shapes(spec: KernelSpec, hp: Hyperparameters) -> None:
    free = {f: shape for f, shape, _ in _layout(spec, hp.spatial_dim)}
    forms = f"{spec.spatial.value} x {spec.temporal.value} kernel"
    for f in _Params._fields:
        value, pinned = getattr(hp, f), _PINNED.get(f)
        if f in free:
            if value is None or np.shape(value) != free[f]:
                raise ValueError(f"the {forms} needs {f} of shape {free[f]}")
        elif pinned is None:
            if value is not None:
                raise ValueError(f"the {forms} leaves {f} unset")
        elif np.shape(value) != () or value != pinned:
            raise ValueError(f"the {forms} fixes {f} to {pinned}")


def _diffs(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Raw pairwise differences, dimension-major: (p, n, m)."""
    # contiguous (p, n) and (p, m) copies make the broadcast subtraction faster
    return xa.T.copy()[:, :, None] - xb.T.copy()[:, None, :]


def _squares(diffs: np.ndarray, ells: np.ndarray):
    """``(diffs[j] / ells[j]) ** 2`` for each dimension ``j``, one fresh
    ``(n, m)`` array at a time."""
    for diff, ell in zip(diffs, ells):
        z = np.divide(diff, ell)
        z *= z
        yield z


def _sum_squares(squares, p: int) -> np.ndarray:
    """Sum of ``p`` per-dimension squares in the order numpy's
    ``(z * z).sum(axis=-1)`` adds a short contiguous last axis, so the
    dimension-major layout gives the same bits.  That order is pairwise
    summation: one by one below 8 terms; up to 128 terms, eight running sums
    combined as a tree, then the rest one by one; beyond that, two halves.
    Accumulates in place into the first terms it draws."""
    if p > 128:
        half = p // 2 - (p // 2) % 8
        s = _sum_squares(squares, half)
        s += _sum_squares(squares, p - half)
        return s
    if p < 8:
        s = next(squares)
        for _ in range(p - 1):
            s += next(squares)
        return s
    r = [next(squares) for _ in range(8)]
    for i in range(8, p - p % 8):
        r[i % 8] += next(squares)
    for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):
        r[a] += r[b]
    s = r[0]
    for _ in range(p % 8):
        s += next(squares)
    return s


def _plain_cov(form: KernelForm, s: np.ndarray) -> np.ndarray:
    """Unit-variance plain covariance from the scaled squared distance ``s``,
    computed in place."""
    if form is KernelForm.SE:
        s *= -0.5
    else:
        np.sqrt(s, out=s)
        np.negative(s, out=s)
    return np.exp(s, out=s)


def _part_units(form: KernelForm, diffs: np.ndarray, log_ells: np.ndarray) -> tuple:
    """Unit-variance covariance of each plain component of one part: the
    form's own, or the sum form's SE then Matern 1/2 one."""
    ells = np.exp(log_ells)
    p = len(diffs)
    if form is KernelForm.SUM:
        return (
            _plain_cov(KernelForm.SE, _sum_squares(_squares(diffs, ells[0]), p)),
            _plain_cov(KernelForm.MATERN12, _sum_squares(_squares(diffs, ells[1]), p)),
        )
    return (_plain_cov(form, _sum_squares(_squares(diffs, ells), p)),)


def _part_cov(units: tuple, log_vars: np.ndarray | None) -> np.ndarray:
    """One part's covariance from its unit components: the plain form's one
    component itself, or the sum form's two weighted by their variances."""
    if len(units) == 1:
        return units[0]
    va, vb = np.exp(log_vars)
    k = units[0] * va
    k += units[1] * vb
    return k


def _lengthscale_grads(form: KernelForm, diffs: np.ndarray, ells: np.ndarray, k, out):
    """Derivatives of a unit-variance plain component ``k`` by each log(l_j),
    written into ``out[j]``: ``z_j^2`` times ``k`` (SE) or ``k / r``
    (Matern 1/2, 0 at zero distance)."""
    np.divide(diffs, ells[:, None, None], out=out)
    out *= out
    if form is KernelForm.SE:
        out *= k
        return
    r = np.sqrt(_sum_squares(iter(out.copy()), len(out)))
    # divides only where r > 0, so no zero division to silence
    out *= np.divide(k, r, out=np.zeros(r.shape), where=r > 0)


def _part_grads(
    form: KernelForm, diffs: np.ndarray, log_ells: np.ndarray, log_vars, units: tuple, out
) -> int:
    """One part's unit-variance derivatives, written into the leading slots
    of ``out``: its length-scales (one row per sum component, each times its
    variance), then the sum form's two variances.  Returns the slot count."""
    ells = np.exp(log_ells)
    p = len(diffs)
    if form is not KernelForm.SUM:
        _lengthscale_grads(form, diffs, ells, units[0], out[:p])
        return p
    for c, (f, k, v) in enumerate(
        zip((KernelForm.SE, KernelForm.MATERN12), units, np.exp(log_vars))
    ):
        block = out[c * p : (c + 1) * p]
        _lengthscale_grads(f, diffs, ells[c], k, block)
        block *= v
        np.multiply(k, v, out=out[2 * p + c])
    return 2 * p + 2


class _Params(NamedTuple):
    """The ``Hyperparameters`` fields in vector order, in the shapes the
    covariance code consumes."""

    log_spatial_lengthscales: np.ndarray  # (D,), or (2, D) for the sum form
    log_spatial_variances: np.ndarray | None
    log_temporal_lengthscale: np.ndarray  # (1,), or (2, 1) for the sum form
    log_temporal_variances: np.ndarray | None
    log_signal_variance: float
    log_noise_variance: float


def _cov_params(values) -> _Params:
    """``_Params`` from a field-name mapping; the temporal length-scales
    gain a trailing axis."""
    sls, svar, tls, tvar, sig, noise = (values[f] for f in _Params._fields)
    return _Params(sls, svar, np.asarray(tls)[..., None], tvar, sig, noise)


def _params(spec: KernelSpec, hp: Hyperparameters) -> _Params:
    """``hp`` in the covariance shapes, after checking it against ``spec``."""
    _check_shapes(spec, hp)
    return _cov_params(vars(hp))


def _split(theta: np.ndarray, spec: KernelSpec, spatial_dim: int) -> dict:
    """Every ``Hyperparameters`` field of a vector in ``_layout`` order:
    views of ``theta`` in the field's shape, pinned values for the rest."""
    expected = n_hyperparameters(spec, spatial_dim)
    if theta.shape != (expected,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({expected},)")
    values, i = dict(_PINNED), 0
    for f, shape, names in _layout(spec, spatial_dim):
        values[f] = theta[i : i + len(names)].reshape(shape)
        i += len(names)
    return values


def _params_from_vector(theta: np.ndarray, spec: KernelSpec, spatial_dim: int) -> _Params:
    """Views into a log-hyperparameter vector, in the covariance shapes; the
    scalars are 0-d views, or the pinned value."""
    return _cov_params(_split(theta, spec, spatial_dim))


class _Parts(NamedTuple):
    """The factors a covariance is built from, kept by a training probe for
    the gradient at the same vector."""

    spatial: tuple  # unit-variance covariance of each spatial component
    temporal: tuple  # the same for the temporal part
    scaled_spatial: np.ndarray  # the spatial part times the signal variance
    temporal_part: np.ndarray  # the temporal part


def _cov_parts(spec: KernelSpec, dx: np.ndarray, dt: np.ndarray, p: _Params) -> _Parts:
    """The factors of the noise-free covariance (see ``_cov``)."""
    spatial = _part_units(spec.spatial, dx, p.log_spatial_lengthscales)
    temporal = _part_units(spec.temporal, dt, p.log_temporal_lengthscale)
    scaled = _part_cov(spatial, p.log_spatial_variances) * np.exp(p.log_signal_variance)
    return _Parts(spatial, temporal, scaled, _part_cov(temporal, p.log_temporal_variances))


def _cov(spec: KernelSpec, dx: np.ndarray, dt: np.ndarray, p: _Params) -> np.ndarray:
    """Noise-free covariance from raw spatial and temporal differences: the
    spatial part times the signal variance, times the temporal part, built in
    place: ``_cov_parts`` keeps the factors, and the array that costs raised
    the peak memory of long runs when predict went through it."""
    k = _part_cov(_part_units(spec.spatial, dx, p.log_spatial_lengthscales),
                  p.log_spatial_variances)
    k *= np.exp(p.log_signal_variance)
    k *= _part_cov(_part_units(spec.temporal, dt, p.log_temporal_lengthscale),
                   p.log_temporal_variances)
    return k


def _cov_grads(
    spec: KernelSpec, dx: np.ndarray, dt: np.ndarray, p: _Params, parts: _Parts, out
) -> np.ndarray:
    """Noisy-gram derivatives in ``_layout`` order (see ``grad_gram_log_hp``),
    built from the covariance's ``parts`` into the ``(P, n, n)`` stack
    ``out``: a spatial derivative is the part's own times the signal
    variance times the temporal part, a temporal one the part's own times
    the scaled spatial part."""
    i = _part_grads(spec.spatial, dx, p.log_spatial_lengthscales, p.log_spatial_variances,
                    parts.spatial, out)
    out[:i] *= np.exp(p.log_signal_variance)
    out[:i] *= parts.temporal_part
    j = i + _part_grads(spec.temporal, dt, p.log_temporal_lengthscale,
                        p.log_temporal_variances, parts.temporal, out[i:])
    out[i:j] *= parts.scaled_spatial
    if spec.signal_variance_free:
        np.multiply(parts.scaled_spatial, parts.temporal_part, out=out[j])
    out[-1] = 0.0
    np.fill_diagonal(out[-1], np.exp(p.log_noise_variance))
    return out


def _split_points(points: np.ndarray, spatial_dim: int):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != spatial_dim + 1:
        raise ValueError(
            f"points have {points.shape[1]} columns, expected {spatial_dim + 1}"
        )
    return points[:, :spatial_dim], points[:, spatial_dim:]


def cross_gram(
    points_a: np.ndarray, points_b: np.ndarray, spec: KernelSpec, hp: Hyperparameters
) -> np.ndarray:
    """Covariance matrix between two point sets, without observation noise."""
    p = _params(spec, hp)
    d = hp.spatial_dim
    xa, ta = _split_points(points_a, d)
    xb, tb = _split_points(points_b, d)
    return _cov(spec, _diffs(xa, xb), _diffs(ta, tb), p)


def gram(
    points: np.ndarray,
    spec: KernelSpec,
    hp: Hyperparameters,
    with_noise: bool = False,
) -> np.ndarray:
    """Covariance matrix of a point set.

    With ``with_noise`` the observation-noise variance is added to the
    diagonal only; time coordinates are treated as exact either way.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] < 1:
        raise ValueError("need at least one point")
    k = cross_gram(points, points, spec, hp)
    if with_noise:
        k.flat[:: k.shape[0] + 1] += hp.noise_variance
    return k


def grad_gram_log_hp(
    points: np.ndarray, spec: KernelSpec, hp: Hyperparameters
) -> list[np.ndarray]:
    """Derivative of the noisy gram matrix for each free log-hyperparameter.

    Matrices follow the vector order ``_layout`` declares, the one
    ``hp_to_vector`` uses.  The noise derivative is ``noise_variance * I``.
    """
    p = _params(spec, hp)
    x, t = _split_points(points, hp.spatial_dim)
    dx, dt = _diffs(x, x), _diffs(t, t)
    out = np.empty((n_hyperparameters(spec, hp.spatial_dim), len(x), len(x)))
    return list(_cov_grads(spec, dx, dt, p, _cov_parts(spec, dx, dt, p), out))


def n_hyperparameters(spec: KernelSpec, spatial_dim: int) -> int:
    return sum(len(names) for _, _, names in _layout(spec, spatial_dim))


def hyperparameter_names(spec: KernelSpec, spatial_dim: int) -> list[str]:
    """Names of the free log-hyperparameters, in vector order."""
    return [name for _, _, names in _layout(spec, spatial_dim) for name in names]


def hp_to_vector(hp: Hyperparameters, spec: KernelSpec) -> np.ndarray:
    """Flatten the free log-hyperparameters into the canonical vector order."""
    _check_shapes(spec, hp)
    return np.concatenate(
        [np.ravel(getattr(hp, f)) for f, _, _ in _layout(spec, hp.spatial_dim)]
    )


def hp_from_vector(
    theta: np.ndarray, spec: KernelSpec, spatial_dim: int
) -> Hyperparameters:
    """Inverse of ``hp_to_vector``."""
    return Hyperparameters(**_split(np.asarray(theta, dtype=float), spec, spatial_dim))
