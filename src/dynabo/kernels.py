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
distance divides and squares all slabs in one call each, then adds them
into the first in index order, and the exponentials run on it in place.
Differences the caller owns (a posterior predict's, or ``cross_gram``'s)
are overwritten; training's per-dataset ones are divided into its stack's
buffers.

A covariance is built from per-fit constants (``_Kernel``): each part's
plain forms (``_components``: the form itself, or the sum form's two), its
length-scales exponentiated with one row per form, the sum form's component
variances, and the signal variance.  ``cross_gram`` builds them once per
call, and ``dynabo.gp`` once per fit for all of its predicts.

Training builds its grams as a stack, one row per log vector
(``_stacked_cov``): ``_stack_layout`` says where each plain component's
length-scales, slabs and variance sit, ``_lagged`` lays the dataset's
differences out once in that slab order, and one divide and one square give
every length-scale entry's scaled squares for every row.  Each component's
unit covariance, the spatial part times the signal variance, the temporal
part and the gram follow, row by row bitwise what ``_cov`` builds for that
row's vector alone.  The stack keeps the squares as slopes, each unit
covariance's derivative by a log length-scale over the covariance itself
(the square, divided by the distance for Matern 1/2), and the training
gradient contracts against them and the parts (``dynabo.gp``).
``grad_gram_log_hp`` builds the derivative matrices from the same stack,
for the tests and the benchmark's tracer only.

The covariance code reads the hyperparameters by attribute, from a
``Hyperparameters``; training's stack reads the exponentiated log vector by
index, through ``_stack_layout``.
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

    def __post_init__(self):
        # the covariance code tests forms by identity, so a name becomes its member
        object.__setattr__(self, "spatial", KernelForm(self.spatial))
        object.__setattr__(self, "temporal", KernelForm(self.temporal))

    @property
    def has_sum(self) -> bool:
        return _SUM in (self.spatial, self.temporal)

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


# the forms, bound once: the covariance code tests them on every training
# probe and every posterior batch
_SE, _M12, _SUM = KernelForm.SE, KernelForm.MATERN12, KernelForm.SUM

# the sum form's plain components, in the order of its length-scale rows and
# variances
_SUM_FORMS = (_SE, _M12)


def _part_layout(part: str, field: str, shape: tuple, suffixes: list[str], form: KernelForm):
    """Entries of one separable part: its length-scales (one row per
    ``_SUM_FORMS`` component, for the sum form), then the sum form's two
    variances."""
    if form is not _SUM:
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
    for f in (field.name for field in fields(hp)):
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


def _sum_squares(diffs: np.ndarray, ells: np.ndarray, out=None) -> np.ndarray:
    """``(diffs[j] / ells[j]) ** 2`` summed over the dimensions ``j`` in
    index order into one ``(n, m)`` array; ``ells`` is ``(p, 1, 1)``, one
    per slab.  The squares go to ``out`` (``diffs`` itself) or a new array,
    and the sum of two or more to an array of its own, so that the caller
    can drop the ``(p, n, m)`` one."""
    z = np.divide(diffs, ells, out=out)
    z *= z
    s = z[0] if len(z) == 1 else z[0] + z[1]
    for j in range(2, len(z)):
        s += z[j]
    return s


def _plain_cov(form: KernelForm, s: np.ndarray) -> np.ndarray:
    """Unit-variance plain covariance from the scaled squared distance ``s``,
    computed in place."""
    if form is _SE:
        s *= -0.5
    else:
        np.sqrt(s, out=s)
        np.negative(s, out=s)
    return np.exp(s, out=s)


def _components(form: KernelForm) -> tuple:
    """The plain forms of one part, in the order of its length-scale rows:
    the form itself, or the sum form's ``_SUM_FORMS``."""
    return _SUM_FORMS if form is _SUM else (form,)


class _Kernel(NamedTuple):
    """A covariance's per-fit constants: what the covariance code would
    otherwise recompute from the log-hyperparameters on every batch."""

    spatial: tuple  # the spatial part's plain forms (``_components``)
    spatial_ells: np.ndarray  # its length-scales, (forms, D, 1, 1): one per slab
    spatial_vars: np.ndarray | None  # the sum form's component variances
    temporal: tuple  # the same three for the temporal part
    temporal_ells: np.ndarray  # (forms, 1, 1, 1)
    temporal_vars: np.ndarray | None
    signal: float  # exp(log_signal_variance)


def _part_constants(form: KernelForm, log_ells, log_vars) -> tuple:
    forms = _components(form)
    ells = np.exp(log_ells).reshape(len(forms), -1, 1, 1)  # one row per component
    return forms, ells, None if log_vars is None else np.exp(log_vars)


def _constants(spec: KernelSpec, hp: Hyperparameters) -> _Kernel:
    return _Kernel(
        *_part_constants(spec.spatial, hp.log_spatial_lengthscales, hp.log_spatial_variances),
        *_part_constants(spec.temporal, hp.log_temporal_lengthscale, hp.log_temporal_variances),
        np.exp(hp.log_signal_variance),
    )


def _part_units(forms: tuple, diffs: np.ndarray, ells: np.ndarray) -> list:
    """Unit-variance covariance of each plain component of one part.  The
    last component overwrites ``diffs`` (the sum form's first works on a
    copy)."""
    last = len(forms) - 1
    return [_plain_cov(f, _sum_squares(diffs, ells[c], diffs if c == last else None))
            for c, f in enumerate(forms)]


def _part_cov(units: list, variances, out=None) -> np.ndarray:
    """One part's covariance from its unit components: the plain form's one
    component itself, or the sum form's two weighted by their variances,
    into ``out`` or a new array."""
    if len(units) == 1:
        return units[0]
    va, vb = variances
    k = np.multiply(units[0], va, out=out)
    k += units[1] * vb
    return k


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


def _cov(kernel: _Kernel, dx: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Noise-free covariance from raw spatial and temporal differences, which
    it overwrites: the spatial part times the signal variance, times the
    temporal part, built in place: keeping the factors, as training's stack
    does (``_stacked_cov``), costs an array that raised the peak memory of
    long runs when predict went through it."""
    k = _part_cov(_part_units(kernel.spatial, dx, kernel.spatial_ells), kernel.spatial_vars)
    k *= kernel.signal
    k *= _part_cov(_part_units(kernel.temporal, dt, kernel.temporal_ells), kernel.temporal_vars)
    return k


class _Component(NamedTuple):
    """One plain component of a part, where training's stack keeps it."""

    form: KernelForm
    spatial: bool  # a component of the spatial part, or of the temporal one
    rows: slice  # its slabs of the stack's slopes
    lengthscales: slice  # its length-scale entries of the log vector
    variance: int | None  # its variance entry (the sum form's), else None


class _StackLayout(NamedTuple):
    """Where training's stack finds each plain component, spatial then
    temporal, and the log vector's entries it reads."""

    components: tuple
    spatial_count: int  # the spatial part's components, the leading ones
    lengthscales: slice | np.ndarray  # the length-scale entries, in slab order
    spatial_variances: tuple  # the sum form's variance entries, else empty
    temporal_variances: tuple
    # the plain components' slabs and length-scale entries, contiguous in
    # both (no variance entry lies between them), or None
    plain: tuple[slice, slice] | None
    signal: bool  # the signal variance is free: the entry before the noise's


@functools.cache
def _stack_layout(spec: KernelSpec, d: int) -> _StackLayout:
    starts, i = {}, 0
    for f, _, names in _layout(spec, d):
        starts[f], i = i, i + len(names)
    components, row = [], 0
    for spatial, part, field, width in ((True, spec.spatial, "log_spatial_lengthscales", d),
                                        (False, spec.temporal, "log_temporal_lengthscale", 1)):
        variances = starts.get(f"log_{'spatial' if spatial else 'temporal'}_variances")
        for c, form in enumerate(_components(part)):
            first = starts[field] + c * width
            components.append(_Component(
                form, spatial, slice(row, row + width), slice(first, first + width),
                None if variances is None else variances + c,
            ))
            row += width
    slots = np.concatenate([np.arange(c.lengthscales.start, c.lengthscales.stop)
                            for c in components])
    if (slots == np.arange(len(slots))).all():  # plain forms: a view, not a gather
        slots = slice(0, len(slots))
    spatial_count = len(_components(spec.spatial))
    plain = [c for c in components if c.variance is None]
    if plain:
        plain = (slice(plain[0].rows.start, plain[-1].rows.stop),
                 slice(plain[0].lengthscales.start, plain[-1].lengthscales.stop))
    return _StackLayout(
        tuple(components), spatial_count, slots,
        *(tuple(c.variance for c in part if c.variance is not None)
          for part in (components[:spatial_count], components[spatial_count:])),
        plain or None, spec.signal_variance_free,
    )


def _lagged(layout: _StackLayout, dx: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Training's per-dataset ``[dx; dt]``: the raw differences each
    length-scale entry divides, in slab order: the spatial slabs once per
    spatial component, then the temporal slab once per temporal one."""
    return np.concatenate([dx if c.spatial else dt for c in layout.components])


class _Stack(NamedTuple):
    """Noise-free grams of a stack of log vectors, one row each, or of one
    vector without the leading axis, and the factors the training gradient
    reads."""

    # (B, slabs, n, n): each length-scale entry's d log k / d log l for its
    # component's unit covariance k: the scaled square z^2, divided by the
    # distance r for Matern 1/2 (0 where r is 0)
    slopes: np.ndarray
    units: list  # each component's unit-variance covariance, (B, n, n)
    scaled_spatial: np.ndarray  # the spatial part times the signal variance
    temporal_part: np.ndarray
    gram: np.ndarray

    @classmethod
    def empty(cls, layout: _StackLayout, n: int, rows: int | None = None) -> "_Stack":
        """Buffers for ``rows`` grams of ``n`` points, or for one without the
        leading axis; a part that is one component's unit covariance leaves
        its buffer unwritten."""
        lead = () if rows is None else (rows,)

        def e():
            return np.empty((*lead, n, n))
        slabs = layout.components[-1].rows.stop
        return cls(np.empty((*lead, slabs, n, n)), [e() for _ in layout.components], e(), e(), e())

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.slopes, *self.units, self.scaled_spatial,
                                      self.temporal_part, self.gram))

    def copy_row(self, b: int, out: "_Stack") -> "_Stack":
        """Row ``b`` of every field, copied into the one-vector buffers ``out``."""
        for field, row in zip((out.slopes, *out.units, out.scaled_spatial, out.temporal_part,
                               out.gram),
                              (self.slopes, *self.units, self.scaled_spatial,
                               self.temporal_part, self.gram)):
            np.copyto(field, row[b])
        return out


def _stacked_unit(form: KernelForm, squares: np.ndarray, unit: np.ndarray) -> None:
    """Unit-variance covariance of one plain component on each row of a
    stack, into ``unit``, from its slabs' scaled squares ``(B, p, n, n)``
    (or ``(p, n, n)``); Matern 1/2 then divides those squares by the
    distance it exponentiates, where that is positive.  The slabs are summed
    in index order and the arithmetic is ``_sum_squares`` and
    ``_plain_cov``'s, so each row is bitwise theirs."""
    p = squares.shape[-3]
    s = squares[..., 0, :, :]
    if p > 1:
        s = np.add(s, squares[..., 1, :, :], out=unit)
        for j in range(2, p):
            s += squares[..., j, :, :]
    if form is _SE:
        np.multiply(s, -0.5, out=unit)
    else:
        r = np.sqrt(s, out=unit)[..., None, :, :]
        np.divide(squares, r, out=squares, where=r > 0)
        np.negative(unit, out=unit)
    np.exp(unit, out=unit)


def _stacked_cov(layout: _StackLayout, lagged: np.ndarray, exps: np.ndarray,
                 out: _Stack) -> _Stack:
    """The noise-free gram of each row of ``exps``, the exponentiated log
    vectors ``(B, P)`` (or one vector, ``(P,)``), from the dataset's
    ``lagged`` differences, into the buffers ``out``: every length-scale
    entry's scaled squares in one stacked pass, then each row's parts and
    gram bitwise what ``_cov`` builds from that row's vector alone, and the
    squares turned into slopes.  Returns ``out`` with each part that is a unit
    covariance pointing at it."""
    squares = np.divide(lagged, exps[..., layout.lengthscales, None, None], out=out.slopes)
    squares *= squares
    for c, unit in zip(layout.components, out.units):
        _stacked_unit(c.form, squares[..., c.rows, :, :], unit)
    i = layout.spatial_count
    scaled = _part_cov(out.units[:i],
                       [exps[..., v, None, None] for v in layout.spatial_variances],
                       out.scaled_spatial)
    if layout.signal:
        scaled = np.multiply(scaled, exps[..., -2, None, None], out=out.scaled_spatial)
    temporal = _part_cov(out.units[i:],
                         [exps[..., v, None, None] for v in layout.temporal_variances],
                         out.temporal_part)
    np.multiply(scaled, temporal, out=out.gram)
    return _Stack(out.slopes, out.units, scaled, temporal, out.gram)


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
    _check_shapes(spec, hp)
    d = hp.spatial_dim
    xa, ta = _split_points(points_a, d)
    xb, tb = _split_points(points_b, d)
    return _cov(_constants(spec, hp), _diffs(xa, xb), _diffs(ta, tb))


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
    Built from training's stack (``_stacked_cov``) for the one vector: a
    spatial entry's component derivative times the signal variance and the
    temporal part, a temporal one's times the scaled spatial part.
    Training does not build these (see ``dynabo.gp``); the tests hold its
    contraction to them.
    """
    _check_shapes(spec, hp)
    x, t = _split_points(points, hp.spatial_dim)
    layout = _stack_layout(spec, hp.spatial_dim)
    lagged = _lagged(layout, _diffs(x, x), _diffs(t, t))
    exps = np.exp(hp_to_vector(hp, spec))
    stack = _stacked_cov(layout, lagged, exps, _Stack.empty(layout, len(x)))
    out = np.empty((len(exps), len(x), len(x)))
    for c, unit in zip(layout.components, stack.units):
        # a length-scale's: z^2 times k (SE) or k / r (Matern 1/2, 0 at zero
        # distance), from the squares again, as the stack's Matern 1/2
        # slopes are divided by r already; times the sum form's variance
        grads = np.divide(lagged[c.rows], exps[c.lengthscales, None, None],
                          out=out[c.lengthscales])
        grads *= grads
        if c.form is _SE:
            grads *= unit
        else:
            # index order, as in _stacked_unit: numpy adds the slabs of a
            # leading axis one by one, except for a 1 x 1 gram, whose
            # distance is 0 in any order
            r = np.sqrt(np.add.reduce(grads, axis=0))
            # divides only where r > 0, so no zero division to silence
            grads *= np.divide(unit, r, out=np.zeros(r.shape), where=r > 0)
        if c.variance is not None:
            grads *= exps[c.variance]
            np.multiply(unit, exps[c.variance], out=out[c.variance])
    # the spatial entries, then the temporal ones, then signal and noise
    i = layout.components[layout.spatial_count].lengthscales.start
    if layout.signal:
        out[:i] *= exps[-2]
        out[-2] = stack.gram
    out[:i] *= stack.temporal_part
    out[i : len(exps) - 1 - layout.signal] *= stack.scaled_spatial
    out[-1] = 0.0
    np.fill_diagonal(out[-1], exps[-1])
    return list(out)


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
