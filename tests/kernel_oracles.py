"""Reference covariances and gram derivatives, shared by the kernel and GP
tests.

Each is written elementwise from the formulas in one fixed order, with the
differences laid out ``(n, m, d)``, so that exact equality pins the
package's dimension-major arithmetic without sharing its code.
"""

import numpy as np

from dynabo.kernels import KernelForm

SUM_FORMS = (KernelForm.SE, KernelForm.MATERN12)


def index_order_squares(z):
    """Sum of ``z * z`` over the last axis, one term at a time in index order
    (numpy's ``sum`` would add eight terms or more pairwise)."""
    s = z[..., 0] * z[..., 0]
    for j in range(1, z.shape[-1]):
        s = s + z[..., j] * z[..., j]
    return s


def fixed_order_parts(a, b, spec, hp):
    """The factors of the covariance between point sets ``a`` and ``b`` in
    one fixed elementwise order: differences over length-scales, sum of
    squares over the last axis in index order, then component weights.
    Returns each part's unit-variance covariances (one per plain component,
    the sum form's SE first), the spatial part times the signal variance,
    and the temporal part."""

    def plain(form, z):
        s = index_order_squares(z)
        return np.exp(-0.5 * s) if form is KernelForm.SE else np.exp(-np.sqrt(s))

    def part(form, diffs, log_ells, log_vars):
        forms = SUM_FORMS if form is KernelForm.SUM else (form,)
        ells = np.exp(np.reshape(log_ells, (len(forms), -1)))
        units = [plain(f, diffs / ell) for f, ell in zip(forms, ells)]
        if form is not KernelForm.SUM:
            return units, units[0]
        va, vb = np.exp(log_vars)
        return units, va * units[0] + vb * units[1]

    d = hp.spatial_dim
    spatial, k_s = part(spec.spatial, a[:, None, :d] - b[None, :, :d],
                        hp.log_spatial_lengthscales, hp.log_spatial_variances)
    temporal, k_t = part(spec.temporal, a[:, None, d:] - b[None, :, d:],
                         hp.log_temporal_lengthscale, hp.log_temporal_variances)
    return spatial, temporal, np.exp(hp.log_signal_variance) * k_s, k_t


def fixed_order_cross_gram(a, b, spec, hp):
    """Reference covariance: ``fixed_order_parts``' scaled spatial part times
    its temporal part.  Exact equality pins the arithmetic that training's
    iterates depend on."""
    *_, scaled_spatial, temporal_part = fixed_order_parts(a, b, spec, hp)
    return scaled_spatial * temporal_part


def nmd_grad_gram(points, spec, hp):
    """Reference noisy-gram derivatives with the differences laid out
    ``(n, m, d)`` and each squared distance summed over the last axis in
    index order, the elementwise order the dimension-major kernels must
    reproduce."""

    def plain(form, z):
        s = index_order_squares(z)
        if form is KernelForm.SE:
            k = np.exp(-0.5 * s)
            return k, [k * z[..., j] ** 2 for j in range(z.shape[-1])]
        r = np.sqrt(s)
        k = np.exp(-r)
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(r > 0, k / np.where(r > 0, r, 1.0), 0.0)
        return k, [scale * z[..., j] ** 2 for j in range(z.shape[-1])]

    def part(form, diffs, log_ells, log_vars):
        if form is KernelForm.SUM:
            va, vb = np.exp(log_vars)
            k_se, g_se = plain(KernelForm.SE, diffs / np.exp(log_ells[0]))
            k_m12, g_m12 = plain(KernelForm.MATERN12, diffs / np.exp(log_ells[1]))
            grads = [va * g for g in g_se] + [vb * g for g in g_m12]
            return va * k_se + vb * k_m12, grads + [va * k_se, vb * k_m12]
        return plain(form, diffs / np.exp(log_ells))

    d = hp.spatial_dim
    tls = np.atleast_1d(hp.log_temporal_lengthscale)
    if spec.temporal is KernelForm.SUM:
        tls = tls[:, None]
    x, t = points[:, :d], points[:, d:]
    k_s, gs = part(spec.spatial, x[:, None] - x[None], hp.log_spatial_lengthscales,
                   hp.log_spatial_variances)
    k_t, gt = part(spec.temporal, t[:, None] - t[None], tls, hp.log_temporal_variances)
    s2 = np.exp(hp.log_signal_variance)
    grads = [s2 * g * k_t for g in gs] + [s2 * k_s * g for g in gt]
    if spec.signal_variance_free:
        grads.append(s2 * k_s * k_t)
    return grads + [hp.noise_variance * np.eye(len(points))]
