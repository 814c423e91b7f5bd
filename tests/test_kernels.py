"""Covariance function unit tests.

Gradient correctness is checked against central finite differences computed
here at run time, so analytic and numeric routes stay independent.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynabo import kernels
from dynabo.gp import Dataset, default_log_bounds, log_marginal_likelihood
from dynabo.kernels import (
    Hyperparameters,
    KernelForm,
    KernelSpec,
    cross_gram,
    grad_gram_log_hp,
    gram,
    hp_from_vector,
    hp_to_vector,
    hyperparameter_names,
    n_hyperparameters,
)
from kernel_oracles import (
    fixed_order_cross_gram,
    index_order_squares,
    nmd_grad_gram,
)

ALL_SPECS = [
    KernelSpec(KernelForm.SE, KernelForm.SE),
    KernelSpec(KernelForm.SE, KernelForm.MATERN12),
    KernelSpec(KernelForm.MATERN12, KernelForm.SE),
    KernelSpec(KernelForm.SUM, KernelForm.SUM),
    KernelSpec(KernelForm.SE, KernelForm.SUM),
    KernelSpec(KernelForm.SUM, KernelForm.MATERN12),
]
NINE_SPECS = [KernelSpec(s, t) for s, t in itertools.product(KernelForm, KernelForm)]


def random_hp(rng, spec, d):
    theta = rng.uniform(-1.0, 1.0, size=n_hyperparameters(spec, d))
    return hp_from_vector(theta, spec, d)


@given(
    delta=st.floats(0.0, 50.0),
    lengthscale=st.floats(0.05, 20.0),
)
def test_matern12_is_per_step_forgetting(delta, lengthscale):
    # the tvb mode's claim: at one location, an exponential temporal kernel
    # discounts a sample by eps**d after a time gap d, with eps = exp(-1/l)
    spec = KernelSpec(KernelForm.SE, KernelForm.MATERN12)
    hp = Hyperparameters.default(1, spec, temporal_scale=lengthscale)
    k = cross_gram([[0.3, 0.0]], [[0.3, delta]], spec, hp)
    eps = math.exp(-1.0 / lengthscale)
    assert k[0, 0] == pytest.approx(eps**delta, rel=1e-9, abs=1e-300)


def test_product_structure_factorizes_over_time():
    # same spatial location: covariance depends on the time gap only
    rng = np.random.default_rng(7)
    spec = KernelSpec(KernelForm.SE, KernelForm.MATERN12)
    hp = Hyperparameters.default(3, spec, spatial_scale=0.8, temporal_scale=2.0)
    x = rng.normal(size=3)
    a = np.append(x, 1.0)
    b = np.append(x, 4.0)
    expected = hp.signal_variance * math.exp(-3.0 / 2.0)
    assert cross_gram(a, b, spec, hp)[0, 0] == pytest.approx(expected)
    # and a different location scales it by the spatial factor alone
    y = x + np.array([0.8, 0.0, 0.0])
    c = np.append(y, 4.0)
    assert cross_gram(a, c, spec, hp)[0, 0] == pytest.approx(expected * math.exp(-0.5))


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_gram_symmetric_and_psd(spec):
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(12, 4)) * 2.0
    hp = random_hp(rng, spec, 3)
    k = gram(pts, spec, hp)
    assert np.allclose(k, k.T)
    assert np.linalg.eigvalsh(k).min() > -1e-8
    noisy = gram(pts, spec, hp, with_noise=True)
    assert np.allclose(noisy - k, hp.noise_variance * np.eye(12))


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_gram_diagonal_and_bound(spec):
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(9, 3))
    hp = random_hp(rng, spec, 2)
    k = gram(pts, spec, hp)
    assert np.allclose(np.diag(k), hp.signal_variance)
    assert np.all(np.abs(k) <= hp.signal_variance + 1e-12)


def test_gram_is_stationary():
    rng = np.random.default_rng(5)
    spec = KernelSpec(KernelForm.SUM, KernelForm.SUM)
    hp = random_hp(rng, spec, 2)
    pts = rng.normal(size=(8, 3))
    shift = np.array([1.7, -0.3, 12.0])
    assert np.allclose(gram(pts, spec, hp), gram(pts + shift, spec, hp))


def test_cross_gram_matches_gram_blocks():
    rng = np.random.default_rng(13)
    spec = KernelSpec(KernelForm.SE, KernelForm.SE)
    hp = random_hp(rng, spec, 2)
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(4, 3))
    full = gram(np.vstack([a, b]), spec, hp)
    assert np.allclose(cross_gram(a, b, spec, hp), full[:5, 5:])


def fd_gradient(points, spec, hp, h=1e-5):
    theta = hp_to_vector(hp, spec)
    d = hp.spatial_dim
    grads = []
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        k_up = gram(points, spec, hp_from_vector(up, spec, d), with_noise=True)
        k_down = gram(points, spec, hp_from_vector(down, spec, d), with_noise=True)
        grads.append((k_up - k_down) / (2 * h))
    return grads


@pytest.mark.parametrize("spec", NINE_SPECS)
def test_gram_keeps_fixed_elementwise_order(spec):
    # from d = 8 on a pairwise sum would differ from index order: eight
    # running sums (12, 20), and two halves beyond 128 terms (130)
    rng = np.random.default_rng(23)
    for d in (1, 2, 3, 6, 7, 12, 20, 130):
        hp = random_hp(rng, spec, d)
        a = rng.uniform(-2, 2, size=(11, d + 1))
        a[3] = a[0]  # a zero distance, where Matern 1/2 has its kink
        b = rng.uniform(-2, 2, size=(5, d + 1))
        assert np.array_equal(cross_gram(a, b, spec, hp), fixed_order_cross_gram(a, b, spec, hp))
        # and the smallest sets: a 1 x 1 gram, whose Matern 1/2 distance is
        # 0, and two points
        for points in (a, a[:1], a[:2]):
            noisy = (fixed_order_cross_gram(points, points, spec, hp)
                     + hp.noise_variance * np.eye(len(points)))
            assert np.array_equal(gram(points, spec, hp, with_noise=True), noisy)
            got, want = grad_gram_log_hp(points, spec, hp), nmd_grad_gram(points, spec, hp)
            assert len(got) == len(want) == n_hyperparameters(spec, d)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_grad_gram_matches_finite_differences(spec):
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(7, 4)) * 1.5
    hp = random_hp(rng, spec, 3)
    analytic = grad_gram_log_hp(pts, spec, hp)
    numeric = fd_gradient(pts, spec, hp)
    assert len(analytic) == n_hyperparameters(spec, 3)
    for a, n in zip(analytic, numeric):
        assert np.allclose(a, n, atol=1e-6)


def test_grad_handles_duplicate_points():
    # Matern 1/2 has a kink at zero distance; the gradient is defined as 0 there
    spec = KernelSpec(KernelForm.MATERN12, KernelForm.MATERN12)
    hp = Hyperparameters.default(2, spec)
    pts = np.array([[0.5, 0.5, 1.0], [0.5, 0.5, 1.0], [1.0, 0.0, 2.0]])
    for g in grad_gram_log_hp(pts, spec, hp):
        assert np.all(np.isfinite(g))


@pytest.mark.parametrize("spec", ALL_SPECS)
@pytest.mark.parametrize("d", [1, 2, 5])
def test_vector_round_trip(spec, d):
    rng = np.random.default_rng(d)
    theta = rng.uniform(-2, 2, size=n_hyperparameters(spec, d))
    hp = hp_from_vector(theta, spec, d)
    assert np.allclose(hp_to_vector(hp, spec), theta)
    names = hyperparameter_names(spec, d)
    assert len(names) == theta.size
    assert len(set(names)) == len(names)
    assert names[-1] == "noise_variance"


# the layout tests below build defaults and bounds from these values, all
# distinct, so a misplaced entry shows
SCALES = dict(spatial_scale=2.0, temporal_scale=3.0, signal_variance=5.0, noise_variance=1e-3)
TEMPORAL_WIDTH = 4.0
SCALE_ROW = [math.log(1e-3), math.log(1e3)]
VAR_ROW = [math.log(1e-4), math.log(1e4)]
NOISE_ROW = [math.log(1e-8), 0.0]


def widths(d):
    return 1.5 + np.arange(d, dtype=float)


def expected_layout(spec, d):
    """The vector layout spelt out from its rules: ``(name, default value,
    bound row)`` per entry.  Spatial length-scales (one row per component of
    a sum form), spatial component variances, temporal length-scales,
    temporal component variances, the signal variance when no sum part pins
    it, then the noise; length-scale rows are centred on the log width."""
    ls, lt = math.log(SCALES["spatial_scale"]), math.log(SCALES["temporal_scale"])
    lw, ltw = np.log(widths(d)), math.log(TEMPORAL_WIDTH)
    entries = []
    for part, form, suffixes, default, centres in (
        ("spatial", spec.spatial, [f"_{j}" for j in range(d)], ls, lw),
        ("temporal", spec.temporal, [""], lt, [ltw]),
    ):
        comps = ["se_", "m12_"] if form is KernelForm.SUM else [""]
        for comp in comps:
            entries += [
                (f"{part}_{comp}lengthscale{sfx}", default,
                 [c + SCALE_ROW[0], c + SCALE_ROW[1]])
                for sfx, c in zip(suffixes, centres)
            ]
        if form is KernelForm.SUM:
            entries += [(f"{part}_{c}_variance", 0.0, VAR_ROW) for c in ("se", "m12")]
    if not spec.has_sum:
        entries.append(("signal_variance", math.log(SCALES["signal_variance"]), VAR_ROW))
    entries.append(("noise_variance", math.log(SCALES["noise_variance"]), NOISE_ROW))
    return entries


def check_layout(spec, d, entries):
    names = [e[0] for e in entries]
    assert hyperparameter_names(spec, d) == names
    assert n_hyperparameters(spec, d) == len(names)
    np.testing.assert_allclose(
        hp_to_vector(Hyperparameters.default(d, spec, **SCALES), spec),
        [e[1] for e in entries], rtol=1e-14, atol=0,
    )
    np.testing.assert_allclose(
        default_log_bounds(spec, widths(d), TEMPORAL_WIDTH),
        [e[2] for e in entries], rtol=1e-14, atol=1e-14,
    )


@pytest.mark.parametrize("spec", NINE_SPECS)
@pytest.mark.parametrize("d", [1, 2, 5])
def test_vector_layout(spec, d):
    check_layout(spec, d, expected_layout(spec, d))


def test_vector_layout_literal():
    ls, lt, lsig, ln = (math.log(v) for v in SCALES.values())
    w0, w1, wt = math.log(1.5), math.log(2.5), math.log(TEMPORAL_WIDTH)
    lo, hi = SCALE_ROW

    def scale(c):
        return [c + lo, c + hi]

    se, total = KernelForm.SE, KernelForm.SUM
    check_layout(KernelSpec(se, se), 2, [
        ("spatial_lengthscale_0", ls, scale(w0)),
        ("spatial_lengthscale_1", ls, scale(w1)),
        ("temporal_lengthscale", lt, scale(wt)),
        ("signal_variance", lsig, VAR_ROW),
        ("noise_variance", ln, NOISE_ROW),
    ])
    check_layout(KernelSpec(total, se), 2, [
        ("spatial_se_lengthscale_0", ls, scale(w0)),
        ("spatial_se_lengthscale_1", ls, scale(w1)),
        ("spatial_m12_lengthscale_0", ls, scale(w0)),
        ("spatial_m12_lengthscale_1", ls, scale(w1)),
        ("spatial_se_variance", 0.0, VAR_ROW),
        ("spatial_m12_variance", 0.0, VAR_ROW),
        ("temporal_lengthscale", lt, scale(wt)),
        ("noise_variance", ln, NOISE_ROW),
    ])
    check_layout(KernelSpec(se, total), 2, [
        ("spatial_lengthscale_0", ls, scale(w0)),
        ("spatial_lengthscale_1", ls, scale(w1)),
        ("temporal_se_lengthscale", lt, scale(wt)),
        ("temporal_m12_lengthscale", lt, scale(wt)),
        ("temporal_se_variance", 0.0, VAR_ROW),
        ("temporal_m12_variance", 0.0, VAR_ROW),
        ("noise_variance", ln, NOISE_ROW),
    ])


def test_sum_form_pins_signal_variance():
    spec = KernelSpec(KernelForm.SUM, KernelForm.SE)
    hp = Hyperparameters.default(2, spec)
    bad = Hyperparameters(
        log_spatial_lengthscales=hp.log_spatial_lengthscales,
        log_temporal_lengthscale=hp.log_temporal_lengthscale,
        log_signal_variance=0.3,
        log_noise_variance=hp.log_noise_variance,
        log_spatial_variances=hp.log_spatial_variances,
    )
    with pytest.raises(ValueError):
        gram(np.zeros((2, 3)), spec, bad)


def test_shape_mismatch_rejected():
    spec = KernelSpec(KernelForm.SE, KernelForm.SE)
    hp = Hyperparameters.default(2, spec)
    with pytest.raises(ValueError):
        gram(np.zeros((3, 5)), spec, hp)  # wrong column count
    with pytest.raises(ValueError):
        Hyperparameters(
            log_spatial_lengthscales=np.array([np.nan, 0.0]),
            log_temporal_lengthscale=0.0,
            log_signal_variance=0.0,
            log_noise_variance=-2.0,
        )
    # each form rejects a field of the wrong shape, a free field left
    # unset, and a field it leaves out set to something else
    for spec in NINE_SPECS:
        hp = Hyperparameters.default(2, spec)
        hp_to_vector(hp, spec)  # the defaults pass
        for name in vars(hp):
            value = getattr(hp, name)
            if value is not None:  # wrong: an extra leading axis
                bad = dataclasses.replace(hp, **{name: np.expand_dims(value, 0)})
                with pytest.raises(ValueError, match=name):
                    hp_to_vector(bad, spec)
        for name in ("log_spatial_variances", "log_temporal_variances"):
            if getattr(hp, name) is None:  # extra: a variance of a plain part
                bad = dataclasses.replace(hp, **{name: np.zeros(2)})
            else:  # missing: a sum part without its variances
                bad = dataclasses.replace(hp, **{name: None})
            with pytest.raises(ValueError, match=name):
                hp_to_vector(bad, spec)
        if spec.has_sum:  # extra: a signal variance the sum part pins to 1
            bad = dataclasses.replace(hp, log_signal_variance=0.3)
            with pytest.raises(ValueError, match="log_signal_variance"):
                hp_to_vector(bad, spec)
        else:  # wrong: length-scales shaped for the other spatial form
            sum_shaped = np.stack([hp.log_spatial_lengthscales] * 2)
            bad = dataclasses.replace(hp, log_spatial_lengthscales=sum_shaped)
            with pytest.raises(ValueError, match="log_spatial_lengthscales"):
                hp_to_vector(bad, spec)


def test_spec_forms_become_members():
    # the covariance code tests forms by identity: a name given for a form
    # must score as that form, not fall through to another branch
    named = KernelSpec("se", "matern12")
    assert named.spatial is KernelForm.SE and named.temporal is KernelForm.MATERN12
    members = KernelSpec(KernelForm.SE, KernelForm.MATERN12)
    rng = np.random.default_rng(0)
    data = Dataset(rng.uniform(size=(6, 2)), rng.normal(size=6))
    hp = Hyperparameters.default(1, members, spatial_scale=0.3, temporal_scale=0.5)
    assert log_marginal_likelihood(data, named, hp) == log_marginal_likelihood(data, members, hp)
    with pytest.raises(ValueError):
        KernelSpec("cubic")


@pytest.mark.parametrize("name", ["log_spatial_variances", "log_temporal_variances"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_component_variances_rejected(name, bad):
    spec = KernelSpec(KernelForm.SUM, KernelForm.SUM)
    hp = Hyperparameters.default(2, spec)
    with pytest.raises(ValueError, match="hyperparameters must be finite"):
        dataclasses.replace(hp, **{name: np.array([bad, 0.0])})


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 10),
)
def test_gram_psd_property(seed, n):
    rng = np.random.default_rng(seed)
    spec = ALL_SPECS[seed % len(ALL_SPECS)]
    pts = rng.uniform(-3, 3, size=(n, 3))
    hp = random_hp(rng, spec, 2)
    k = gram(pts, spec, hp, with_noise=True)
    # observation noise keeps the smallest eigenvalue strictly positive
    assert np.linalg.eigvalsh(k).min() > 0


# -- the posterior's covariance from the exponentiated log vector ----------------


def test_squared_distance_sums_in_index_order():
    # a part divides and squares all slabs in one call each, in place on
    # differences it owns, then adds them one by one; numpy's own reduction
    # over the slabs sums a lone column pairwise from 8 terms on, so the
    # 1 x 1 draws at p = 8 to 12 would tell the two orders apart
    rng = np.random.default_rng(41)
    shapes = [(p, 1, 1) for p in range(1, 13) for _ in range(300)]
    shapes += [tuple(int(v) for v in rng.integers(1, (14, 40, 40))) for _ in range(300)]
    shapes += [(7, 300, 80), (12, 1, 40), (9, 40, 1), (1, 1, 1), (3, 0, 4)]
    for p, n, m in shapes:
        diffs = rng.uniform(-3.0, 3.0, size=(p, n, m))
        for form in KernelForm:
            forms = kernels._components(form)
            ells = np.exp(rng.uniform(-2.0, 2.0, size=(len(forms), p, 1, 1)))
            want = [kernels._plain_cov(f, index_order_squares(np.moveaxis(diffs / ells[c], 0, -1)))
                    for c, f in enumerate(forms)]
            # as ``_cov`` squares a part: the last component into the
            # differences, the sum form's first into a new array
            work = diffs.copy()
            got = [kernels._plain_cov(f, kernels._sum_squares(
                       work, ells[c], work if c == len(forms) - 1 else None))
                   for c, f in enumerate(forms)]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (form, p, n, m)


@pytest.mark.parametrize("spec", NINE_SPECS)
def test_cov_from_constants_is_the_product_of_the_training_parts(spec):
    # ``_cov`` on a fit's constants, the exponentiated log vector and the
    # layout training's stack reads: the square cases against that stack
    # for the one vector, the rectangular ones against the fixed-order
    # reference
    rng = np.random.default_rng(43)
    for d, n, m in ((1, 7, 5), (3, 11, 1), (8, 1, 1), (12, 1, 1), (12, 9, 13), (5, 6, 6)):
        hp = random_hp(rng, spec, d)
        xa, xb = rng.uniform(-2, 2, size=(n, d + 1)), rng.uniform(-2, 2, size=(m, d + 1))
        dx = kernels._diffs(xa[:, :d], xb[:, :d])
        dt = kernels._diffs(xa[:, d:], xb[:, d:])
        layout, exps = kernels._stack_layout(spec, d), np.exp(hp_to_vector(hp, spec))
        if n == m:
            want = kernels._stacked_cov(layout, kernels._lagged(layout, dx, dt), exps,
                                        kernels._Stack.empty(layout, n)).gram
        else:
            want = fixed_order_cross_gram(xa, xb, spec, hp)
        got = kernels._cov(layout, exps, dx.copy(), dt.copy())
        assert np.array_equal(got, want)
        assert np.array_equal(cross_gram(xa, xb, spec, hp), want)
