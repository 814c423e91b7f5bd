"""GP regression tests.

The posterior is checked against a dense-inverse implementation written
here from the textbook formulas, so the Cholesky path in the package and
the oracle cannot share a bug.
"""

import itertools
import math
import os
from dataclasses import replace
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf

from dynabo import gp
from dynabo.gp import (
    Dataset,
    FactorizationError,
    GpModel,
    TrainConfig,
    TrainingError,
    chol_with_jitter,
    default_log_bounds,
    log_marginal_likelihood,
    lml_and_gradient,
    train,
)
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

FORMS = [
    KernelSpec(KernelForm.SE, KernelForm.SE),
    KernelSpec(KernelForm.SE, KernelForm.MATERN12),
    KernelSpec(KernelForm.SUM, KernelForm.SUM),
]
NINE_FORMS = [KernelSpec(s, t) for s in KernelForm for t in KernelForm]


def dense_posterior(dataset, spec, hp, query):
    """Oracle: posterior by explicit matrix inverse on standardized targets."""
    k = gram(dataset.points, spec, hp, with_noise=True)
    k_inv = np.linalg.inv(k)
    k_star = cross_gram(dataset.points, query, spec, hp)
    mean = k_star.T @ k_inv @ dataset.normalized_targets
    var = hp.signal_variance - np.sum(k_star * (k_inv @ k_star), axis=0)
    return mean, var


def random_case(rng, spec, n, d):
    pts = rng.uniform(-2, 2, size=(n, d + 1))
    y = rng.normal(size=n)
    theta = rng.uniform(-0.7, 0.7, size=n_hyperparameters(spec, d))
    theta[-1] = math.log(rng.uniform(1e-4, 1e-1))  # keep noise sane
    return Dataset(pts, y), hp_from_vector(theta, spec, d)


@pytest.mark.parametrize("spec", FORMS)
def test_posterior_matches_dense_inverse(spec):
    rng = np.random.default_rng(42)
    for _ in range(20):
        n, d = rng.integers(2, 9), rng.integers(1, 4)
        dataset, hp = random_case(rng, spec, int(n), int(d))
        model = GpModel.fit(dataset, spec, hp)
        query = rng.uniform(-2, 2, size=(6, d + 1))
        mean, var = model.predict_normalized(query)
        mean_o, var_o = dense_posterior(dataset, spec, hp, query)
        assert np.allclose(mean, mean_o, atol=1e-8)
        assert np.allclose(var, np.maximum(var_o, 0.0), atol=1e-8)


def test_lml_single_point_closed_form():
    # one standardized sample is exactly zero, leaving only the determinant term
    spec = KernelSpec(KernelForm.SE, KernelForm.SE)
    for noise in (1e-6, 1e-2, 0.5):
        hp = Hyperparameters.default(1, spec, noise_variance=noise)
        dataset = Dataset(np.array([[0.3, 1.0]]), np.array([7.7]))
        expected = -0.5 * math.log(2 * math.pi * (1.0 + noise))
        assert log_marginal_likelihood(dataset, spec, hp) == pytest.approx(
            expected, abs=1e-12
        )


def test_lml_matches_dense_formula():
    rng = np.random.default_rng(1)
    spec = KernelSpec(KernelForm.SE, KernelForm.MATERN12)
    dataset, hp = random_case(rng, spec, 7, 2)
    k = gram(dataset.points, spec, hp, with_noise=True)
    y = dataset.normalized_targets
    expected = -0.5 * y @ np.linalg.solve(k, y) - 0.5 * np.linalg.slogdet(k)[
        1
    ] - 0.5 * len(y) * math.log(2 * math.pi)
    assert log_marginal_likelihood(dataset, spec, hp) == pytest.approx(expected)


@pytest.mark.parametrize("spec", FORMS)
def test_lml_gradient_matches_finite_differences(spec):
    rng = np.random.default_rng(9)
    dataset, hp = random_case(rng, spec, 6, 2)
    value, grad = lml_and_gradient(dataset, spec, hp)
    theta = hp_to_vector(hp, spec)
    h = 1e-5
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        fd = (
            log_marginal_likelihood(dataset, spec, hp_from_vector(up, spec, 2))
            - log_marginal_likelihood(dataset, spec, hp_from_vector(down, spec, 2))
        ) / (2 * h)
        assert grad[i] == pytest.approx(fd, abs=1e-5)
    assert np.isfinite(value)


@given(
    scale=st.floats(0.01, 5.0).flatmap(lambda m: st.sampled_from([m, -m])),
    shift=st.floats(-100.0, 100.0),
)
@settings(max_examples=40, deadline=None)
def test_predictions_follow_affine_target_changes(scale, shift):
    # scale stays away from 0: collapsing the spread trips the std floor guard
    # internal standardization makes the posterior equivariant under y -> a y + b
    rng = np.random.default_rng(23)
    spec = KernelSpec(KernelForm.SE, KernelForm.SE)
    pts = rng.uniform(0, 1, size=(8, 3))
    y = rng.normal(size=8)
    hp = Hyperparameters.default(2, spec, noise_variance=1e-3)
    query = rng.uniform(0, 1, size=(5, 3))
    base_mean, base_var = GpModel.fit(Dataset(pts, y), spec, hp).predict(query)
    mean, var = GpModel.fit(Dataset(pts, scale * y + shift), spec, hp).predict(query)
    assert np.allclose(mean, scale * base_mean + shift, atol=1e-7 * (1 + abs(shift)))
    assert np.allclose(var, scale**2 * base_var, atol=1e-8 * (1 + scale**2))


def test_more_data_never_raises_normalized_variance():
    rng = np.random.default_rng(77)
    spec = KernelSpec(KernelForm.SE, KernelForm.MATERN12)
    hp = Hyperparameters.default(2, spec, noise_variance=1e-2)
    dataset = Dataset(rng.uniform(-1, 1, size=(6, 3)), rng.normal(size=6))
    query = rng.uniform(-1, 1, size=(20, 3))
    _, var_before = GpModel.fit(dataset, spec, hp).predict_normalized(query)
    grown = dataset.append(rng.uniform(-1, 1, size=3), 0.0)
    _, var_after = GpModel.fit(grown, spec, hp).predict_normalized(query)
    assert np.all(var_after <= var_before + 1e-9)


def test_low_noise_interpolates_training_targets():
    rng = np.random.default_rng(4)
    spec = KernelSpec(KernelForm.SE, KernelForm.SE)
    hp = Hyperparameters.default(1, spec, noise_variance=1e-8)
    pts = np.linspace(0, 1, 5)[:, None]
    pts = np.hstack([pts, np.zeros((5, 1))])
    y = np.sin(3 * pts[:, 0]) * 2 + 5
    model = GpModel.fit(Dataset(pts, y), spec, hp)
    mean, var = model.predict(pts)
    assert np.allclose(mean, y, atol=1e-3)
    assert np.all(var < 1e-3)


def test_chol_jitter_levels():
    clean = np.array([[2.0, 0.5], [0.5, 1.0]])
    el, jitter = chol_with_jitter(clean)
    assert jitter == 0.0
    assert np.allclose(el @ el.T, clean)
    # singular but PSD: needs some jitter, still factorizes
    el, jitter = chol_with_jitter(np.ones((3, 3)))
    assert jitter > 0
    assert np.all(np.isfinite(el))
    # indefinite beyond the largest jitter level: hard failure
    with pytest.raises(FactorizationError):
        chol_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(FactorizationError):
        chol_with_jitter(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_chol_jitter_is_the_first_ladder_rung_that_factorizes():
    m = np.ones((3, 3))
    mean_diag = float(np.mean(np.diag(m)))
    eye = np.eye(3)
    first = next(
        e for e in range(-9, -2) if dpotrf(m + mean_diag * 10.0**e * eye, lower=1, clean=1)[1] == 0
    )
    el, jitter = chol_with_jitter(m)
    assert jitter == mean_diag * 10.0**first
    assert np.array_equal(el, dpotrf(m + jitter * eye, lower=1, clean=1)[0])


def test_chol_rejects_a_non_finite_off_diagonal_entry():
    # the diagonal alone passes the mean-diagonal check
    for bad in (np.nan, np.inf):
        m = np.eye(3)
        m[0, 2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            chol_with_jitter(m)


def test_chol_failure_names_the_largest_jitter():
    m = 4.0 * np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite, mean diagonal 4
    with pytest.raises(FactorizationError, match=f"{4.0 * 1e-3:.3e}"):
        chol_with_jitter(m)


def test_dataset_validation_and_append():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.inf, 0.0]]), np.array([1.0]))
    base = Dataset(np.array([[0.0, 0.0], [1.0, 2.0]]), np.array([3.0, 4.0]))
    grown = base.append([0.5, 3.0], 5.0)
    assert base.n == 2 and grown.n == 3
    assert np.array_equal(grown.times, [0.0, 2.0, 3.0])
    assert np.array_equal(base.times, [0.0, 2.0])  # append leaves the base as it was


def test_constant_targets_use_guarded_std():
    dataset = Dataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([4.0, 4.0]))
    assert dataset.target_std == 1.0
    assert np.allclose(dataset.normalized_targets, 0.0)
    spec = KernelSpec(KernelForm.SE, KernelForm.SE)
    model = GpModel.fit(dataset, spec, Hyperparameters.default(1, spec))
    mean, var = model.predict(np.array([[0.5, 0.5]]))
    assert np.all(np.isfinite(mean)) and np.all(var >= 0)


def test_train_beats_warm_start_and_truth():
    rng = np.random.default_rng(12)
    spec = KernelSpec(KernelForm.SE, KernelForm.SE)
    truth = Hyperparameters.default(1, spec, spatial_scale=0.4, noise_variance=1e-2)
    pts = np.hstack([rng.uniform(0, 1, size=(25, 1)), rng.uniform(0, 4, size=(25, 1))])
    cov = gram(pts, spec, truth, with_noise=True)
    y = np.linalg.cholesky(cov) @ rng.normal(size=25)
    dataset = Dataset(pts, y)
    start = Hyperparameters.default(1, spec)
    result = train(dataset, spec, start, TrainConfig(restarts=5), seed=5)
    assert result.lml >= log_marginal_likelihood(dataset, spec, start) - 1e-9
    assert result.lml >= log_marginal_likelihood(dataset, spec, truth) - 1e-6
    assert result.iterations > 0


def test_train_ties_spatial_lengthscales():
    rng = np.random.default_rng(2)
    spec = KernelSpec(KernelForm.SE, KernelForm.SE)
    pts = rng.uniform(0, 1, size=(12, 4))
    dataset = Dataset(pts, rng.normal(size=12))
    init = Hyperparameters.default(3, spec)
    result = train(
        dataset, spec, init, TrainConfig(restarts=2, tie_lengthscales="spatial"), seed=1
    )
    ls = result.hp.log_spatial_lengthscales
    assert np.allclose(ls, ls[0])


def test_train_ties_all_lengthscales():
    rng = np.random.default_rng(21)
    spec = KernelSpec(KernelForm.SE, KernelForm.SE)
    pts = rng.uniform(0, 1, size=(10, 3))
    dataset = Dataset(pts, rng.normal(size=10))
    result = train(
        dataset,
        spec,
        Hyperparameters.default(2, spec),
        TrainConfig(restarts=2, tie_lengthscales="all"),
        seed=3,
    )
    ls = result.hp.log_spatial_lengthscales
    assert np.allclose(ls, ls[0])
    assert result.hp.log_temporal_lengthscale == pytest.approx(ls[0])
    with pytest.raises(ValueError):
        TrainConfig(tie_lengthscales="bogus")
    with pytest.raises(ValueError):
        train(
            dataset,
            KernelSpec(KernelForm.SUM, KernelForm.SE),
            Hyperparameters.default(2, KernelSpec(KernelForm.SUM, KernelForm.SE)),
            TrainConfig(restarts=1, tie_lengthscales="all"),
        )


def test_train_zero_iters_returns_projected_warm_start():
    rng = np.random.default_rng(6)
    spec = KernelSpec(KernelForm.SE, KernelForm.SE)
    dataset = Dataset(rng.uniform(0, 1, size=(5, 3)), rng.normal(size=5))
    init = Hyperparameters.default(2, spec)
    result = train(dataset, spec, init, TrainConfig(restarts=1, max_iters=0))
    assert np.isfinite(result.lml)
    assert result.iterations == 0


def test_train_respects_bounds():
    rng = np.random.default_rng(30)
    spec = KernelSpec(KernelForm.SE, KernelForm.SE)
    dataset = Dataset(rng.uniform(0, 1, size=(10, 3)), rng.normal(size=10))
    bounds = default_log_bounds(spec, [1.0, 1.0], 1.0)
    result = train(
        dataset,
        spec,
        Hyperparameters.default(2, spec),
        TrainConfig(restarts=3, log_bounds=bounds),
        seed=8,
    )
    theta = hp_to_vector(result.hp, spec)
    assert np.all(theta >= bounds[:, 0] - 1e-12)
    assert np.all(theta <= bounds[:, 1] + 1e-12)


def test_time_lengthscale_reporting():
    plain = KernelSpec(KernelForm.SE, KernelForm.SE)
    dataset = Dataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.0, 1.0]))
    hp = Hyperparameters.default(1, plain, temporal_scale=2.5)
    assert GpModel.fit(dataset, plain, hp).time_lengthscale == pytest.approx(2.5)
    summed = KernelSpec(KernelForm.SE, KernelForm.SUM)
    hp2 = Hyperparameters(
        log_spatial_lengthscales=np.zeros(1),
        log_temporal_lengthscale=np.log([0.5, 3.0]),
        log_signal_variance=0.0,
        log_noise_variance=math.log(1e-4),
        log_temporal_variances=np.zeros(2),
    )
    assert GpModel.fit(dataset, summed, hp2).time_lengthscale == pytest.approx(0.5)


def test_predict_rejects_bad_queries():
    spec = KernelSpec(KernelForm.SE, KernelForm.SE)
    dataset = Dataset(np.array([[0.0, 0.0]]), np.array([1.0]))
    model = GpModel.fit(dataset, spec, Hyperparameters.default(1, spec))
    with pytest.raises(ValueError):
        model.predict(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        model.predict(np.array([[np.nan, 0.0]]))


def full_solve(dataset, spec, hp, query):
    """The posterior against every sample, through ``scipy.linalg``: the
    cross-covariance with all n samples, solved through the whole factor."""
    el, _ = chol_with_jitter(gram(dataset.points, spec, hp, with_noise=True))
    k_star = cross_gram(dataset.points, query, spec, hp)
    v = solve_triangular(el, k_star, lower=True)
    mean = k_star.T @ cho_solve((el, True), dataset.normalized_targets)
    return mean, np.maximum(hp.signal_variance - np.sum(v * v, axis=0), 0.0)


def window_start(model, query):
    """The first sample a predict keeps: the others are beyond the reach of
    every query's time."""
    return int(np.searchsorted(model.dataset.times, query[:, -1].min() - model._reach))


def in_order_case(rng, spec, n, d, temporal_scale, noise=1e-4, horizon=10.0):
    """A dataset sampled in time order over ``(0, horizon)``, with every
    temporal length-scale set to ``temporal_scale``."""
    dataset, hp = random_case(rng, spec, n, d)
    points = dataset.points.copy()
    points[:, -1] = np.sort(rng.uniform(0.0, horizon, size=n))
    hp = replace(hp, log_noise_variance=math.log(noise),
                 log_temporal_lengthscale=np.full_like(
                     np.asarray(hp.log_temporal_lengthscale), math.log(temporal_scale)))
    return Dataset(points, dataset.targets), hp


@pytest.mark.parametrize("spec", NINE_FORMS)
def test_predict_is_bit_identical_to_solve_triangular_formula(spec):
    rng = np.random.default_rng(31)
    # samples at random times (an infinite reach), then samples in time order
    # whose window keeps every one of them
    cases = [(n, d, False) for n, d in ((1, 1), (7, 2), (30, 6), (12, 8), (19, 12))]
    cases += [(n, d, True) for n, d in ((1, 1), (7, 2), (30, 6))]
    for n, d, in_order in cases:
        if in_order:
            dataset, hp = in_order_case(rng, spec, n, d, 0.5, horizon=2.0)
        else:
            dataset, hp = random_case(rng, spec, n, d)
        model = GpModel.fit(dataset, spec, hp)
        assert math.isfinite(model._reach) == in_order or n == 1
        mixed = rng.uniform(-2, 2, size=(9, d + 1))
        shared = mixed.copy()
        shared[:, -1] = mixed[0, -1]  # one time for the batch, as in a time slice
        for query in (mixed, shared, shared[:1]):
            assert window_start(model, query) == 0
            mean, var = full_solve(dataset, spec, hp, query)
            got_mean, got_var = model.predict_normalized(query)
            assert np.array_equal(got_mean, mean)
            assert np.array_equal(got_var, var)
        with pytest.raises(ValueError, match="finite"):
            model.predict_normalized(np.where(np.eye(9, d + 1) > 0, np.nan, mixed))


# -- the posterior's temporal window -------------------------------------------


@pytest.mark.parametrize(
    "form, reach",
    [(KernelForm.SE, math.sqrt(2 * math.log(1e16))), (KernelForm.MATERN12, math.log(1e16))],
)
def test_window_reach_is_where_the_unit_correlation_reaches_the_tolerance(form, reach):
    rng = np.random.default_rng(3)
    dataset, hp = in_order_case(rng, KernelSpec(KernelForm.SE, form), 10, 2, 0.3)
    model = GpModel.fit(dataset, KernelSpec(KernelForm.SE, form), hp)
    assert model._reach == pytest.approx(0.3 * reach, rel=1e-15)
    unit = cross_gram(np.array([[0.0, 0.0]]), np.array([[0.0, model._reach]]),
                      KernelSpec(KernelForm.SE, form), Hyperparameters.default(
                          1, KernelSpec(KernelForm.SE, form), temporal_scale=0.3))
    assert unit[0, 0] == pytest.approx(1e-16, rel=1e-12)
    # the sum form reaches as far as its slower component
    spec = KernelSpec(KernelForm.SE, KernelForm.SUM)
    dataset, hp = in_order_case(rng, spec, 10, 2, 0.3)
    hp = replace(hp, log_temporal_lengthscale=np.log([0.3, 0.05]))
    se_reach = 0.3 * math.sqrt(2 * math.log(1e16))
    assert GpModel.fit(dataset, spec, hp)._reach == pytest.approx(se_reach, rel=1e-15)
    hp = replace(hp, log_temporal_lengthscale=np.log([0.05, 0.3]))
    assert GpModel.fit(dataset, spec, hp)._reach == pytest.approx(0.3 * math.log(1e16), rel=1e-15)


@pytest.mark.parametrize("spec", NINE_FORMS)
def test_batch_past_every_sample_reach_gets_the_prior_without_a_solve(spec, monkeypatch):
    rng = np.random.default_rng(5)
    dataset, hp = in_order_case(rng, spec, 12, 2, 0.05, horizon=1.0)
    model = GpModel.fit(dataset, spec, hp)

    def no_solve(el, b):
        raise AssertionError("a batch beyond every sample's reach must not solve")

    monkeypatch.setattr(gp, "_tri_solve", no_solve)
    for m in (1, 5):
        query = rng.uniform(-2, 2, size=(m, 3))
        query[:, -1] = rng.uniform(3.0, 4.0, size=m)
        assert window_start(model, query) == dataset.n
        mean, var = model.predict_normalized(query)
        assert np.array_equal(mean, np.zeros(m))
        assert np.array_equal(var, np.full(m, hp.signal_variance))
        mean, var = model.predict(query)
        assert np.array_equal(mean, np.full(m, dataset.target_mean))
        assert np.array_equal(var, np.full(m, dataset.target_std**2 * hp.signal_variance))


def test_empty_batch_gets_two_empty_arrays():
    rng = np.random.default_rng(6)
    spec = KernelSpec()
    dataset, hp = in_order_case(rng, spec, 12, 2, 0.05, horizon=1.0)
    model = GpModel.fit(dataset, spec, hp)
    assert math.isfinite(model._reach)
    mean, var = model.predict_normalized(np.empty((0, 3)))
    assert mean.shape == var.shape == (0,)


@pytest.mark.parametrize("spec", NINE_FORMS)
def test_samples_out_of_time_order_keep_the_full_solve(spec):
    rng = np.random.default_rng(7)
    dataset, hp = in_order_case(rng, spec, 20, 2, 0.05)
    swapped = dataset.points[[1, 0, *range(2, dataset.n)]]
    model = GpModel.fit(Dataset(swapped, dataset.targets), spec, hp)
    assert model._reach == math.inf
    query = rng.uniform(-2, 2, size=(6, 3))
    query[:, -1] = 9.5  # in time order, most rows would be dropped
    got_mean, got_var = model.predict_normalized(query)
    mean, var = full_solve(model.dataset, spec, hp, query)
    assert np.array_equal(got_mean, mean)
    assert np.array_equal(got_var, var)


def near_pairs_case(rng, spec, n, d, noise, smooth):
    """``in_order_case``'s n samples, each with a twin 1e-5 away in space
    at the same time, the targets a smooth function of the point or, when
    not ``smooth``, independent normals."""
    dataset, hp = in_order_case(rng, spec, n, d, 0.1, noise=noise)
    points = np.repeat(dataset.points, 2, axis=0)
    points[1::2, :-1] += rng.normal(scale=1e-5, size=(n, d))
    if smooth:
        y = np.sin(points[:, :-1].sum(axis=1)) + np.cos(3.0 * points[:, -1])
    else:
        y = rng.normal(size=len(points))
    return Dataset(points, y), hp


@pytest.mark.parametrize("noise", [1e-4, 1e-8])
@pytest.mark.parametrize("spec", NINE_FORMS)
def test_window_agrees_with_the_full_solve(spec, noise):
    # 1e-8 is the noise bounds' floor, where the factor's inverse amplifies
    # the dropped terms most.  There the samples also come in near pairs,
    # which make alpha large (toward 1/noise for independent targets): the
    # mean drops k_head^T alpha_head, at most 1e-16 sigma^2 ||alpha_head||_1,
    # and its kept terms round differently from the full sum by about as much
    # again; the variance moves by the rounding of forward substitution
    # through a factor whose condition number nears sqrt(sigma^2 / noise) ~
    # 1e4, about 1e4 eps ~ 1e-12
    rng = np.random.default_rng(9)
    kinds = ["spread"] + (["smooth pairs", "pairs"] if noise == 1e-8 else [])
    for kind in kinds:
        for n, d in ((40, 1), (60, 2), (50, 4)):
            if kind == "spread":
                dataset, hp = in_order_case(rng, spec, n, d, 0.1, noise=noise)
            else:
                dataset, hp = near_pairs_case(rng, spec, n, d, noise, kind == "smooth pairs")
            model = GpModel.fit(dataset, spec, hp)
            mean_tol = var_tol = 1e-12
            if kind != "spread":
                mean_tol += 1e-16 * hp.signal_variance * np.abs(model._alpha).sum()
                var_tol = 1e-11
            mixed = rng.uniform(-2, 2, size=(8, d + 1))
            mixed[:, -1] = rng.uniform(6.0, 10.5, size=8)
            shared = mixed.copy()
            shared[:, -1] = 9.0
            for query in (mixed, shared, shared[:1]):
                first = window_start(model, query)
                assert 0 < first < dataset.n
                got_mean, got_var = model.predict_normalized(query)
                mean, var = full_solve(dataset, spec, hp, query)
                assert np.max(np.abs(got_mean - mean)) <= mean_tol
                assert np.max(np.abs(got_var - var)) <= var_tol


def test_train_leaves_caller_bounds_untouched():
    rng = np.random.default_rng(8)
    spec = KernelSpec(KernelForm.SE, KernelForm.SE)
    dataset = Dataset(rng.uniform(0, 3, size=(8, 4)), rng.normal(size=8))
    b = default_log_bounds(spec, [1.0, 3.0, 2.0], 1.0)
    before = b.copy()
    train(
        dataset,
        spec,
        Hyperparameters.default(3, spec),
        TrainConfig(restarts=2, log_bounds=b, tie_lengthscales="spatial"),
    )
    assert np.array_equal(b, before)


# -- training when factorizations fail -----------------------------------------


def failing_factorizations(monkeypatch, failure):
    """Patch ``gp.chol_with_jitter`` so that factorization ``k`` (counting
    from 1) fails as ``failure(k)`` says: "raise" raises
    ``FactorizationError``, "nan" returns a factor of NaNs, and None
    factorizes.  Returns the list of the failures made."""
    failed, calls = [], itertools.count(1)

    def patched(matrix):
        how = failure(next(calls))
        if how is None:
            return chol_with_jitter(matrix)
        failed.append(how)
        if how == "raise":
            raise FactorizationError("patched")
        el, jitter = chol_with_jitter(matrix)
        return np.full_like(el, np.nan), jitter

    monkeypatch.setattr(gp, "chol_with_jitter", patched)
    return failed


def test_train_raises_when_no_start_factorizes(monkeypatch):
    dataset, spec, bounds = far_start_case()
    failed = failing_factorizations(monkeypatch, lambda k: "raise")
    with pytest.raises(TrainingError, match="^all restarts failed to factorize$"):
        train(dataset, spec, Hyperparameters.default(1, spec),
              TrainConfig(restarts=3, log_bounds=bounds), seed=2)
    # the warm start and 16 screened draws, each probed once
    assert len(failed) == 17


def test_train_runs_from_the_screened_start_when_the_warm_one_fails(monkeypatch):
    dataset, spec, bounds = far_start_case()
    init = Hyperparameters.default(1, spec)
    failing_factorizations(monkeypatch, lambda k: "raise" if k == 1 else None)
    with pytest.raises(TrainingError):  # no screened start to fall back on
        train(dataset, spec, init, TrainConfig(restarts=1, log_bounds=bounds))
    failed = failing_factorizations(monkeypatch, lambda k: "raise" if k == 1 else None)
    result = train(dataset, spec, init, TrainConfig(restarts=2, log_bounds=bounds), seed=2)
    assert failed == ["raise"]
    assert math.isfinite(result.lml) and result.iterations > 0
    assert result.lml == log_marginal_likelihood(dataset, spec, result.hp)


@pytest.mark.parametrize("how", ["raise", "nan"])
def test_train_steps_around_failed_factorizations(how, monkeypatch):
    # a failed factorization, or one whose gradient is not finite, reads as
    # +inf to L-BFGS-B, which backs off from it
    dataset, spec, bounds = far_start_case()
    failed = failing_factorizations(monkeypatch, lambda k: how if k % 5 == 0 else None)
    result = train(dataset, spec, Hyperparameters.default(1, spec),
                   TrainConfig(restarts=2, log_bounds=bounds), seed=2)
    assert len(failed) > 1
    assert math.isfinite(result.lml) and result.iterations > 0
    theta = hp_to_vector(result.hp, spec)
    assert np.all((bounds[:, 0] <= theta) & (theta <= bounds[:, 1]))


def test_tie_blocks_follow_the_layout():
    # checked against the names of ``kernels._layout``, not its order: a
    # "spatial" block holds the spatial length-scales of one component, the
    # "all" block every spatial one and the temporal length-scale, and each
    # spatial length-scale lies in exactly one block
    d = 3
    for spec in NINE_FORMS:
        names = hyperparameter_names(spec, d)
        spatial = [n for n in names if n.startswith("spatial_") and "lengthscale" in n]
        assert gp._tie_blocks(spec, d, "none") == []
        blocks = [names[block] for block in gp._tie_blocks(spec, d, "spatial")]
        assert len(blocks) == (2 if spec.spatial is KernelForm.SUM else 1)
        assert sorted(n for block in blocks for n in block) == sorted(spatial)
        for block in blocks:
            assert len(block) == d
            assert len({n.rsplit("_", 1)[0] for n in block}) == 1  # one component
        if spec.has_sum:
            with pytest.raises(ValueError, match="plain kernel forms"):
                gp._tie_blocks(spec, d, "all")
            continue
        (block,) = [names[block] for block in gp._tie_blocks(spec, d, "all")]
        assert sorted(block) == sorted(spatial + ["temporal_lengthscale"])


# -- the fused objective against the unfused formulas, bit for bit -----------


def reference_lml(dataset, spec, hp):
    """Log marginal likelihood from the public gram and a fresh factorization."""
    y = dataset.normalized_targets
    el, _ = chol_with_jitter(gram(dataset.points, spec, hp, with_noise=True))
    alpha = cho_solve((el, True), y)
    value = float(
        -0.5 * y @ alpha
        - np.sum(np.log(np.diag(el)))
        - 0.5 * dataset.n * math.log(2 * math.pi)
    )
    return value, el, alpha


def reference_lml_and_gradient(dataset, spec, hp):
    value, el, alpha = reference_lml(dataset, spec, hp)
    k_inv = cho_solve((el, True), np.eye(dataset.n))
    grads = grad_gram_log_hp(dataset.points, spec, hp)
    out = np.empty(len(grads))
    for i, dk in enumerate(grads):
        out[i] = 0.5 * (alpha @ dk @ alpha - np.sum(k_inv * dk))
    return value, out


def temporal_lengthscale_entries(spec, d):
    """Mask of the temporal length-scale entries, found by their names."""
    names = hyperparameter_names(spec, d)
    return np.array([n.startswith("temporal_") and "lengthscale" in n for n in names])


def reference_train(dataset, spec, init, config, seed):
    """The screened, prior-weighted trust-box L-BFGS-B as ``train`` runs it,
    over ``scipy.optimize.minimize`` and the reference functions: a fresh
    gram and factorization at every probe and gradient.  The prior on each
    log temporal length-scale is flat up to a ceiling, the centre of its row
    in the bounds before tying plus log 0.1, and normal with sd 1 above it;
    with every length-scale tied there is no prior.  Each tie block is one
    variable, with the block's gradients summed.  From each probed start,
    L-BFGS-B minimizes the negated objective over the start plus and minus 2
    within the bounds, and reruns from the best point evaluated while that
    point sits on an inner edge of its box, at most 20 times, with the
    iterations summed under ``max_iters``.

    Returns the best vector, its marginal likelihood (no prior), the
    iteration count and the number of factorizations ``train`` makes: one per
    evaluation at a vector other than the last one evaluated, since the
    objective keeps the factor of that one only.  A rerun starts from a point
    already evaluated, whose value and gradient ``train`` keeps, so scipy's
    evaluation of its ``x0`` is answered from them."""
    from scipy.optimize import minimize

    d = dataset.spatial_dim
    bounds = np.array(config.log_bounds, dtype=float)
    temporal = temporal_lengthscale_entries(spec, d)
    if config.tie_lengthscales == "all":
        temporal[:] = False
    ceiling = 0.5 * (bounds[temporal, 0] + bounds[temporal, 1]) + math.log(0.1)
    tie_blocks = gp._tie_blocks(spec, d, config.tie_lengthscales)
    for block in tie_blocks:
        bounds[block, 0] = bounds[block, 0].max()
        bounds[block, 1] = bounds[block, 1].min()
    # the variables: one per tie block, one per untied entry, in vector order
    groups = [list(range(b.start, b.stop)) for b in tie_blocks]
    tied = {i for group in groups for i in group}
    groups = sorted(groups + [[i] for i in range(len(bounds)) if i not in tied])
    low = np.array([bounds[group[0], 0] for group in groups])
    high = np.array([bounds[group[0], 1] for group in groups])
    last = None
    factorizations = 0

    def factorized(theta):
        nonlocal last, factorizations
        if last != theta.tobytes():
            factorizations += 1
        last = theta.tobytes()

    def project(theta):
        theta = np.clip(theta, bounds[:, 0], bounds[:, 1])
        for block in tie_blocks:
            theta[block] = theta[block].mean()
        return theta

    def spread(x):
        theta = np.empty(len(bounds))
        for value, group in zip(x, groups):
            theta[group] = value
        return theta

    def excess(theta):
        return np.maximum(theta[temporal] - ceiling, 0.0)

    def log_prior(theta):
        z = excess(theta)
        return -0.5 * float(z @ z)

    def objective(theta):
        factorized(theta)
        try:
            lml = reference_lml(dataset, spec, hp_from_vector(theta, spec, d))[0]
        except FactorizationError:
            nonlocal last
            last = None
            return -np.inf, -np.inf
        return lml + log_prior(theta), lml

    def descend(theta, value, lml):
        best = {"theta": theta, "value": value, "lml": lml, "x": None, "g": None}
        answered = True  # whether scipy's evaluation of a rerun's x0 is answered

        def negated(x):
            nonlocal answered, last
            if not answered:
                answered = True
                assert x.tobytes() == best["x"].tobytes()
                return -best["value"], best["g"]
            theta = spread(x)
            factorized(theta)
            try:
                lml, grad = reference_lml_and_gradient(
                    dataset, spec, hp_from_vector(theta, spec, d)
                )
            except FactorizationError:
                last = None
                return np.inf, np.zeros(len(groups))
            grad[temporal] -= excess(theta)
            g = -np.array([grad[group].sum() for group in groups])
            if not np.all(np.isfinite(g)):
                return np.inf, np.zeros(len(groups))
            value = lml + log_prior(theta)
            if best["g"] is None or value > best["value"]:
                best.update(theta=theta, value=value, lml=lml, x=x.copy(), g=g)
            return -value, g

        negated(theta[[group[0] for group in groups]])
        iters = 0
        for _ in range(21):
            if best["g"] is None or iters == config.max_iters:
                break
            x = best["x"]
            box_low, box_high = np.maximum(low, x - 2.0), np.minimum(high, x + 2.0)
            answered = False
            result = minimize(
                negated, x, jac=True, method="L-BFGS-B",
                bounds=list(zip(box_low, box_high)),
                options={"maxiter": config.max_iters - iters},
            )
            iters += result.nit
            x = best["x"]
            inner = [
                (xi == lo and lo > bl) or (xi == hi and hi < bh)
                for xi, lo, hi, bl, bh in zip(x, box_low, box_high, low, high)
            ]
            if not any(inner):
                break
        return best["theta"], best["value"], best["lml"], iters

    best_theta, best_value, best_lml, total_iters = None, -np.inf, -np.inf, 0

    def run_from(theta, value, lml):
        nonlocal best_theta, best_value, best_lml, total_iters
        if not np.isfinite(value):
            return
        theta, value, lml, iters = descend(theta, value, lml)
        total_iters += iters
        if value > best_value:
            best_theta, best_value, best_lml = theta.copy(), value, lml

    warm = project(hp_to_vector(init, spec))
    run_from(warm, *objective(warm))
    if config.restarts > 1:
        # eight one-probe draws per extra restart; descend from the best only
        rng = np.random.default_rng(seed)
        screened = []
        for _ in range(8 * (config.restarts - 1)):
            theta = project(rng.uniform(bounds[:, 0], bounds[:, 1]))
            screened.append((theta, *objective(theta)))
        values = [value for _, value, _ in screened]
        run_from(*screened[values.index(max(values))])
    return best_theta, best_lml, total_iters, factorizations


@pytest.mark.parametrize("spec", FORMS)
def test_objective_is_bit_identical_to_unfused_formulas(spec):
    rng = np.random.default_rng(31)
    for _ in range(12):
        n, d = int(rng.integers(1, 19)), int(rng.integers(1, 4))
        dataset, hp = random_case(rng, spec, n, d)
        assert log_marginal_likelihood(dataset, spec, hp) == reference_lml(dataset, spec, hp)[0]
        value, grad = lml_and_gradient(dataset, spec, hp)
        ref_value, ref_grad = reference_lml_and_gradient(dataset, spec, hp)
        assert value == ref_value
        assert np.array_equal(grad, ref_grad)


@pytest.mark.parametrize(
    "tie, spec",
    [
        ("none", KernelSpec(KernelForm.SUM, KernelForm.SUM)),
        ("spatial", KernelSpec(KernelForm.SUM, KernelForm.SE)),
        ("all", KernelSpec(KernelForm.SE, KernelForm.MATERN12)),
        # the CLI modes' set-ups: abo_fixed, tvb and standard_bo
        ("none", KernelSpec()),
        ("none", KernelSpec(KernelForm.SE, KernelForm.MATERN12)),
        ("all", KernelSpec(KernelForm.SE, KernelForm.SE)),
    ],
)
def test_train_matches_unfused_reference_loop(tie, spec, monkeypatch):
    rng = np.random.default_rng(5)
    d = 2
    pts = np.hstack([rng.uniform(0, 1, size=(14, d)), np.sort(rng.uniform(0, 2, size=(14, 1)), 0)])
    dataset = Dataset(pts, np.sin(4 * pts[:, 0]) + pts[:, -1] + 0.1 * rng.normal(size=14))
    config = TrainConfig(
        restarts=3, max_iters=40, tie_lengthscales=tie,
        log_bounds=default_log_bounds(spec, [1.0] * d, 2.0),
    )
    init = Hyperparameters.default(d, spec)
    theta, lml, iters, want_factorizations = reference_train(dataset, spec, init, config, 4)

    factorizations = 0

    def counted(matrix):
        nonlocal factorizations
        factorizations += 1
        return chol_with_jitter(matrix)

    monkeypatch.setattr(gp, "chol_with_jitter", counted)
    result = train(dataset, spec, init, config, 4)
    # a gradient at the last vector probed reuses its factor
    assert factorizations == want_factorizations
    assert np.array_equal(hp_to_vector(result.hp, spec), theta)
    assert result.iterations == iters > 0
    # the marginal likelihood of the result, without the prior
    assert result.lml == lml == log_marginal_likelihood(dataset, spec, result.hp)


def recording_runs(monkeypatch):
    """Patch ``gp._lbfgsb`` to record each L-BFGS-B run ``train`` makes: its
    start, box, iteration cap and count, and every point it evaluates."""
    runs = []
    driver = gp._lbfgsb

    def recorded(fg, x0, f0, g0, lower, upper, max_iters):
        points = []

        def tracked(x):
            points.append(x.copy())
            return fg(x)

        out = driver(tracked, x0, f0, g0, lower, upper, max_iters)
        runs.append({"x0": x0.copy(), "lower": lower.copy(), "upper": upper.copy(),
                     "cap": max_iters, "iterations": out[2], "points": points})
        return out

    monkeypatch.setattr(gp, "_lbfgsb", recorded)
    return runs


def far_start_case():
    """Nearly noiseless data on a short spatial scale, far (in log units)
    from the default warm start."""
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, size=(30, 2))
    spec = KernelSpec(KernelForm.SE, KernelForm.SE)
    bounds = default_log_bounds(spec, [1.0], 1.0)
    return Dataset(pts, np.sin(25 * pts[:, 0]) + pts[:, 1]), spec, bounds


@pytest.mark.parametrize("max_iters", [200, 30])
def test_train_runs_stay_within_two_log_units_of_their_start(max_iters, monkeypatch):
    dataset, spec, bounds = far_start_case()
    runs = recording_runs(monkeypatch)
    result = train(
        dataset, spec, Hyperparameters.default(1, spec),
        TrainConfig(restarts=1, max_iters=max_iters, log_bounds=bounds),
    )
    # one start; far from its optimum, it reruns from an inner edge
    assert 1 < len(runs) <= 21
    for run, after in zip(runs, runs[1:] + [None]):
        x0 = run["x0"]
        assert np.array_equal(run["lower"], np.maximum(bounds[:, 0], x0 - 2.0))
        assert np.array_equal(run["upper"], np.minimum(bounds[:, 1], x0 + 2.0))
        for x in run["points"]:
            assert np.all((run["lower"] <= x) & (x <= run["upper"]))
        if after is not None:
            inner = ((after["x0"] == run["lower"]) & (run["lower"] > bounds[:, 0])) | (
                (after["x0"] == run["upper"]) & (run["upper"] < bounds[:, 1])
            )
            assert inner.any()
    # the runs share the start's iteration cap
    assert [run["cap"] for run in runs] == [
        max_iters - sum(r["iterations"] for r in runs[:i]) for i in range(len(runs))
    ]
    assert result.iterations == sum(run["iterations"] for run in runs) <= max_iters


def test_train_start_makes_at_most_21_runs(monkeypatch):
    # a box of 0.05 log units leaves the optimum many edges away: the start
    # stops after its 21st run
    dataset, spec, bounds = far_start_case()
    runs = recording_runs(monkeypatch)
    monkeypatch.setattr(gp, "_TRUST_RADIUS", 0.05)
    train(dataset, spec, Hyperparameters.default(1, spec),
          TrainConfig(restarts=1, log_bounds=bounds))
    assert len(runs) == 21


@pytest.mark.parametrize("restarts", [1, 2, 4])
def test_train_probes_each_screened_candidate_once(restarts, monkeypatch):
    rng = np.random.default_rng(9)
    spec, d = KernelSpec(), 2
    dataset = Dataset(rng.uniform(0, 1, size=(10, d + 1)), rng.normal(size=10))
    bounds = default_log_bounds(spec, [1.0] * d, 1.0)
    init = Hyperparameters.default(d, spec)
    probes = []
    value = gp._MarginalLikelihood.value

    def recorded(self, theta):
        probes.append(np.asarray(theta).tobytes())
        return value(self, theta)

    monkeypatch.setattr(gp._MarginalLikelihood, "value", recorded)
    # the draws ``train`` makes: inside the box, so the projection keeps them
    draws = np.random.default_rng(3).uniform(
        bounds[:, 0], bounds[:, 1], size=(8 * (restarts - 1), len(bounds))
    )
    candidates = [row.tobytes() for row in draws]
    config = TrainConfig(restarts=restarts, max_iters=0, log_bounds=bounds)
    train(dataset, spec, init, config, seed=3)
    assert probes == [hp_to_vector(init, spec).tobytes(), *candidates]
    probes.clear()
    result = train(dataset, spec, init, replace(config, max_iters=30), seed=3)
    assert result.iterations > 0
    assert all(probes.count(c) == 1 for c in candidates)


@pytest.mark.parametrize(
    "spec, tied",
    [(spec, False) for spec in FORMS] + [(KernelSpec(KernelForm.SE, KernelForm.SE), True)],
)
def test_training_objective_gradient_matches_central_differences(spec, tied):
    # what ``train`` maximizes: the LML plus, on each log temporal length-scale,
    # a prior flat up to log(0.1 * temporal width) and normal with sd 1 above
    # it; none when the temporal length-scale is tied to the spatial ones
    rng = np.random.default_rng(17)
    h = 1e-5
    for case in range(8):
        d = int(rng.integers(1, 3))
        dataset, hp = random_case(rng, spec, 8, d)
        bounds = default_log_bounds(spec, [4.0] * d, 40.0)
        objective = gp._TrainingObjective(dataset, spec, bounds, tied)
        temporal = temporal_lengthscale_entries(spec, d)
        theta = hp_to_vector(hp, spec)
        # the temporal scales below the ceiling in half the cases, above it in
        # the other half, never within a step of it
        side = 1 - 2 * (case % 2)
        theta[temporal] = math.log(4.0) + side * rng.uniform(0.3, 1.5, temporal.sum())
        value, lml, grad = objective.value_and_gradient(theta)
        z = 0.0 if tied else np.maximum(theta[temporal] - math.log(4.0), 0.0)
        want_lml, want_grad = gp._MarginalLikelihood(dataset, spec).value_and_gradient(theta)
        assert lml == want_lml
        assert value == pytest.approx(lml - 0.5 * float(np.sum(z * z)), abs=1e-12)
        prior_grad = np.zeros_like(theta)
        prior_grad[temporal] = -z
        assert np.allclose(grad - want_grad, prior_grad, rtol=0, atol=1e-12)
        assert objective.value(theta) == (value, lml)
        for j in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            fd = (objective.value(up)[0] - objective.value(down)[0]) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-4 * max(1.0, abs(grad[j]))


# -- where the LAPACK routines come from ---------------------------------------

LAPACK_SOURCE = """
import sys
{prelude}
from dynabo import _routines
print("scipy.linalg" in sys.modules)
import scipy.linalg.lapack, scipy.optimize, scipy.stats
lapack = scipy.linalg.lapack
print(_routines.dpotrf is lapack.dpotrf, _routines.dpotrs is lapack.dpotrs,
      _routines.dtrtrs is lapack.dtrtrs, _routines._lapack is lapack._flapack)
"""


@pytest.mark.parametrize(
    ("prelude", "fallback"),
    [
        ("", False),
        # no extension file can be found: the routines come through the package
        ("import importlib.machinery; importlib.machinery.EXTENSION_SUFFIXES = []", True),
    ],
    ids=["extension_module", "fallback"],
)
def test_gp_runs_the_routines_scipy_linalg_runs(prelude, fallback):
    # the same function objects, so every factorization and solve is bitwise
    # what scipy.linalg gives; a later import of scipy.linalg reuses the
    # module dynabo loaded instead of loading the extension a second time
    src = str(Path(gp.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = LAPACK_SOURCE.format(prelude=prelude)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == [str(fallback)] + ["True"] * 4


IMPORTS_SOURCE = """
import importlib, importlib.util, sys, types
# the package's __init__ imports every module: a bare package stands in for
# it, so only the module's own imports run
package = types.ModuleType("dynabo")
package.__path__ = importlib.util.find_spec("dynabo").submodule_search_locations
sys.modules["dynabo"] = package
importlib.import_module(sys.argv[1])
print(*sorted(m for m in sys.modules if m.startswith("dynabo.")))
"""


def imported_with(module: str) -> set[str]:
    """The dynabo modules a fresh process holds after importing ``module``."""
    src = str(Path(gp.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run([sys.executable, "-c", IMPORTS_SOURCE, module], env=env,
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_gp_imports_no_search_layer_and_routines_no_dynabo_module():
    # the model layer sits below the search layer: gp and the search share
    # scipy's routines through _routines, which sits below both
    loaded = imported_with("dynabo.gp")
    assert "dynabo.gp" in loaded
    assert not loaded & {"dynabo.optimizer", "dynabo.acquisition"}
    assert imported_with("dynabo._routines") == {"dynabo._routines"}
