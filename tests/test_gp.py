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
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotrf, dpotri, dtrtri

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
    gram,
    hp_from_vector,
    hp_to_vector,
    hyperparameter_names,
    n_hyperparameters,
)
from kernel_oracles import SUM_FORMS, fixed_order_parts, nmd_grad_gram

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


def test_fit_and_train_name_hyperparameters_of_another_spatial_dimension():
    # one rule and one message for fit, train and engine.run's fixed_hp
    spec = KernelSpec()
    dataset = Dataset(np.array([[0.0, 0.0], [1.0, 0.5]]), np.array([1.0, 2.0]))
    hp = Hyperparameters.default(2, spec)
    with pytest.raises(ValueError, match="^hp has spatial dimension 2, the problem 1$"):
        GpModel.fit(dataset, spec, hp)
    with pytest.raises(ValueError, match="^init has spatial dimension 2, the problem 1$"):
        train(dataset, spec, hp, TrainConfig(), 0)


def test_predict_rejects_bad_queries():
    spec = KernelSpec(KernelForm.SE, KernelForm.SE)
    dataset = Dataset(np.array([[0.0, 0.0]]), np.array([1.0]))
    model = GpModel.fit(dataset, spec, Hyperparameters.default(1, spec))
    with pytest.raises(ValueError):
        model.predict(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        model.predict(np.array([[np.nan, 0.0]]))


def full_solve(dataset, spec, hp, query, first=0):
    """The posterior against the samples from ``first`` on (by default every
    sample), through ``scipy.linalg``'s LAPACK and BLAS: their
    cross-covariances, multiplied by the trailing block of the inverse
    (``dtrtri``) of the whole factor, which ``dtrmm`` gets in Fortran
    order."""
    el, _ = chol_with_jitter(gram(dataset.points, spec, hp, with_noise=True))
    el_inv, info = dtrtri(el, lower=1)
    assert info == 0
    k_star = cross_gram(dataset.points[first:], query, spec, hp)
    v = dtrmm(1.0, np.asfortranarray(el_inv[first:, first:]), k_star, lower=1)
    alpha = cho_solve((el, True), dataset.normalized_targets)
    mean = k_star.T @ alpha[first:]
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
    # windowed batches: the solve on the samples within the reach
    for n, d in ((30, 1), (40, 6), (25, 12)):
        dataset, hp = in_order_case(rng, spec, n, d, 0.02, horizon=2.0)
        model = GpModel.fit(dataset, spec, hp)
        mixed = rng.uniform(-2, 2, size=(9, d + 1))
        mixed[:, -1] = rng.uniform(1.6, 2.0, size=9)
        shared = mixed.copy()
        shared[:, -1] = 1.9
        for query in (mixed, shared, shared[:1]):
            first = window_start(model, query)
            assert 0 < first < n
            mean, var = full_solve(dataset, spec, hp, query, first)
            got_mean, got_var = model.predict_normalized(query)
            assert np.array_equal(got_mean, mean)
            assert np.array_equal(got_var, var)


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

    def no_multiply(el_inv, b):
        raise AssertionError("a batch beyond every sample's reach must not multiply")

    monkeypatch.setattr(gp, "_tri_mul", no_multiply)
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
    for spec, d in itertools.product(NINE_FORMS, (1, 3)):
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


def test_prior_slice_selects_the_temporal_lengthscales_by_name():
    # checked against the names of ``kernels._layout``: the prior covers
    # every temporal length-scale and nothing else, and nothing when the
    # temporal entry is tied to the spatial ones or there are no bounds
    rng = np.random.default_rng(7)
    for spec, d, tie in itertools.product(NINE_FORMS, (1, 3), ("none", "spatial", "all")):
        names = np.array(hyperparameter_names(spec, d))
        temporal = [n for n in names if n.startswith("temporal_") and "lengthscale" in n]
        dataset = Dataset(rng.uniform(0, 1, size=(5, d + 1)), rng.normal(size=5))
        bounds = default_log_bounds(spec, np.ones(d), 1.0)
        tied = tie == "all"
        selected = gp._MarginalLikelihood(dataset, spec, bounds, tied)._temporal
        assert list(names[selected]) == ([] if tied else temporal), (spec, d, tie)
        assert list(names[gp._MarginalLikelihood(dataset, spec, None, tied)._temporal]) == []


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
    """The gradient as 0.5 * tr((alpha alpha^T - K^-1) dK) over the
    reference derivative stack: the oracle the contraction is held to,
    within a tolerance."""
    value, el, alpha = reference_lml(dataset, spec, hp)
    k_inv = cho_solve((el, True), np.eye(dataset.n))
    grads = nmd_grad_gram(dataset.points, spec, hp)
    out = np.empty(len(grads))
    for i, dk in enumerate(grads):
        out[i] = 0.5 * (alpha @ dk @ alpha - np.sum(k_inv * dk))
    return value, out


def reference_lml_and_contracted_gradient(dataset, spec, hp):
    """The gradient as 0.5 * sum(W * dK) with W = alpha alpha^T - K^-1
    (Rasmussen & Williams 2006, eq. 5.9) over one triangle, the strict part
    counted twice, with K^-1 from LAPACK ``dpotri``.  A length-scale's
    entry is a product of its slope, d log k / d log l of its component's
    unit covariance k (the scaled square, divided by the distance for
    Matern 1/2), with W times the gram, for every plain component in one
    product, or, for a sum component, with W times the other part and the
    component's unit covariance, scaled by its variance; that variance's
    entry is the sum of the same matrix, scaled alike.  The signal
    variance's entry is the sum of W times the gram, and the noise's the
    noise variance times the trace of W.  The units and parts come from
    the fixed-order reference, which gives them bit for bit."""
    value, el, alpha = reference_lml(dataset, spec, hp)
    n, d = dataset.n, dataset.spatial_dim
    mask = np.triu(np.full((n, n), 2.0))
    np.fill_diagonal(mask, 1.0)
    w = (np.outer(alpha, alpha) - dpotri(el, lower=1)[0].T) * mask
    x, t = dataset.points[:, :d], dataset.points[:, d:]
    dx = x.T[:, :, None] - x.T[:, None, :]
    dt = t.T[:, :, None] - t.T[:, None, :]
    spatial_units, temporal_units, scaled_spatial, temporal_part = fixed_order_parts(
        dataset.points, dataset.points, spec, hp)
    wk = w * gram(dataset.points, spec, hp)
    names = hyperparameter_names(spec, d)
    out = np.empty(len(names))
    if spec.signal_variance_free:
        out[names.index("signal_variance")] = np.sum(wk)
    plain_slopes, plain_entries = [], []
    for spatial, form, units, log_ells, log_vars, lags, other in (
        (True, spec.spatial, spatial_units, hp.log_spatial_lengthscales,
         hp.log_spatial_variances, dx, temporal_part),
        (False, spec.temporal, temporal_units, hp.log_temporal_lengthscale,
         hp.log_temporal_variances, dt, scaled_spatial),
    ):
        part = "spatial" if spatial else "temporal"
        ells = np.exp(np.reshape(log_ells, (len(units), -1)))
        forms = SUM_FORMS if form is KernelForm.SUM else (form,)
        for c, (f, unit) in enumerate(zip(forms, units)):
            slopes = np.array([(lag / ell) ** 2 for lag, ell in zip(lags, ells[c])])
            if f is KernelForm.MATERN12:
                r = np.sqrt(sum(slopes))
                slopes = np.divide(slopes, r, out=slopes, where=r > 0)
            entries = [i for i, name in enumerate(names)
                       if name.startswith(part) and "lengthscale" in name]
            if form is not KernelForm.SUM:
                plain_slopes += list(slopes)
                plain_entries += entries
                continue
            variance = np.exp(log_vars[c])
            m = w * other * unit
            component = ("se", "m12")[c]
            entries = [i for i in entries if f"_{component}_" in names[i]]
            out[names.index(f"{part}_{component}_variance")] = np.sum(m) * variance
            out[entries] = slopes.reshape(len(slopes), -1) @ m.ravel()
            out[entries] *= variance
    if plain_slopes:
        out[plain_entries] = np.reshape(plain_slopes, (len(plain_slopes), -1)) @ wk.ravel()
    out[-1] = hp.noise_variance * np.sum(np.diag(w))
    return value, 0.5 * out


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
    objective keeps the factor of that one only, or, after the screened
    draws, of the best of them.  A rerun starts from a point
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
                lml, grad = reference_lml_and_contracted_gradient(
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
        best = values.index(max(values))
        # the objective keeps the factor of the best screened row, the
        # vector its descent evaluates first
        last = screened[best][0].tobytes()
        run_from(*screened[best])
    return best_theta, best_lml, total_iters, factorizations


@pytest.mark.parametrize("spec", FORMS)
def test_objective_is_bit_identical_to_unfused_formulas(spec):
    rng = np.random.default_rng(31)
    for _ in range(12):
        n, d = int(rng.integers(1, 19)), int(rng.integers(1, 4))
        dataset, hp = random_case(rng, spec, n, d)
        assert log_marginal_likelihood(dataset, spec, hp) == reference_lml(dataset, spec, hp)[0]
        value, grad = lml_and_gradient(dataset, spec, hp)
        ref_value, ref_grad = reference_lml_and_contracted_gradient(dataset, spec, hp)
        assert value == ref_value
        assert np.array_equal(grad, ref_grad)


def contraction_cases(rng, spec):
    """Random datasets at n = 1, 2, 18 and 60, the larger ones with a few
    duplicated points (a Matern 1/2 distance of 0 off the diagonal)."""
    for n in (1, 2, 18, 60):
        for _ in range(2 if n == 60 else 4):
            d = int(rng.integers(1, 4))
            dataset, hp = random_case(rng, spec, n, d)
            points = dataset.points.copy()
            if n > 2:
                points[rng.integers(n, size=3)] = points[rng.integers(n, size=3)]
            yield Dataset(points, dataset.targets), hp


@pytest.mark.parametrize("spec", NINE_FORMS)
def test_contracted_gradient_agrees_with_the_derivative_stack(spec):
    # each entry within 1e-11 of the magnitudes it sums, |alpha|^T |dK|
    # |alpha| and sum(|K^-1 * dK|), halved: relative to those the two forms
    # differ by rounding only (about 1e-15 measured); with and without the
    # prior, which both subtract alike
    rng = np.random.default_rng(37)
    for dataset, hp in contraction_cases(rng, spec):
        d = dataset.spatial_dim
        theta = hp_to_vector(hp, spec)
        value, el, alpha = reference_lml(dataset, spec, hp)
        k_inv = cho_solve((el, True), np.eye(dataset.n))
        stack = nmd_grad_gram(dataset.points, spec, hp)
        scale = np.array([0.5 * (np.abs(alpha) @ np.abs(dk) @ np.abs(alpha)
                                 + np.sum(np.abs(k_inv * dk))) for dk in stack])
        want = reference_lml_and_gradient(dataset, spec, hp)[1]
        bounds = default_log_bounds(spec, [0.4] * d, 0.4)  # the prior is active
        z = np.maximum(theta - (0.5 * (bounds[:, 0] + bounds[:, 1]) + math.log(0.1)), 0.0)
        z[~temporal_lengthscale_entries(spec, d)] = 0.0
        plain = gp._MarginalLikelihood(dataset, spec).value_and_gradient(theta)
        assert plain[:2] == (value, value)
        assert np.all(np.abs(plain[2] - want) <= 1e-11 * scale), (dataset.n, d)
        got_value, lml, grad = gp._MarginalLikelihood(dataset, spec, bounds).value_and_gradient(theta)
        assert lml == value
        assert got_value == pytest.approx(value - 0.5 * float(z @ z), rel=1e-14, abs=1e-14)
        assert np.allclose(grad - plain[2], -z, rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec", NINE_FORMS)
def test_lml_gradient_matches_central_differences_on_every_form(spec):
    rng = np.random.default_rng(38)
    h = 1e-5
    for dataset, hp in contraction_cases(rng, spec):
        if dataset.n == 60:
            continue
        d = dataset.spatial_dim
        _, grad = lml_and_gradient(dataset, spec, hp)
        theta = hp_to_vector(hp, spec)
        for j in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            fd = (log_marginal_likelihood(dataset, spec, hp_from_vector(up, spec, d))
                  - log_marginal_likelihood(dataset, spec, hp_from_vector(down, spec, d))) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-4 * max(1.0, abs(fd)), (dataset.n, j)


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
    value, screen = gp._MarginalLikelihood.value, gp._MarginalLikelihood.screen

    def recorded(self, theta):
        probes.append(np.asarray(theta).tobytes())
        return value(self, theta)

    def recorded_rows(self, thetas):
        probes.extend(row.tobytes() for row in np.asarray(thetas))
        return screen(self, thetas)

    monkeypatch.setattr(gp._MarginalLikelihood, "value", recorded)
    monkeypatch.setattr(gp._MarginalLikelihood, "screen", recorded_rows)
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


@pytest.mark.parametrize("spec", [KernelSpec(), KernelSpec(KernelForm.SUM, KernelForm.MATERN12)])
def test_screened_rows_are_bitwise_their_own_probes(spec, monkeypatch):
    # a screen builds its grams as stacks; each row reads bitwise what a
    # one-at-a-time probe reads, a failed factorization reads -inf, and the
    # best row (the first of equals) keeps its factor for the gradient
    rng = np.random.default_rng(45)
    d, n = 2, 12
    points = rng.uniform(0, 1, size=(n, d + 1))
    points[[5, 7, 9, 11]] = points[[2, 1, 4, 0]]  # no noise: no positive definite gram
    dataset = Dataset(points, rng.normal(size=n))
    bounds = default_log_bounds(spec, [1.0] * d, 1.0)
    thetas = rng.uniform(bounds[:, 0] / 2, bounds[:, 1] / 2, size=(10, len(bounds)))
    jittered, failed = 3, 6
    # every length-scale long and no noise: a gram of near rank one
    thetas[jittered] = bounds[:, 1]
    thetas[jittered, -1] = -80.0

    def probed(theta):
        return gp._MarginalLikelihood(dataset, spec, bounds).value(theta)

    # the best ordinary row first, so that a later chunk must not drop it
    best = max((i for i in range(10) if i not in (jittered, failed)),
               key=lambda i: probed(thetas[i])[0])
    thetas[[0, best]] = thetas[[best, 0]]
    want = [probed(theta) for theta in thetas]
    want[failed] = (-np.inf, -np.inf)
    objective = gp._MarginalLikelihood(dataset, spec, bounds)
    jitters = []

    def patched(matrix):
        if len(jitters) == failed:
            jitters.append(None)
            raise FactorizationError("patched")
        out = chol_with_jitter(matrix)
        jitters.append(out[1])
        return out

    monkeypatch.setattr(gp, "chol_with_jitter", patched)
    for chunk in (None, 3):
        if chunk:  # four stacks: rows 0-2, 3-5, 6-8 and 9
            monkeypatch.setattr(gp, "_SCREEN_BYTES", chunk * objective._row_bytes + 7)
        jitters.clear()
        best, values, lmls = objective.screen(thetas)
        assert len(jitters) == 10 and jitters[jittered] > 0
        assert list(zip(values, lmls)) == want
        assert best == 0 == max(range(10), key=lambda i: want[i][0])
        jitters.clear()
        got = objective.value_and_gradient(thetas[0])
        assert jitters == []  # no second factorization
        fresh = gp._MarginalLikelihood(dataset, spec, bounds).value_and_gradient(thetas[0])
        assert got[:2] == fresh[:2] and np.array_equal(got[2], fresh[2])


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
        objective = gp._MarginalLikelihood(dataset, spec, bounds, tied)
        temporal = temporal_lengthscale_entries(spec, d)
        theta = hp_to_vector(hp, spec)
        # the temporal scales below the ceiling in half the cases, above it in
        # the other half, never within a step of it
        side = 1 - 2 * (case % 2)
        theta[temporal] = math.log(4.0) + side * rng.uniform(0.3, 1.5, temporal.sum())
        value, lml, grad = objective.value_and_gradient(theta)
        z = 0.0 if tied else np.maximum(theta[temporal] - math.log(4.0), 0.0)
        want_value, want_lml, want_grad = gp._MarginalLikelihood(
            dataset, spec).value_and_gradient(theta)
        assert want_value == want_lml  # without bounds there is no prior
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


# -- appending to the last fit -------------------------------------------------


def refined_solve(k, b, rounds=3):
    """``k^-1 b`` by a dense solve and rounds of iterative refinement whose
    residuals are formed in extended precision: the reference for predicts
    at a noise near its floor, where every factor-based solve rounds."""
    x = np.linalg.solve(k, b)
    wide = k.astype(np.longdouble)
    for _ in range(rounds):
        residual = b.astype(np.longdouble) - wide @ x.astype(np.longdouble)
        x = x + np.linalg.solve(k, residual.astype(float))
    return x


def refined_posterior(dataset, spec, hp, query):
    k = gram(dataset.points, spec, hp, with_noise=True)
    k_star = cross_gram(dataset.points, query, spec, hp)
    mean = k_star.T @ refined_solve(k, dataset.normalized_targets)
    var = hp.signal_variance - np.sum(k_star * refined_solve(k, k_star), axis=0)
    return mean, var


def fit_paths(monkeypatch):
    """Patch ``gp`` to count fits by path: ``append`` for a factor bordered
    by one row, ``fresh`` for one factorized afresh (only a fresh fit
    inverts a factor)."""
    counts = {}
    appended, tri_inv = gp._appended, gp._tri_inv

    def counted_append(*args):
        out = appended(*args)
        if out is not None:
            counts["append"] = counts.get("append", 0) + 1
        return out

    def counted_inverse(el):
        counts["fresh"] = counts.get("fresh", 0) + 1
        return tri_inv(el)

    monkeypatch.setattr(gp, "_appended", counted_append)
    monkeypatch.setattr(gp, "_tri_inv", counted_inverse)
    return counts


def assert_fresh(model, dataset, spec, hp):
    """``model`` is bit for bit a fit of ``dataset`` without a previous one."""
    fresh = GpModel.fit(dataset, spec, hp)
    for name in ("_factor_l", "_factor_inv", "_alpha"):
        assert np.array_equal(getattr(model, name), getattr(fresh, name)), name
    assert model.jitter == fresh.jitter


@pytest.mark.parametrize(
    "spec", [KernelSpec(KernelForm.SE, KernelForm.SE), KernelSpec(KernelForm.SUM, KernelForm.SUM)]
)
def test_appended_model_predicts_as_accurately_as_a_fresh_fit(spec, monkeypatch):
    # 300 appends at the noise bounds' floor; with these scales the plain
    # form's gram nears a condition number of 1e10, as a long frozen run's
    # does.  Forming the new row as el^-1 k instead of solving for it fails
    # the predicts by 70x to 400x; forming the inverse's row as a product
    # with el^-1 fails its left-inverse residual by about 1e4x
    rng = np.random.default_rng(12)
    hp = Hyperparameters.default(2, spec, spatial_scale=0.6, temporal_scale=0.3,
                                 noise_variance=1e-8)
    steps = 300

    def f(p):
        return np.sin(3 * p[:, 0]) + np.cos(2 * p[:, 1] + 4 * p[:, 2])

    points = np.column_stack([rng.uniform(0, 1, (2, 2)), [0.0, 1.0 / steps]])
    dataset = Dataset(points, f(points))
    model = GpModel.fit(dataset, spec, hp)
    paths = fit_paths(monkeypatch)
    for i in range(2, steps + 2):
        point = np.append(rng.uniform(0, 1, 2), i / steps)
        dataset = dataset.append(point, f(point[None])[0])
        model = GpModel.fit(dataset, spec, hp, previous=model)
    assert paths == {"append": steps}
    query = np.column_stack([rng.uniform(0, 1, (200, 2)), np.full(200, (steps + 2) / steps)])
    want = refined_posterior(dataset, spec, hp, query)
    refit = GpModel.fit(dataset, spec, hp)
    fresh = refit.predict_normalized(query)
    got = model.predict_normalized(query)
    for g, fr, w in zip(got, fresh, want):  # the mean, then the variance
        assert np.max(np.abs(g - w)) <= 10 * np.max(np.abs(fr - w))
    eye = np.eye(dataset.n)
    residual = np.max(np.abs(model._factor_inv @ model._factor_l - eye))
    assert residual <= 10 * np.max(np.abs(refit._factor_inv @ refit._factor_l - eye))


def test_fit_appends_only_to_the_same_hyperparameters_spec_and_points(monkeypatch):
    rng = np.random.default_rng(14)
    spec = KernelSpec(KernelForm.SE, KernelForm.SE)
    dataset, hp = in_order_case(rng, spec, 12, 2, 0.5)
    n = dataset.n - 1
    head = Dataset(dataset.points[:n], dataset.targets[:n])
    previous = GpModel.fit(head, spec, hp)
    paths = fit_paths(monkeypatch)
    model = GpModel.fit(dataset, spec, hp, previous=previous)
    assert paths == {"append": 1}
    assert model.jitter == 0.0
    # previous's factors, bordered by one row, and still each other's inverse
    assert np.array_equal(model._factor_l[:n, :n], previous._factor_l)
    assert np.array_equal(model._factor_inv[:n, :n], previous._factor_inv)
    assert not np.triu(model._factor_l, 1).any() and not np.triu(model._factor_inv, 1).any()
    k = gram(dataset.points, spec, hp, with_noise=True)
    assert np.allclose(model._factor_l @ model._factor_l.T, k, rtol=0, atol=1e-12)
    assert np.allclose(model._factor_inv @ model._factor_l, np.eye(n + 1), rtol=0, atol=1e-9)
    # anything else refits afresh, bit for bit
    changed = dataset.points.copy()
    changed[3, 0] += 1e-9
    older = GpModel.fit(Dataset(dataset.points[: n - 1], dataset.targets[: n - 1]), spec, hp)
    fallbacks = {
        "another hp object": (previous, dataset, spec, replace(hp)),
        "another spec": (previous, dataset, KernelSpec(KernelForm.SE, KernelForm.MATERN12), hp),
        "a changed earlier point": (previous, Dataset(changed, dataset.targets), spec, hp),
        "two appended rows": (older, dataset, spec, hp),
        "no new row": (previous, head, spec, hp),
    }
    for why, (prev, data, form, params) in fallbacks.items():
        paths.clear()
        model = GpModel.fit(data, form, params, previous=prev)
        assert paths == {"fresh": 1}, why
        assert_fresh(model, data, form, params)


def test_fit_records_its_jitter_and_a_jittered_fit_is_not_appended_to(monkeypatch):
    spec = KernelSpec(KernelForm.SE, KernelForm.SE)
    hp = Hyperparameters.default(1, spec, noise_variance=1e-30)
    # two copies of one point: the plain gram is singular to rounding
    points = np.array([[0.2, 0.0], [0.2, 0.0]])
    jittered = GpModel.fit(Dataset(points, [0.0, 1.0]), spec, hp)
    _, jitter = chol_with_jitter(gram(points, spec, hp, with_noise=True))
    assert jitter > 0.0
    assert jittered.jitter == jitter
    assert GpModel.fit(Dataset(points[:1], [0.0]), spec, hp).jitter == 0.0
    paths = fit_paths(monkeypatch)
    grown = Dataset(np.vstack([points, [[0.7, 0.5]]]), [0.0, 1.0, 0.5])
    model = GpModel.fit(grown, spec, hp, previous=jittered)
    assert paths == {"fresh": 1}
    assert_fresh(model, grown, spec, hp)


def test_new_point_without_a_positive_pivot_takes_the_fresh_path(monkeypatch):
    spec = KernelSpec(KernelForm.SE, KernelForm.SE)
    hp = Hyperparameters.default(1, spec, spatial_scale=0.1, temporal_scale=0.1,
                                 noise_variance=1e-30)
    points = np.array([[0.1, 0.0], [0.5, 0.3], [0.9, 0.6]])
    previous = GpModel.fit(Dataset(points, [0.0, 1.0, 2.0]), spec, hp)
    assert previous.jitter == 0.0
    # the new point repeats the last one, at a noise far below rounding
    grown = Dataset(np.vstack([points, points[-1:]]), [0.0, 1.0, 2.0, 2.5])
    row = solve_triangular(previous._factor_l, cross_gram(points, points[-1:], spec, hp),
                           lower=True)[:, 0]
    kappa = cross_gram(points[-1:], points[-1:], spec, hp)[0, 0] + hp.noise_variance
    assert kappa - row @ row <= 0.0
    paths = fit_paths(monkeypatch)
    model = GpModel.fit(grown, spec, hp, previous=previous)
    assert paths == {"fresh": 1}
    assert_fresh(model, grown, spec, hp)


# -- where the LAPACK routines come from ---------------------------------------

LAPACK_SOURCE = """
import sys
{prelude}
from dynabo import _routines
print("scipy.linalg" in sys.modules)
import scipy.linalg.lapack, scipy.optimize, scipy.stats
lapack = scipy.linalg.lapack
print(_routines.dpotrf is lapack.dpotrf, _routines.dpotrs is lapack.dpotrs,
      _routines.dtrtrs is lapack.dtrtrs, _routines.dtrtri is lapack.dtrtri,
      _routines.dpotri is lapack.dpotri,
      _routines.dtrmm is scipy.linalg.blas.dtrmm, _routines._lapack is lapack._flapack)
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
    assert out.stdout.split() == [str(fallback)] + ["True"] * 7


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
