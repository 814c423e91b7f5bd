"""Acquisition score tests against closed-form values."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from dynabo.acquisition import (
    ExpectedImprovement,
    LowerConfidenceBound,
    PosteriorMean,
    evaluate_on_model,
    score,
)
from dynabo.gp import Dataset, GpModel
from dynabo.kernels import Hyperparameters, KernelSpec


def test_lcb_arithmetic():
    acq = LowerConfidenceBound(kappa=2.0)
    assert score(acq, 1.0, 4.0) == pytest.approx(-3.0)
    assert score(acq, 0.0, 0.0) == 0.0
    assert np.allclose(score(acq, [1.0, 2.0], [0.0, 1.0]), [1.0, 0.0])


def test_lcb_rejects_bad_kappa():
    with pytest.raises(ValueError):
        LowerConfidenceBound(kappa=0.0)
    with pytest.raises(ValueError):
        LowerConfidenceBound(kappa=-1.0)
    with pytest.raises(ValueError):
        LowerConfidenceBound(kappa=math.nan)


def test_expected_improvement_at_incumbent():
    # mean equal to the incumbent with unit std: EI = pdf(0)
    acq = ExpectedImprovement(best_value=0.0)
    assert score(acq, 0.0, 1.0) == pytest.approx(-0.3989422804014327)


def test_expected_improvement_closed_form():
    acq = ExpectedImprovement(best_value=1.0)
    mean, var = 0.5, 0.25
    gap = 1.0 - mean
    z = gap / 0.5
    expected = -(gap * norm.cdf(z) + 0.5 * norm.pdf(z))
    assert score(acq, mean, var) == pytest.approx(expected)


def test_expected_improvement_equals_scipy_stats_formula_exactly():
    # the normal cdf/pdf are spelled out without scipy.stats; the scores must
    # not move by a single bit, including in the clipped tails
    acq = ExpectedImprovement(best_value=0.0)
    mean = np.linspace(-45.0, 45.0, 20001)
    var = 1.0
    z = np.clip(-mean, -40.0, 40.0)
    expected = -(-mean * norm.cdf(z) + 1.0 * norm.pdf(z))
    assert np.array_equal(score(acq, mean, var), expected)


@pytest.mark.parametrize(
    "heavy", ["scipy.stats", "scipy.optimize", "scipy.special", "scipy.linalg"]
)
def test_import_does_not_load_scipy_stats(heavy):
    # each costs import time that a run which never needs it should not pay;
    # scipy.optimize and scipy.special are imported where they are used, and
    # dynabo.gp loads scipy.linalg's LAPACK extension module without the package
    import dynabo

    src = str(Path(dynabo.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = f"import sys, dynabo, dynabo.cli; print({heavy!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_expected_improvement_zero_variance():
    acq = ExpectedImprovement(best_value=2.0)
    # deterministic point better than incumbent: improvement is the gap
    assert score(acq, 0.5, 0.0) == pytest.approx(-1.5)
    # deterministic point worse than incumbent: no improvement
    assert score(acq, 3.0, 0.0) == 0.0


def test_expected_improvement_always_nonpositive():
    acq = ExpectedImprovement(best_value=0.0)
    rng = np.random.default_rng(0)
    s = score(acq, rng.normal(size=100), rng.uniform(0, 4, size=100))
    assert np.all(s <= 1e-15)


def test_posterior_mean_ignores_variance():
    s = score(PosteriorMean(), [1.0, -2.0], [0.0, 9.0])
    assert np.allclose(s, [1.0, -2.0])


def test_variance_must_be_nonnegative():
    with pytest.raises(ValueError):
        score(PosteriorMean(), 0.0, -1e-9)


@given(
    shift=st.floats(-5, 5),
    kappa=st.floats(0.1, 5),
)
@settings(max_examples=50, deadline=None)
def test_lcb_shifts_with_mean(shift, kappa):
    base = score(LowerConfidenceBound(kappa), 0.0, 2.0)
    assert score(LowerConfidenceBound(kappa), shift, 2.0) == pytest.approx(
        base + shift, abs=1e-9
    )


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_ei_monotone_in_incumbent(data):
    # a worse incumbent can only make improvement easier
    mean = data.draw(st.floats(-3, 3))
    var = data.draw(st.floats(0, 4))
    lo = data.draw(st.floats(-3, 3))
    hi = lo + data.draw(st.floats(0, 3))
    assert score(ExpectedImprovement(hi), mean, var) <= score(
        ExpectedImprovement(lo), mean, var
    ) + 1e-12


def test_batch_matches_scalar_loop():
    rng = np.random.default_rng(8)
    mean = rng.normal(size=30)
    var = rng.uniform(0, 2, size=30)
    for acq in (LowerConfidenceBound(1.7), ExpectedImprovement(0.3), PosteriorMean()):
        batch = score(acq, mean, var)
        singles = np.array([float(score(acq, m, v)) for m, v in zip(mean, var)])
        assert np.allclose(batch, singles)


def test_evaluate_on_model_composes_predict():
    rng = np.random.default_rng(3)
    spec = KernelSpec()
    pts = rng.uniform(0, 1, size=(6, 3))
    dataset = Dataset(pts, rng.normal(size=6))
    model = GpModel.fit(dataset, spec, Hyperparameters.default(2, spec))
    query = rng.uniform(0, 1, size=(4, 3))
    acq = LowerConfidenceBound(2.0)
    mean, var = model.predict(query)
    assert np.allclose(evaluate_on_model(acq, model, query), score(acq, mean, var))


def test_posterior_mean_on_training_point_is_target():
    spec = KernelSpec()
    pts = np.array([[0.2, 0.0], [0.8, 0.0]])
    dataset = Dataset(pts, np.array([1.5, -2.5]))
    hp = Hyperparameters.default(1, spec, noise_variance=1e-8)
    model = GpModel.fit(dataset, spec, hp)
    s = evaluate_on_model(PosteriorMean(), model, pts)
    assert np.allclose(s, dataset.targets, atol=1e-4)
