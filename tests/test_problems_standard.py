"""Dynamized test-function suite.

Claimed minima are frozen literals; the multistart polish below re-derives
a subset at run time so the registry and the oracle stay independent.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from dynabo.problems import make_standard, static_function

ALL_NAMES = [
    "camel6",
    "branin_scaled",
    "goldstein_price",
    "griewank2",
    "griewank5",
    "hartmann3",
    "hartmann6",
    "shekel",
    "styblinski_tang2",
    "styblinski_tang7",
]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_minimum_value_at_claimed_minimizer(name):
    fn = static_function(name)
    val = float(fn.batch(fn.minimizer[None, :])[0])
    assert val == pytest.approx(fn.minimum_value, abs=1e-8)


@pytest.mark.parametrize("name", ["camel6", "hartmann3", "styblinski_tang2", "shekel"])
def test_minimum_against_multistart_oracle(name):
    fn = static_function(name)
    rng = np.random.default_rng(7)
    best = np.inf
    for start in rng.uniform(fn.lower, fn.upper, size=(60, fn.dims)):
        res = minimize(
            lambda z: float(fn.batch(z[None])[0]),
            start,
            method="L-BFGS-B",
            bounds=list(zip(fn.lower, fn.upper)),
        )
        best = min(best, res.fun)
    assert best == pytest.approx(fn.minimum_value, abs=1e-5)
    # nothing in the box may beat the claimed minimum
    probes = rng.uniform(fn.lower, fn.upper, size=(2000, fn.dims))
    assert np.all(fn.batch(probes) >= fn.minimum_value - 1e-9)


def test_styblinski_tang_2d_reference_point():
    fn = static_function("styblinski_tang2")
    val = float(fn.batch(np.array([[-2.903534, -2.903534]]))[0])
    assert val == pytest.approx(-78.332, abs=1e-3)


def test_griewank_origin():
    fn = static_function("griewank5")
    assert float(fn.batch(np.zeros((1, 5)))[0]) == 0.0


def test_goldstein_price_known_point():
    fn = static_function("goldstein_price")
    assert float(fn.batch(np.array([[0.0, -1.0]]))[0]) == pytest.approx(3.0)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_permutation_identity(name):
    fn = static_function(name)
    rng = np.random.default_rng(hash(name) % 2**32)
    for time_dim in range(fn.dims):
        problem = make_standard(name, time_dim=time_dim)
        u = rng.uniform(fn.lower, fn.upper)
        x = np.delete(u, time_dim)
        assert problem.evaluate(x, u[time_dim]) == float(fn.batch(u[None, :])[0])


def test_make_standard_geometry():
    problem = make_standard("camel6", time_dim=0)
    # donating coordinate 0 leaves coordinate 1's range as space
    assert np.allclose(problem.spatial_bounds.lower, [-2.0])
    assert np.allclose(problem.spatial_bounds.upper, [2.0])
    assert problem.horizon == (-3.0, 3.0)
    assert problem.metadata["time_dim"] == 0
    assert problem.spatial_dim == 1


def test_make_standard_random_time_dim_is_seeded():
    choices = {make_standard("hartmann6", seed=s).metadata["time_dim"] for s in range(30)}
    assert len(choices) > 1  # the draw actually varies
    assert make_standard("hartmann6", seed=4).metadata["time_dim"] == (
        make_standard("hartmann6", seed=4).metadata["time_dim"]
    )


def test_make_standard_rejects_bad_input():
    with pytest.raises(ValueError):
        make_standard("nope")
    with pytest.raises(ValueError):
        make_standard("camel6", time_dim=2)
    with pytest.raises(ValueError):
        make_standard("griewank1")
    with pytest.raises(ValueError):
        static_function("styblinski_tang")  # size suffix required


def test_evaluate_validates_spatial_shape():
    problem = make_standard("hartmann3", time_dim=1)
    with pytest.raises(ValueError):
        problem.evaluate(np.zeros(3), 0.5)


def test_names_listing():
    names = ["branin_scaled", "camel6", "goldstein_price", "hartmann3", "hartmann6", "shekel",
             "griewank2", "styblinski_tang2", "styblinski_tang7"]
    for name in names:
        static_function(name)
