"""Search-space and optimizer tests.

The acquisition-optimization path is checked against a dense-grid argmin
oracle; PSO and the quasi-Newton polish are checked on analytic functions
with known minimizers.
"""

import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynabo import optimizer
from dynabo.acquisition import (
    ExpectedImprovement,
    LowerConfidenceBound,
    PosteriorMean,
    evaluate_on_model,
)
from dynabo.gp import Dataset, GpModel
from dynabo.kernels import (
    Hyperparameters,
    KernelForm,
    KernelSpec,
    hp_from_vector,
    n_hyperparameters,
)
from dynabo.optimizer import (
    Box,
    PsoConfig,
    latin_hypercube,
    local_refine,
    optimize_acquisition,
    pso_minimize,
)


def sphere(points):
    return np.sum(points**2, axis=1)


def test_box_validation():
    Box([0.0, 0.0], [1.0, 1.0])
    Box([0.0, 2.0], [1.0, 2.0])  # slice dimension is fine
    with pytest.raises(ValueError):
        Box([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        Box([0.0], [np.inf])
    with pytest.raises(ValueError):
        Box([], [])
    box = Box([0.0, 2.0, -1.0], [1.0, 2.0, 1.0])
    assert box.dim == 3
    assert np.array_equal(box.degenerate, [False, True, False])
    assert np.allclose(box.width, [1.0, 0.0, 2.0])


def test_latin_hypercube_stratification():
    box = Box([0.0, 0.0], [1.0, 1.0])
    pts = latin_hypercube(4, box, seed=3)
    assert pts.shape == (4, 2)
    for j in range(2):
        strata = np.sort(np.floor(pts[:, j] * 4).astype(int))
        assert np.array_equal(strata, [0, 1, 2, 3])


def test_latin_hypercube_general_box_and_slices():
    box = Box([-2.0, 5.0, 0.0], [2.0, 5.0, 10.0])
    pts = latin_hypercube(7, box, seed=0)
    assert box.contains(pts)
    assert np.all(pts[:, 1] == 5.0)
    strata = np.sort(np.floor((pts[:, 2] / 10.0) * 7).astype(int))
    assert np.array_equal(strata, np.arange(7))


def test_latin_hypercube_determinism():
    box = Box([0.0, 0.0], [1.0, 1.0])
    a = latin_hypercube(5, box, seed=11)
    b = latin_hypercube(5, box, seed=11)
    c = latin_hypercube(5, box, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_latin_hypercube_single_point():
    box = Box([0.0, 3.0], [1.0, 3.0])
    pts = latin_hypercube(1, box, seed=0)
    assert pts.shape == (1, 2)
    assert box.contains(pts)
    with pytest.raises(ValueError):
        latin_hypercube(0, box, seed=0)


def test_pso_sphere():
    box = Box([-5.0, -5.0], [5.0, 5.0])
    point, value = pso_minimize(sphere, box, PsoConfig(particles=40, iterations=100), seed=1)
    assert value <= 1e-3
    assert box.contains(point[None, :])


def test_pso_all_degenerate_box():
    box = Box([1.0, 2.0], [1.0, 2.0])
    point, value = pso_minimize(sphere, box)
    assert np.array_equal(point, [1.0, 2.0])
    assert value == pytest.approx(5.0)


def test_pso_constant_objective():
    box = Box([0.0, 0.0], [1.0, 1.0])
    point, value = pso_minimize(
        lambda pts: np.full(pts.shape[0], 3.25), box, PsoConfig(particles=5, iterations=3), seed=2
    )
    assert value == 3.25
    assert box.contains(point[None, :])


def test_pso_handles_nonfinite_regions():
    box = Box([-2.0, -2.0], [2.0, 2.0])

    def holey(points):
        vals = sphere(points)
        vals[points[:, 0] > 0.5] = np.nan  # poisoned half-plane
        return vals

    point, value = pso_minimize(holey, box, PsoConfig(particles=30, iterations=60), seed=4)
    assert np.isfinite(value)
    assert value <= 1e-2


def test_pso_deterministic_and_monotone_in_iterations():
    box = Box([-5.0, -5.0, -5.0], [5.0, 5.0, 5.0])
    cfg = lambda k: PsoConfig(particles=12, iterations=k)
    p1, v1 = pso_minimize(sphere, box, cfg(40), seed=9)
    p2, v2 = pso_minimize(sphere, box, cfg(40), seed=9)
    assert np.array_equal(p1, p2) and v1 == v2
    # same seed, growing iteration budget: reported best can only improve
    values = [pso_minimize(sphere, box, cfg(k), seed=9)[1] for k in (1, 5, 10, 20, 40)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_pso_respects_init_positions():
    box = Box([-5.0, -5.0], [5.0, 5.0])
    init = np.array([[0.01, -0.01]])  # near the optimum
    _, with_init = pso_minimize(
        sphere, box, PsoConfig(particles=8, iterations=1), seed=3, init=init
    )
    assert with_init <= sphere(init)[0] + 1e-12


def full_swarm(objective, box, config, seed, init=None):
    """``pso_minimize``'s update with its stall stop and no can't-move stop:
    it ends after 15 scored iterations in a row that each lower the best by no
    more than 1e-9 times its magnitude, or after ``config.iterations``."""
    free = ~box.degenerate
    lo, hi = box.lower[free], box.upper[free]
    rng = np.random.default_rng(seed)
    p, dim = config.particles, lo.size

    def score(z):
        full = np.tile(box.lower, (z.shape[0], 1))
        full[:, free] = z
        values = np.asarray(objective(full), dtype=float)
        return np.where(np.isfinite(values), values, np.inf)

    positions = rng.uniform(lo, hi, size=(p, dim))
    if init is not None:
        init = np.atleast_2d(init)[:p, free]
        positions[: init.shape[0]] = np.clip(init, lo, hi)
    v_max = 0.5 * (hi - lo)
    velocities = rng.uniform(-v_max, v_max, size=(p, dim))
    best_val = score(positions)
    best_pos = positions.copy()
    g_idx = int(np.argmin(best_val))
    g_pos, g_val = best_pos[g_idx].copy(), float(best_val[g_idx])
    stalled = 0
    for _ in range(config.iterations):
        r_cog = rng.uniform(size=(p, dim))
        r_soc = rng.uniform(size=(p, dim))
        velocities = np.clip(
            optimizer._INERTIA * velocities
            + optimizer._COGNITIVE * r_cog * (best_pos - positions)
            + optimizer._SOCIAL * r_soc * (g_pos - positions),
            -v_max, v_max,
        )
        positions = np.clip(positions + velocities, lo, hi)
        values = score(positions)
        before = g_val
        improved = values < best_val
        best_pos[improved] = positions[improved]
        best_val[improved] = values[improved]
        g_idx = int(np.argmin(best_val))
        if best_val[g_idx] < g_val:
            g_pos, g_val = best_pos[g_idx].copy(), float(best_val[g_idx])
        stalled = stalled + 1 if g_val >= before - 1e-9 * abs(before) else 0
        if stalled == 15:
            break
    point = box.lower.copy()
    point[free] = g_pos
    return point, g_val


def pairwise_distinct(batches) -> bool:
    return len({(b.shape, b.tobytes()) for b in batches}) == len(batches)


@pytest.mark.parametrize(
    ("name", "stops_early"),
    [("corner", True), ("pinned_corner", True), ("sphere", False), ("holey", False)],
)
def test_pso_stop_returns_what_every_iteration_returns(name, stops_early):
    # a plane falling toward the lower corner drives every particle into it,
    # where the clip holds it: the swarm stops; the sphere's swarm keeps moving
    box = {
        "corner": Box([0.0, 0.0], [1.0, 1.0]),
        "pinned_corner": Box([0.0, 0.5, -1.0], [1.0, 0.5, 2.0]),
        "sphere": Box([-5.0, -5.0], [5.0, 5.0]),
        "holey": Box([-2.0, -2.0], [2.0, 2.0]),
    }[name]

    def objective(points):
        if name == "sphere":
            return sphere(points)
        if name == "holey":
            return np.where(points[:, 0] > 0.5, np.nan, sphere(points))
        return points.sum(axis=1)

    calls = []

    def counted(points):
        calls.append(points.copy())
        return objective(points)

    config = PsoConfig(particles=10, iterations=80)
    point, value = pso_minimize(counted, box, config, seed=5)
    want_point, want_value = full_swarm(objective, box, config, 5)
    assert np.array_equal(point, want_point) and value == want_value
    assert (len(calls) < config.iterations + 1) == stops_early
    assert pairwise_distinct(calls)  # the stop comes before a repeat is scored
    if stops_early:
        assert np.array_equal(point, box.lower)


def stalled_runs(calls):
    """Per scored iteration, whether the swarm's best fell by no more than
    1e-9 times its magnitude; ``calls`` starts with the initial batch."""
    bests = np.minimum.accumulate([np.min(c) for c in calls])
    return [b >= a - 1e-9 * abs(a) for a, b in zip(bests, bests[1:])]


@pytest.mark.parametrize("name", ["plateau", "floored_sphere"])
def test_pso_stops_after_15_stalled_iterations(name):
    box = Box([-5.0, -5.0], [5.0, 5.0])
    calls = []

    def objective(points):
        if name == "plateau":
            calls.append(np.full(len(points), 2.0))
        else:
            calls.append(np.maximum(sphere(points), 0.5))
        return calls[-1]

    config = PsoConfig(particles=10, iterations=200)
    _, value = pso_minimize(objective, box, config, seed=5)
    stalled = stalled_runs(calls)
    # stopped right after the first 15th stalled scored iteration in a row
    assert stalled[-15:] == [True] * 15
    run = 0
    for s in stalled[:-1]:
        run = run + 1 if s else 0
        assert run < 15
    assert len(calls) < config.iterations + 1
    if name == "plateau":
        assert len(calls) == 1 + 15 and value == 2.0
    else:
        assert value == 0.5 and not all(stalled)


def test_pso_improving_every_iteration_runs_to_the_cap():
    box = Box([0.0, 0.0], [1.0, 1.0])
    calls = []

    def objective(points):  # each batch scores below every earlier one
        calls.append(points)
        return np.full(len(points), -float(len(calls)))

    config = PsoConfig(particles=6, iterations=40)
    _, value = pso_minimize(objective, box, config, seed=1)
    assert len(calls) == config.iterations + 1 and value == -41.0


@pytest.mark.parametrize(
    ("velocity", "position", "gbest", "stuck"),
    [
        (0.0, 0.5, 0.5, True),  # at rest on both bests
        (-0.1, 0.0, 0.0, True),  # pointing out at the lower bound
        (0.1, 1.0, 1.0, True),  # pointing out at the upper bound
        (0.1, 0.0, 0.0, False),  # pointing into the box: it moves on
        (-0.1, 1.0, 1.0, False),
        (0.1, 0.5, 0.5, False),
        (0.0, 0.5, 0.25, False),  # off the swarm's best: pulled there
    ],
)
def test_swarm_cannot_move_only_when_every_iteration_would_repeat(
    velocity, position, gbest, stuck
):
    box = Box([0.0, 0.0], [1.0, 1.0])
    positions = np.array([[0.0, position], [0.0, position]])
    velocities = np.array([[-0.2, velocity], [0.0, 0.0]])
    g_pos = np.array([0.0, gbest])
    best_pos = positions.copy()
    assert optimizer._cannot_move(positions, velocities, best_pos, g_pos, box) is stuck
    if stuck:  # not on its own best: pulled back there
        best_pos[0, 1] = 0.75
        assert not optimizer._cannot_move(positions, velocities, best_pos, g_pos, box)


def test_pso_rejects_bad_config():
    with pytest.raises(ValueError):
        PsoConfig(particles=1)
    with pytest.raises(ValueError):
        PsoConfig(iterations=0)


def test_refine_quadratic():
    box = Box([0.0], [1.0])
    point, value = local_refine(lambda p: (p[:, 0] - 0.3) ** 2, np.array([0.9]), box)
    assert point[0] == pytest.approx(0.3, abs=1e-6)
    assert value <= 1e-10


def test_refine_already_optimal():
    box = Box([0.0], [1.0])
    point, value = local_refine(lambda p: (p[:, 0] - 0.3) ** 2, np.array([0.3]), box)
    assert point[0] == pytest.approx(0.3, abs=1e-8)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_refine_converges_to_boundary():
    # unconstrained minimizer at 2.0 lies outside the box
    box = Box([0.0], [1.0])
    point, value = local_refine(lambda p: (p[:, 0] - 2.0) ** 2, np.array([0.4]), box)
    assert point[0] == pytest.approx(1.0, abs=1e-6)
    assert value == pytest.approx(1.0, rel=1e-5)


def test_refine_never_worsens():
    rng = np.random.default_rng(0)
    box = Box([-1.0, -1.0], [1.0, 1.0])

    def rastrigin(points):
        return np.sum(points**2 - np.cos(8 * points), axis=1)

    for _ in range(10):
        start = rng.uniform(-1, 1, size=2)
        _, value = local_refine(rastrigin, start, box)
        assert value <= rastrigin(start[None, :])[0] + 1e-12


def test_refine_nonfinite_gradient_returns_start():
    box = Box([0.0], [1.0])

    def nasty(points):
        return np.where(points[:, 0] == 0.5, 1.0, np.nan)

    point, value = local_refine(nasty, np.array([0.5]), box)
    assert point[0] == 0.5
    assert value == 1.0


def test_refine_degenerate_dims_held_fixed():
    box = Box([0.0, 7.0], [1.0, 7.0])
    point, _ = local_refine(
        lambda p: (p[:, 0] - 0.6) ** 2 + p[:, 1], np.array([0.2, 7.0]), box
    )
    assert point[1] == 7.0
    assert point[0] == pytest.approx(0.6, abs=1e-6)


def test_refine_rejects_out_of_box_start():
    box = Box([0.0], [1.0])
    with pytest.raises(ValueError):
        local_refine(sphere, np.array([2.0]), box)


def refine_via_scipy(objective, start, box, results=None):
    """``local_refine`` written over ``scipy.optimize.minimize``: L-BFGS-B
    is called from every start whose gradient is finite; ``results``
    collects scipy's result."""
    from scipy.optimize import minimize

    start = np.asarray(start, dtype=float).ravel()
    free, reduced, embed = optimizer._freeze_degenerate(box)
    start_value = float(optimizer._batch_eval(objective, start[None, :])[0])
    steps = 1e-6 * reduced.width

    def grad(z):
        probes_hi = np.clip(z + np.diag(steps), reduced.lower, reduced.upper)
        probes_lo = np.clip(z - np.diag(steps), reduced.lower, reduced.upper)
        hi = optimizer._raw_eval(objective, embed(probes_hi))
        lo = optimizer._raw_eval(objective, embed(probes_lo))
        span = np.diag(probes_hi - probes_lo).copy()
        span[span == 0] = 1.0
        return (hi - lo) / span

    def fun(z):
        return float(optimizer._batch_eval(objective, embed(z[None, :]))[0])

    z0 = start[free]
    if not np.all(np.isfinite(grad(z0))):
        return start.copy(), start_value
    result = minimize(
        fun,
        z0,
        jac=lambda z: np.where(np.isfinite(g := grad(z)), g, 0.0),
        method="L-BFGS-B",
        bounds=list(zip(reduced.lower, reduced.upper)),
        options={"maxiter": 100, "ftol": 1e-8},
    )
    if results is not None:
        results.append(result)
    candidate = embed(np.clip(result.x, reduced.lower, reduced.upper)[None, :])[0]
    cand_value = float(optimizer._batch_eval(objective, candidate[None, :])[0])
    if cand_value <= start_value:
        return candidate, cand_value
    return start.copy(), start_value


def tilted_bowl(points):
    # minimum beyond the (1, 1) corner of the unit square
    x, y = points[:, 0], points[:, 1]
    return (x - 1.5) ** 2 + 2.0 * (y - 1.3) ** 2 + 0.5 * x * y + points[:, 2]


@pytest.mark.parametrize(
    ("start", "scipy_skipped"),
    [
        ([1.0, 1.0, 0.5], True),  # corner, gradient pointing out of the box
        ([1.0, 0.2, 0.5], False),  # face: pinned in x, free to descend in y
        ([0.3, 0.4, 0.5], False),  # interior
    ],
    ids=["corner", "face", "interior"],
)
def test_refine_equals_always_calling_scipy(start, scipy_skipped):
    box = Box([0.0, 0.0, 0.5], [1.0, 1.0, 0.5])  # a pinned third dimension
    calls = []

    def counted(points):
        calls.append(points.copy())
        return tilted_bowl(points)

    point, value = local_refine(counted, np.array(start), box)
    want_point, want_value = refine_via_scipy(tilted_bowl, np.array(start), box)
    assert np.array_equal(point, want_point)
    assert np.array_equal(value, want_value)
    # the start and its two gradient probes only, when scipy is skipped
    assert (len(calls) == 3) == scipy_skipped
    # L-BFGS-B starts from the start's value and gradient, and the result's
    # value is the driver's last evaluation: no batch is scored twice
    assert pairwise_distinct(calls)


FUZZ_CASES = 600


def fuzz_case(case):
    """A box of 1 to 7 dimensions, some pinned, a start on a corner, a face
    or inside, and one of five objectives: a tilted, badly scaled bowl; a
    Rosenbrock valley (which runs into the iteration cap); a kinked bowl
    (non-smooth); a bowl that is +inf beyond a wall between the start and
    its minimum (the line search fails there); and a wavy bowl."""
    rng = np.random.default_rng(case)
    dim = 1 + case % 7
    lower = rng.uniform(-2.0, 1.0, dim)
    width = rng.uniform(0.1, 3.0, dim)
    width[1:][rng.uniform(size=dim - 1) < 0.25] = 0.0  # the first stays free
    box = Box(lower, lower + width)
    start = lower + width * rng.uniform(size=dim)
    where = ("corner", "face", "interior")[case // 7 % 3]
    on_bound = rng.uniform(size=dim) < {"corner": 1.0, "face": 0.4, "interior": 0.0}[where]
    start[on_bound] = np.where(rng.uniform(size=dim) < 0.5, box.lower, box.upper)[on_bound]
    centre = lower + width * rng.uniform(-0.3, 1.3, dim)
    scales = 10.0 ** rng.uniform(-1.5, 1.5, dim)
    tilt = rng.normal(size=(dim, dim))
    kind = ("bowl", "rosenbrock", "kink", "wall", "wavy")[case // 21 % 5]

    def objective(points):
        u = (points - centre) * scales
        bowl = np.sum(u**2, axis=1) + 0.3 * np.sum((u @ tilt) ** 2, axis=1)
        if kind == "rosenbrock":
            v = 4.0 * (points - centre) + 1.0
            head, tail = v[:, :-1], v[:, 1:]
            return np.sum(1e6 * (tail - head**2) ** 2 + (1.0 - head) ** 2, axis=1) + v[:, -1] ** 4
        if kind == "kink":
            return np.sum(np.abs(u), axis=1) + 0.1 * bowl
        if kind == "wall":
            beyond = (points[:, 0] - start[0]) * np.sign(centre[0] - start[0]) > 0.3 * width[0]
            return np.where(beyond, np.inf, bowl)
        if kind == "wavy":
            return bowl + np.sum(np.cos(5.0 * u), axis=1)
        return bowl

    return objective, start, box, (where, kind)


def test_refine_is_scipy_bit_for_bit_over_random_cases():
    # the driver runs the same setulb loop as scipy.optimize.minimize, from
    # the start's value and gradient the polish already has, so every polish
    # gives the same point and value to the bit
    results = []
    covered, moved = set(), 0
    for case in range(FUZZ_CASES):
        objective, start, box, labels = fuzz_case(case)
        # a gradient probe pair beyond the wall differences inf and inf
        with np.errstate(invalid="ignore"):
            point, value = local_refine(objective, start, box)
            want_point, want_value = refine_via_scipy(objective, start, box, results)
        assert np.array_equal(point, want_point), case
        assert np.array_equal(value, want_value), case
        covered.add(labels)
        moved += not np.array_equal(point, start)
    assert len(covered) == 15  # every start with every objective
    assert moved > FUZZ_CASES // 2
    assert sum(r.nit == 100 for r in results) >= 10  # the iteration cap
    assert any("ABNORMAL" in r.message for r in results)  # a failed line search


@pytest.mark.parametrize(
    ("centre", "start"),
    [(2.0, 0.4), (2.0, 1.0), (-1.0, 0.6), (-1.0, 0.0)],
    ids=["to_upper", "on_upper", "to_lower", "on_lower"],
)
def test_one_dimensional_polish_at_a_bound_scores_each_batch_once(centre, start):
    # at a bound, the gradient probe clipped back onto the point is the
    # point's own one-row batch: the polish takes the point's score for it
    # instead of scoring that batch again, and still gives scipy's result
    box = Box([0.0, 0.5], [1.0, 0.5])  # one free dimension, time pinned
    calls = []

    def parabola(points):
        calls.append(points.copy())
        return (points[:, 0] - centre) ** 2 + points[:, 1]

    point, value = local_refine(parabola, np.array([start, 0.5]), box)
    assert point[0] == np.clip(centre, 0.0, 1.0)
    assert pairwise_distinct(calls)
    want_point, want_value = refine_via_scipy(parabola, np.array([start, 0.5]), box)
    assert np.array_equal(point, want_point)
    assert np.array_equal(value, want_value)


TRAINING_FUZZ_CASES = 300


def training_fuzz_case(case):
    """A box of 1 to 6 variables, a start inside it, an iteration cap from 0
    to 200 (log-uniform), and an objective with its gradient: a tilted,
    badly scaled bowl plus a wave; in a third of the cases +inf (with a zero
    gradient) beyond a wall between the start and the bowl's centre, as a
    failed factorization reads in training, and in another third with a
    kink at the centre."""
    rng = np.random.default_rng(case)
    dim = 1 + case % 6
    lower = rng.uniform(-6.0, 2.0, dim)
    upper = lower + rng.uniform(0.5, 4.0, dim)
    start = lower + (upper - lower) * rng.uniform(size=dim)
    centre = lower + (upper - lower) * rng.uniform(-0.5, 1.5, dim)
    scales = 10.0 ** rng.uniform(-1.0, 1.0, dim)
    tilt = rng.normal(size=(dim, dim))
    metric = np.diag(scales**2) + 0.3 * (scales[:, None] * tilt) @ (scales[:, None] * tilt).T
    wave = rng.uniform(0.0, 2.0)
    kind = ("wall", "kink", "smooth")[case // 6 % 3]
    cap = int(np.expm1(rng.uniform(0.0, math.log(201.0))))  # log-uniform

    def fg(x):
        beyond = (x[0] - start[0]) * np.sign(centre[0] - start[0]) > 0.3 * (upper[0] - lower[0])
        if kind == "wall" and beyond:
            return math.inf, np.zeros(dim)
        u = x - centre
        f = float(u @ metric @ u + wave * np.sum(np.cos(3.0 * u)))
        g = 2.0 * metric @ u - 3.0 * wave * np.sin(3.0 * u)
        if kind == "kink":
            f += float(np.sum(10.0 * scales * np.abs(u)))
            g += 10.0 * scales * np.sign(u)
        return f, g

    return fg, start, lower, upper, cap


def test_driver_at_training_settings_is_scipy_bit_for_bit():
    # training runs the polish's driver with scipy's default tolerance: every
    # run gives scipy's point, last value, iteration and evaluation counts
    from scipy.optimize import minimize

    from dynabo import _routines

    capped = abnormal = walled = 0
    for case in range(TRAINING_FUZZ_CASES):
        fg, start, lower, upper, cap = training_fuzz_case(case)
        evaluations = []

        def counted(x):
            evaluations.append(x)
            return fg(x)

        f0, g0 = fg(start)
        x, (_, last_f, _), iterations = _routines._lbfgsb(
            counted, start, f0, g0, lower, upper, cap
        )
        want = minimize(fg, start, jac=True, method="L-BFGS-B",
                        bounds=list(zip(lower, upper)), options={"maxiter": cap})
        assert np.array_equal(x, want.x), case
        assert last_f == want.fun, case
        assert iterations == want.nit, case
        assert 1 + len(evaluations) == want.nfev, case
        capped += want.nit == max(cap, 1)
        abnormal += "ABNORMAL" in want.message
        walled += any(math.isinf(fg(x)[0]) for x in evaluations)
    assert capped >= 10  # the iteration cap
    assert abnormal >= 1  # a failed line search
    assert walled >= 10  # a line search that reached the wall


POLISH_SOURCE = """
import sys
{prelude}
import numpy as np
from dynabo.optimizer import Box, local_refine
box = Box([0.0, 0.0, 0.5], [1.0, 1.0, 0.5])
def tilted_bowl(points):
    x, y = points[:, 0], points[:, 1]
    return (x - 1.5) ** 2 + 2.0 * (y - 1.3) ** 2 + 0.5 * x * y + points[:, 2]
for start in ([1.0, 0.2, 0.5], [0.3, 0.4, 0.5]):
    point, value = local_refine(tilted_bowl, np.array(start), box)
    print(point.tobytes().hex(), np.float64(value).tobytes().hex())
print("scipy.optimize" in sys.modules)
from scipy.optimize import _lbfgsb_py
print(_lbfgsb_py._lbfgsb is sys.modules["scipy.optimize._lbfgsb"])
"""


@pytest.mark.parametrize(
    ("prelude", "fallback"),
    [
        ("", False),
        # no extension file can be found: the polish imports the module
        # through scipy.optimize
        ("import importlib.machinery; importlib.machinery.EXTENSION_SUFFIXES = []", True),
    ],
    ids=["extension_module", "fallback"],
)
def test_polish_runs_the_routine_scipy_optimize_runs(prelude, fallback):
    # either way the polish gives scipy's result to the bit, and a later
    # import of scipy.optimize reuses the module the polish loaded
    src = str(Path(optimizer.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = POLISH_SOURCE.format(prelude=prelude)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    box = Box([0.0, 0.0, 0.5], [1.0, 1.0, 0.5])
    want = []
    for start in ([1.0, 0.2, 0.5], [0.3, 0.4, 0.5]):
        point, value = refine_via_scipy(tilted_bowl, np.array(start), box)
        want.append(f"{point.tobytes().hex()} {np.float64(value).tobytes().hex()}")
    assert out.stdout.splitlines() == want + [str(fallback), "True"]


def quadratic_model():
    # noiseless parabola on a grid; posterior mean recovers it closely
    xs = np.linspace(0, 1, 9)
    pts = np.array([[x, 0.0] for x in xs])
    y = (xs - 0.42) ** 2
    spec = KernelSpec()
    hp = Hyperparameters.default(1, spec, spatial_scale=0.3, noise_variance=1e-8)
    return GpModel.fit(Dataset(pts, y), spec, hp)


def test_optimize_acquisition_grid_oracle():
    model = quadratic_model()
    box = Box([0.0, 0.0], [1.0, 0.0])  # time pinned to the sampled slice
    point = optimize_acquisition(model, PosteriorMean(), box, seed=5)
    grid = np.linspace(0, 1, 2001)
    scores, _ = model.predict(np.column_stack([grid, np.zeros_like(grid)]))
    oracle = grid[np.argmin(scores)]
    assert point[1] == 0.0
    assert point[0] == pytest.approx(oracle, abs=1e-2)


def test_optimize_acquisition_beats_lhd_probes():
    model = quadratic_model()
    box = Box([0.0, 0.0], [1.0, 0.0])
    pso = PsoConfig(particles=20, iterations=30)
    point = optimize_acquisition(model, PosteriorMean(), box, pso, seed=8)
    probes = latin_hypercube(pso.particles, box, 8)
    best_probe = np.min(model.predict(probes)[0])
    found = model.predict(point[None, :])[0][0]
    assert found <= best_probe + 1e-12


def test_optimize_acquisition_respects_time_slice():
    model = quadratic_model()
    box = Box([0.0, 2.5], [1.0, 2.5])
    point = optimize_acquisition(model, PosteriorMean(), box, seed=1)
    assert point[1] == 2.5


@given(seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_pso_stays_in_box_property(seed):
    box = Box([-1.0, 0.0, 2.0], [1.0, 0.0, 3.0])
    point, _ = pso_minimize(
        sphere, box, PsoConfig(particles=6, iterations=8), seed=seed
    )
    assert box.contains(point[None, :])
    assert point[1] == 0.0


# ---- the swarm stops before it scores a batch twice

NINE_SPECS = [KernelSpec(s, t) for s, t in itertools.product(KernelForm, KernelForm)]
SEARCH_BOXES = {
    "pinned_time": Box([0.0, 0.0, 1.1], [1.0, 1.0, 1.1]),
    "free_window": Box([0.0, 0.0, 1.0], [1.0, 1.0, 1.4]),
}


def random_model(spec, seed, n=12, d=2):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 1, size=(n, d + 1))
    y = rng.normal(size=n)
    theta = rng.uniform(-1.0, 0.5, size=n_hyperparameters(spec, d))
    theta[-1] = math.log(1e-4)
    return GpModel.fit(Dataset(pts, y), spec, hp_from_vector(theta, spec, d))


def full_search(model, acq, box, pso, seed):
    """``optimize_acquisition`` with a swarm that runs every iteration."""

    def objective(points):
        return evaluate_on_model(acq, model, points)

    probes = latin_hypercube(pso.particles, box, seed)
    point, _ = full_swarm(objective, box, pso, seed, init=probes)
    return box.clip(point)


def recording(monkeypatch):
    """Patch ``optimizer.evaluate_on_model`` to record every batch it scores."""
    batches = []
    evaluate = optimizer.evaluate_on_model

    def recorded(acq, model, points):
        batches.append(points.copy())
        return evaluate(acq, model, points)

    monkeypatch.setattr(optimizer, "evaluate_on_model", recorded)
    return batches


def recording_swarm(monkeypatch):
    """Patch ``optimizer.pso_minimize`` to record every batch the swarm
    passes to the objective ``optimize_acquisition`` hands it."""
    batches = []
    swarm = optimizer.pso_minimize

    def recorded(objective, box, config, seed, init=None):
        def wrapped(points):
            batches.append(points.copy())
            return objective(points)

        return swarm(wrapped, box, config, seed, init=init)

    monkeypatch.setattr(optimizer, "pso_minimize", recorded)
    return batches


@pytest.mark.parametrize("box_name", sorted(SEARCH_BOXES))
@pytest.mark.parametrize("acq_name", ["lcb", "ei", "mean"])
@pytest.mark.parametrize("spec", NINE_SPECS)
def test_optimize_acquisition_equals_unmemoized_search(spec, acq_name, box_name, monkeypatch):
    model = random_model(spec, seed=NINE_SPECS.index(spec))
    acq = {
        "lcb": LowerConfidenceBound(1.5),
        "ei": ExpectedImprovement(float(model.dataset.targets.min())),
        "mean": PosteriorMean(),
    }[acq_name]
    box = SEARCH_BOXES[box_name]
    pso = PsoConfig(particles=8, iterations=15)
    want = full_search(model, acq, box, pso, 4)
    batches = recording_swarm(monkeypatch)
    got = optimize_acquisition(model, acq, box, pso, 4)
    assert np.array_equal(got, want)
    assert pairwise_distinct(batches)  # no swarm batch scored twice


def test_swarm_in_a_corner_is_not_rescored(monkeypatch):
    # the posterior mean of a plane falls toward the (0, 0) corner: the
    # swarm piles up there, and its clipped positions stop changing
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(0, 1, size=(12, 2)), np.zeros(12)])
    spec = KernelSpec()
    hp = Hyperparameters.default(2, spec, spatial_scale=2.0, noise_variance=1e-6)
    model = GpModel.fit(Dataset(pts, pts[:, 0] + pts[:, 1]), spec, hp)
    box = Box([0.0, 0.0, 0.0], [1.0, 1.0, 0.0])
    pso = PsoConfig(particles=10, iterations=60)
    batches = recording(monkeypatch)
    point = optimize_acquisition(model, PosteriorMean(), box, pso, seed=3)
    assert np.array_equal(point, [0.0, 0.0, 0.0])
    assert pairwise_distinct(batches)
    assert len(batches) < pso.iterations + 1


# ---- a box with one free coordinate: a coarse batch, one fine batch around
# every coarse local minimum, and a parabola step

ONE_FREE_BOXES = {
    "space": Box([0.0, 0.3], [1.0, 0.3]),  # time pinned, as fixed-interval steps search
    "time": Box([0.6, 0.0], [0.6, 0.5]),
}
ACQUISITIONS = {
    "lcb": lambda model: LowerConfidenceBound(1.5),
    # the highest target, so that the improvement is not 0 everywhere
    "ei": lambda model: ExpectedImprovement(float(model.dataset.targets.max())),
    "mean": lambda model: PosteriorMean(),
}


def scoring(monkeypatch, evaluate=None):
    """Patch ``optimizer.evaluate_on_model`` to record every batch it scores
    with its scores; ``evaluate`` replaces the model's scores."""
    batches = []
    evaluate = evaluate or optimizer.evaluate_on_model

    def recorded(acq, model, points):
        scores = np.asarray(evaluate(acq, model, points), dtype=float)
        batches.append((points.copy(), scores.copy()))
        return scores

    monkeypatch.setattr(optimizer, "evaluate_on_model", recorded)
    return batches


def swarm_search(model, acq, box, pso, seed):
    """The hypercube-seeded swarm alone, as ``pso_minimize`` runs it."""

    def objective(points):
        return evaluate_on_model(acq, model, points)

    probes = latin_hypercube(pso.particles, box, seed)
    point, _ = pso_minimize(objective, box, pso, seed, init=probes)
    return box.clip(point)


LINE = np.linspace(0.0, 1.0, 513)


def fine_indices(coarse):
    """The dense line's indices that the fine batch scores: those within 7 of
    each finite coarse score no higher than either coarse neighbour."""
    near = set()
    for k, value in enumerate(coarse):
        left = coarse[k - 1] if k > 0 else np.inf
        right = coarse[k + 1] if k + 1 < len(coarse) else np.inf
        if np.isfinite(value) and value <= left and value <= right:
            near.update(range(max(8 * k - 7, 0), min(8 * k + 7, 512) + 1))
    return np.array(sorted(near))


def dense_line_search(model, acq, box, pso, seed):
    """The search the coarse-to-fine one stands in for: the whole 513-point
    line scored as one batch, then the parabola step through its first
    minimum, or the swarm when that batch is flat."""

    def objective(points):
        return evaluate_on_model(acq, model, points)

    j = int(np.flatnonzero(~box.degenerate)[0])
    lo, hi = box.lower[j], box.upper[j]
    grid = np.tile(box.lower, (513, 1))
    grid[:, j] = np.linspace(lo, hi, 513)
    scores = optimizer._batch_eval(objective, grid)
    i = int(scores.argmin())
    best = scores[i]
    if not np.isfinite(best) or scores.max() - best <= 1e-6 * max(1.0, abs(best)):
        return swarm_search(model, acq, box, pso, seed)
    point = grid[i].copy()
    if 0 < i < 512:
        y0, y1, y2 = scores[i - 1 : i + 2]
        curvature = y0 - 2.0 * y1 + y2
        if np.isfinite(curvature) and curvature > 0:
            vertex = point.copy()
            vertex[j] = min(max(point[j] + 0.5 * (hi - lo) / 512 * (y0 - y2) / curvature, lo), hi)
            if optimizer._batch_eval(objective, vertex[None, :])[0] < best:
                return vertex
    return point


@pytest.mark.parametrize("box_name", sorted(ONE_FREE_BOXES))
@pytest.mark.parametrize("acq_name", sorted(ACQUISITIONS))
@pytest.mark.parametrize("case", range(4))
def test_one_coordinate_search_scores_one_grid_then_at_most_one_point(
    case, acq_name, box_name, monkeypatch
):
    # the line is scored as a coarse batch and one fine batch, then at most
    # one parabola point
    spec = NINE_SPECS[3 * case % len(NINE_SPECS)]
    model = random_model(spec, seed=case, d=1)
    acq = ACQUISITIONS[acq_name](model)
    box = ONE_FREE_BOXES[box_name]
    batches = scoring(monkeypatch)
    point = optimize_acquisition(model, acq, box, seed=case)

    (coarse_points, coarse), (fine_points, fine), *rest = batches
    free = int(np.flatnonzero(~box.degenerate)[0])
    line = np.linspace(box.lower[free], box.upper[free], 513)
    assert coarse_points.shape == (65, 2)
    assert np.array_equal(coarse_points[:, free], line[::8])
    near = fine_indices(coarse)
    assert np.array_equal(fine_points[:, free], line[near])
    for points in (coarse_points, fine_points):
        assert np.all(points[:, 1 - free] == box.lower[1 - free])
    assert len(rest) <= 1 and all(points.shape == (1, 2) for points, _ in rest)

    # in the box, and never worse than the fine batch's best: the parabola's
    # point, tried only beside two scored dense neighbours and taken only
    # when it scored strictly lower, else the fine batch's first minimum
    assert box.contains(point)
    best = int(fine.argmin())
    if rest:
        assert 0 < best < near.size - 1 and near[best + 1] - near[best - 1] == 2
    if rest and rest[0][1][0] < fine[best]:
        assert np.array_equal(point, rest[0][0][0])
    else:
        assert np.array_equal(point, fine_points[best])


def test_one_coordinate_search_takes_the_parabola_vertex_of_a_quadratic(monkeypatch):
    # three dense points of a parabola give its vertex, between line points
    box = Box([0.0, 0.0], [1.0, 0.0])
    batches = scoring(monkeypatch, lambda acq, model, points: (points[:, 0] - 0.4321) ** 2)
    point = optimize_acquisition(None, PosteriorMean(), box)
    assert [len(points) for points, _ in batches] == [65, 15, 1]
    assert point[0] == pytest.approx(0.4321, abs=1e-12)
    assert point[1] == 0.0


def test_one_coordinate_search_skips_the_parabola_beside_a_non_finite_score(monkeypatch):
    # the best dense point has a nan to its right: no parabola step, no
    # warning, and the best dense point is the result
    box = Box([0.0, 0.0], [1.0, 0.0])

    def bowl_with_a_hole(acq, model, points):
        return np.where(points[:, 0] > LINE[220], np.nan, (points[:, 0] - 0.5) ** 2)

    batches = scoring(monkeypatch, bowl_with_a_hole)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = optimize_acquisition(None, PosteriorMean(), box)
    # the last finite coarse point, 216, is the one coarse minimum
    assert len(batches) == 2
    assert np.array_equal(batches[1][0][:, 0], LINE[209:224])
    assert np.array_equal(point, [LINE[220], 0.0])


def two_dips(acq, model, points):
    """A shallow dip on the coarse point 128 and a deeper, lopsided one at
    327: the coarse points beside 327 score -0.996 at 320, seven points up
    its gentle side, and -0.96 at 328, one point up its steep side, both
    above the shallow dip's -1 at 128."""
    x = points[:, 0]
    shallow = -1.0 + 5.12 * np.abs(x - LINE[128])
    deep = -1.01 + np.where(x < LINE[327], 1.024 * (LINE[327] - x), 25.6 * (x - LINE[327]))
    return np.minimum(shallow, deep)


def test_one_coordinate_search_refines_every_coarse_minimum(monkeypatch):
    # the coarse best lies in the shallow dip; the deeper dip's dense point
    # sits seven points from its coarse minimum, at the edge of its window
    box = Box([0.0, 0.3], [1.0, 0.3])
    batches = scoring(monkeypatch, two_dips)
    point = optimize_acquisition(None, PosteriorMean(), box)
    (_, coarse), (fine_points, _) = batches  # 328 is unscored: no parabola
    assert int(coarse.argmin()) == 16
    assert np.array_equal(fine_points[:, 0], np.r_[LINE[121:136], LINE[313:328]])
    assert np.array_equal(point, [LINE[327], 0.3])


def test_one_coordinate_search_decides_flatness_on_the_coarse_batch(monkeypatch):
    # one coarse point stands out, so the coarse batch is not flat; every
    # other coarse point is a minimum, and their windows leave out only that
    # point, so the fine batch is flat: its first point is the result
    box = Box([0.0, 0.3], [1.0, 0.3])
    batches = scoring(monkeypatch, lambda acq, model, points: (points[:, 0] == LINE[256]) * 1.0)
    point = optimize_acquisition(None, PosteriorMean(), box)
    assert len(batches) == 2
    assert np.array_equal(batches[1][0][:, 0], np.delete(LINE, 256))
    assert np.array_equal(point, [0.0, 0.3])


def test_one_coordinate_search_agrees_with_the_dense_line(monkeypatch):
    # the coarse-to-fine search stands in for scoring the whole line as one
    # batch: on random models it finds the dense line's point, up to the
    # last bits that a batch's other rows move
    pso = PsoConfig(particles=8, iterations=15)
    for case in range(40):
        model = random_model(NINE_SPECS[case % len(NINE_SPECS)], seed=100 + case, d=1)
        for make_acq, box in itertools.product(ACQUISITIONS.values(), ONE_FREE_BOXES.values()):
            acq = make_acq(model)
            want = dense_line_search(model, acq, box, pso, seed=case)
            got = optimize_acquisition(model, acq, box, pso, seed=case)
            assert np.allclose(got, want, rtol=0.0, atol=1e-9), (case, acq, box)


def test_flat_one_coordinate_search_is_the_swarm_bit_for_bit(monkeypatch):
    # every sample lies far beyond the temporal reach of the box's time, so
    # each predict is the prior: the coarse batch is flat and the swarm decides
    model = quadratic_model()
    box = Box([0.0, 1000.0], [1.0, 1000.0])
    pso = PsoConfig(particles=8, iterations=15)
    for acq in (LowerConfidenceBound(1.5), PosteriorMean()):
        want = swarm_search(model, acq, box, pso, seed=6)
        with monkeypatch.context() as patch:
            batches = scoring(patch)
            got = optimize_acquisition(model, acq, box, pso, seed=6)
        coarse, coarse_scores = batches[0]
        assert coarse.shape == (65, 2)
        assert np.all(coarse_scores == coarse_scores[0])
        # the coarse batch, then the swarm's batches
        assert len(batches) > 2 and batches[1][0].shape == (pso.particles, 2)
        assert np.array_equal(got, want)


def test_all_nan_one_coordinate_search_falls_back_to_the_swarm_without_warning(monkeypatch):
    box = Box([0.0, 0.3], [1.0, 0.3])
    pso = PsoConfig(particles=6, iterations=4)
    batches = scoring(monkeypatch, lambda acq, model, points: np.full(len(points), np.nan))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = optimize_acquisition(None, PosteriorMean(), box, pso, seed=2)
    want, _ = pso_minimize(lambda points: np.full(len(points), np.nan), box, pso, 2,
                           init=latin_hypercube(pso.particles, box, 2))
    assert batches[0][0].shape == (65, 2)
    assert len(batches) > 2 and batches[1][0].shape == (pso.particles, 2)
    assert np.array_equal(point, box.clip(want))


@pytest.mark.parametrize("acq_name", sorted(ACQUISITIONS))
def test_two_free_coordinates_are_searched_by_the_swarm_bit_for_bit(acq_name, monkeypatch):
    model = quadratic_model()
    acq = ACQUISITIONS[acq_name](model)
    box = Box([0.0, 0.0], [1.0, 0.5])
    pso = PsoConfig(particles=8, iterations=15)
    want = swarm_search(model, acq, box, pso, seed=9)
    batches = scoring(monkeypatch)
    got = optimize_acquisition(model, acq, box, pso, seed=9)
    assert np.array_equal(got, want)
    assert all(points.shape[0] == pso.particles for points, _ in batches)
