"""Acceptance gate: eleven checks, one printed pass/fail line each.

Each criterion has a runtime ceiling enforced alongside its assertions.
Run with ``pytest -s tests/test_acceptance.py`` to watch the lines appear.
"""

import json
import math
import time

import numpy as np
import pytest

from dynabo.cli import main as cli_main
from dynabo.engine import (
    DetectorConfig,
    EngineConfig,
    Mode,
    WarmupConfig,
    feasible_window,
    learning_detector,
    run,
)
from dynabo.gp import Dataset, GpModel, TrainConfig, default_log_bounds, lml_and_gradient, log_marginal_likelihood, train
from dynabo.kernels import (
    Hyperparameters,
    KernelForm,
    KernelSpec,
    cross_gram,
    gram,
    hp_from_vector,
    hp_to_vector,
    n_hyperparameters,
)
from dynabo.metrics import ScoredSeries, offline_performance
from dynabo.optimizer import Box, PsoConfig
from dynabo.problems import MpbConfig, make_standard, mpb_eval, mpb_init, mpb_step, scenario_presets
from dynabo.problems.mpb import _config_from_preset


def _report(number: int, label: str, budget_s: float, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s (limit {budget_s}s)"
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"FAIL  criterion {number:2d} ({elapsed:6.1f}s)  {label}", flush=True)
        raise
    print(f"PASS  criterion {number:2d} ({elapsed:6.1f}s)  {label}", flush=True)


_SPECS = [
    KernelSpec(KernelForm.SE, KernelForm.SE),
    KernelSpec(KernelForm.SE, KernelForm.MATERN12),
    KernelSpec(KernelForm.MATERN12, KernelForm.SE),
    KernelSpec(KernelForm.SUM, KernelForm.SUM),
]


def _random_case(rng, spec, n, d):
    pts = rng.uniform(-2, 2, size=(n, d + 1))
    y = rng.normal(size=n)
    theta = rng.uniform(-0.7, 0.7, size=n_hyperparameters(spec, d))
    theta[-1] = math.log(rng.uniform(1e-4, 1e-1))
    return Dataset(pts, y), hp_from_vector(theta, spec, d)


def test_criterion_01_posterior_matches_dense_inverse():
    def body():
        rng = np.random.default_rng(1)
        for i in range(200):
            spec = _SPECS[i % len(_SPECS)]
            n, d = int(rng.integers(2, 9)), int(rng.integers(1, 4))
            dataset, hp = _random_case(rng, spec, n, d)
            model = GpModel.fit(dataset, spec, hp)
            query = rng.uniform(-2, 2, size=(5, d + 1))
            mean, var = model.predict_normalized(query)
            k = gram(dataset.points, spec, hp, with_noise=True)
            k_inv = np.linalg.inv(k)
            k_star = cross_gram(dataset.points, query, spec, hp)
            mean_oracle = k_star.T @ k_inv @ dataset.normalized_targets
            var_oracle = hp.signal_variance - np.sum(k_star * (k_inv @ k_star), axis=0)
            assert np.allclose(mean, mean_oracle, atol=1e-8)
            assert np.allclose(var, np.maximum(var_oracle, 0.0), atol=1e-8)

    _report(1, "posterior equals dense-inverse oracle on 200 instances", 10, body)


def test_criterion_02_lml_gradient_matches_central_differences():
    def body():
        rng = np.random.default_rng(2)
        h = 1e-5
        for i in range(100):
            spec = _SPECS[i % len(_SPECS)]
            d = int(rng.integers(1, 3))
            dataset, hp = _random_case(rng, spec, 5, d)
            _, grad = lml_and_gradient(dataset, spec, hp)
            theta = hp_to_vector(hp, spec)
            for j in range(theta.size):
                up, down = theta.copy(), theta.copy()
                up[j] += h
                down[j] -= h
                fd = (
                    log_marginal_likelihood(dataset, spec, hp_from_vector(up, spec, d))
                    - log_marginal_likelihood(dataset, spec, hp_from_vector(down, spec, d))
                ) / (2 * h)
                assert abs(grad[j] - fd) <= 1e-4 * max(1.0, abs(grad[j]))

    _report(2, "marginal-likelihood gradient matches central differences", 30, body)


def test_criterion_03_offline_performance_exact():
    def body():
        assert offline_performance(ScoredSeries([5, 3, 4, 6, 2], 5)) == pytest.approx(3.2)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 201))
            w = int(rng.choice([1, 5, 10]))
            values = rng.normal(size=n)
            bests = []
            for t in range(n):
                best = values[t]
                for i in range(max(0, t - w), t + 1):
                    best = min(best, values[i])
                bests.append(best)
            oracle = math.fsum(bests) / n
            assert offline_performance(ScoredSeries(values, w)) == oracle

    _report(3, "offline performance exactly equals enumeration oracle", 5, body)


def test_criterion_04_feasible_window_law():
    def body():
        rng = np.random.default_rng(4)
        t_c = rng.uniform(-50, 50, size=100_000)
        delta = rng.uniform(1e-6, 5, size=100_000)
        frac = rng.uniform(1e-6, 1.0, size=100_000)
        lt = rng.uniform(1e-6, 50, size=100_000)
        for args in zip(t_c, delta, frac, lt):
            lo, hi = feasible_window(*args)
            assert lo == args[0] + args[1]
            assert hi == max(lo, args[0] + args[2] * args[3])

        # every adaptive-mode evaluation lies inside its recorded window
        def drift(x, t):
            return float((x[0] - 0.4 - 0.3 * np.sin(4 * t)) ** 2)

        from dynabo.problems import Problem

        problem = Problem("drift", Box(np.zeros(1), np.ones(1)), (0.0, 1.0), drift)
        hp = Hyperparameters.default(1, KernelSpec(), spatial_scale=0.3,
                                     temporal_scale=0.15, noise_variance=1e-6)
        cfg = EngineConfig(
            mode=Mode.ABO_ADAPTIVE_TIME, budget=100, min_lookahead=0.01,
            warmup=WarmupConfig(lhd=2, span=0.05), fixed_hp=hp,
            pso=PsoConfig(particles=12, iterations=20), seed=4,
        )
        trace = run(problem, cfg)
        scored = [s for s in trace.steps if s.phase == "scored"]
        assert scored
        for s in scored:
            assert s.window_lo <= s.t <= s.window_hi

    _report(4, "window law holds on 1e5 draws and adaptive traces", 5, body)


def test_criterion_05_learning_detector():
    def body():
        assert learning_detector([2.0, 2.0, 2.0, 2.0], 3, 0.1)
        assert not learning_detector([2.0, 3.0, 4.0, 5.0], 3, 0.1)
        rng = np.random.default_rng(5)
        for _ in range(2000):
            n = int(rng.integers(0, 10))
            w = int(rng.integers(1, 5))
            history = list(rng.uniform(0.01, 5.0, size=n))
            got = learning_detector(history, w, 0.1)
            if n <= w:
                assert got is False
            else:
                assert got == (abs(history[-1] - history[-1 - w]) / w <= 0.1)

    _report(5, "settling detector matches its defining formula", 1, body)


def test_criterion_06_moving_peaks_invariants():
    def body():
        # zero severities: the landscape is a fixed point of the update
        frozen = MpbConfig(peaks=8, dims=3, height_severity=0.0,
                           width_severity=0.0, shift_severity=0.0)
        state = mpb_init(frozen, seed=6)
        stepped = mpb_step(state)
        assert np.array_equal(stepped.heights, state.heights)
        assert np.array_equal(stepped.widths, state.widths)
        assert np.array_equal(stepped.locations, state.locations)

        # full direction memory keeps the shift length pinned at the severity
        sticky = MpbConfig(peaks=8, dims=3, lower=0.0, upper=1000.0, alpha=1.0,
                           shift_severity=2.5)
        state = mpb_init(sticky, seed=6)
        for _ in range(5):
            prev = state
            state = mpb_step(state)
            assert np.allclose(np.linalg.norm(state.shifts, axis=1), 2.5)
            unreflected = np.all(
                np.isclose(state.locations, prev.locations + state.shifts), axis=1
            )
            assert unreflected.any()
            cos = np.sum(state.shifts * prev.shifts, axis=1) / (2.5 * 2.5)
            assert np.allclose(cos[unreflected], 1.0)

        # negated evaluate never drops below the tallest possible peak
        preset = _config_from_preset(scenario_presets()["scenarios"]["1"])
        state = mpb_init(preset, seed=6)
        rng = np.random.default_rng(6)
        for x in rng.uniform(preset.lower, preset.upper, size=(50, preset.dims)):
            assert mpb_eval(state, x) >= -preset.height_range[1] - 1e-12

        # long simulation stays inside every configured range
        cfg2 = _config_from_preset(scenario_presets()["scenarios"]["2"])
        state = mpb_init(cfg2, seed=6)
        for _ in range(10_000):
            state = mpb_step(state)
            assert np.all(state.locations >= cfg2.lower)
            assert np.all(state.locations <= cfg2.upper)
            assert np.all((state.heights >= cfg2.height_range[0])
                          & (state.heights <= cfg2.height_range[1]))
            assert np.all((state.widths >= cfg2.width_range[0])
                          & (state.widths <= cfg2.width_range[1]))

    _report(6, "moving-peaks update invariants and 1e4-step containment", 30, body)


def test_criterion_07_directional_tracking():
    def body():
        problem = make_standard("branin_scaled", seed=0)
        span = problem.horizon[1] - problem.horizon[0]
        budget = 50

        def score(mode, seed):
            cfg = EngineConfig(
                mode=mode, budget=budget,
                warmup=WarmupConfig(lhd=2),
                fixed_interval=span / (budget + 3),
                train=TrainConfig(restarts=3, max_iters=80),
                pso=PsoConfig(particles=30, iterations=60),
                seed=seed,
            )
            trace = run(problem, cfg)
            assert trace.n_scored == budget
            return offline_performance(ScoredSeries(trace.scored_values, 5))

        adaptive, naive, wins = [], [], 0
        for seed in range(10):
            b_f = score(Mode.ABO_FIXED, seed)
            b_s = score(Mode.STANDARD_BO, seed)
            adaptive.append(b_f)
            naive.append(b_s)
            wins += b_f < b_s
        assert np.mean(adaptive) < np.mean(naive), (
            f"mean {np.mean(adaptive):.4f} vs {np.mean(naive):.4f}"
        )
        assert wins >= 7, f"only {wins}/10 paired wins"

    _report(7, "time-aware mode beats time-naive control on drifting objective", 600, body)


def test_criterion_08_adaptive_step_count():
    def body():
        from dynabo.problems import Problem

        def drift(x, t):
            return float((x[0] - 0.3 - 0.4 * np.sin(3 * t)) ** 2 + 0.1 * t)

        problem = Problem("drift", Box(np.zeros(1), np.ones(1)), (0.0, 1.0), drift)
        counts = {}
        for lt in (0.05, 0.5):
            hp = Hyperparameters.default(1, KernelSpec(), spatial_scale=0.3,
                                         temporal_scale=lt, noise_variance=1e-6)
            cfg = EngineConfig(
                mode=Mode.ABO_ADAPTIVE_TIME, budget=500,
                min_lookahead=0.01, lookahead_fraction=1.0,
                warmup=WarmupConfig(lhd=2, span=0.05), fixed_hp=hp,
                pso=PsoConfig(particles=16, iterations=30), seed=8,
            )
            counts[lt] = run(problem, cfg).n_scored
        assert counts[0.05] >= 3 * counts[0.5], counts

    _report(8, "short temporal scale triples the induced step budget", 300, body)


def test_criterion_09_hyperparameter_recovery():
    def body():
        spec = KernelSpec(KernelForm.SE, KernelForm.SE)
        true_hp = Hyperparameters(
            log_spatial_lengthscales=np.log([0.4, 0.8]),
            log_temporal_lengthscale=float(np.log(0.6)),
            log_signal_variance=0.0,
            log_noise_variance=float(np.log(1e-4)),
        )
        want = np.concatenate(
            [true_hp.log_spatial_lengthscales, [true_hp.log_temporal_lengthscale]]
        )
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            pts = rng.uniform(0, 3, size=(60, 3))
            k = gram(pts, spec, true_hp, with_noise=True)
            y = np.linalg.cholesky(k) @ rng.normal(size=60)
            start = Hyperparameters.default(2, spec)
            bounds = default_log_bounds(spec, [3.0, 3.0], 3.0)
            result = train(
                Dataset(pts, y), spec, start,
                TrainConfig(restarts=5, max_iters=200, log_bounds=bounds), seed,
            )
            got = np.concatenate(
                [result.hp.log_spatial_lengthscales, [result.hp.log_temporal_lengthscale]]
            )
            hits += np.max(np.abs(got - want)) <= 0.5
        assert hits >= 8, f"{hits}/10 recoveries"

    _report(9, "training recovers generating log length-scales", 300, body)


def test_criterion_10_end_to_end_determinism(tmp_path):
    def body():
        out = tmp_path / "out"
        config = {
            "schema": 1,
            "problem": {"kind": "standard", "name": "camel6", "seed": 3},
            "modes": ["abo_fixed", "abo_adaptive_time"],
            "repetitions": 2,
            "budget": 3,
            "train_restarts": 2,
            "train_max_iters": 30,
            "pso_particles": 10,
            "pso_iterations": 15,
            "output_dir": str(out),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli_main(["run", str(path)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert any(name.endswith(".csv") for name in first)
        assert cli_main(["run", str(path)]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    _report(10, "identical config produces bitwise-identical artifacts", 120, body)


def _space_time_gp_sample(lx: float, lt: float, seed: int, features: int = 400):
    """One draw from a zero-mean GP on [0, 1] x [0, 1] with the product SE
    kernel ``exp(-dx^2 / (2 lx^2) - dt^2 / (2 lt^2))``, approximated by
    random Fourier features (Rahimi & Recht, NeurIPS 2007).  The same seed
    gives the same standard draws at every scale, so two samples that share
    a seed differ only in how fast time runs."""
    from dynabo.problems import Problem

    rng = np.random.default_rng(seed)
    w_x = rng.normal(size=features) / lx
    w_t = rng.normal(size=features) / lt
    phase = rng.uniform(0, 2 * np.pi, size=features)
    weights = rng.normal(size=features) * np.sqrt(2 / features)

    def f(x, t):
        return float(weights @ np.cos(w_x * x[0] + w_t * t + phase))

    return Problem("gp_sample", Box(np.zeros(1), np.ones(1)), (0.0, 1.0), f)


def test_criterion_11_trained_step_budget_follows_true_temporal_scale():
    def body():
        # trained hyperparameters, so the window follows the learnt lt_hat;
        # criterion 8 fixes them
        fast, slow = 0.03, 0.3
        steps = {fast: [], slow: []}
        medians = {fast: [], slow: []}
        for seed in range(10):
            for lt_true in (fast, slow):
                cfg = EngineConfig(
                    mode=Mode.ABO_ADAPTIVE_TIME, budget=200, min_lookahead=0.005,
                    warmup=WarmupConfig(lhd=4, span=0.05),
                    train=TrainConfig(restarts=3, max_iters=100),
                    pso=PsoConfig(particles=30, iterations=60), seed=seed,
                )
                trace = run(_space_time_gp_sample(0.3, lt_true, seed), cfg)
                assert not trace.aborted
                steps[lt_true].append(trace.n_scored)
                medians[lt_true].append(
                    float(np.median([s.lt_hat for s in trace.steps if s.phase == "scored"]))
                )
        ratios = np.divide(steps[fast], steps[slow])
        # a run that oversteps a fast truth early can lose sight of it and
        # settle on a long scale, so the pairs hold by majority; a window of
        # fixed width gives about as many steps at either scale
        assert np.sum(ratios >= 1.5) >= 7, (steps, ratios)
        assert np.sum(steps[fast]) >= 3 * np.sum(steps[slow]), steps
        for lt_true in (fast, slow):
            got = np.array(medians[lt_true])
            assert np.all((got > lt_true / 10) & (got < lt_true * 10)), (lt_true, got)
            assert lt_true / 3 < np.median(got) < lt_true * 3, (lt_true, got)

    _report(11, "trained step budget follows the true temporal scale", 60, body)
