"""Loop-level tests: window law, detector, heuristic switching, full runs.

Full-run tests use tiny swarm/training budgets; they exercise the loop
contracts (phases, time ordering, window containment, determinism), not
optimization quality.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynabo.engine as engine_mod
from dynabo import gp
from dynabo.acquisition import ExpectedImprovement, LowerConfidenceBound, PosteriorMean
from dynabo.engine import (
    DetectorConfig,
    EngineConfig,
    Mode,
    RunTrace,
    WarmupConfig,
    check_horizon,
    choose_heuristic,
    feasible_window,
    learning_detector,
    run,
)
from dynabo.gp import TrainConfig, TrainingError
from dynabo.kernels import Hyperparameters, KernelForm, KernelSpec
from dynabo.optimizer import Box, PsoConfig
from dynabo.problems import Problem, make_standard


def drifting_bowl(horizon=(0.0, 1.0)):
    def f(x, t):
        return float((x[0] - 0.3 - 0.4 * np.sin(3.0 * t)) ** 2 + 0.1 * t)

    return Problem("bowl", Box(np.zeros(1), np.ones(1)), horizon, f)


def frozen_hp(lt, spatial=0.3):
    return Hyperparameters.default(
        1, KernelSpec(), spatial_scale=spatial, temporal_scale=lt, noise_variance=1e-6
    )


def small_cfg(**kw):
    defaults = dict(
        mode=Mode.ABO_FIXED,
        budget=4,
        fixed_interval=0.05,
        min_lookahead=0.01,
        warmup=WarmupConfig(lhd=2, span=0.1),
        fixed_hp=frozen_hp(0.5),
        pso=PsoConfig(particles=10, iterations=15),
        seed=7,
    )
    defaults.update(kw)
    return EngineConfig(**defaults)


# ---- feasible_window


def test_window_direct_substitution():
    assert feasible_window(1.0, 0.1, 0.5, 2.0) == (1.1, 2.0)


def test_window_degenerate_clamp():
    assert feasible_window(0.0, 0.5, 1.0, 0.2) == (0.5, 0.5)


def test_window_full_fraction_one_lengthscale_ahead():
    lo, hi = feasible_window(2.0, 1e-12, 1.0, 0.7)
    assert hi == pytest.approx(2.7)
    assert lo == pytest.approx(2.0, abs=1e-9)


@given(
    t_c=st.floats(-100, 100),
    delta=st.floats(1e-6, 10),
    frac=st.floats(1e-6, 1.0),
    lt=st.floats(1e-6, 100),
)
@settings(max_examples=300, deadline=None)
def test_window_law(t_c, delta, frac, lt):
    lo, hi = feasible_window(t_c, delta, frac, lt)
    assert lo == t_c + delta
    assert hi == max(lo, t_c + frac * lt)
    assert lo <= hi


# ---- learning_detector


def test_detector_constant_history_learned():
    assert learning_detector([2.0, 2.0, 2.0, 2.0], 3, 0.1)


def test_detector_fast_change_not_learned():
    # 2.0 -> 5.0 over 3 steps: average change 1.0 per step
    assert not learning_detector([2.0, 3.0, 4.0, 5.0], 3, 0.1)


def test_detector_short_history_not_learned():
    assert not learning_detector([2.0, 2.0, 2.0], 3, 0.1)
    assert not learning_detector([], 3, 0.1)


def test_detector_boundary_inclusive():
    # average change exactly at the rate counts as settled, both signs
    assert learning_detector([1.0, 2.0, 3.0, 4.0], 3, 1.0)
    assert learning_detector([4.0, 3.0, 2.0, 1.0], 3, 1.0)
    assert not learning_detector([1.0, 2.0, 3.0, 4.0], 3, 0.99)


@given(
    history=st.lists(st.floats(0.01, 10), min_size=0, max_size=12),
    window=st.integers(1, 5),
    rate=st.floats(0.01, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_detector_matches_direct_formula(history, window, rate):
    got = learning_detector(history, window, rate)
    if len(history) <= window:
        assert got is False
    else:
        delta = (history[-1] - history[-1 - window]) / window
        assert got == (abs(delta) <= rate + 1e-15)


# ---- choose_heuristic


def test_heuristic_switch_table():
    base = LowerConfidenceBound(2.0)
    assert choose_heuristic(True, True, base) == PosteriorMean()
    assert choose_heuristic(True, False, base) == base
    assert choose_heuristic(False, True, base) == base
    assert choose_heuristic(False, False, base) == base


# ---- config validation


def test_config_rejects_bad_fraction():
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        small_cfg(lookahead_fraction=1.5)
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        small_cfg(lookahead_fraction=0.0)


def test_config_rejects_nonpositive_scalars():
    with pytest.raises(ValueError):
        small_cfg(budget=0)
    with pytest.raises(ValueError):
        small_cfg(min_lookahead=0.0)
    with pytest.raises(ValueError):
        small_cfg(fixed_interval=-1.0)


def test_config_accepts_wire_names():
    cfg = small_cfg(mode="abo_adaptive_time")
    assert cfg.mode is Mode.ABO_ADAPTIVE_TIME


def test_standard_bo_requires_one_plain_form():
    with pytest.raises(ValueError):
        small_cfg(
            mode=Mode.STANDARD_BO,
            kernel=KernelSpec(KernelForm.SE, KernelForm.MATERN12),
        )
    with pytest.raises(ValueError):
        small_cfg(
            mode=Mode.STANDARD_BO,
            kernel=KernelSpec(KernelForm.SUM, KernelForm.SUM),
        )


def test_tied_lengthscales_need_plain_forms():
    tie_all = TrainConfig(tie_lengthscales="all")
    with pytest.raises(ValueError, match="plain kernel forms"):
        small_cfg(kernel=KernelSpec(KernelForm.SUM, KernelForm.SE), train=tie_all)
    # tvb fits the exponential temporal form in place of the sum, so this ties
    small_cfg(mode=Mode.TVB, kernel=KernelSpec(KernelForm.SE, KernelForm.SUM), train=tie_all)


# ---- run: loop contracts


def assert_loop_invariants(trace: RunTrace, problem: Problem):
    times = [s.t for s in trace.steps]
    assert np.all(np.diff(times) > 0), "times must strictly increase"
    for s in trace.steps:
        assert s.window_lo - 1e-9 <= s.t <= s.window_hi + 1e-9
        assert problem.spatial_bounds.contains(s.x, atol=1e-9)


def test_budget_counts_scored_steps_only():
    prob = drifting_bowl()
    trace = run(prob, small_cfg(budget=3, warmup=WarmupConfig(lhd=2, bo_steps=2, span=0.1)))
    phases = [s.phase for s in trace.steps]
    assert phases == ["warmup"] * 4 + ["scored"] * 3
    assert trace.n_scored == 3
    assert_loop_invariants(trace, prob)


def test_budget_one_single_scored_step():
    trace = run(drifting_bowl(), small_cfg(budget=1))
    assert trace.n_scored == 1
    scored = [s for s in trace.steps if s.phase == "scored"]
    assert scored[0].window_lo - 1e-9 <= scored[0].t <= scored[0].window_hi + 1e-9


def test_fixed_modes_constant_interval():
    prob = drifting_bowl()
    for mode in (Mode.ABO_FIXED, Mode.TVB, Mode.STANDARD_BO):
        trace = run(prob, small_cfg(mode=mode, budget=4))
        scored = [s for s in trace.steps if s.phase == "scored"]
        deltas = np.diff([trace.steps[1].t] + [s.t for s in scored])
        assert np.allclose(deltas, 0.05, atol=1e-12)
        # a slice is a zero-width window
        assert all(s.window_lo == s.window_hi for s in scored)


def test_warmup_lhd_samples_inside_initial_span():
    trace = run(drifting_bowl(), small_cfg())
    lhd = trace.steps[:2]
    assert all(s.phase == "warmup" for s in lhd)
    assert all(0.0 <= s.t <= 0.1 for s in lhd)
    assert all(np.isnan(s.lt_hat) for s in lhd)


def test_adaptive_mode_windows_recorded_and_contained():
    prob = drifting_bowl()
    cfg = small_cfg(mode=Mode.ABO_ADAPTIVE_TIME, budget=50, fixed_hp=frozen_hp(0.2))
    trace = run(prob, cfg)
    assert_loop_invariants(trace, prob)
    t_end = prob.horizon[1]
    scored = [s for s in trace.steps if s.phase == "scored"]
    assert scored, "expected at least one scored step"
    for s in scored:
        assert s.window_hi <= t_end + 1e-9


def test_adaptive_mode_terminates_at_horizon_end():
    prob = drifting_bowl()
    # generous budget: the horizon, not the budget, must stop the run
    cfg = small_cfg(mode=Mode.ABO_ADAPTIVE_TIME, budget=500, fixed_hp=frozen_hp(0.3))
    trace = run(prob, cfg)
    assert not trace.aborted
    assert trace.n_scored < 500
    last_t = trace.steps[-1].t
    assert last_t <= prob.horizon[1] + 1e-9
    # the next window would start past the horizon
    assert last_t + 0.01 > prob.horizon[1] or trace.steps[-1].window_hi == prob.horizon[1]


def test_adaptive_step_count_tracks_frozen_lengthscale():
    prob = drifting_bowl()
    counts = {}
    for lt in (0.05, 0.5):
        cfg = small_cfg(
            mode=Mode.ABO_ADAPTIVE_TIME, budget=300, fixed_hp=frozen_hp(lt),
            warmup=WarmupConfig(lhd=2, span=0.05),
        )
        counts[lt] = run(prob, cfg).n_scored
    assert counts[0.05] > counts[0.5]


def test_flexible_switches_to_exploit_and_stays_tagged():
    prob = drifting_bowl(horizon=(0.0, 4.0))
    cfg = small_cfg(
        budget=8, fixed_interval=0.2, warmup=WarmupConfig(lhd=2, span=0.2),
        flexible_heuristics=True, detector=DetectorConfig(window=3, rate=0.1),
    )
    trace = run(prob, cfg)
    tags = [s.heuristic for s in trace.steps if s.phase == "scored"]
    # frozen hp settles the detector once enough history exists
    assert tags[:3] == ["explore_exploit"] * 3
    assert set(tags[3:]) == {"pure_exploit"}


def test_flexible_off_constant_heuristic():
    trace = run(drifting_bowl(), small_cfg(budget=5))
    assert {s.heuristic for s in trace.steps} == {"explore_exploit"}


def test_tvb_ignores_flexible_flag():
    prob = drifting_bowl(horizon=(0.0, 4.0))
    cfg = small_cfg(
        mode=Mode.TVB, budget=8, fixed_interval=0.2,
        warmup=WarmupConfig(lhd=2, span=0.2), flexible_heuristics=True,
    )
    trace = run(prob, cfg)
    assert {s.heuristic for s in trace.steps} == {"explore_exploit"}


def test_posterior_mean_base_constant_tag():
    trace = run(drifting_bowl(), small_cfg(budget=3, acquisition=PosteriorMean()))
    assert {s.heuristic for s in trace.steps} == {"pure_exploit"}


def test_expected_improvement_base_runs():
    # placeholder incumbent is replaced each step with the windowed best
    trace = run(drifting_bowl(), small_cfg(budget=3, acquisition=ExpectedImprovement(0.0)))
    assert trace.n_scored == 3
    assert {s.heuristic for s in trace.steps} == {"explore_exploit"}


def test_incumbent_is_windowed_minimum():
    prob = drifting_bowl()
    w = 3
    cfg = small_cfg(budget=6, detector=DetectorConfig(window=w, rate=0.1))
    trace = run(prob, cfg)
    ys = [s.y for s in trace.steps]
    for inc in trace.incumbents:
        upto = ys[: inc.step_index + 1]
        assert inc.y == pytest.approx(min(upto[-w:]))
    assert len(trace.incumbents) == trace.n_scored


def test_deterministic_rerun():
    prob = drifting_bowl()
    cfg = small_cfg(
        budget=4, fixed_hp=None, train=TrainConfig(restarts=2, max_iters=30), seed=13
    )
    a, b = run(prob, cfg), run(prob, cfg)
    assert len(a.steps) == len(b.steps)
    for s, t in zip(a.steps, b.steps):
        assert s.t == t.t and s.y == t.y and np.array_equal(s.x, t.x)
        assert np.array_equal(s.lt_hat, t.lt_hat, equal_nan=True)
        assert s.heuristic == t.heuristic


def test_seed_changes_trace():
    prob = drifting_bowl()
    a = run(prob, small_cfg(seed=1))
    b = run(prob, small_cfg(seed=2))
    assert any(s.t != t.t or s.y != t.y for s, t in zip(a.steps, b.steps))


def test_trained_run_records_lengthscales():
    prob = drifting_bowl()
    cfg = small_cfg(budget=3, fixed_hp=None, train=TrainConfig(restarts=2, max_iters=30))
    trace = run(prob, cfg)
    scored = [s for s in trace.steps if s.phase == "scored"]
    assert all(np.isfinite(s.lt_hat) and s.lt_hat > 0 for s in scored)


@pytest.mark.parametrize(
    "spatial, temporal",
    [(KernelForm.SUM, KernelForm.SUM), (KernelForm.SE, KernelForm.SUM),
     (KernelForm.SUM, KernelForm.MATERN12)],
)
def test_trained_sum_form_run_scores_its_budget(spatial, temporal):
    prob = drifting_bowl()
    cfg = small_cfg(
        budget=4, fixed_hp=None, kernel=KernelSpec(spatial, temporal),
        pso=PsoConfig(particles=6, iterations=5), train=TrainConfig(restarts=2, max_iters=30),
    )
    trace = run(prob, cfg)
    assert not trace.aborted and trace.n_scored == 4
    assert_loop_invariants(trace, prob)
    scored = [s for s in trace.steps if s.phase == "scored"]
    assert all(np.isfinite(s.lt_hat) and s.lt_hat > 0 for s in scored)


def test_freeze_after_warmup_trains_once(monkeypatch):
    calls = []
    real_train = engine_mod.train

    def counting_train(*args, **kwargs):
        calls.append(1)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "train", counting_train)
    cfg = small_cfg(
        budget=4, fixed_hp=None, freeze_after_warmup=True,
        train=TrainConfig(restarts=2, max_iters=30),
    )
    trace = run(drifting_bowl(), cfg)
    assert trace.n_scored == 4
    assert len(calls) == 1


def test_training_failure_retries_then_aborts(monkeypatch):
    calls = []

    def failing_train(*args, **kwargs):
        calls.append(1)
        raise TrainingError("forced")

    monkeypatch.setattr(engine_mod, "train", failing_train)
    trace = run(drifting_bowl(), small_cfg(budget=4, fixed_hp=None))
    assert trace.aborted
    assert len(calls) == 2, "one retry with fresh restarts, then give up"
    assert trace.n_scored == 0
    assert all(s.phase == "warmup" for s in trace.steps)


def recording_train(monkeypatch, fail_at=None):
    """Patch ``engine.train`` to record each call's restart count; the call
    numbered ``fail_at`` (from 0) raises ``TrainingError`` instead."""
    restarts = []
    real_train = engine_mod.train

    def recorded(dataset, spec, init, config, seed):
        restarts.append(config.restarts)
        if len(restarts) - 1 == fail_at:
            raise TrainingError("forced")
        return real_train(dataset, spec, init, config, seed)

    monkeypatch.setattr(engine_mod, "train", recorded)
    return restarts


@pytest.mark.parametrize(
    ("fail_at", "want"),
    [
        (0, [3, 3, 1]),  # the first fit explores, and so does its retry
        (1, [3, 1, 3]),  # a fit from the previous one alone retries exploring
    ],
    ids=["first_fit", "warm_only_fit"],
)
def test_training_failure_once_recovers(monkeypatch, fail_at, want):
    restarts = recording_train(monkeypatch, fail_at=fail_at)
    cfg = small_cfg(budget=2, fixed_hp=None, train=TrainConfig(restarts=3, max_iters=30))
    trace = run(drifting_bowl(), cfg)
    assert not trace.aborted
    assert trace.n_scored == 2
    assert restarts == want


# ---- restart cadence


def test_fits_explore_on_every_other_step(monkeypatch):
    restarts = recording_train(monkeypatch)
    cfg = small_cfg(budget=5, fixed_hp=None, train=TrainConfig(restarts=3, max_iters=30))
    trace = run(drifting_bowl(), cfg)
    assert trace.n_scored == 5
    assert restarts == [3, 1, 3, 1, 3]


def test_warmup_fits_explore(monkeypatch):
    restarts = recording_train(monkeypatch)
    cfg = small_cfg(
        budget=2, fixed_hp=None, train=TrainConfig(restarts=3, max_iters=30),
        warmup=WarmupConfig(lhd=2, span=0.1, bo_steps=3),
    )
    trace = run(drifting_bowl(), cfg)
    assert trace.n_scored == 2
    # model-guided steps 0-2 are warmup: step 1 explores although it is odd
    assert restarts == [3, 3, 3, 1, 3]


def test_frozen_run_trains_only_exploring(monkeypatch):
    restarts = recording_train(monkeypatch)
    cfg = small_cfg(
        budget=3, fixed_hp=None, freeze_after_warmup=True,
        train=TrainConfig(restarts=3, max_iters=30),
        warmup=WarmupConfig(lhd=2, span=0.1, bo_steps=2),
    )
    trace = run(drifting_bowl(), cfg)
    assert trace.n_scored == 3
    assert restarts == [3, 3]


# ---- fits under unchanged hyperparameters append to the last one


def recording_fits(monkeypatch):
    """Patch ``engine.train`` and ``gp`` to record, in order, each training
    (``train``) and each fit by its path: ``append`` for a factor bordered
    by one row, ``fresh`` for one factorized afresh (only a fresh fit
    inverts a factor)."""
    events = []
    real_train, appended, tri_inv = engine_mod.train, gp._appended, gp._tri_inv

    def recorded_train(*args, **kwargs):
        events.append("train")
        return real_train(*args, **kwargs)

    def recorded_append(*args):
        out = appended(*args)
        if out is not None:
            events.append("append")
        return out

    def recorded_inverse(el):
        events.append("fresh")
        return tri_inv(el)

    monkeypatch.setattr(engine_mod, "train", recorded_train)
    monkeypatch.setattr(gp, "_appended", recorded_append)
    monkeypatch.setattr(gp, "_tri_inv", recorded_inverse)
    return events


def test_fixed_hyperparameter_run_appends_on_every_fit_but_its_first(monkeypatch):
    events = recording_fits(monkeypatch)
    cfg = small_cfg(mode=Mode.ABO_ADAPTIVE_TIME, budget=20, fixed_hp=frozen_hp(0.05))
    trace = run(drifting_bowl(), cfg)
    assert trace.n_scored == 20
    assert events == ["fresh"] + ["append"] * 19


def test_frozen_run_appends_on_every_fit_after_its_last_training(monkeypatch):
    events = recording_fits(monkeypatch)
    cfg = small_cfg(
        budget=6, fixed_hp=None, freeze_after_warmup=True,
        train=TrainConfig(restarts=2, max_iters=30),
        warmup=WarmupConfig(lhd=2, span=0.1, bo_steps=2),
    )
    trace = run(drifting_bowl(), cfg)
    assert trace.n_scored == 6
    assert events == ["train", "fresh"] * 2 + ["append"] * 6


def test_frozen_one_dimensional_searches_score_a_bounded_number_of_rows(monkeypatch):
    # a deterministic cost guard for the search: each step of a frozen
    # fixed-interval run on a 1-D problem searches one free coordinate, which
    # is a 65-point coarse batch of the 513-point line, one fine batch of at
    # most 15 points around each coarse local minimum, and at most one
    # parabola point; the swarm, which scored about 38 batches a step on the
    # benchmark's frozen_long, only searches a flat coarse batch
    from dynabo import optimizer

    searches = []
    search, evaluate = engine_mod.optimize_acquisition, optimizer.evaluate_on_model

    def counted_search(*args, **kwargs):
        searches.append([])
        return search(*args, **kwargs)

    def counted_batch(acq, model, points):
        scores = evaluate(acq, model, points)
        searches[-1].append(np.asarray(scores, dtype=float))
        return scores

    monkeypatch.setattr(engine_mod, "optimize_acquisition", counted_search)
    monkeypatch.setattr(optimizer, "evaluate_on_model", counted_batch)
    cfg = EngineConfig(mode=Mode.ABO_FIXED, budget=20, fixed_interval=1.0 / 28,
                       warmup=WarmupConfig(lhd=2, bo_steps=5), freeze_after_warmup=True)
    assert run(make_standard("branin_scaled", seed=0), cfg).n_scored == 20
    assert len(searches) == 25
    flat = rows = 0
    for batches in searches:
        coarse = batches[0]
        assert coarse.shape == (65,)
        best = coarse.min()
        if not np.isfinite(best) or coarse.max() - best <= 1e-6 * max(1.0, abs(best)):
            flat += 1
            continue
        walled = np.r_[np.inf, coarse, np.inf]
        minima = int(np.sum(np.isfinite(coarse) & (coarse <= walled[:-2])
                            & (coarse <= walled[2:])))
        searched = sum(b.size for b in batches)
        assert len(batches) <= 3
        assert searched <= 65 + 15 * minima + 1
        rows += searched
    assert flat <= 5  # only early warmup steps, whose scale training cannot pin yet
    assert rows <= 25 * 513 // 3  # a third of the 513-point line per search


def test_trained_run_never_appends(monkeypatch):
    events = recording_fits(monkeypatch)
    cfg = small_cfg(budget=4, fixed_hp=None, train=TrainConfig(restarts=2, max_iters=30))
    trace = run(drifting_bowl(), cfg)
    assert trace.n_scored == 4
    assert events == ["train", "fresh"] * 4


def test_scored_values_property():
    trace = run(drifting_bowl(), small_cfg(budget=3))
    vals = trace.scored_values
    assert vals.shape == (3,)
    assert np.all(np.isfinite(vals))


# ---- horizon


def test_run_rejects_warmup_span_longer_than_horizon():
    # EngineConfig defaults: span = 2 warmup samples x interval 1.0 on horizon (0, 1)
    problem = make_standard("branin_scaled", seed=0)
    cfg = EngineConfig(mode=Mode.ABO_FIXED)
    with pytest.raises(ValueError, match="warmup span"):
        check_horizon(problem, cfg)
    with pytest.raises(ValueError, match="warmup span"):
        run(problem, cfg)
    check_horizon(problem, replace(cfg, warmup=WarmupConfig(lhd=2, span=1.0)))


# ---- config that no fit can use: rejected before the first evaluation


def counted_branin():
    """branin_scaled (one spatial dimension, horizon (0, 1)) and the list of
    times its evaluations were asked for."""
    problem = make_standard("branin_scaled", seed=0)
    calls = []

    def evaluate(x, t):
        calls.append(t)
        return problem.evaluate(x, t)

    return replace(problem, evaluate=evaluate), calls


def branin_cfg(**kw):
    defaults = dict(mode=Mode.ABO_FIXED, budget=3, fixed_interval=0.1,
                    warmup=WarmupConfig(lhd=2, span=0.2), pso=PsoConfig(particles=6, iterations=5))
    defaults.update(kw)
    return EngineConfig(**defaults)


def test_fixed_hp_that_does_not_fit_the_mode_kernel_is_rejected_before_running():
    # tvb fits Matern 1/2 in time, one temporal length-scale: a sum-shaped
    # fixed_hp has two
    problem, calls = counted_branin()
    spec = KernelSpec(KernelForm.SE, KernelForm.SUM)
    with pytest.raises(ValueError, match="fixed_hp does not fit mode tvb: "
                       "the se x matern12 kernel needs log_temporal_lengthscale"):
        run(problem, branin_cfg(mode=Mode.TVB, kernel=spec,
                                fixed_hp=Hyperparameters.default(1, spec)))
    assert calls == []


def test_fixed_hp_of_another_dimension_is_rejected_before_running():
    problem, calls = counted_branin()
    with pytest.raises(ValueError, match="fixed_hp has spatial dimension 3, the problem 1"):
        run(problem, branin_cfg(fixed_hp=Hyperparameters.default(3, KernelSpec())))
    assert calls == []


def test_log_bounds_with_the_wrong_row_count_are_rejected_before_running():
    problem, calls = counted_branin()
    bounds = gp.default_log_bounds(KernelSpec(), [1.0, 1.0], 1.0)  # a spatial row too many
    with pytest.raises(ValueError, match=r"bounds must have shape \(4, 2\)"):
        run(problem, branin_cfg(train=TrainConfig(log_bounds=bounds)))
    assert calls == []


@pytest.mark.parametrize("row", [[1.0, -1.0], [-1.0, np.inf], [np.nan, 0.0]])
def test_inverted_or_nonfinite_log_bounds_are_rejected_before_running(row):
    problem, calls = counted_branin()
    bounds = gp.default_log_bounds(KernelSpec(), [1.0], 1.0)
    bounds[0] = row
    with pytest.raises(ValueError, match="low <= high"):
        run(problem, branin_cfg(train=TrainConfig(log_bounds=bounds)))
    assert calls == []


@pytest.mark.parametrize("mode", [Mode.ABO_FIXED, Mode.TVB, Mode.STANDARD_BO])
def test_fixed_interval_run_ends_at_horizon(mode):
    prob = drifting_bowl()
    trace = run(prob, small_cfg(mode=mode, budget=50, fixed_interval=0.2))
    assert not trace.aborted
    assert 0 < trace.n_scored < 50
    last_t = trace.steps[-1].t
    assert last_t <= prob.horizon[1]
    assert last_t + 0.2 > prob.horizon[1]


@given(
    mode=st.sampled_from(list(Mode)),
    t_start=st.floats(-5.0, 5.0),
    width=st.floats(0.2, 3.0),
    interval_share=st.floats(0.02, 0.6),
    span_share=st.floats(0.01, 1.0),
    lhd=st.integers(1, 3),
    bo_steps=st.integers(0, 2),
    lt=st.floats(0.05, 2.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_every_sample_lies_in_box_and_horizon(
    mode, t_start, width, interval_share, span_share, lhd, bo_steps, lt, seed
):
    horizon = (t_start, t_start + width)
    prob = Problem(
        "bowl2", Box(np.array([-1.0, 0.0]), np.array([0.5, 2.0])), horizon,
        lambda x, t: float((x[0] - np.sin(t)) ** 2 + (x[1] - 1.0) ** 2),
    )
    cfg = EngineConfig(
        mode=mode, budget=6, fixed_interval=interval_share * width,
        min_lookahead=0.5 * interval_share * width,
        warmup=WarmupConfig(lhd=lhd, bo_steps=bo_steps, span=span_share * width),
        fixed_hp=Hyperparameters.default(2, KernelSpec(), spatial_scale=0.5,
                                         temporal_scale=lt * width, noise_variance=1e-4),
        pso=PsoConfig(particles=6, iterations=4), seed=seed,
    )
    trace = run(prob, cfg)
    assert trace.steps
    for s in trace.steps:
        assert horizon[0] <= s.t <= horizon[1]
        assert prob.spatial_bounds.contains(s.x)
