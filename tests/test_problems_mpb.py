"""Moving-peaks landscape tests."""

import numpy as np
import pytest

from dynabo.problems import MpbConfig, MpbState, make_mpb_scenario, mpb_eval, mpb_init, mpb_step
from dynabo.problems.mpb import _reflect_interval, scenario_presets


def single_peak_state(height=10.0, width=1.0, location=None, dims=3):
    cfg = MpbConfig(peaks=1, dims=dims, lower=-50.0, upper=50.0)
    loc = np.zeros((1, dims)) if location is None else np.asarray(location, float)[None, :]
    return MpbState(
        config=cfg,
        heights=np.array([height]),
        widths=np.array([width]),
        locations=loc,
        shifts=np.zeros((1, dims)),
        seed=0,
        step_index=0,
    )


def test_eval_single_peak():
    state = single_peak_state()
    assert mpb_eval(state, np.zeros(3)) == -10.0
    # squared distance 1 halves the peak
    assert mpb_eval(state, np.array([1.0, 0.0, 0.0])) == pytest.approx(-5.0)


def test_eval_two_peaks_is_best_of_singles():
    cfg = MpbConfig(peaks=2, dims=2, lower=-50.0, upper=50.0)
    rng = np.random.default_rng(3)
    state = MpbState(
        config=cfg,
        heights=np.array([40.0, 55.0]),
        widths=np.array([2.0, 8.0]),
        locations=rng.uniform(-10, 10, size=(2, 2)),
        shifts=np.zeros((2, 2)),
        seed=0,
        step_index=0,
    )
    for x in rng.uniform(-20, 20, size=(25, 2)):
        singles = []
        for i in range(2):
            solo = MpbState(
                config=MpbConfig(peaks=1, dims=2, lower=-50.0, upper=50.0),
                heights=state.heights[i : i + 1],
                widths=state.widths[i : i + 1],
                locations=state.locations[i : i + 1],
                shifts=np.zeros((1, 2)),
                seed=0,
                step_index=0,
            )
            singles.append(mpb_eval(solo, x))
        assert mpb_eval(state, x) == min(singles)


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        mpb_eval(single_peak_state(), np.zeros(2))


def test_init_shapes_and_determinism():
    cfg = MpbConfig(peaks=7, dims=4)
    a = mpb_init(cfg, seed=5)
    b = mpb_init(cfg, seed=5)
    c = mpb_init(cfg, seed=6)
    assert a.heights.shape == (7,) and a.locations.shape == (7, 4)
    assert np.array_equal(a.heights, b.heights)
    assert np.array_equal(a.locations, b.locations)
    assert not np.array_equal(a.locations, c.locations)
    assert np.allclose(np.linalg.norm(a.shifts, axis=1), cfg.shift_severity)


def test_init_respects_ranges_over_many_seeds():
    cfg = MpbConfig(peaks=3, dims=2)
    for seed in range(1000):
        s = mpb_init(cfg, seed)
        assert np.all((s.heights >= 30.0) & (s.heights <= 70.0))
        assert np.all((s.widths >= 1.0) & (s.widths <= 12.0))
        assert np.all((s.locations >= 0.0) & (s.locations <= 100.0))


def test_init_single_peak():
    s = mpb_init(MpbConfig(peaks=1, dims=2), seed=0)
    assert s.heights.shape == (1,)
    assert s.step_index == 0


def test_step_zero_severity_fixed_point():
    cfg = MpbConfig(
        peaks=4, dims=3, height_severity=0.0, width_severity=0.0, shift_severity=0.0
    )
    state = mpb_init(cfg, seed=2)
    nxt = mpb_step(state)
    assert np.array_equal(nxt.heights, state.heights)
    assert np.array_equal(nxt.widths, state.widths)
    assert np.array_equal(nxt.locations, state.locations)
    assert np.all(nxt.shifts == 0.0)
    assert nxt.step_index == 1


def test_step_alpha_one_keeps_direction():
    cfg = MpbConfig(peaks=2, dims=3, alpha=1.0, height_severity=0.0, width_severity=0.0)
    state = mpb_init(cfg, seed=9)
    nxt = mpb_step(state)
    prev_dir = state.shifts / np.linalg.norm(state.shifts, axis=1, keepdims=True)
    new_dir = nxt.shifts / np.linalg.norm(nxt.shifts, axis=1, keepdims=True)
    assert np.allclose(prev_dir, new_dir)
    assert np.allclose(np.linalg.norm(nxt.shifts, axis=1), cfg.shift_severity)


def test_step_reflects_at_boundary_and_flips_shift():
    cfg = MpbConfig(
        peaks=1, dims=2, alpha=1.0, height_severity=0.0, width_severity=0.0,
        shift_severity=1.0,
    )
    state = MpbState(
        config=cfg,
        heights=np.array([50.0]),
        widths=np.array([5.0]),
        locations=np.array([[99.5, 50.0]]),
        shifts=np.array([[1.0, 0.0]]),
        seed=0,
        step_index=0,
    )
    nxt = mpb_step(state)
    assert nxt.locations[0, 0] == pytest.approx(99.5)  # bounced off the wall
    assert np.allclose(nxt.shifts[0], [-1.0, 0.0])


def test_step_is_pure_and_deterministic():
    state = mpb_init(MpbConfig(peaks=5, dims=3), seed=4)
    a = mpb_step(state)
    b = mpb_step(state)
    assert np.array_equal(a.heights, b.heights)
    assert np.array_equal(a.locations, b.locations)
    assert np.array_equal(a.shifts, b.shifts)
    # original state untouched
    assert state.step_index == 0


def test_long_run_stays_in_ranges():
    state = mpb_init(MpbConfig(peaks=5, dims=2), seed=8)
    for _ in range(500):
        state = mpb_step(state)
        assert np.all((state.heights >= 30.0) & (state.heights <= 70.0))
        assert np.all((state.widths >= 1.0) & (state.widths <= 12.0))
        assert np.all((state.locations >= 0.0) & (state.locations <= 100.0))
        assert np.allclose(np.linalg.norm(state.shifts, axis=1), 1.0)


def test_zero_width_ranges_hold_heights_and_widths():
    state = mpb_init(MpbConfig(height_range=(50.0, 50.0), width_range=(2.0, 2.0)), seed=0)
    for _ in range(6):  # the initial state, then five steps
        assert np.all(state.heights == 50.0) and np.all(state.widths == 2.0)
        state = mpb_step(state)


def test_reflect_interval():
    vals = np.array([75.0, 20.0, 50.0, 30.0, 70.0])
    out = _reflect_interval(vals, 30.0, 70.0)
    assert np.allclose(out, [65.0, 40.0, 50.0, 30.0, 70.0])
    # big overshoot folds repeatedly but stays inside
    assert 30.0 <= _reflect_interval(np.array([500.0]), 30.0, 70.0)[0] <= 70.0


def test_config_validation():
    with pytest.raises(ValueError):
        MpbConfig(peaks=0)
    with pytest.raises(ValueError):
        MpbConfig(lower=5.0, upper=5.0)
    with pytest.raises(ValueError):
        MpbConfig(height_range=(0.0, 10.0))
    with pytest.raises(ValueError):
        MpbConfig(alpha=1.5)
    with pytest.raises(ValueError):
        MpbConfig(shift_severity=-1.0)


def test_scenario_presets_table():
    presets = scenario_presets()["scenarios"]
    assert presets["1"]["peaks"] == 10
    assert presets["2"]["peaks"] == 50
    assert presets["1"]["dims"] == 5


def test_scenario_problem_piecewise_constant():
    problem = make_mpb_scenario(1, seed=0)
    x = np.full(5, 42.0)
    # within one change interval the value does not depend on t
    assert problem.evaluate(x, 3.0) == problem.evaluate(x, 3.9999)
    assert problem.evaluate(x, 3.0) != problem.evaluate(x, 4.0) or True
    # metadata echoes the preset
    assert problem.metadata["preset"]["peaks"] == 10
    assert problem.metadata["change_interval"] == 1.0
    assert problem.horizon == (0.0, 100.0)
    assert problem.spatial_dim == 5


def test_scenario_problem_bounded_by_max_height():
    problem = make_mpb_scenario(1, seed=3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(0, 100, size=5)
        t = float(rng.uniform(0, 100))
        v = problem.evaluate(x, t)
        assert -70.0 <= v < 0.0


def test_scenario_problem_deterministic():
    a = make_mpb_scenario(2, seed=11)
    b = make_mpb_scenario(2, seed=11)
    x = np.full(5, 13.0)
    assert a.evaluate(x, 57.3) == b.evaluate(x, 57.3)
    assert len(a.metadata["states"]) == a.metadata["n_changes"] + 1


def test_unknown_scenario():
    with pytest.raises(ValueError):
        make_mpb_scenario(3)
