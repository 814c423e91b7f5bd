"""The benchmark's own checks: each rejects a corrupted input, and the oracles
reproduce the stated optima.  Run with ``python3 -m pytest bench``."""

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("time_dim", [0, 1])
def test_branin_oracle_reproduces_global_minimum(time_dim):
    oracle = checks.BraninSlices(time_dim)
    ts = np.linspace(0.0, 1.0, 201)
    i = int(np.argmin([oracle.fstar(t) for t in ts]))
    res = minimize_scalar(oracle.fstar, bounds=(ts[max(i - 1, 0)], ts[min(i + 1, 200)]),
                          method="bounded", options={"xatol": 1e-12})
    assert abs(res.fun - checks.BRANIN_GLOBAL_MIN) < 1e-9


def test_branin_oracle_lies_below_every_slice_value():
    oracle = checks.BraninSlices(1)
    rng = np.random.default_rng(0)
    for t in rng.uniform(0, 1, 20):
        xs = rng.uniform(0, 1, (200, 1))
        assert oracle.fstar(t) <= oracle.value(xs, t).min() + 1e-12


def test_styblinski_tang_oracle_is_the_slice_minimum():
    oracle = checks.StyblinskiTangSlices(7)
    x = np.full(6, -2.903534018185960)
    for t in (-4.0, 0.3, 2.9):
        assert oracle.value(x, t) == pytest.approx(oracle.fstar(t), abs=1e-9)


def _valid(oracle, n=12, seed=0):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(*oracle.horizon, n))
    x = rng.uniform(oracle.lower, oracle.upper, (n, oracle.lower.size))
    y = np.array([oracle.value(xi, ti) for xi, ti in zip(x, t)])
    scored = np.arange(n) >= 2
    return checks.Samples(x, t, y, scored, t - 0.01, t + 0.01)


def _every_check(s, oracle, budget):
    return (checks.check_domain(s, oracle) + checks.check_windows(s)
            + checks.check_budget(s, budget) + checks.check_values(s, oracle)
            + checks.check_above_oracle(s, oracle))


@pytest.mark.parametrize("oracle", [checks.BraninSlices(1), checks.StyblinskiTangSlices(7)])
def test_valid_samples_pass_every_check(oracle):
    assert _every_check(_valid(oracle), oracle, 10) == []


def _corrupt(field, oracle):
    s = _valid(oracle)
    if field == "box":
        s.x[3, 0] = oracle.upper[0] + 1e-9
    elif field == "horizon":
        s.t[-1] = oracle.horizon[1] + 1e-9
    elif field == "order":
        s.t[5] = s.t[4]
    elif field == "window":
        s.window_hi[6] = s.t[6] - 1e-12
    elif field == "value":
        s.y[7] *= 1 + 1e-6
    elif field == "oracle":
        s.y[8] = oracle.fstar(s.t[8]) - 1e-6
    return s


@pytest.mark.parametrize(
    "field, check",
    [
        ("box", checks.check_domain),
        ("horizon", checks.check_domain),
        ("order", checks.check_domain),
        ("window", lambda s, o: checks.check_windows(s)),
        ("value", checks.check_values),
        ("oracle", checks.check_above_oracle),
    ],
)
@pytest.mark.parametrize("oracle", [checks.BraninSlices(0), checks.StyblinskiTangSlices(7)])
def test_each_check_rejects_its_corruption(field, check, oracle):
    assert check(_corrupt(field, oracle), oracle)


def test_budget_check_rejects_a_short_run():
    s = _valid(checks.BraninSlices(1))
    assert checks.check_budget(s, 10) == []
    s.scored[-1] = False
    assert checks.check_budget(s, 10)


def test_windowed_regret_takes_the_trailing_minimum():
    class Flat:
        def fstar(self, t):
            return 0.0

    y = np.array([5.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    s = checks.Samples(np.zeros((8, 1)), np.arange(8.0), y, np.ones(8, bool), y, y)
    assert checks.windowed_regret(s, Flat()).tolist() == [5, 3, 3, 3, 3, 3, 3, 4]


def test_posterior_check_accepts_dynabo_and_rejects_a_shift():
    from dynabo import Dataset, GpModel, Hyperparameters, KernelSpec

    rng = np.random.default_rng(3)
    points = rng.uniform(0, 1, (25, 3))
    y = np.sin(4 * points[:, 0]) + points[:, 2] ** 2
    hp = Hyperparameters.default(2, KernelSpec(), spatial_scale=0.4, temporal_scale=0.3)
    query = rng.uniform(0, 1, (40, 3))
    mean, var = GpModel.fit(Dataset(points, y), KernelSpec(), hp).predict(query)
    want = checks.se_posterior(points, y, query, np.log([0.4, 0.4]), np.log(0.3), 0.0, np.log(1e-4))
    scale = float(np.std(y))
    assert checks.check_posterior(mean, var, *want, scale=scale) == []
    assert checks.check_posterior(mean + 1e-5 * scale, var, *want, scale=scale)
    assert checks.check_posterior(mean, var * (1 + 1e-4), *want, scale=scale)


def _summary(path, b, steps):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["mode", "repetition", "B", "steps", "iters_pct_diff", "partial"])
        w.writerow(["tvb", "0", repr(b), repr(float(steps)), "0.0", "0"])


def test_summary_check_recomputes_offline_performance(tmp_path):
    oracle = checks.BraninSlices(1)
    s = _valid(oracle)
    good = checks.offline_performance(s.y[s.scored])
    _summary(tmp_path / "ok.csv", good, 10)
    assert checks.check_summary(tmp_path / "ok.csv", "tvb", 0, s) == []
    _summary(tmp_path / "b.csv", good + 1e-9, 10)
    assert checks.check_summary(tmp_path / "b.csv", "tvb", 0, s)
    _summary(tmp_path / "steps.csv", good, 9)
    assert checks.check_summary(tmp_path / "steps.csv", "tvb", 0, s)
    assert checks.check_summary(tmp_path / "ok.csv", "abo_fixed", 0, s)


def test_identity_check_rejects_a_changed_or_missing_file(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "trace.csv").write_text("step,t\n0,0.5\n")
        (d / "summary.csv").write_text("B\n1.0\n")
    assert checks.check_identical(a, b) == []
    (b / "trace.csv").write_text("step,t\n0,0.50000001\n")
    assert checks.check_identical(a, b)
    (b / "trace.csv").unlink()
    assert checks.check_identical(a, b)


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    emitted = tracing.Tracer().layer_metrics(0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: tracing.unit(name) for name in emitted
    }
