"""dynabo benchmark: three workloads, end-to-end metrics, a traced per-layer split.

    python3 bench/run.py --workload <cli_readme|adaptive_fixed_hp|frozen_long>
                         --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it builds nothing and imports dynabo from
``src/``.  With ``--trace 0`` it times the workload's panel of engine runs and
prints the end-to-end metrics; with ``--trace 1`` it runs the same panel
untraced and then traced, and prints the per-layer metrics and the tracing
overhead.  Every engine run's outputs are checked (``checks.py``); the last
line of standard output is the result as one JSON object.  The inputs do not
depend on ``--seed`` (``workloads.py`` says why); it is recorded with the
result.  Files go to ``bench/out/<workload>/``, which each run empties first.
"""

from __future__ import annotations

import os

# pinned before numpy loads: at this problem size BLAS threading only adds noise
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_TAIL_SAMPLES = 100  # p90 needs ten samples beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "evals_per_s": "1/s",
    "step_p50_s": "s",
    "step_p90_s": "s",
    "peak_rss_mb": "MB",
    "tracking_regret": "objective",
}


@dataclass
class Op:
    """One engine run and what the benchmark found out about it."""

    label: str
    samples: object = None
    gaps: list = field(default_factory=list)
    regret: float = float("nan")
    errors: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# set-up


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def measure_setup(workload: str, seconds: int, out: Path) -> float:
    """Median wall time from spawning a fresh interpreter until the
    workload's set-up is done and optimisation could begin."""
    times = []
    for i in range(SETUP_REPEATS):
        directory = out / f"setup{i}"
        directory.mkdir()
        argv = [sys.executable, str(BENCH / "child.py"), "setup", workload,
                str(directory), str(seconds)]
        start = time.perf_counter()
        done = subprocess.run(argv, env=child_env(), capture_output=True, text=True, check=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# library workloads


def samples_of(trace):
    import numpy as np
    from checks import Samples

    steps = trace.steps
    return Samples(
        x=np.array([s.x for s in steps]),
        t=np.array([s.t for s in steps]),
        y=np.array([s.y for s in steps]),
        scored=np.array([s.phase == "scored" for s in steps]),
        window_lo=np.array([s.window_lo for s in steps]),
        window_hi=np.array([s.window_hi for s in steps]),
    )


def run_library_panel(problem, configs, tracer=None):
    """Run every engine config once; returns (ops, traces, wall seconds)."""
    from dynabo import engine

    ops, traces = [], []
    start = time.perf_counter()
    for cfg in configs:
        stamps: list[float] = []
        evaluate = problem.evaluate

        def stamped(x, t, evaluate=evaluate, stamps=stamps):
            stamps.append(time.perf_counter())
            return evaluate(x, t)

        op_problem = replace(problem, evaluate=stamped)
        if tracer is not None:
            op_problem = tracer.wrap_problem(op_problem)
        op = Op(f"seed {cfg.seed}")
        trace = None
        try:
            trace = engine.run(op_problem, cfg)
        except Exception as exc:  # an engine run that raises is a failed operation
            op.errors.append(f"engine raised {type(exc).__name__}: {exc}")
        if trace is not None:
            if trace.aborted:
                op.errors.append("run aborted")
            scored = [i for i, s in enumerate(trace.steps) if s.phase == "scored"]
            op.gaps = [stamps[i] - stamps[i - 1] for i in scored]
        ops.append(op)
        traces.append(trace)
    return ops, traces, time.perf_counter() - start


def check_library_op(workload: str, op: Op, trace, cfg, oracle) -> None:
    import checks
    import numpy as np
    import workloads as w
    from dynabo import Dataset, GpModel

    if trace is None:
        return
    s = op.samples = samples_of(trace)
    op.errors += checks.check_domain(s, oracle)
    op.errors += checks.check_values(s, oracle)
    op.errors += checks.check_above_oracle(s, oracle)
    if workload == "frozen_long":
        op.errors += checks.check_budget(s, cfg.budget)
    else:
        op.errors += checks.check_windows(s)
        # the program's posterior on the final dataset against a dense inverse
        points = np.column_stack([s.x, s.t])
        model = GpModel.fit(Dataset(points, s.y), cfg.kernel, cfg.fixed_hp)
        rng = np.random.default_rng(cfg.seed)
        near = points[rng.integers(len(points), size=32)] + rng.normal(
            0, np.append(np.full(s.x.shape[1], 0.5), 0.05), size=(32, points.shape[1]))
        anywhere = rng.uniform(np.append(oracle.lower, oracle.horizon[0]),
                               np.append(oracle.upper, oracle.horizon[1]), size=(32, points.shape[1]))
        query = np.vstack([near, anywhere])
        mean, var = model.predict(query)
        want = checks.se_posterior(
            points, s.y, query, np.full(s.x.shape[1], np.log(w.ADAPTIVE_SPATIAL_SCALE)),
            np.log(w.ADAPTIVE_TEMPORAL_SCALE), 0.0, np.log(w.ADAPTIVE_NOISE))
        op.errors += checks.check_posterior(mean, var, *want, scale=float(np.std(s.y)))
    if s.scored.any():
        op.regret = float(np.mean(checks.windowed_regret(s, oracle)))


def library_oracle(workload: str, problem):
    import checks

    if workload == "adaptive_fixed_hp":
        return checks.StyblinskiTangSlices(problem.metadata["static_dims"])
    return checks.BraninSlices(problem.metadata["time_dim"])


def run_library(workload, seconds, out, trace):
    import workloads

    problem, configs = workloads.setup(workload, out, seconds)
    oracle = library_oracle(workload, problem)
    ops, traces, wall = run_library_panel(problem, configs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for op, tr, cfg in zip(ops, traces, configs):
        check_library_op(workload, op, tr, cfg, oracle)
    if not trace:
        return ops, {"wall": wall, "peak_rss_mb": peak_rss_mb}
    from tracing import Tracer

    tracer = Tracer()
    with tracer.install(), tracer.span("harness"):
        traced_ops, traced, _ = run_library_panel(problem, configs, tracer)
    for op, tr, cfg in zip(traced_ops, traced, configs):
        op.label = "traced " + op.label
        check_library_op(workload, op, tr, cfg, oracle)
    return ops + traced_ops, {"wall": wall, "tracer": tracer, "io_dirs": []}


# ---------------------------------------------------------------------------
# the CLI workload


def run_cli_round(directory: Path):
    """One ``dynabo run`` in a fresh process; returns (exit code, stamps
    record, peak RSS in MB)."""
    import workloads

    directory.mkdir()
    workloads.write_cli_config(directory)
    argv = [sys.executable, str(BENCH / "child.py"), "cli", "config.json", "stamps.json"]
    with open(directory / "cli.log", "w") as log:
        proc = subprocess.Popen(argv, cwd=directory, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    record = None
    if code == 0:
        record = json.loads((directory / "stamps.json").read_text())
    return code, record, usage.ru_maxrss / 1024


def check_cli_round(directory: Path, code: int, stamps, oracle, reference: Path | None):
    """The three engine runs of one CLI round, checked; gaps from the stamps."""
    import checks
    import workloads

    ops = [Op(f"{directory.name} {mode}") for mode in workloads.CLI_MODES]
    if code != 0:
        for op in ops:
            op.errors.append(f"dynabo run exited {code}")
        return ops
    runs = directory / "runs"
    offset = 0
    for op, mode in zip(ops, workloads.CLI_MODES):
        try:
            s = op.samples = checks.read_cli_trace(runs / f"trace_{mode}_rep0.csv")
        except (OSError, KeyError, ValueError, IndexError) as exc:
            op.errors.append(f"unreadable trace: {exc}")
            continue
        op.errors += checks.check_domain(s, oracle)
        op.errors += checks.check_budget(s, workloads.CLI_BUDGET)
        op.errors += checks.check_values(s, oracle)
        op.errors += checks.check_above_oracle(s, oracle)
        op.errors += checks.check_summary(runs / "summary.csv", mode, 0, s)
        if stamps is not None:
            scored = [offset + i for i in range(len(s.t)) if s.scored[i]]
            op.gaps = [stamps[i] - stamps[i - 1] for i in scored]
        offset += len(s.t)
        if s.scored.any():
            op.regret = float(checks.windowed_regret(s, oracle).mean())
    if stamps is not None and len(stamps) != offset:
        ops[0].errors.append(f"{len(stamps)} evaluations for {offset} trace rows")
    if reference is not None:
        differ = checks.check_identical(reference, runs)
        for op in ops:
            op.errors += differ
    return ops


def run_cli(seconds, out, trace):
    import checks
    import workloads
    from dynabo.problems import make_standard

    oracle = checks.BraninSlices(make_standard("branin_scaled", seed=0).metadata["time_dim"])
    rounds = workloads.panel_size("cli_readme", seconds)
    ops, busy, untraced, rss = [], 0.0, 0.0, 0.0
    results = [run_cli_round(out / f"round{r}") for r in range(rounds)]
    for r, (code, record, peak) in enumerate(results):
        marks = record["marks"] if record else None
        if marks:
            busy += marks["done"] - marks["ready"]
            untraced += marks["done"] - marks["main"]
        rss = max(rss, peak)
        reference = out / "round0" / "runs" if r else None
        ops += check_cli_round(out / f"round{r}", code, record and record["stamps"], oracle, reference)
    if not trace:
        return ops, {"wall": busy, "peak_rss_mb": rss}
    from dynabo import cli
    from tracing import Tracer

    tracer = Tracer()
    dirs = []
    cwd = Path.cwd()
    with tracer.install(), tracer.span("harness"):
        for r in range(rounds):
            directory = out / f"traced{r}"
            directory.mkdir()
            workloads.write_cli_config(directory)
            os.chdir(directory)
            try:
                with open("cli.log", "w") as log, contextlib.redirect_stdout(log):
                    code = cli.main(["run", "config.json"])
            finally:
                os.chdir(cwd)
            dirs.append(directory / "runs")
            ops += check_cli_round(directory, code, None, oracle, out / "round0" / "runs")
    return ops, {"wall": untraced, "tracer": tracer, "io_dirs": dirs}


# ---------------------------------------------------------------------------
# results


def environment() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except OSError:
        sha = ""
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def end_to_end(ops, info, setup_s) -> dict:
    import numpy as np

    done = [op for op in ops if not op.errors]
    gaps = np.array([g for op in done for g in op.gaps])
    scored = sum(int(op.samples.scored.sum()) for op in done)
    return {
        "setup_s": setup_s,
        "evals_per_s": scored / info["wall"] if info["wall"] else float("nan"),
        "step_p50_s": float(np.percentile(gaps, 50)) if gaps.size else float("nan"),
        "step_p90_s": float(np.percentile(gaps, 90)) if gaps.size else float("nan"),
        "peak_rss_mb": info["peak_rss_mb"],
        "tracking_regret": float(np.mean([op.regret for op in done])) if done else float("nan"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "dynabo" / "__init__.py").is_file():
        print(f"bench: no dynabo package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    out = BENCH / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    setup_s = measure_setup(args.workload, args.seconds, out)
    if args.workload == "cli_readme":
        ops, info = run_cli(args.seconds, out, args.trace)
    else:
        ops, info = run_library(args.workload, args.seconds, out, args.trace)

    failed = [op for op in ops if op.errors]
    if args.trace:
        from tracing import unit

        metrics = info["tracer"].layer_metrics(info["wall"], info["io_dirs"])
        info["tracer"].write(out / "spans.csv")
        units = {name: unit(name) for name in metrics}
    else:
        metrics = end_to_end(ops, info, setup_s)
        units = END_TO_END_UNITS
        tail = sum(len(op.gaps) for op in ops if not op.errors)
        if tail < MIN_TAIL_SAMPLES:
            ops[0].errors.append(f"only {tail} scored steps; the p90 needs {MIN_TAIL_SAMPLES}")
            failed = [op for op in ops if op.errors]
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    env = environment()
    for name, value in metrics.items():
        print(f"{args.workload:18s} {name:28s} {value:14.6g} {units[name]}")
    print(f"{args.workload:18s} operations attempted {len(ops)}, failed {len(failed)}")
    for op in failed:
        print(f"FAILED {op.label}: {'; '.join(op.errors)}")
    print("environment " + json.dumps(env, sort_keys=True))
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env,
                  errors={op.label: op.errors for op in failed})
    (out / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
