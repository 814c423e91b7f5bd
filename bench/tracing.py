"""Spans around calls into dynabo's layers, recorded from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper in
the module namespace its caller looks it up in (``engine.train`` for the
engine's call into training, ``gp.gram`` for the GP's call into the kernels,
and so on) and puts every original back on exit.  Spans nest by call stack;
a span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the root span exactly.
Spans are kept in memory and written out once, after the traced run.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

# span name -> layer whose self time it counts toward
LAYER_OF = {
    "harness": "harness",
    "engine.run": "engine",
    "train": "train",
    "train.grad": "train",
    "train.probe": "train",
    "gp.fit": "gp",
    "gp.predict": "gp",
    "gp.chol": "gp",
    "kernels.gram": "kernels",
    "kernels.grad": "kernels",
    "kernels.cross_gram": "kernels",
    "search": "search",
    "search.pso": "search",
    "search.refine": "search",
    "search.batch": "search",
    "acquisition.score": "acquisition",
    "problem.evaluate": "problem",
    "cli.main": "cli",
    "cli.config": "cli",
    "metrics.summarize": "metrics",
    "io.write": "io",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_share"):
        return "share"
    if metric.endswith("_flops"):
        return "flop"
    return "B" if metric == "io.bytes" else "count"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent id]
        self._stack: list[list] = []  # [span id, child time]
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def end(self) -> None:
        end = time.perf_counter()
        span_id, child = self._stack.pop()
        span = self.spans[span_id]
        span[2] = end
        duration = end - span[1]
        if self._stack:
            self._stack[-1][1] += duration
        name = span[0]
        self.calls[name] += 1
        self.busy[name] += duration
        self.self_time[name] += duration - child

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, name, fn, after=None, on_error=None):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.end()
                if on_error is not None:
                    on_error(exc)
                raise
            self.end()
            if after is not None:
                after(args, out)
            return out

        return traced

    def wrap_problem(self, problem):
        """The problem with its ``evaluate`` traced."""
        evaluate = self.wrap("problem.evaluate", problem.evaluate)
        return replace(problem, evaluate=evaluate)

    # -- the traced functions -------------------------------------------

    @contextmanager
    def install(self):
        """Trace dynabo's layer functions for the duration of the block."""
        from dynabo import acquisition, cli, engine, gp, optimizer
        from dynabo.kernels import hp_to_vector

        c = self.counts

        def after_run(args, trace):
            c["engine.steps"] += len(trace.steps)
            c["engine.scored_steps"] += trace.n_scored

        def after_train(args, result):
            c["train.iterations"] += result.iterations
            bounds = np.asarray(args[3].log_bounds)
            theta = hp_to_vector(result.hp, args[1])
            tol = 1e-9 * np.maximum(1.0, np.abs(bounds))
            on_bound = (np.abs(theta - bounds[:, 0]) <= tol[:, 0]) | (
                np.abs(theta - bounds[:, 1]) <= tol[:, 1]
            )
            c["train.bound_hits"] += int(np.sum(on_bound))

        def train_error(exc):
            if isinstance(exc, gp.TrainingError):
                c["train.retries"] += 1

        def after_chol(args, out):
            n = len(args[0])
            c["gp.chol_jittered"] += out[1] > 0
            c["gp.chol_flops"] += n**3 / 3
            c["gp.n_max"] = max(c["gp.n_max"], n)

        def after_predict(args, out):
            c["gp.predict_points"] += np.atleast_2d(args[1]).shape[0]

        def after_cross(args, out):
            c["kernels.cross_gram_entries"] += out.size

        def after_batch(args, out):
            c["search.points"] += np.atleast_2d(args[2]).shape[0]

        def after_refine(args, out):
            c["search.refine_moved"] += not np.array_equal(out[0], np.asarray(args[1]).ravel())

        def traced_build_problem(config):
            return self.wrap_problem(build_problem(config))

        build_problem = cli.build_problem
        fit = gp.GpModel.__dict__["fit"].__func__
        patches = [
            (engine, "run", self.wrap("engine.run", engine.run, after_run)),
            (cli, "run", self.wrap("engine.run", cli.run, after_run)),
            (engine, "train", self.wrap("train", engine.train, after_train, train_error)),
            (gp, "lml_and_gradient", self.wrap("train.grad", gp.lml_and_gradient)),
            (gp, "log_marginal_likelihood", self.wrap("train.probe", gp.log_marginal_likelihood)),
            (gp.GpModel, "fit", classmethod(self.wrap("gp.fit", fit))),
            (gp.GpModel, "predict", self.wrap("gp.predict", gp.GpModel.predict, after_predict)),
            (gp, "chol_with_jitter", self.wrap("gp.chol", gp.chol_with_jitter, after_chol)),
            (gp, "gram", self.wrap("kernels.gram", gp.gram)),
            (gp, "grad_gram_log_hp", self.wrap("kernels.grad", gp.grad_gram_log_hp)),
            (gp, "cross_gram", self.wrap("kernels.cross_gram", gp.cross_gram, after_cross)),
            (engine, "optimize_acquisition", self.wrap("search", engine.optimize_acquisition)),
            (optimizer, "pso_minimize", self.wrap("search.pso", optimizer.pso_minimize)),
            (optimizer, "local_refine", self.wrap("search.refine", optimizer.local_refine, after_refine)),
            (optimizer, "evaluate_on_model", self.wrap("search.batch", optimizer.evaluate_on_model, after_batch)),
            (acquisition, "score", self.wrap("acquisition.score", acquisition.score)),
            (cli, "main", self.wrap("cli.main", cli.main)),
            (cli, "load_config", self.wrap("cli.config", cli.load_config)),
            (cli, "build_problem", self.wrap("cli.config", traced_build_problem)),
            (cli, "summarize", self.wrap("metrics.summarize", cli.summarize)),
            (cli, "write_trace_csv", self.wrap("io.write", cli.write_trace_csv)),
            (cli, "write_summary_csv", self.wrap("io.write", cli.write_summary_csv)),
            (cli, "write_plot_data", self.wrap("io.write", cli.write_plot_data)),
        ]
        originals = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
        try:
            for obj, attr, new in patches:
                setattr(obj, attr, new)
            yield self
        finally:
            for obj, attr, old in reversed(originals):
                setattr(obj, attr, old)

    # -- results ----------------------------------------------------------

    def layer_metrics(self, untraced_wall: float, io_dirs=()) -> dict[str, float]:
        """The per-layer metrics by name (see the benchmark README).

        ``untraced_wall`` is the wall time of the same work run untraced;
        ``io_dirs`` are the directories the traced CLI runs wrote.
        """
        n, b, s, c = self.calls, self.busy, self.self_time, self.counts
        files = [p for d in io_dirs for p in d.iterdir()]
        m = {
            "engine.runs": n["engine.run"],
            "engine.steps": c["engine.steps"],
            "engine.scored_steps": c["engine.scored_steps"],
            "train.calls": n["train"],
            "train.busy_s": b["train"],
            "train.iterations": c["train.iterations"],
            "train.grad_calls": n["train.grad"],
            "train.probe_calls": n["train.probe"],
            "train.retries": c["train.retries"],
            "train.bound_hits": c["train.bound_hits"],
            "gp.fit_calls": n["gp.fit"],
            "gp.fit_busy_s": b["gp.fit"],
            "gp.predict_calls": n["gp.predict"],
            "gp.predict_points": c["gp.predict_points"],
            "gp.predict_busy_s": b["gp.predict"],
            "gp.predict_self_s": s["gp.predict"],
            "gp.chol_calls": n["gp.chol"],
            "gp.chol_busy_s": b["gp.chol"],
            "gp.chol_jittered": c["gp.chol_jittered"],
            "gp.chol_flops": c["gp.chol_flops"],
            "gp.n_max": c["gp.n_max"],
            "kernels.gram_calls": n["kernels.gram"],
            "kernels.gram_busy_s": b["kernels.gram"],
            "kernels.grad_busy_s": b["kernels.grad"],
            "kernels.cross_gram_calls": n["kernels.cross_gram"],
            "kernels.cross_gram_entries": c["kernels.cross_gram_entries"],
            "kernels.cross_gram_busy_s": b["kernels.cross_gram"],
            "search.calls": n["search"],
            "search.busy_s": b["search"],
            "search.pso_self_s": s["search.pso"],
            "search.refine_busy_s": b["search.refine"],
            "search.batches": n["search.batch"],
            "search.points": c["search.points"],
            "search.refine_moved_share": c["search.refine_moved"] / max(n["search.refine"], 1),
            "acquisition.score_busy_s": b["acquisition.score"],
            "problem.evals": n["problem.evaluate"],
            "problem.busy_s": b["problem.evaluate"],
            "cli.config_busy_s": b["cli.config"],
            "metrics.busy_s": b["metrics.summarize"],
            "io.busy_s": b["io.write"],
            "io.files": len(files),
            "io.bytes": sum(p.stat().st_size for p in files),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(t for name, t in s.items() if LAYER_OF[name] == layer)
        m["trace.spans"] = len(self.spans)
        m["trace.wall_s"] = b["harness"]
        m["trace.self_sum_s"] = sum(s.values())
        m["trace.untraced_wall_s"] = untraced_wall
        m["trace.overhead_s"] = b["harness"] - untraced_wall
        return {k: float(v) for k, v in m.items()}

    def write(self, path) -> None:
        """Spans as CSV, times in seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["id", "parent", "name", "start_s", "end_s"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                w.writerow([i, parent, name, f"{start - origin:.9f}", f"{end - origin:.9f}"])
