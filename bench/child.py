"""Fresh-process steps of the benchmark.

    python3 bench/child.py setup <workload> <dir> <seconds>
        do a workload's set-up (import dynabo, validate the config, build the
        problem) and print the monotonic clock at the moment optimisation
        could begin; the parent reads it against its own spawn time.
    python3 bench/child.py cli <config> <stamps.json>
        ``dynabo run <config>`` through ``dynabo.cli.main``, as the console
        script does, recording the monotonic clock at every call into
        ``Problem.evaluate`` and when the CLI is ready and done.

``time.perf_counter`` is CLOCK_MONOTONIC on Linux, one clock for every
process, so stamps taken here and in the parent can be subtracted.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path


def _setup(workload: str, directory: str, seconds: str) -> int:
    import workloads

    workloads.setup(workload, Path(directory), int(seconds))
    print(repr(time.perf_counter()))
    return 0


def _cli(config: str, stamps_path: str) -> int:
    import dynabo.cli

    stamps: list[float] = []
    marks = {}
    build_problem = dynabo.cli.build_problem

    def stamped_problem(cfg):
        problem = build_problem(cfg)
        evaluate = problem.evaluate

        def stamped(x, t):
            stamps.append(time.perf_counter())
            return evaluate(x, t)

        marks["ready"] = time.perf_counter()
        return replace(problem, evaluate=stamped)

    dynabo.cli.build_problem = stamped_problem
    marks["main"] = time.perf_counter()
    code = dynabo.cli.main(["run", config])
    marks["done"] = time.perf_counter()
    Path(stamps_path).write_text(json.dumps({"marks": marks, "stamps": stamps}))
    return code


if __name__ == "__main__":
    verb, *rest = sys.argv[1:]
    sys.exit({"setup": _setup, "cli": _cli}[verb](*rest))
