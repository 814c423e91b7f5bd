"""The three benchmark workloads and their inputs.

Each workload runs a panel of engine runs (operations) whose size is fixed by
``--seconds``, so every run with the same arguments does the same work and
attempts the same number of operations.  ``NOMINAL_S`` is one panel entry's
wall time on the 2-core reference machine (OpenBLAS pinned to one thread); it
sizes the panel so a run lasts about ``--seconds`` there.

The engine seeds are fixed: entry ``k`` of a library panel runs with engine
seed ``k``, and every CLI round runs the README config as it stands (base
seed 0), the second one to check that it writes the same bytes.  The seeds do
not follow ``--seed``, because across engine seeds one run's figures vary
more than any bound the benchmark could hold: tracking regret from 0.0005 to
0.67 and speed from 22 to 51 evaluations/s on ``frozen_long``, and a quartile
spread of 0.16 to 0.21 on the adaptive p90 step time with six to eleven
engine runs per benchmark run, on top of the machine's own spread of about
0.13 for identical work.
"""

from __future__ import annotations

import json
from pathlib import Path

WORKLOADS = ("cli_readme", "adaptive_fixed_hp", "frozen_long")

# one CLI round (three modes), one adaptive engine run, one frozen engine run
NOMINAL_S = {"cli_readme": 17.0, "adaptive_fixed_hp": 3.9, "frozen_long": 19.0}

CLI_MODES = ("standard_bo", "abo_fixed", "tvb")
CLI_BUDGET = 17  # two rounds of three modes give 102 >= 100 scored steps

ADAPTIVE_SPATIAL_SCALE = 5.0
ADAPTIVE_TEMPORAL_SCALE = 0.08
ADAPTIVE_MIN_LOOKAHEAD = 0.04
ADAPTIVE_NOISE = 1e-4
ADAPTIVE_BUDGET = 1000  # never reached: the horizon ends the run first

FROZEN_BUDGET = 300
FROZEN_BO_WARMUP = 5


def panel_size(workload: str, seconds: int) -> int:
    """Operations (CLI: rounds of three) one run executes."""
    floor = 2 if workload == "cli_readme" else 1  # the CLI rerun checks determinism
    return max(floor, round(seconds / NOMINAL_S[workload]))


def cli_config() -> dict:
    """The README's minimal config, with the fixed-interval modes, one
    repetition, a budget that fits the run length, and plot data on."""
    return {
        "schema": 1,
        "problem": {"kind": "standard", "name": "branin_scaled", "seed": 0},
        "modes": list(CLI_MODES),
        "repetitions": 1,
        "budget": CLI_BUDGET,
        "output_dir": "runs",
        "emit_plot_data": True,
    }


def write_cli_config(directory: Path) -> Path:
    path = directory / "config.json"
    path.write_text(json.dumps(cli_config(), indent=2) + "\n")
    return path


def library_problem(workload: str):
    from dynabo import make_standard

    name = "styblinski_tang7" if workload == "adaptive_fixed_hp" else "branin_scaled"
    return make_standard(name, seed=0)


def library_config(workload: str, engine_seed: int):
    """Engine settings for one operation of a library workload."""
    from dynabo import EngineConfig, Hyperparameters, KernelSpec, Mode, PsoConfig, WarmupConfig

    if workload == "adaptive_fixed_hp":
        hp = Hyperparameters.default(
            6, KernelSpec(),
            spatial_scale=ADAPTIVE_SPATIAL_SCALE, temporal_scale=ADAPTIVE_TEMPORAL_SCALE,
            noise_variance=ADAPTIVE_NOISE,
        )
        return EngineConfig(
            mode=Mode.ABO_ADAPTIVE_TIME,
            budget=ADAPTIVE_BUDGET,
            min_lookahead=ADAPTIVE_MIN_LOOKAHEAD,
            warmup=WarmupConfig(lhd=10, span=0.2),
            fixed_hp=hp,
            pso=PsoConfig(particles=20, iterations=40),
            seed=engine_seed,
        )
    # the CLI's default interval rule keeps every step inside the horizon (0, 1)
    lhd = 2
    interval = 1.0 / (lhd + FROZEN_BO_WARMUP + FROZEN_BUDGET + 1)
    return EngineConfig(
        mode=Mode.ABO_FIXED,
        budget=FROZEN_BUDGET,
        fixed_interval=interval,
        warmup=WarmupConfig(lhd=lhd, bo_steps=FROZEN_BO_WARMUP),
        freeze_after_warmup=True,
        seed=engine_seed,
    )


def setup(workload: str, directory: Path, seconds: int):
    """Everything before optimisation can begin: import, config, problem.

    For the library workloads, returns the problem and one engine config per
    operation; the CLI does this work itself in every round.
    """
    if workload == "cli_readme":
        from dynabo.cli import build_problem, engine_config_for, load_config

        config = load_config(write_cli_config(directory))
        problem = build_problem(config)
        for mode in config.modes:
            engine_config_for(config, problem, mode, 0)
        return None
    configs = [library_config(workload, k) for k in range(panel_size(workload, seconds))]
    return library_problem(workload), configs
