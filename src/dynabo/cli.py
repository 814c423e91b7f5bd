"""Experiment runner: config loading, batch runs, trace/summary emission.

Verbs:
    run <config>            execute every (mode, repetition) pair, write
                            trace CSVs plus a summary CSV
    validate <config>       check a config and print its normalized form
    plot-data <trace...>    emit plot-ready long tables from trace files
    mpb-preview <scenario>  print the moving-peaks change schedule

All outputs are plain CSV/JSON with repr-formatted floats, so identical
configs produce bitwise-identical files at one BLAS thread count; threaded
BLAS rounds differently once a run holds 128 or more samples.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from dynabo import __version__
from dynabo.acquisition import ExpectedImprovement, LowerConfidenceBound, PosteriorMean
from dynabo.engine import (
    DetectorConfig,
    EngineConfig,
    Mode,
    RunTrace,
    WarmupConfig,
    check_horizon,
    run,
)
from dynabo.gp import TrainConfig
from dynabo.kernels import KernelForm, KernelSpec
from dynabo.metrics import ScoredSeries, TraceStats, best_so_far, summarize, windowed_best
from dynabo.optimizer import PsoConfig
from dynabo.problems import (
    Problem,
    ingest_sensor_csv,
    make_mpb_scenario,
    make_sensor_problem,
    make_standard,
    mpb_init,
    mpb_step,
    scenario_presets,
)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "normalize_config", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_ALL_ABORTED = 4

SCHEMA_VERSION = 1

TRACE_PREFIX = "trace"
SUMMARY_NAME = "summary.csv"


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending fields."""


# ---------------------------------------------------------------------------
# configuration schema
#
# One flat key space plus two structured fields: the problem selector and
# per-mode overrides.  Engine-level keys may be overridden per mode; null
# means "derive from the problem horizon" where noted.
#
# Each key space is one table of ``key: (default, rule)``: the top level,
# the engine keys (also each mode's override keys), and one per problem
# kind.  A rule is a ``(test, message)`` pair of one of the kinds below;
# ``_check_fields`` reports unknown keys and broken rules under the key
# space's prefix.  The engine dataclasses keep their own checks as the
# library's guard; these add the JSON types and name each field, and a test
# keeps the two in agreement.


def _is_number(value, integer: bool = False) -> bool:
    """A finite JSON number; with ``integer``, an integer.  ``bool`` is
    neither, although Python counts ``True`` as the int 1."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _integer(least: int, nullable: bool = False):
    """An integer of at least ``least``; with ``nullable``, or null."""
    what = {0: "a nonnegative integer", 1: "a positive integer"}.get(
        least, f"an integer of at least {least}"
    )
    return (
        lambda v: (nullable and v is None) or (_is_number(v, integer=True) and v >= least),
        f"must be {'null or ' if nullable else ''}{what}",
    )


def _positive(nullable: bool = False):
    """A positive number; with ``nullable``, or null."""
    return (
        lambda v: (nullable and v is None) or (_is_number(v) and v > 0),
        f"must be {'null or ' if nullable else ''}a positive number",
    )


def _one_of(values: tuple):
    return (lambda v: v in values, f"must be one of {values}")


_FRACTION = (lambda v: _is_number(v) and 0 < v <= 1, "must lie in (0, 1]")
_BOOLEAN = (lambda v: isinstance(v, bool), "must be a boolean")
_STRING = (lambda v: isinstance(v, str), "must be a string")
_REQUIRED = (lambda v: v is not None, "required")

_POSITIVE_OR_NULL = _positive(nullable=True)
_KERNEL_FORMS = _one_of(tuple(f.value for f in KernelForm))

_ENGINE_FIELDS = {
    "budget": (50, _integer(1)),
    "warmup_lhd": (2, _integer(1)),
    "warmup_bo_steps": (0, _integer(0)),
    "warmup_span": (None, _POSITIVE_OR_NULL),  # null: warmup_lhd * fixed_interval
    "fixed_interval": (None, _POSITIVE_OR_NULL),  # null: horizon span / (total evaluations + 1)
    "min_lookahead": (None, _POSITIVE_OR_NULL),  # null: a tenth of fixed_interval
    "lookahead_fraction": (1.0, _FRACTION),
    "acquisition": ("lcb", _one_of(("lcb", "ei", "posterior_mean"))),
    "kappa": (2.0, _positive()),
    "detector_window": (3, _integer(1)),
    "detector_rate": (0.1, _positive()),
    "flexible_heuristics": (False, _BOOLEAN),
    "kernel_spatial": ("se", _KERNEL_FORMS),
    "kernel_temporal": ("se", _KERNEL_FORMS),
    "tie_lengthscales": ("none", _one_of(("none", "spatial", "all"))),
    "train_restarts": (5, _integer(1)),
    "train_max_iters": (200, _integer(0)),
    "freeze_after_warmup": (False, _BOOLEAN),
    "pso_particles": (50, _integer(2)),
    "pso_iterations": (120, _integer(1)),
}

_TOP_FIELDS = {
    "repetitions": (10, _integer(1)),
    "base_seed": (0, _integer(0)),
    "output_dir": ("runs", _STRING),
    "emit_traces": (True, _BOOLEAN),
    "emit_summary": (True, _BOOLEAN),
    "emit_plot_data": (False, _BOOLEAN),
    "metric_window": (5, _integer(1)),
}

_PROBLEM_FIELDS = {
    "standard": {"name": (None, _REQUIRED), "time_dim": (None, _integer(0, nullable=True)),
                 "seed": (0, _integer(0))},
    "mpb": {"scenario": (None, _REQUIRED), "seed": (0, _integer(0))},
    "sensor": {
        "readings": (None, _REQUIRED),
        "coords": (None, _REQUIRED),
        "first_n_epochs": (3000, _integer(1)),
    },
}

_MODES = tuple(m.value for m in Mode)


def _check_fields(
    prefix: str, fields: dict, given: dict, errors: list, *, fill: bool = True, known=()
) -> dict:
    """Report each key of ``given`` outside ``fields`` and ``known``, and
    each broken rule, as ``<prefix><key>: <message>``.  Returns the fields,
    defaults filled in; without ``fill``, only the given ones."""
    for key in sorted(set(given) - set(fields) - set(known)):
        errors.append(f"{prefix}{key}: unknown key")
    out = {}
    for key, (default, (test, message)) in fields.items():
        if key in given or fill:
            out[key] = given.get(key, default)
            if not test(out[key]):
                errors.append(f"{prefix}{key}: {message}")
    return out


def normalize_config(raw: dict) -> dict:
    """Validate a raw config mapping and fill every default.

    Unknown keys are rejected; error messages name each offending field.
    The result is canonical: loading it again is the identity.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    errors: list[str] = []
    top = _check_fields(
        "", _TOP_FIELDS | _ENGINE_FIELDS, raw, errors,
        known=("schema", "problem", "modes", "mode_overrides"),
    )

    # an integer, not a bool or a float, although True == 1 == 1.0
    schema = raw.get("schema")
    if not (_is_number(schema, integer=True) and schema == SCHEMA_VERSION):
        errors.append(f"schema: must be the integer {SCHEMA_VERSION}")

    problem = raw.get("problem")
    norm_problem = {}
    if not isinstance(problem, dict) or "kind" not in problem:
        errors.append("problem: must be a mapping with a 'kind'")
    elif problem["kind"] not in tuple(_PROBLEM_FIELDS):
        errors.append(f"problem.kind: must be one of {tuple(_PROBLEM_FIELDS)}")
    else:
        norm_problem = {"kind": problem["kind"]} | _check_fields(
            "problem.", _PROBLEM_FIELDS[problem["kind"]], problem, errors, known=("kind",)
        )

    modes = raw.get("modes")
    if not (isinstance(modes, list) and modes):
        errors.append("modes: must be a nonempty list")
        modes = []
    for m in modes:
        if m not in _MODES:
            errors.append(f"modes: {m!r} is not one of {_MODES}")
    for m in _MODES:
        if modes.count(m) > 1:  # a second run would overwrite the first's trace
            errors.append(f"modes: {m!r} is listed more than once")
    if top["emit_plot_data"] is True and top["emit_traces"] is False:
        # a plot file is made from a trace file, which would not be written
        errors.append("emit_plot_data: needs emit_traces, which is false")

    overrides = raw.get("mode_overrides", {})
    norm_overrides: dict = {}
    if not isinstance(overrides, dict):
        errors.append("mode_overrides: must be a mapping of mode to overrides")
    else:
        for mode, sub in sorted(overrides.items()):
            if mode not in _MODES:
                errors.append(f"mode_overrides.{mode}: not a known mode")
            elif not isinstance(sub, dict):
                errors.append(f"mode_overrides.{mode}: must be a mapping")
            else:
                checked = _check_fields(
                    f"mode_overrides.{mode}.", _ENGINE_FIELDS, sub, errors, fill=False
                )
                if checked:
                    norm_overrides[mode] = checked

    if errors:
        raise ConfigError("invalid config: " + "; ".join(errors))
    return {"schema": SCHEMA_VERSION, "problem": norm_problem, "modes": list(modes),
            "mode_overrides": norm_overrides, **top}


@dataclass(frozen=True)
class ExperimentConfig:
    """Normalized experiment description; ``data`` is the canonical mapping."""

    data: dict

    @property
    def modes(self) -> list[str]:
        return self.data["modes"]

    @property
    def repetitions(self) -> int:
        return self.data["repetitions"]

    @property
    def base_seed(self) -> int:
        return self.data["base_seed"]

    @property
    def metric_window(self) -> int:
        return self.data["metric_window"]

    @property
    def output_dir(self) -> Path:
        return Path(self.data["output_dir"])

    def engine_params(self, mode: str) -> dict:
        params = {k: self.data[k] for k in _ENGINE_FIELDS}
        params.update(self.data["mode_overrides"].get(mode, {}))
        return params

    def canonical_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(
            json.dumps(self.data, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()


def load_config(source) -> ExperimentConfig:
    """Parse and validate a config from a path or a mapping."""
    if isinstance(source, dict):
        return ExperimentConfig(normalize_config(source))
    data = Path(source).read_bytes()
    try:
        raw = json.loads(data.decode("utf-8"))  # the encoding JSON requires
    except UnicodeDecodeError as err:
        raise ConfigError(
            f"config parse error at byte {err.start}: not UTF-8 ({err.reason})"
        ) from err
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"config parse error at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    return ExperimentConfig(normalize_config(raw))


def build_problem(config: ExperimentConfig) -> Problem:
    p = config.data["problem"]
    if p["kind"] == "standard":
        return make_standard(p["name"], time_dim=p["time_dim"], seed=p["seed"])
    if p["kind"] == "mpb":
        return make_mpb_scenario(p["scenario"], seed=p["seed"])
    table = ingest_sensor_csv(p["readings"], p["coords"])
    return make_sensor_problem(table, first_n_epochs=p["first_n_epochs"])


def _acquisition_from(params: dict):
    name = params["acquisition"]
    if name == "lcb":
        return LowerConfidenceBound(params["kappa"])
    if name == "ei":
        return ExpectedImprovement(0.0)  # incumbent injected per step
    if name == "posterior_mean":
        return PosteriorMean()
    raise ValueError(f"unknown acquisition {name!r}")


def engine_config_for(
    config: ExperimentConfig, problem: Problem, mode: str, repetition: int
) -> EngineConfig:
    """Engine settings for one run; derived seed = base seed + repetition."""
    params = config.engine_params(mode)
    t0, t1 = problem.horizon
    interval = params["fixed_interval"]
    if interval is None:
        total = params["warmup_lhd"] + params["warmup_bo_steps"] + params["budget"]
        interval = (t1 - t0) / (total + 1)
    lookahead = params["min_lookahead"]
    if lookahead is None:
        lookahead = 0.1 * interval
    return EngineConfig(
        mode=Mode(mode),
        budget=params["budget"],
        min_lookahead=lookahead,
        lookahead_fraction=params["lookahead_fraction"],
        fixed_interval=interval,
        warmup=WarmupConfig(
            lhd=params["warmup_lhd"],
            bo_steps=params["warmup_bo_steps"],
            span=params["warmup_span"],
        ),
        detector=DetectorConfig(params["detector_window"], params["detector_rate"]),
        flexible_heuristics=params["flexible_heuristics"],
        acquisition=_acquisition_from(params),
        kernel=KernelSpec(
            KernelForm(params["kernel_spatial"]), KernelForm(params["kernel_temporal"])
        ),
        seed=config.base_seed + repetition,
        train=TrainConfig(
            restarts=params["train_restarts"],
            max_iters=params["train_max_iters"],
            tie_lengthscales=params["tie_lengthscales"],
        ),
        freeze_after_warmup=params["freeze_after_warmup"],
        pso=PsoConfig(
            particles=params["pso_particles"], iterations=params["pso_iterations"]
        ),
    )


# ---------------------------------------------------------------------------
# trace and summary files


def _fmt(value: float) -> str:
    return repr(float(value))


def trace_header(spatial_dim: int) -> list[str]:
    xs = [f"x_{i}" for i in range(spatial_dim)]
    return ["step", "phase", "heuristic", "t", *xs, "y", "lt_hat", "window_lo", "window_hi"]


def write_trace_csv(path, trace: RunTrace, spatial_dim: int):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(trace_header(spatial_dim))
        for s in trace.steps:
            writer.writerow(
                [s.index, s.phase, s.heuristic, _fmt(s.t),
                 *(_fmt(v) for v in s.x), _fmt(s.y), _fmt(s.lt_hat),
                 _fmt(s.window_lo), _fmt(s.window_hi)]
            )


def read_trace_csv(path):
    """Rows of a trace file as dicts with typed step/t/y/phase fields."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"step", "phase", "t", "y"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(f"{path}: not a trace file (missing {sorted(required)})")
        rows = []
        for row in reader:
            rows.append(
                {
                    "step": int(row["step"]),
                    "phase": row["phase"],
                    "t": float(row["t"]),
                    "y": float(row["y"]),
                }
            )
    return rows


def trace_filename(mode: str, repetition: int) -> str:
    return f"{TRACE_PREFIX}_{mode}_rep{repetition}.csv"


def write_summary_csv(path, rows):
    """``rows`` are (mode, repetition_label, B, steps, pct, partial)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["mode", "repetition", "B", "steps", "iters_pct_diff", "partial"])
        for mode, rep, b, steps, pct, partial in rows:
            writer.writerow([mode, rep, _fmt(b), _fmt(steps), _fmt(pct), partial])


def write_plot_data(trace_path, out_path, window: int):
    """Long-format table per trace: step,t,y,best_so_far,b_t,phase.

    ``best_so_far`` runs over every evaluation; the trailing-window best is
    defined on the scored series only, so warmup rows leave it blank.
    """
    rows = read_trace_csv(trace_path)
    if not rows:
        raise ValueError(f"{trace_path}: empty trace")
    running = best_so_far([r["y"] for r in rows])
    scored_y = [r["y"] for r in rows if r["phase"] == "scored"]
    wb = iter(windowed_best(ScoredSeries(scored_y, window)) if scored_y else [])
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "t", "y", "best_so_far", "b_t", "phase"])
        for row, bsf in zip(rows, running):
            b_t = _fmt(next(wb)) if row["phase"] == "scored" else ""
            writer.writerow(
                [row["step"], _fmt(row["t"]), _fmt(row["y"]), _fmt(bsf), b_t, row["phase"]]
            )


# ---------------------------------------------------------------------------
# verbs


class _Exit(Exception):
    """``_Exit(code, message)`` ends a verb; ``main`` prints the message."""


def _checked(path) -> tuple[ExperimentConfig, Problem]:
    """Every check a run makes before it starts: load and normalize the
    config, build the problem, and check each mode's engine settings
    against the problem's horizon.  ``validate`` and ``run`` share it, so
    both accept the same configs."""
    try:
        config = load_config(path)
    except ConfigError as err:
        raise _Exit(EXIT_CONFIG, str(err)) from err
    except OSError as err:
        raise _Exit(EXIT_IO, f"cannot read config: {err}") from err
    try:
        problem = build_problem(config)
    except (ValueError, KeyError) as err:
        raise _Exit(EXIT_CONFIG, f"problem construction failed: {err}") from err
    except OSError as err:
        raise _Exit(EXIT_IO, f"cannot read problem data: {err}") from err
    for mode in config.modes:
        try:
            check_horizon(problem, engine_config_for(config, problem, mode, 0))
        except ValueError as err:
            raise _Exit(EXIT_CONFIG, f"config rejected for mode {mode}: {err}") from err
    return config, problem


def _summary_rows(mode: str, traces: list[RunTrace], window: int, budget: int) -> list:
    """A mode's summary rows: one per repetition, then its mean and std.

    The configured budget is the reference step count of the iteration
    difference.  A run with no scored step gets a NaN row; when no run of
    the mode scored, the mean and std rows are NaN and marked partial.
    """
    usable = [t for t in traces if t.n_scored > 0]
    stats = summarize(usable, window=window, reference_steps=budget) if usable else None
    per_trace = iter(stats.per_trace if stats else [])
    rows = []
    for rep, trace in enumerate(traces):
        ts = next(per_trace) if trace.n_scored > 0 else TraceStats(np.nan, 0, -100.0)
        rows.append((mode, rep, *astuple(ts), int(trace.aborted)))
    if stats:
        return rows + [(mode, label, *astuple(s), 0)
                       for label, s in (("mean", stats.mean), ("std", stats.std))]
    return rows + [(mode, label, np.nan, np.nan, np.nan, 1) for label in ("mean", "std")]


def cmd_validate(args) -> int:
    config, _ = _checked(args.config)
    sys.stdout.write(config.canonical_json())
    return EXIT_OK


def cmd_run(args) -> int:
    config, problem = _checked(args.config)
    out_dir = config.output_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise _Exit(EXIT_IO, f"cannot create output directory: {err}") from err

    emit = config.data
    summary_rows = []
    aborted = []
    try:
        for mode in config.modes:
            traces = []
            for rep in range(config.repetitions):
                engine_cfg = engine_config_for(config, problem, mode, rep)
                trace = run(problem, engine_cfg)
                traces.append(trace)
                if emit["emit_traces"]:
                    path = out_dir / trace_filename(mode, rep)
                    write_trace_csv(path, trace, problem.spatial_dim)
                    meta = {
                        "config_sha256": config.sha256(),
                        "version": __version__,
                        "mode": mode,
                        "repetition": rep,
                        "seed": engine_cfg.seed,
                        "problem": problem.name,
                        "aborted": trace.aborted,
                    }
                    with open(path.with_suffix(".meta.json"), "w") as fh:
                        json.dump(meta, fh, sort_keys=True, indent=2)
                        fh.write("\n")
                    print(f"wrote {path}")
                    if emit["emit_plot_data"]:
                        plot_path = out_dir / (path.stem + ".plot.csv")
                        write_plot_data(path, plot_path, config.metric_window)
                        print(f"wrote {plot_path}")
            budget = config.engine_params(mode)["budget"]
            summary_rows += _summary_rows(mode, traces, config.metric_window, budget)
            aborted += [t.aborted for t in traces]
    except OSError as err:
        raise _Exit(EXIT_IO, f"cannot write outputs: {err}") from err

    if emit["emit_summary"]:
        try:
            write_summary_csv(out_dir / SUMMARY_NAME, summary_rows)
        except OSError as err:
            raise _Exit(EXIT_IO, f"cannot write summary: {err}") from err
        print(f"wrote {out_dir / SUMMARY_NAME}")

    if all(aborted):
        raise _Exit(EXIT_ALL_ABORTED, "every run aborted during model training")
    return EXIT_OK


def cmd_plot_data(args) -> int:
    for trace_path in args.traces:
        out_path = Path(trace_path).with_suffix(".plot.csv")
        try:
            write_plot_data(trace_path, out_path, args.window)
        except (OSError, ValueError) as err:
            raise _Exit(EXIT_IO, f"cannot process {trace_path}: {err}") from err
        print(f"wrote {out_path}")
    return EXIT_OK


def cmd_mpb_preview(args) -> int:
    presets = scenario_presets()["scenarios"]
    key = str(args.scenario)
    if key not in presets:
        raise _Exit(EXIT_CONFIG, f"unknown scenario {key!r}; have {sorted(presets)}")
    from dynabo.problems.mpb import _config_from_preset

    state = mpb_init(_config_from_preset(presets[key]), args.seed)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    d = state.config.dims
    writer.writerow(["step", "peak", "height", "width", *(f"loc_{i}" for i in range(d))])
    for step in range(args.steps + 1):
        for p in range(state.config.peaks):
            writer.writerow(
                [step, p, _fmt(state.heights[p]), _fmt(state.widths[p]),
                 *(_fmt(v) for v in state.locations[p])]
            )
        if step < args.steps:
            state = mpb_step(state)
    return EXIT_OK


def _integer_argument(least: int):
    """An argparse ``type`` for the ``_integer(least)`` rule; argparse
    reports a rejected value as a usage error (exit 2)."""
    check, message = _integer(least)

    def integer(text: str) -> int:  # argparse reports a ValueError itself
        if not check(value := int(text)):
            raise argparse.ArgumentTypeError(f"{value} {message}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynabo", description="Run time-varying optimization experiments."
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="validate a config, print normalized form")
    p_val.add_argument("config")
    p_val.set_defaults(func=cmd_validate)

    p_plot = sub.add_parser("plot-data", help="emit plot tables from trace files")
    p_plot.add_argument("traces", nargs="+", metavar="trace")
    p_plot.add_argument("--window", type=_integer_argument(1), default=5,
                        help="trailing window for the windowed-best column")
    p_plot.set_defaults(func=cmd_plot_data)

    p_mpb = sub.add_parser("mpb-preview", help="print a moving-peaks change schedule")
    p_mpb.add_argument("scenario")
    p_mpb.add_argument("--steps", type=_integer_argument(0), default=10)
    p_mpb.add_argument("--seed", type=_integer_argument(0), default=0)
    p_mpb.set_defaults(func=cmd_mpb_preview)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Exit as err:
        code, message = err.args
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
