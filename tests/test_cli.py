"""Config loading, file emission, and pipeline determinism.

Run commands use deliberately tiny training/swarm budgets; these tests
check plumbing contracts (files, formats, exit codes), not optimization
quality.
"""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynabo.cli as cli
from dynabo.cli import (
    ConfigError,
    ExperimentConfig,
    build_problem,
    load_config,
    main,
    normalize_config,
)
from dynabo.engine import RunTrace, StepRecord, run
from dynabo.metrics import ScoredSeries, offline_performance, windowed_best
from dynabo.problems import static_function, write_synthetic_fixture


README = Path(__file__).resolve().parents[1] / "README.md"


def minimal_raw(**extra):
    raw = {
        "schema": 1,
        "problem": {"kind": "standard", "name": "camel6", "seed": 3},
        "modes": ["abo_fixed"],
    }
    raw.update(extra)
    return raw


def fast_raw(**extra):
    raw = minimal_raw(
        repetitions=2,
        budget=2,
        train_restarts=2,
        train_max_iters=20,
        pso_particles=8,
        pso_iterations=10,
    )
    raw.update(extra)
    return raw


def write_cfg(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def sensor_problem(tmp_path):
    readings, coords = tmp_path / "readings.csv", tmp_path / "coords.csv"
    write_synthetic_fixture(readings, coords)
    return {"kind": "sensor", "readings": str(readings), "coords": str(coords)}


# ---- config loading


def test_minimal_config_defaults():
    cfg = load_config(minimal_raw())
    assert cfg.repetitions == 10
    assert cfg.metric_window == 5
    assert cfg.data["kappa"] == 2.0
    assert cfg.data["warmup_lhd"] == 2
    assert cfg.data["budget"] == 50
    assert cfg.data["lookahead_fraction"] == 1.0


def test_fraction_above_one_rejected():
    with pytest.raises(ConfigError, match=r"\(0, 1\]"):
        load_config(minimal_raw(lookahead_fraction=1.5))


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="bogus"):
        load_config(minimal_raw(bogus=1))
    with pytest.raises(ConfigError, match="problem.whatever"):
        load_config(
            {
                "schema": 1,
                "problem": {"kind": "standard", "name": "camel6", "whatever": 2},
                "modes": ["abo_fixed"],
            }
        )
    with pytest.raises(ConfigError, match="mode_overrides.abo_fixed.nope"):
        load_config(minimal_raw(mode_overrides={"abo_fixed": {"nope": 1}}))


def test_schema_field_required():
    raw = minimal_raw()
    del raw["schema"]
    with pytest.raises(ConfigError, match="schema"):
        load_config(raw)


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError, match="modes"):
        load_config(minimal_raw(modes=["warp_drive"]))
    with pytest.raises(ConfigError, match="modes"):
        load_config(minimal_raw(modes=[]))


def test_repeated_mode_rejected_before_running(tmp_path, capsys):
    # run would run the mode twice, its second trace overwriting the first
    out = tmp_path / "out"
    raw = fast_raw(output_dir=str(out), modes=["abo_fixed", "standard_bo", "abo_fixed"])
    path = write_cfg(tmp_path, raw)
    assert main(["validate", str(path)]) == 2
    assert "modes: 'abo_fixed' is listed more than once" in capsys.readouterr().err
    assert main(["run", str(path)]) == 2
    assert "'abo_fixed'" in capsys.readouterr().err
    assert not out.exists()


def test_plot_data_without_traces_rejected_before_running(tmp_path, capsys):
    # a plot file is made from its trace file, so run would write none
    out = tmp_path / "out"
    raw = fast_raw(output_dir=str(out), emit_plot_data=True, emit_traces=False)
    path = write_cfg(tmp_path, raw)
    for verb in ("validate", "run"):
        assert main([verb, str(path)]) == 2
        err = capsys.readouterr().err
        assert "emit_plot_data" in err and "emit_traces" in err
    assert not out.exists()
    load_config(minimal_raw(emit_plot_data=False, emit_traces=False))


def test_error_message_lists_every_field():
    raw = minimal_raw(lookahead_fraction=0.0, repetitions=0, bogus=1)
    with pytest.raises(ConfigError) as err:
        load_config(raw)
    msg = str(err.value)
    assert "lookahead_fraction" in msg and "repetitions" in msg and "bogus" in msg


NUMERIC_FIELDS = [
    "budget", "warmup_lhd", "warmup_bo_steps", "warmup_span", "fixed_interval",
    "min_lookahead", "lookahead_fraction", "kappa", "detector_window", "detector_rate",
    "train_restarts", "train_max_iters", "pso_particles", "pso_iterations",
    "repetitions", "base_seed", "metric_window",
]
ENGINE_NUMERIC_FIELDS = [k for k in NUMERIC_FIELDS
                         if k not in ("repetitions", "base_seed", "metric_window")]


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("key", NUMERIC_FIELDS)
def test_booleans_rejected_in_numeric_fields(key, value):
    # Python counts True as the int 1; a JSON boolean is still not a number
    with pytest.raises(ConfigError, match=rf"(^|; |: ){key}: must "):
        load_config(minimal_raw(**{key: value}))


@pytest.mark.parametrize("key", ENGINE_NUMERIC_FIELDS)
def test_booleans_rejected_in_mode_overrides(key):
    raw = minimal_raw(mode_overrides={"abo_fixed": {key: True}})
    with pytest.raises(ConfigError, match=rf"mode_overrides\.abo_fixed\.{key}: must "):
        load_config(raw)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_nonfinite_numbers_rejected(value):
    with pytest.raises(ConfigError, match="kappa: must be"):
        load_config(minimal_raw(kappa=value))
    with pytest.raises(ConfigError, match="warmup_span: must be"):
        load_config(minimal_raw(warmup_span=value))


def test_numbers_still_accepted():
    cfg = load_config(minimal_raw(budget=3, kappa=1, warmup_span=0.25, base_seed=0,
                                  repetitions=10**30))
    assert cfg.data["kappa"] == 1 and cfg.data["warmup_span"] == 0.25


def test_normalize_is_idempotent():
    once = normalize_config(fast_raw(mode_overrides={"abo_fixed": {"budget": 7}}))
    assert normalize_config(once) == once


def test_round_trip_through_file(tmp_path):
    raw = fast_raw()
    cfg = load_config(write_cfg(tmp_path, raw))
    # serialized form is the normalized mapping itself
    assert json.loads(cfg.canonical_json()) == normalize_config(raw)


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": 1,\n  "problem": }\n')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)


@pytest.mark.parametrize(
    ("data", "offset"),
    [
        (json.dumps(minimal_raw()).encode("utf-16"), 0),  # starts with ff fe
        (b'{"schema": 1, "output_dir": "r\xe9sultats"}', 30),  # latin-1, not UTF-8
    ],
    ids=["utf16_bom", "latin1"],
)
def test_config_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, data, offset):
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match=f"parse error at byte {offset}: not UTF-8"):
        load_config(path)
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path)]) == 2
    assert f"byte {offset}" in capsys.readouterr().err


def test_config_is_read_as_utf8(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(json.dumps(minimal_raw(output_dir="résultats"), ensure_ascii=False)
                     .encode("utf-8"))
    assert load_config(path).output_dir == Path("résultats")


def test_problem_requires_kind_specific_fields():
    with pytest.raises(ConfigError, match="problem.name"):
        load_config({"schema": 1, "problem": {"kind": "standard"}, "modes": ["abo_fixed"]})
    with pytest.raises(ConfigError, match="problem.scenario"):
        load_config({"schema": 1, "problem": {"kind": "mpb"}, "modes": ["abo_fixed"]})


BAD_PROBLEM_FIELDS = [
    ({"kind": "standard", "name": "branin_scaled", "seed": True}, "seed", "a nonnegative"),
    ({"kind": "standard", "name": "branin_scaled", "seed": -1}, "seed", "a nonnegative"),
    ({"kind": "standard", "name": "branin_scaled", "seed": 0.5}, "seed", "a nonnegative"),
    ({"kind": "standard", "name": "branin_scaled", "time_dim": 1.5}, "time_dim", "null or"),
    ({"kind": "standard", "name": "branin_scaled", "time_dim": False}, "time_dim", "null or"),
    ({"kind": "standard", "name": "branin_scaled", "time_dim": -1}, "time_dim", "null or"),
    ({"kind": "mpb", "scenario": 1, "seed": "7"}, "seed", "a nonnegative"),
    ({"kind": "mpb", "scenario": 1, "seed": math.nan}, "seed", "a nonnegative"),
    ({"kind": "sensor", "readings": "r.csv", "coords": "c.csv", "first_n_epochs": 0},
     "first_n_epochs", "a positive"),
    ({"kind": "sensor", "readings": "r.csv", "coords": "c.csv", "first_n_epochs": True},
     "first_n_epochs", "a positive"),
    ({"kind": "sensor", "readings": "r.csv", "coords": "c.csv", "first_n_epochs": 2.0},
     "first_n_epochs", "a positive"),
    ({"kind": "standard", "name": 5}, "name", "a string"),
    ({"kind": "standard", "name": ["branin_scaled"]}, "name", "a string"),
    ({"kind": "sensor", "readings": "r.csv", "coords": 7}, "coords", "a string"),
    ({"kind": "sensor", "readings": ["r.csv"], "coords": "c.csv"}, "readings", "a string"),
]


@pytest.mark.parametrize("problem, key, wording", BAD_PROBLEM_FIELDS)
def test_problem_field_types_checked(problem, key, wording, tmp_path, capsys):
    with pytest.raises(ConfigError, match=rf"problem\.{key}: must be {wording}"):
        load_config(minimal_raw(problem=problem))
    # both verbs reject it before building the problem, which a field of the
    # wrong JSON type could crash with a TypeError
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal_raw(problem=problem, output_dir=str(tmp_path / "runs"))))
    for verb in ("validate", "run"):
        assert main([verb, str(path)]) == 2
        assert f"problem.{key}: must be {wording}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_problem_kind_that_is_not_a_name_rejected():
    with pytest.raises(ConfigError, match=r"problem\.kind: must be one of"):
        load_config(minimal_raw(problem={"kind": ["standard"], "name": "camel6"}))


def test_problem_field_types_name_every_field():
    raw = minimal_raw(problem={"kind": "standard", "name": "branin_scaled",
                               "seed": True, "time_dim": 1.5})
    with pytest.raises(ConfigError) as err:
        load_config(raw)
    assert "problem.seed" in str(err.value) and "problem.time_dim" in str(err.value)


def test_problem_counts_still_accepted():
    cfg = load_config(minimal_raw(problem={"kind": "standard", "name": "branin_scaled",
                                           "seed": 10**30, "time_dim": 0}))
    assert cfg.data["problem"]["time_dim"] == 0
    cfg = load_config(minimal_raw(problem={"kind": "standard", "name": "branin_scaled",
                                           "time_dim": None}))
    assert cfg.data["problem"]["time_dim"] is None
    cfg = load_config(minimal_raw(problem={"kind": "sensor", "readings": "r.csv",
                                           "coords": "c.csv", "first_n_epochs": 1}))
    assert cfg.data["problem"]["first_n_epochs"] == 1


# per engine key: values below, at and above each rule's edge, null where
# the key may be null, and valid members of each set
ENGINE_EDGES = {
    "budget": [0, 1, 2],
    "warmup_lhd": [0, 1, 2],
    "warmup_bo_steps": [-1, 0, 1],
    "warmup_span": [None, -1e-9, 0, 1e-9],
    "fixed_interval": [None, -1e-9, 0, 1e-9],
    "min_lookahead": [None, -1e-9, 0, 1e-9],
    "lookahead_fraction": [-1e-9, 0, 1e-9, 1.0, math.nextafter(1.0, 2.0)],
    "acquisition": ["lcb", "ei", "posterior_mean"],
    "kappa": [-1e-9, 0, 1e-9],
    "detector_window": [0, 1, 2],
    "detector_rate": [-1e-9, 0, 1e-9],
    "flexible_heuristics": [False, True],
    "kernel_spatial": ["se", "matern12", "sum", "cubic"],
    "kernel_temporal": ["se", "matern12", "sum", "cubic"],
    "tie_lengthscales": ["none", "spatial", "all", "some"],
    "train_restarts": [0, 1, 2],
    "train_max_iters": [-1, 0, 1],
    "freeze_after_warmup": [False, True],
    "pso_particles": [1, 2, 3],
    "pso_iterations": [0, 1, 2],
}


def test_engine_edges_cover_every_engine_key():
    assert set(ENGINE_EDGES) == set(cli._ENGINE_FIELDS)


@pytest.mark.parametrize(
    "key, value", [(k, v) for k, values in ENGINE_EDGES.items() for v in values]
)
def test_cli_rules_agree_with_engine_dataclasses(key, value):
    problem = {"kind": "standard", "name": "branin_scaled"}
    try:
        load_config(minimal_raw(problem=problem, **{key: value}))
        accepted = True
    except ConfigError:
        accepted = False
    # the same value past the CLI's rules, judged by the dataclasses alone
    data = normalize_config(minimal_raw(problem=problem)) | {key: value}
    config = ExperimentConfig(data)
    try:
        cli.engine_config_for(config, cli.build_problem(config), "abo_fixed", 0)
        built = True
    except ValueError:
        built = False
    assert accepted == built


def test_engine_config_seeds_add_repetition_index():
    cfg = load_config(fast_raw(base_seed=100))
    problem = cli.build_problem(cfg)
    for rep in (0, 1):
        ec = cli.engine_config_for(cfg, problem, "abo_fixed", rep)
        assert ec.seed == 100 + rep


def test_engine_config_derives_intervals():
    cfg = load_config(minimal_raw(budget=10, warmup_lhd=2))
    problem = cli.build_problem(cfg)
    ec = cli.engine_config_for(cfg, problem, "abo_fixed", 0)
    span = problem.horizon[1] - problem.horizon[0]
    assert ec.fixed_interval == pytest.approx(span / 13)  # 2 warmup + 10 budget + 1
    assert ec.min_lookahead == pytest.approx(0.1 * ec.fixed_interval)


def test_mode_overrides_apply_per_mode():
    cfg = load_config(
        fast_raw(
            modes=["abo_fixed", "tvb"],
            mode_overrides={"tvb": {"budget": 5}},
        )
    )
    assert cfg.engine_params("abo_fixed")["budget"] == 2
    assert cfg.engine_params("tvb")["budget"] == 5


# ---- run verb


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    raw = fast_raw(
        modes=["abo_fixed", "abo_adaptive_time"],
        repetitions=3,
        output_dir=str(tmp / "out"),
        emit_plot_data=True,
    )
    path = write_cfg(tmp, raw)
    rc = main(["run", str(path)])
    assert rc == 0
    return raw, path, tmp / "out"


def test_run_emits_counted_files(completed_run):
    _, _, out = completed_run
    traces = sorted(p.name for p in out.glob("trace_*.csv") if ".plot" not in p.name)
    assert len(traces) == 6  # 2 modes x 3 repetitions
    assert (out / "summary.csv").exists()
    assert len(list(out.glob("*.meta.json"))) == 6


def test_trace_header_exact(completed_run):
    _, _, out = completed_run
    header = (out / "trace_abo_fixed_rep0.csv").read_text().splitlines()[0]
    assert header == "step,phase,heuristic,t,x_0,y,lt_hat,window_lo,window_hi"


def test_meta_sidecar_contents(completed_run):
    raw, _, out = completed_run
    meta = json.loads((out / "trace_abo_fixed_rep2.meta.json").read_text())
    assert meta["seed"] == raw.get("base_seed", 0) + 2
    assert meta["mode"] == "abo_fixed"
    assert meta["aborted"] is False
    assert set(meta) >= {"config_sha256", "version", "seed"}
    assert "timestamp" not in meta


def test_summary_headers_and_aggregate_rows(completed_run):
    _, _, out = completed_run
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "mode,repetition,B,steps,iters_pct_diff,partial"
    rows = [line.split(",") for line in lines[1:]]
    for mode in ("abo_fixed", "abo_adaptive_time"):
        labels = [r[1] for r in rows if r[0] == mode]
        assert labels == ["0", "1", "2", "mean", "std"]


def test_summary_matches_traces_oracle(completed_run):
    # the summary must be recomputable from the emitted artifacts alone
    raw, _, out = completed_run
    lines = (out / "summary.csv").read_text().splitlines()[1:]
    for line in lines:
        mode, rep, b, steps, _, _ = line.split(",")
        if rep in ("mean", "std"):
            continue
        rows = cli.read_trace_csv(out / f"trace_{mode}_rep{rep}.csv")
        scored = [r["y"] for r in rows if r["phase"] == "scored"]
        assert float(steps) == len(scored)
        expect = offline_performance(ScoredSeries(scored, raw.get("metric_window", 5)))
        assert float(b) == pytest.approx(expect, rel=1e-12)


def test_rerun_bitwise_identical(completed_run, tmp_path):
    raw, cfg_path, first_out = completed_run
    saved = {p.name: p.read_bytes() for p in first_out.iterdir()}
    # identical config, identical output dir: every byte must survive a rerun
    rc = main(["run", str(cfg_path)])
    assert rc == 0
    for name, blob in sorted(saved.items()):
        assert (first_out / name).read_bytes() == blob, name


RUN_LOADS = """
import sys
from dynabo.cli import main
code = main(["run", sys.argv[1]])
print(code, *(m in sys.modules for m in sys.argv[2:]))
"""


def test_run_polishes_without_loading_scipy_optimize_or_linalg(tmp_path):
    # a run whose polish reaches L-BFGS-B (12 polishes here) loads its
    # extension module alone, as dynabo.gp loads LAPACK's: neither package's
    # import runs in a fresh dynabo process
    raw = {
        "schema": 1,
        "problem": {"kind": "standard", "name": "branin_scaled", "seed": 0},
        "modes": ["standard_bo", "abo_fixed"],
        "repetitions": 1,
        "budget": 12,
        "pso_particles": 6,
        "pso_iterations": 5,
        "train_max_iters": 20,
        "output_dir": str(tmp_path / "out"),
    }
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    modules = ["scipy.optimize._lbfgsb", "scipy.optimize", "scipy.linalg"]
    out = subprocess.run(
        [sys.executable, "-c", RUN_LOADS, str(write_cfg(tmp_path, raw)), *modules],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1].split() == ["0", "True", "False", "False"]


def test_run_reaches_none_of_the_functions_kept_for_the_tracer(tmp_path, monkeypatch):
    # the derivative matrices, the public marginal-likelihood functions and
    # the polish serve the tests' oracles and the benchmark's tracer, which
    # looks them up by these names; a trained run of every mode calls none
    from dynabo import gp, kernels, optimizer

    def kept_for_the_tracer(*args, **kwargs):
        raise AssertionError("a run called a function kept for the tracer")

    for module, name in ((kernels, "grad_gram_log_hp"), (gp, "grad_gram_log_hp"),
                         (gp, "log_marginal_likelihood"), (gp, "lml_and_gradient"),
                         (optimizer, "local_refine")):
        monkeypatch.setattr(module, name, kept_for_the_tracer)
    raw = {
        "schema": 1,
        "problem": {"kind": "standard", "name": "branin_scaled", "seed": 0},
        "modes": ["standard_bo", "abo_fixed", "abo_adaptive_time", "tvb"],
        "repetitions": 1,
        "budget": 8,
        "pso_particles": 6,
        "pso_iterations": 5,
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["run", str(write_cfg(tmp_path, raw))]) == 0


def test_plot_data_columns_and_oracle(completed_run):
    _, _, out = completed_run
    plot = (out / "trace_abo_fixed_rep0.plot.csv").read_text().splitlines()
    assert plot[0] == "step,t,y,best_so_far,b_t,phase"
    trace_rows = cli.read_trace_csv(out / "trace_abo_fixed_rep0.csv")
    assert len(plot) - 1 == len(trace_rows)
    bsf = [float(line.split(",")[3]) for line in plot[1:]]
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bsf, bsf[1:]))
    scored = [r["y"] for r in trace_rows if r["phase"] == "scored"]
    expect = windowed_best(ScoredSeries(scored, 5))
    got = [float(line.split(",")[4]) for line in plot[1:] if line.split(",")[5] == "scored"]
    assert np.allclose(got, expect)


def test_plot_data_verb_on_existing_trace(completed_run, tmp_path, capsys):
    _, _, out = completed_run
    src = out / "trace_abo_fixed_rep1.csv"
    copy = tmp_path / "t.csv"
    copy.write_bytes(src.read_bytes())
    assert main(["plot-data", str(copy)]) == 0
    produced = tmp_path / "t.plot.csv"
    assert produced.exists()
    assert produced.read_text().splitlines()[0] == "step,t,y,best_so_far,b_t,phase"


@pytest.mark.parametrize("kind", ["mpb", "sensor"])
def test_run_on_mpb_and_sensor_problems(kind, tmp_path):
    problem = {"kind": "mpb", "scenario": 1} if kind == "mpb" else sensor_problem(tmp_path)
    out = tmp_path / "out"
    raw = minimal_raw(problem=problem, modes=["abo_fixed", "abo_adaptive_time"],
                      repetitions=1, budget=5, pso_particles=6, pso_iterations=5,
                      output_dir=str(out))
    path = write_cfg(tmp_path, raw)
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path)]) == 0
    assert (out / "summary.csv").exists()
    built = build_problem(load_config(path))
    (t0, t1), box = built.horizon, built.spatial_bounds
    for mode in raw["modes"]:
        trace = out / cli.trace_filename(mode, 0)
        assert trace.with_suffix(".meta.json").exists()
        with open(trace, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            x = np.array([float(row[f"x_{i}"]) for i in range(built.spatial_dim)])
            assert np.all((box.lower <= x) & (x <= box.upper))
            assert t0 <= float(row["t"]) <= t1


# ---- failure paths


def test_validate_exit_codes(tmp_path, capsys):
    good = write_cfg(tmp_path, minimal_raw())
    assert main(["validate", str(good)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["repetitions"] == 10

    bad = write_cfg(tmp_path, minimal_raw(lookahead_fraction=2.0), "bad.json")
    assert main(["validate", str(bad)]) == 2
    assert "(0, 1]" in capsys.readouterr().err


def test_missing_files_exit_io(tmp_path):
    assert main(["run", str(tmp_path / "absent.json")]) == 3
    assert main(["plot-data", str(tmp_path / "absent.csv")]) == 3


def test_run_rejects_unknown_problem(tmp_path, capsys):
    raw = minimal_raw()
    raw["problem"]["name"] = "imaginary_fn"
    assert main(["run", str(write_cfg(tmp_path, raw))]) == 2


def test_run_rejects_warmup_longer_than_horizon(tmp_path, capsys, monkeypatch):
    def no_run(problem, config):
        raise AssertionError("no run may start")

    monkeypatch.setattr(cli, "run", no_run)
    out = tmp_path / "out"
    raw = fast_raw(output_dir=str(out), mode_overrides={"abo_fixed": {"warmup_span": 5.0}})
    assert main(["run", str(write_cfg(tmp_path, raw))]) == 2
    assert "warmup span" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_invalid_mode_settings_before_running(tmp_path, capsys):
    out = tmp_path / "out"
    raw = fast_raw(output_dir=str(out), modes=["abo_fixed", "standard_bo"],
                   kernel_temporal="matern12")
    assert main(["run", str(write_cfg(tmp_path, raw))]) == 2
    assert "standard_bo" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_tied_sum_kernel_before_running(tmp_path, capsys):
    out = tmp_path / "out"
    raw = fast_raw(output_dir=str(out), kernel_spatial="sum", tie_lengthscales="all")
    assert main(["run", str(write_cfg(tmp_path, raw))]) == 2
    err = capsys.readouterr().err
    assert "mode abo_fixed" in err and "plain kernel forms" in err
    assert not out.exists()


def test_validate_rejects_what_run_rejects(tmp_path, capsys):
    path = write_cfg(tmp_path, minimal_raw(pso_particles=1))
    assert main(["validate", str(path)]) == 2
    assert "pso_particles: must be an integer of at least 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, message",
    [
        ({"problem": {"kind": "standard", "name": "nosuch", "seed": 0}},
         "problem construction failed: unknown function name: 'nosuch'"),
        ({"mode_overrides": {"abo_fixed": {"warmup_span": 5.0}}},
         "config rejected for mode abo_fixed: warmup span"),
        ({"modes": ["abo_fixed", "standard_bo"], "kernel_temporal": "matern12"},
         "config rejected for mode standard_bo:"),
        ({"kernel_spatial": "sum", "tie_lengthscales": "all"},
         "config rejected for mode abo_fixed:"),
        ({"problem": ["mpb"]}, "problem: must be a mapping with a 'kind'"),
        ({"mode_overrides": [1]}, "mode_overrides: must be a mapping of mode to overrides"),
        ({"mode_overrides": {"nosuch": {}}}, "mode_overrides.nosuch: not a known mode"),
        ({"mode_overrides": {"abo_fixed": 3}}, "mode_overrides.abo_fixed: must be a mapping"),
    ],
    ids=["unknown_function", "warmup_past_horizon", "standard_bo_mixed_forms", "tied_sum",
         "problem_not_a_mapping", "overrides_not_a_mapping", "override_of_unknown_mode",
         "override_not_a_mapping"],
)
def test_validate_and_run_reject_the_same_configs(tmp_path, capsys, change, message):
    # every check run makes before it starts, validate makes too
    out = tmp_path / "out"
    path = write_cfg(tmp_path, fast_raw(output_dir=str(out), **change))
    assert main(["validate", str(path)]) == 2
    validate_err = capsys.readouterr().err
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == validate_err
    assert validate_err.count("\n") == 1
    assert message in validate_err
    assert not out.exists()


@pytest.mark.parametrize("case", ["missing_readings", "output_below_a_file"])
def test_unreadable_input_and_unwritable_output_exit_3(tmp_path, capsys, case):
    out = tmp_path / "out"
    problem = sensor_problem(tmp_path)
    if case == "missing_readings":
        Path(problem["readings"]).unlink()
        message = "cannot read problem data: "
    else:
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        message = "cannot create output directory: "
    raw = fast_raw(problem=problem, budget=5, output_dir=str(out))
    assert main(["run", str(write_cfg(tmp_path, raw))]) == 3
    assert message in capsys.readouterr().err
    assert not list(tmp_path.rglob("trace_*"))


@pytest.mark.parametrize(
    "blocked, extra, message",
    [("trace_abo_fixed_rep0.csv", {}, "cannot write outputs: [Errno 21] Is a directory"),
     ("summary.csv", {"emit_traces": False}, "cannot write summary: [Errno 21] Is a directory")],
    ids=["trace", "summary"],
)
def test_output_file_taken_by_a_directory_exits_3(tmp_path, capsys, blocked, extra, message):
    # a directory where a file goes blocks the write for any user, root too
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    raw = fast_raw(repetitions=1, output_dir=str(out), **extra)
    assert main(["run", str(write_cfg(tmp_path, raw))]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [("a,b\n1,2\n", "not a trace file (missing ['phase', 'step', 't', 'y'])"),
     ("step,phase,t,y\n", "empty trace")],
    ids=["not_a_trace", "header_only"],
)
def test_plot_data_rejects_what_is_not_a_trace(tmp_path, capsys, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    assert main(["plot-data", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == f"cannot process {path}: {message}\n"
    assert not path.with_suffix(".plot.csv").exists()


def test_config_that_is_not_a_mapping_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    for verb in ("validate", "run"):
        assert main([verb, str(path)]) == 2
        assert "config must be a mapping" in capsys.readouterr().err


def test_bad_problem_field_types_exit_2_without_output(tmp_path, capsys):
    out = tmp_path / "out"
    raw = fast_raw(output_dir=str(out),
                   problem={"kind": "standard", "name": "branin_scaled",
                            "seed": True, "time_dim": 1.5})
    path = write_cfg(tmp_path, raw)
    assert main(["validate", str(path)]) == 2
    assert "problem.time_dim" in capsys.readouterr().err
    assert main(["run", str(path)]) == 2
    assert "problem.seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("schema", [True, 1.0])
def test_schema_must_be_an_integer_not_a_bool_or_float(tmp_path, capsys, schema):
    # True == 1 == 1.0 in Python, so an equality test alone accepts both
    out = tmp_path / "out"
    path = write_cfg(tmp_path, fast_raw(output_dir=str(out), schema=schema))
    assert main(["validate", str(path)]) == 2
    assert "schema:" in capsys.readouterr().err
    assert main(["run", str(path)]) == 2
    assert "schema:" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_acquisition_fails_in_engine_config_for():
    # normalize_config rejects it; a config built around it must not fall
    # back to the posterior mean
    data = normalize_config(minimal_raw())
    data["acquisition"] = "bogus"
    config = ExperimentConfig(data)
    problem = cli.build_problem(config)
    with pytest.raises(ValueError, match="bogus"):
        cli.engine_config_for(config, problem, "abo_fixed", 0)
    data["acquisition"] = "posterior_mean"
    engine_config = cli.engine_config_for(config, problem, "abo_fixed", 0)
    assert type(engine_config.acquisition).__name__ == "PosteriorMean"


def test_all_runs_aborted_exit_code(tmp_path, monkeypatch):
    step = StepRecord(0, np.zeros(1), 0.0, 1.0, "warmup", "explore_exploit",
                      math.nan, 0.0, 1.0)
    monkeypatch.setattr(
        cli, "run", lambda problem, config: RunTrace((step,), (), aborted=True)
    )
    raw = fast_raw(output_dir=str(tmp_path / "out"))
    rc = main(["run", str(write_cfg(tmp_path, raw))])
    assert rc == 4
    lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    data = [line.split(",") for line in lines[1:]]
    assert all(row[-1] == "1" for row in data if row[1] not in ("mean", "std"))
    assert all(row[2] == "nan" for row in data if row[1] not in ("mean", "std"))


def test_partial_abort_still_succeeds(tmp_path, monkeypatch):
    real_run = cli.run
    calls = {"n": 0}

    def sometimes_abort(problem, config):
        calls["n"] += 1
        if calls["n"] == 1:
            step = StepRecord(0, np.zeros(1), 0.0, 1.0, "warmup",
                              "explore_exploit", math.nan, 0.0, 1.0)
            return RunTrace((step,), (), aborted=True)
        return real_run(problem, config)

    monkeypatch.setattr(cli, "run", sometimes_abort)
    raw = fast_raw(output_dir=str(tmp_path / "out"))
    rc = main(["run", str(write_cfg(tmp_path, raw))])
    assert rc == 0
    lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    first = lines[1].split(",")
    assert first[1] == "0" and first[-1] == "1"  # partial flag on the aborted row


def test_readme_minimal_config_normalizes():
    # the config block the README offers as a starting point stays valid
    block = re.search(r"A minimal config:\s*```json\n(.*?)```", README.read_text(), re.S)
    cfg = normalize_config(json.loads(block.group(1)))
    assert cfg["problem"]["name"] == "branin_scaled"
    assert cfg["modes"] == ["standard_bo", "abo_fixed", "abo_adaptive_time"]


def test_readme_quick_start_runs(capsys):
    # the first code a reader runs; nothing else calls the library this way
    block = re.search(r"## Quick start\s*```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block.group(1), "README.md (Quick start)", "exec"), {})
    first, second = capsys.readouterr().out.splitlines()
    assert first == "30 evaluations"
    assert second.startswith("offline performance: ")
    assert math.isfinite(float(second.split(": ")[1]))


def test_readme_config_learns_a_temporal_scale_shorter_than_the_horizon():
    # short warmups cannot pin down the temporal length-scale; without the
    # prior training puts on it, adaptive mode learnt up to 19.4 on this unit
    # horizon, and one such step opened the window to the horizon's end
    block = re.search(r"A minimal config:\s*```json\n(.*?)```", README.read_text(), re.S)
    cfg = load_config(json.loads(block.group(1)))
    problem = cli.build_problem(cfg)
    t_start, t_end = problem.horizon
    for repetition in range(5):
        trace = run(problem, cli.engine_config_for(cfg, problem, "abo_adaptive_time", repetition))
        lt_hats = [s.lt_hat for s in trace.steps if s.phase == "scored"]
        assert lt_hats and max(lt_hats) < t_end - t_start, (repetition, lt_hats)


def test_readme_config_fixed_interval_mode_keeps_tracking():
    # the temporal prior must only cap long scales: a two-sided one, which
    # pulled short learnt scales up towards a tenth of the horizon, locked
    # repetition 0 onto the box edge x = 1 from its 12th scored step on, a
    # mean windowed regret of 0.457 against 0.016 without the prior
    block = re.search(r"A minimal config:\s*```json\n(.*?)```", README.read_text(), re.S)
    cfg = load_config(json.loads(block.group(1)))
    problem = cli.build_problem(cfg)
    time_dim = problem.metadata["time_dim"]
    fn = static_function(problem.name)
    grid = np.empty((4001, 2))
    box = problem.spatial_bounds
    grid[:, 1 - time_dim] = np.linspace(box.lower[0], box.upper[0], 4001)

    def slice_minimum(t):
        grid[:, time_dim] = t
        return float(fn.batch(grid).min())

    regrets = []
    for repetition in range(4):
        trace = run(problem, cli.engine_config_for(cfg, problem, "abo_fixed", repetition))
        scored = [s for s in trace.steps if s.phase == "scored"]
        gaps = np.array([s.y - slice_minimum(s.t) for s in scored])
        regrets.append(float(windowed_best(ScoredSeries(gaps, cfg.metric_window)).mean()))
    assert max(regrets) < 0.05, regrets


def test_readme_config_round_trains_within_3000_factorizations(monkeypatch):
    # a deterministic cost guard for training: one round of the README
    # config's fixed-interval modes at budget 17 (the benchmark's round) made
    # 5 533 gram factorizations while training ascended by hand, and makes
    # 2 338 with L-BFGS-B in trust boxes (51 of them are the posterior fits)
    from dynabo import gp

    factorizations = 0
    factorize = gp.chol_with_jitter

    def counted(matrix):
        nonlocal factorizations
        factorizations += 1
        return factorize(matrix)

    monkeypatch.setattr(gp, "chol_with_jitter", counted)
    cfg = load_config({
        "schema": 1, "problem": {"kind": "standard", "name": "branin_scaled", "seed": 0},
        "modes": ["standard_bo", "abo_fixed", "tvb"], "budget": 17, "output_dir": "runs",
    })
    problem = cli.build_problem(cfg)
    for mode in cfg.modes:
        assert run(problem, cli.engine_config_for(cfg, problem, mode, 0)).n_scored == 17
    assert factorizations <= 3000


# ---- mpb-preview


def test_mpb_preview_emits_schedule(capsys):
    assert main(["mpb-preview", "1", "--steps", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("step,peak,height,width,loc_0")
    # scenario 1: 10 peaks; steps 0..3 inclusive
    assert len(lines) - 1 == 4 * 10


def test_mpb_preview_deterministic(capsys):
    main(["mpb-preview", "2", "--steps", "2", "--seed", "5"])
    first = capsys.readouterr().out
    main(["mpb-preview", "2", "--steps", "2", "--seed", "5"])
    assert capsys.readouterr().out == first


def test_mpb_preview_unknown_scenario(capsys):
    assert main(["mpb-preview", "99"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb, flag, value",
    [
        ("mpb-preview", "--seed", "-1"),
        ("mpb-preview", "--steps", "-2"),
        ("plot-data", "--window", "0"),
        ("mpb-preview", "--steps", "two"),
    ],
)
def test_out_of_range_cli_integers_are_usage_errors(verb, flag, value, capsys):
    # argparse rejects the flag before any command runs: exit 2, no output
    positional = "t.csv" if verb == "plot-data" else "1"
    with pytest.raises(SystemExit) as exit_info:
        main([verb, positional, flag, value])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "usage:" in err and flag in err
