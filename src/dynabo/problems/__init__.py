"""Objective functions: dynamized classics, moving peaks, sensor fields."""

from dynabo.problems.base import Problem
from dynabo.problems.mpb import (
    MpbConfig,
    MpbState,
    make_mpb_scenario,
    mpb_eval,
    mpb_init,
    mpb_step,
    scenario_presets,
)
from dynabo.problems.sensor import (
    SensorTable,
    ingest_sensor_csv,
    make_sensor_problem,
    write_synthetic_fixture,
)
from dynabo.problems.standard import (
    StaticFunction,
    make_standard,
    static_function,
)

__all__ = [
    "Problem",
    "make_standard",
    "static_function",
    "StaticFunction",
    "MpbConfig",
    "MpbState",
    "mpb_init",
    "mpb_eval",
    "mpb_step",
    "make_mpb_scenario",
    "scenario_presets",
    "SensorTable",
    "ingest_sensor_csv",
    "make_sensor_problem",
    "write_synthetic_fixture",
]
