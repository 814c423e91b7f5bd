"""Temperature-field objective built from sensor log files.

Ingestion reads two CSV files: timestamped readings keyed by (epoch,
sensor) and a table of sensor floor coordinates in metres.  Query values
come from inverse-distance-squared interpolation between sensors at the
epoch nearest to the query time; the sign is flipped so that hunting the
hottest spot becomes a minimization problem.

No network access: a synthetic fixture generator stands in for real
deployments' data files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date as date_type
from datetime import time as time_type
from functools import cached_property
from pathlib import Path

import numpy as np

from dynabo.optimizer import Box
from dynabo.problems.base import Problem

__all__ = [
    "SensorTable",
    "ingest_sensor_csv",
    "make_sensor_problem",
    "train_epoch_split",
    "write_synthetic_fixture",
]


@dataclass(frozen=True)
class SensorTable:
    """Readings keyed by (epoch, sensor id) with attached coordinates."""

    readings: dict = field(repr=False)
    coords: dict = field(repr=False)
    dropped_rows: int = 0
    duplicate_rows: int = 0
    unlocated_rows: int = 0
    dropped_coord_rows: int = 0

    @property
    def epochs(self) -> np.ndarray:
        return np.array(sorted(self._by_epoch), dtype=int)

    @property
    def sensors(self) -> list[int]:
        return sorted(self.coords)

    @cached_property
    def _by_epoch(self) -> dict:
        """Each epoch's positions and temperatures, sensors ascending,
        grouped in one pass over the readings; read-only, since every
        ``readings_at`` call and every problem built on the table shares
        them."""
        grouped: dict = {}
        for (epoch, sensor), value in sorted(self.readings.items()):
            grouped.setdefault(epoch, []).append((self.coords[sensor], value))
        out = {}
        for epoch, items in grouped.items():
            pos = np.array([xy for xy, _ in items], dtype=float)
            temps = np.array([v for _, v in items], dtype=float)
            pos.flags.writeable = temps.flags.writeable = False
            out[epoch] = (pos, temps)
        return out

    def readings_at(self, epoch: int):
        """Positions (k, 2) and temperatures (k,) of that epoch's readings."""
        return self._by_epoch.get(epoch, (np.empty((0, 2)), np.empty(0)))

    def bounding_box(self) -> Box:
        xy = np.array([self.coords[s] for s in self.sensors], dtype=float)
        return Box(xy.min(axis=0), xy.max(axis=0))


def _parse_reading(fields: list[str]):
    """One validated reading row; raises ValueError on any bad field."""
    if len(fields) == 5:
        date_s, time_s, epoch_s, sensor_s, temp_s = fields
    elif len(fields) == 4:
        # sensor column omitted: single-sensor export convention
        date_s, time_s, epoch_s, temp_s = fields
        sensor_s = "0"
    else:
        raise ValueError("wrong column count")
    date_type.fromisoformat(date_s.strip())
    time_type.fromisoformat(time_s.strip())
    epoch = int(epoch_s)
    sensor = int(sensor_s)
    temperature = float(temp_s)
    if not math.isfinite(temperature):
        raise ValueError("non-finite temperature")
    if epoch < 0:
        raise ValueError("negative epoch")
    return epoch, sensor, temperature


def ingest_sensor_csv(readings_path, coords_path) -> SensorTable:
    """Load reading and coordinate files into a queryable table.

    Malformed rows are dropped and counted, never fatal; a repeated
    (epoch, sensor) key keeps the last occurrence and bumps the duplicate
    counter.  Readings from sensors without coordinates are unusable for
    interpolation and are dropped with their own counter.  An empty result
    after filtering raises.
    """
    coords = {}
    dropped_coords = 0
    coord_lines = Path(coords_path).read_text().splitlines()
    for i, line in enumerate(coord_lines):
        if not line.strip():
            continue
        fields = line.split(",")
        try:
            if len(fields) != 3:
                raise ValueError("wrong column count")
            sensor = int(fields[0])
            coords[sensor] = (float(fields[1]), float(fields[2]))
        except ValueError:
            if i == 0:
                continue  # optional header
            dropped_coords += 1

    readings = {}
    dropped = duplicates = unlocated = 0
    for i, line in enumerate(Path(readings_path).read_text().splitlines()):
        if not line.strip():
            continue
        try:
            epoch, sensor, temperature = _parse_reading(line.split(","))
        except ValueError:
            if i == 0:
                continue  # optional header
            dropped += 1
            continue
        if sensor not in coords:
            unlocated += 1
            continue
        key = (epoch, sensor)
        if key in readings:
            duplicates += 1
        readings[key] = temperature

    if not readings:
        raise ValueError("no usable readings after filtering")
    return SensorTable(
        readings=readings,
        coords=coords,
        dropped_rows=dropped,
        duplicate_rows=duplicates,
        unlocated_rows=unlocated,
        dropped_coord_rows=dropped_coords,
    )


def train_epoch_split(table: SensorTable, fraction: float = 0.66):
    """Chronological split of the table's epochs; first ``fraction`` train."""
    if not 0 < fraction < 1:
        raise ValueError("fraction must lie in (0, 1)")
    epochs = table.epochs
    cut = int(len(epochs) * fraction)
    return epochs[:cut], epochs[cut:]


def make_sensor_problem(
    table: SensorTable,
    first_n_epochs: int = 3000,
    negate: bool = True,
) -> Problem:
    """Interpolated-temperature objective over the sensor bounding box.

    Time maps to the nearest kept epoch (clamped at the ends, lower epoch
    on ties).  The value at a query point is the inverse-distance-squared
    blend of that epoch's readings, with an exact shortcut when the query
    sits on a sensor; ``negate`` flips sign for minimization.
    """
    epochs = table.epochs[:first_n_epochs]
    if len(epochs) < 2:
        raise ValueError("need at least two epochs for a time horizon")
    per_epoch = {int(e): table.readings_at(int(e)) for e in epochs}
    epoch_times = epochs.astype(float)
    sign = -1.0 if negate else 1.0

    def evaluate(x, t: float) -> float:
        x = np.asarray(x, dtype=float).ravel()
        if x.shape != (2,):
            raise ValueError("expected 2 coordinates")
        idx = int(np.searchsorted(epoch_times, t))
        if idx == 0:
            epoch = epochs[0]
        elif idx == len(epochs):
            epoch = epochs[-1]
        else:
            before, after = epoch_times[idx - 1], epoch_times[idx]
            epoch = epochs[idx - 1] if t - before <= after - t else epochs[idx]
        pos, temps = per_epoch[int(epoch)]
        dist_sq = np.sum((pos - x[None, :]) ** 2, axis=1)
        nearest = int(np.argmin(dist_sq))
        if dist_sq[nearest] <= 1e-18:
            return sign * float(temps[nearest])
        weights = 1.0 / dist_sq
        return sign * float(weights @ temps / weights.sum())

    return Problem(
        name="sensor_field",
        spatial_bounds=table.bounding_box(),
        horizon=(float(epochs[0]), float(epochs[-1])),
        evaluate=evaluate,
        metadata={
            "epochs": epochs,
            "negated": negate,
            "sensor_count": len(table.sensors),
        },
    )


def write_synthetic_fixture(
    readings_path,
    coords_path,
    n_sensors: int = 6,
    n_epochs: int = 120,
    seed: int = 0,
    sensor_column: bool = True,
    corrupt_rows: int = 0,
    duplicate_rows: int = 0,
):
    """Generate a plausible sensor log pair for tests and demos.

    Temperatures follow per-sensor smooth daily cycles plus noise; a few
    epochs are skipped to mimic gaps.  ``corrupt_rows`` appends malformed
    lines and ``duplicate_rows`` repeats existing keys with new values, so
    ingestion counters can be exercised deterministically.
    """
    rng = np.random.default_rng(seed)
    sensors = list(range(1, n_sensors + 1))
    coords = {s: (float(rng.uniform(0, 40)), float(rng.uniform(0, 30))) for s in sensors}
    base = rng.uniform(18, 22, size=n_sensors)
    amp = rng.uniform(0.5, 3.0, size=n_sensors)
    phase = rng.uniform(0, 2 * math.pi, size=n_sensors)

    kept = [e for e in range(1, n_epochs + 1) if rng.uniform() > 0.05]
    lines = []
    for e in kept:
        minute = e * 31
        stamp_date = "2020-01-01" if minute < 86400 else "2020-01-02"
        hh, rem = divmod(minute % 86400, 3600)
        mm, ss = divmod(rem, 60)
        time_s = f"{hh:02d}:{mm:02d}:{ss:02d}"
        for j, s in enumerate(sensors):
            temp = base[j] + amp[j] * math.sin(2 * math.pi * e / 48 + phase[j])
            temp += float(rng.normal(scale=0.05))
            if sensor_column:
                lines.append(f"{stamp_date},{time_s},{e},{s},{temp:.4f}")
            else:
                lines.append(f"{stamp_date},{time_s},{e},{temp:.4f}")
    for k in range(duplicate_rows):
        e = kept[k % len(kept)]
        s = sensors[0] if sensor_column else 0
        row = f"2020-01-01,00:00:00,{e},{s},99.0" if sensor_column else f"2020-01-01,00:00:00,{e},99.0"
        lines.append(row)
    for k in range(corrupt_rows):
        lines.append(f"2020-01-01,00:00:00,{1000 + k},oops")
    Path(readings_path).write_text("\n".join(lines) + "\n")

    coord_lines = [f"{s},{coords[s][0]:.3f},{coords[s][1]:.3f}" for s in sensors]
    if not sensor_column:
        coord_lines.append("0,20.0,15.0")
    Path(coords_path).write_text("\n".join(coord_lines) + "\n")
