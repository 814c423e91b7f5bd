"""Sensor ingestion and interpolation tests on hand-built fixtures."""

import numpy as np
import pytest

from dynabo.problems import (
    ingest_sensor_csv,
    make_sensor_problem,
    write_synthetic_fixture,
)


def write(tmp_path, readings, coords):
    rp = tmp_path / "readings.csv"
    cp = tmp_path / "coords.csv"
    rp.write_text(readings)
    cp.write_text(coords)
    return rp, cp


COORDS_3 = "1,0.0,0.0\n2,10.0,0.0\n3,0.0,10.0\n"


def test_ingest_five_column_rows(tmp_path):
    rp, cp = write(
        tmp_path,
        "2020-01-01,00:00:31,1,1,19.5\n"
        "2020-01-01,00:01:02,1,2,21.0\n"
        "2020-01-01,00:01:33,2,1,19.7\n",
        COORDS_3,
    )
    table = ingest_sensor_csv(rp, cp)
    assert table.readings[(1, 1)] == 19.5
    assert table.readings[(1, 2)] == 21.0
    assert table.readings[(2, 1)] == 19.7
    assert table.dropped_rows == 0
    assert np.array_equal(table.epochs, [1, 2])


def test_ingest_four_column_rows_default_sensor(tmp_path):
    # single-sensor export: no sensor column, id 0 implied
    rp, cp = write(
        tmp_path,
        "2004-02-28,00:58:46,3,19.3\n2004-02-28,00:59:17,4,19.4\n",
        "0,5.0,5.0\n",
    )
    table = ingest_sensor_csv(rp, cp)
    assert table.readings[(3, 0)] == 19.3
    assert table.readings[(4, 0)] == pytest.approx(19.4)


def test_ingest_drops_malformed_rows(tmp_path):
    rp, cp = write(
        tmp_path,
        "2020-01-01,00:00:31,1,1,19.5\n"
        "2020-01-01,00:01:02,1,2,not-a-number\n"
        "garbage line\n"
        "2020-13-45,00:01:33,2,1,19.7\n"
        "2020-01-01,25:99:00,2,2,19.7\n"
        "2020-01-01,00:02:04,-3,1,19.7\n"
        "2020-01-01,00:02:35,3,1,nan\n",
        COORDS_3,
    )
    table = ingest_sensor_csv(rp, cp)
    assert len(table.readings) == 1
    assert table.dropped_rows == 6


def test_ingest_skips_blank_lines_and_counts_bad_coordinate_rows(tmp_path):
    rp, cp = tmp_path / "r.csv", tmp_path / "c.csv"
    write_synthetic_fixture(rp, cp, n_sensors=4, n_epochs=20, seed=1)
    clean = ingest_sensor_csv(rp, cp)
    messy = ingest_sensor_csv(*write(
        tmp_path,
        "date,time,epoch,sensor,temperature\n\n" + rp.read_text(),
        "sensor,x,y\n\n" + cp.read_text() + "7,1.0\n8,a,b\n",
    ))
    assert messy.dropped_coord_rows == 2  # a short row and a non-numeric one
    assert messy.coords == clean.coords
    assert messy.readings == clean.readings
    assert messy.dropped_rows == clean.dropped_rows == 0


def test_ingest_duplicate_last_wins(tmp_path):
    rp, cp = write(
        tmp_path,
        "2020-01-01,00:00:31,1,1,19.5\n"
        "2020-01-01,00:00:31,1,1,20.5\n"
        "2020-01-01,00:00:31,1,1,21.5\n"
        "2020-01-01,00:01:02,2,1,19.0\n",
        COORDS_3,
    )
    table = ingest_sensor_csv(rp, cp)
    assert table.readings[(1, 1)] == 21.5
    assert table.duplicate_rows == 2


def test_ingest_header_not_counted(tmp_path):
    rp, cp = write(
        tmp_path,
        "date,time,epoch,sensor,temperature\n2020-01-01,00:00:31,1,1,19.5\n",
        "sensor,x,y\n" + COORDS_3,
    )
    table = ingest_sensor_csv(rp, cp)
    assert table.dropped_rows == 0
    assert table.dropped_coord_rows == 0
    assert len(table.readings) == 1


def test_ingest_unlocated_sensor_counted(tmp_path):
    rp, cp = write(
        tmp_path,
        "2020-01-01,00:00:31,1,1,19.5\n2020-01-01,00:01:02,1,9,22.0\n",
        COORDS_3,
    )
    table = ingest_sensor_csv(rp, cp)
    assert table.unlocated_rows == 1
    assert (1, 9) not in table.readings


def test_ingest_empty_after_filtering(tmp_path):
    rp, cp = write(tmp_path, "junk\nmore junk\n", COORDS_3)
    with pytest.raises(ValueError):
        ingest_sensor_csv(rp, cp)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(OSError):
        ingest_sensor_csv(tmp_path / "nope.csv", tmp_path / "also_nope.csv")


def three_sensor_table(tmp_path, temps=("19.0", "21.0", "25.0"), epochs=(1, 2)):
    rows = []
    for e in epochs:
        for s, v in zip((1, 2, 3), temps):
            rows.append(f"2020-01-01,00:00:{31 + e:02d},{e},{s},{v}")
    return ingest_sensor_csv(*write(tmp_path, "\n".join(rows) + "\n", COORDS_3))


def test_problem_exact_node_shortcut(tmp_path):
    table = three_sensor_table(tmp_path)
    problem = make_sensor_problem(table)
    # query exactly on sensor 2 at epoch 1
    assert problem.evaluate(np.array([10.0, 0.0]), 1.0) == pytest.approx(-21.0, abs=1e-9)
    assert problem.evaluate(np.array([0.0, 10.0]), 2.0) == pytest.approx(-25.0, abs=1e-9)


def test_problem_constant_field(tmp_path):
    table = three_sensor_table(tmp_path, temps=("20.0", "20.0", "20.0"))
    problem = make_sensor_problem(table)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(0, 10, size=2)
        assert problem.evaluate(x, 1.0) == pytest.approx(-20.0)


def test_problem_convex_combination_bound(tmp_path):
    table = three_sensor_table(tmp_path)
    problem = make_sensor_problem(table, negate=False)
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = rng.uniform(-5, 15, size=2)
        v = problem.evaluate(x, 1.2)
        assert 19.0 - 1e-12 <= v <= 25.0 + 1e-12


def test_problem_nearest_epoch_clamps(tmp_path):
    rows = (
        "2020-01-01,00:00:31,10,1,19.0\n2020-01-01,00:00:31,10,2,19.0\n"
        "2020-01-01,00:05:10,20,1,30.0\n2020-01-01,00:05:10,20,2,30.0\n"
    )
    table = ingest_sensor_csv(*write(tmp_path, rows, COORDS_3))
    problem = make_sensor_problem(table, negate=False)
    x = np.array([3.0, 3.0])
    assert problem.evaluate(x, -100.0) == pytest.approx(19.0)  # clamp below
    assert problem.evaluate(x, 1e6) == pytest.approx(30.0)  # clamp above
    assert problem.evaluate(x, 14.0) == pytest.approx(19.0)  # nearer to 10
    assert problem.evaluate(x, 16.0) == pytest.approx(30.0)  # nearer to 20
    assert problem.evaluate(x, 15.0) == pytest.approx(19.0)  # tie takes lower


def test_problem_first_n_epochs_truncates(tmp_path):
    rows = []
    for e in range(1, 11):
        rows.append(f"2020-01-01,00:00:{30 + e:02d},{e},1,{19 + e}.0")
        rows.append(f"2020-01-01,00:00:{30 + e:02d},{e},2,{19 + e}.0")
    table = ingest_sensor_csv(*write(tmp_path, "\n".join(rows) + "\n", COORDS_3))
    problem = make_sensor_problem(table, first_n_epochs=4, negate=False)
    assert problem.horizon == (1.0, 4.0)
    assert problem.evaluate(np.array([2.0, 2.0]), 100.0) == pytest.approx(23.0)


def test_problem_needs_two_epochs(tmp_path):
    rows = "2020-01-01,00:00:31,1,1,19.0\n"
    table = ingest_sensor_csv(*write(tmp_path, rows, COORDS_3))
    with pytest.raises(ValueError):
        make_sensor_problem(table)


def test_problem_rejects_a_query_of_the_wrong_dimension(tmp_path):
    rp, cp = tmp_path / "r.csv", tmp_path / "c.csv"
    write_synthetic_fixture(rp, cp, n_sensors=4, n_epochs=20, seed=1)
    problem = make_sensor_problem(ingest_sensor_csv(rp, cp))
    with pytest.raises(ValueError, match="expected 2 coordinates"):
        problem.evaluate(np.zeros(3), 1.0)


def test_synthetic_fixture_round_trip(tmp_path):
    rp, cp = tmp_path / "r.csv", tmp_path / "c.csv"
    write_synthetic_fixture(rp, cp, n_sensors=5, n_epochs=60, seed=3, corrupt_rows=2, duplicate_rows=3)
    table = ingest_sensor_csv(rp, cp)
    assert table.dropped_rows == 2
    assert table.duplicate_rows == 3
    assert len(table.sensors) == 5
    problem = make_sensor_problem(table)
    x = np.asarray(table.coords[1])
    v = problem.evaluate(x, float(table.epochs[0]))
    assert np.isfinite(v) and v < 0


def test_readings_grouped_by_epoch_match_a_full_scan(tmp_path):
    # sensors missing at some epochs, whole epochs missing, rows out of order
    rng = np.random.default_rng(4)
    coords = "".join(f"{s},{rng.uniform(0, 40):.3f},{rng.uniform(0, 30):.3f}\n"
                     for s in range(1, 8))
    rows = [f"2020-01-01,00:00:31,{e},{s},{rng.normal(20, 2):.4f}"
            for e in range(1, 41) for s in range(1, 8) if rng.uniform() < 0.6]
    rng.shuffle(rows)
    table = ingest_sensor_csv(*write(tmp_path, "\n".join(rows) + "\n", coords))
    for epoch in range(0, 42):
        keys = sorted(s for e, s in table.readings if e == epoch)
        pos, temps = table.readings_at(epoch)  # array_equal compares shapes too
        assert np.array_equal(pos, np.reshape([table.coords[s] for s in keys], (-1, 2)))
        assert np.array_equal(temps, [table.readings[(epoch, s)] for s in keys])
    assert np.array_equal(table.epochs, sorted({e for e, _ in table.readings}))


def test_synthetic_fixture_without_sensor_column(tmp_path):
    rp, cp = tmp_path / "r.csv", tmp_path / "c.csv"
    write_synthetic_fixture(rp, cp, n_sensors=1, n_epochs=30, seed=5, sensor_column=False)
    table = ingest_sensor_csv(rp, cp)
    assert set(s for _, s in table.readings) == {0}
    assert table.unlocated_rows == 0


def test_fixture_determinism(tmp_path):
    a_r, a_c = tmp_path / "a_r.csv", tmp_path / "a_c.csv"
    b_r, b_c = tmp_path / "b_r.csv", tmp_path / "b_c.csv"
    write_synthetic_fixture(a_r, a_c, seed=9)
    write_synthetic_fixture(b_r, b_c, seed=9)
    assert a_r.read_text() == b_r.read_text()
    assert a_c.read_text() == b_c.read_text()
