import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from rollsim.cli import summarize
from rollsim.config import load_scenario
from rollsim.output import (_BLOCK_ROWS, CSV_COLUMNS, format_csv,
                            gnuplot_script, read_csv, write_csv, write_outputs)
from rollsim.simulate import run


@pytest.fixture(scope="module")
def freefall_short():
    sc, p, m = load_scenario("freefall")
    return run(replace(sc, horizon=1.0), p, m)


def test_header_and_row_count(freefall_short, tmp_path):
    path = tmp_path / "t.csv"
    rows = write_csv(freefall_short, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == rows + 1 == 1002


def test_bit_identical_serialization(freefall_short):
    assert format_csv(freefall_short) == format_csv(freefall_short)


def test_round_trip_exact(freefall_short, tmp_path):
    path = tmp_path / "t.csv"
    write_csv(freefall_short, path)
    cols = read_csv(path)
    # 17 significant digits reproduce every double exactly
    assert np.array_equal(cols["t"], freefall_short.t)
    assert np.array_equal(cols["theta1"], freefall_short.y[:, 0])
    assert np.array_equal(cols["E"], freefall_short.E)
    assert np.array_equal(cols["disk2_height"], freefall_short.height)
    # V is NaN without a controller and must survive the trip as NaN
    assert np.all(np.isnan(cols["V"]))


def test_summary_recomputable_from_csv(freefall_short, tmp_path):
    path = tmp_path / "t.csv"
    write_csv(freefall_short, path)
    cols = read_csv(path)
    s = summarize(freefall_short)
    assert s.height_min == np.min(cols["disk2_height"])
    assert s.height_max == np.max(cols["disk2_height"])
    assert s.energy_start == cols["E"][0]
    assert s.energy_end == cols["E"][-1]
    state_cols = ("theta1", "theta2", "phi1", "phi2",
                  "dtheta1", "dtheta2", "dphi1", "dphi2")
    assert s.final_state == tuple(cols[c][-1] for c in state_cols)
    assert s.max_abs_u == (np.max(np.abs(cols["u1"])),
                           np.max(np.abs(cols["u2"])))


def test_gnuplot_script_references_csv(freefall_short, tmp_path):
    csv_path, gp_path = write_outputs(freefall_short, tmp_path / "ff.csv")
    assert csv_path.exists() and gp_path.exists()
    script = gp_path.read_text()
    assert "ff.csv" in script
    assert "separator comma" in script


def test_read_csv_rejects_foreign_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_csv(bad)


def per_value_csv(traj):
    """format_csv as it was, one "%.17g" per value: the byte oracle."""
    table = np.column_stack((traj.t, *traj.y.T, *traj.u.T, traj.T, traj.U,
                             traj.E, traj.P, traj.V, traj.Vdot, traj.height,
                             traj.p_m))
    lines = [",".join(CSV_COLUMNS)]
    for row in table:
        lines.append(",".join("%.17g" % v for v in row))
    return "\n".join(lines) + "\n"


def first_difference(a, b):
    """(line number, line of a, line of b) where two texts first differ, or
    None; pytest's own diff of two large strings would take minutes."""
    if a == b:
        return None
    la, lb = a.split("\n"), b.split("\n")
    i = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y),
             min(len(la), len(lb)))
    return i, la[i:i + 1], lb[i:i + 1]


def test_format_csv_equals_the_per_value_loop(freefall_short):
    assert first_difference(format_csv(freefall_short),
                            per_value_csv(freefall_short)) is None


def test_format_csv_bytes_for_special_values():
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2e-310,
               1e308, -1e308, np.finfo(float).max, 0.1, -1.0 / 3.0]
    rng = np.random.default_rng(3)
    n = 64
    cols = rng.choice(special, size=(n, len(CSV_COLUMNS)))
    cols[::3] = rng.standard_normal((len(cols[::3]), len(CSV_COLUMNS)))
    traj = SimpleNamespace(t=cols[:, 0], y=cols[:, 1:9], u=cols[:, 9:11],
                           T=cols[:, 11], U=cols[:, 12], E=cols[:, 13],
                           P=cols[:, 14], V=cols[:, 15], Vdot=cols[:, 16],
                           height=cols[:, 17], p_m=cols[:, 18])
    text = format_csv(traj)
    assert first_difference(text, per_value_csv(traj)) is None
    for token in ("nan", "inf", "-inf", "-0", "4.9406564584124654e-324",
                  "1e+308", "-1e+308"):
        assert token in text.replace("\n", ",").split(","), token


def first_rows(traj, n):
    """The CSV's columns of traj cut to their first n rows."""
    return SimpleNamespace(t=traj.t[:n], y=traj.y[:n], u=traj.u[:n],
                           T=traj.T[:n], U=traj.U[:n], E=traj.E[:n],
                           P=traj.P[:n], V=traj.V[:n], Vdot=traj.Vdot[:n],
                           height=traj.height[:n], p_m=traj.p_m[:n])


@pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                               _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1, None])
def test_write_csv_bytes_equal_the_per_value_loop(freefall_short, tmp_path,
                                                  n):
    # at and around the block boundaries, and the whole 1001-row run
    traj = freefall_short if n is None else first_rows(freefall_short, n)
    path = tmp_path / "t.csv"
    assert write_csv(traj, path) == traj.t.shape[0]
    assert first_difference(path.read_bytes().decode("ascii"),
                            per_value_csv(traj)) is None


def test_write_csv_holds_one_block_not_the_file(tmp_path):
    # the 5 s run's text is 1.56 MB, more than the bound, so a writer that
    # builds the whole text fails
    sc, p, m = load_scenario("freefall")
    traj = run(sc, p, m)
    tracemalloc.start()
    try:
        write_csv(traj, tmp_path / "t.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "t.csv").stat().st_size > 1_000_000
    assert peak < 1_000_000
