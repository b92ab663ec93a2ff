import errno
import io
import os
import pathlib
import signal
import threading
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from rollsim import cli, output
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


def test_gnuplot_script_quotes_a_name_with_an_apostrophe(tmp_path):
    script = gnuplot_script(tmp_path / "it's.csv")
    # gnuplot reads '' inside single quotes as one '
    assert "plot 'it''s.csv' u 1:" in script
    assert "it's.csv" not in script.replace("# gnuplot -p it's.gp", "")
    # outside the comment line every quoted string is closed
    for line in script.splitlines()[1:]:
        assert line.count("'") % 2 == 0, line


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


@pytest.fixture(scope="module")
def freefall_full():
    sc, p, m = load_scenario("freefall")
    return run(sc, p, m)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fails a test that would hang, with TimeoutError after 60 s."""
    def expire(signum, frame):
        raise TimeoutError("write_csv did not return")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forks(monkeypatch):
    """The children os.fork made while the test ran. One still running at
    the end is killed, so a failing test leaves no process behind."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield pids
    for pid in pids:
        try:
            if os.waitpid(pid, os.WNOHANG) == (0, 0):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # reaped, as it should be


@pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
@pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                               _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1, None])
def test_write_csv_bytes_on_both_paths(freefall_short, tmp_path, monkeypatch,
                                       forks, deadline, forked, n):
    # the helper is forced either way, so a one-block table forks too and
    # the child sends nothing
    monkeypatch.setattr(output, "_two_processes", lambda nblocks: forked)
    traj = freefall_short if n is None else first_rows(freefall_short, n)
    path = tmp_path / "t.csv"
    assert write_csv(traj, path) == traj.t.shape[0]
    assert first_difference(path.read_bytes().decode("ascii"),
                            per_value_csv(traj)) is None
    assert len(forks) == forked
    assert_no_child_left()


def test_write_csv_writes_the_blocks_joined(freefall_full, tmp_path, forks):
    # on a host with one usable CPU this takes the serial path
    path = tmp_path / "t.csv"
    write_csv(freefall_full, path)
    assert path.read_bytes() == "".join(output._blocks(freefall_full)).encode()
    assert len(forks) == output._two_processes(20)
    assert_no_child_left()


def test_two_processes_needs_two_blocks_and_no_other_thread():
    assert not output._two_processes(0)
    assert not output._two_processes(1)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert not output._two_processes(20)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()



@pytest.mark.parametrize("count, two", [(4, True), (1, False), (None, False)])
def test_two_processes_counts_cpus_without_sched_getaffinity(monkeypatch,
                                                             count, two):
    # as on macOS: no os.sched_getaffinity, and os.cpu_count() may be None
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    assert output._two_processes(20) is two


def test_write_csv_where_sigchld_is_ignored(freefall_full, tmp_path,
                                            monkeypatch, capsys, forks,
                                            deadline):
    # the kernel reaps each child itself, so the wait for it finds none;
    # an ignored SIGCHLD is inherited across exec from any parent
    monkeypatch.setattr(output, "_two_processes", lambda nblocks: True)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        path = tmp_path / "t.csv"
        write_csv(freefall_full, path)
        code = cli.main(["run", "freefall", "--out", str(tmp_path / "ff.csv")])
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert path.read_bytes() == format_csv(freefall_full).encode()
    assert code == 0
    assert (tmp_path / "ff.gp").exists()
    assert "cannot write" not in capsys.readouterr().err
    assert len(forks) == 2
    assert_no_child_left()

@pytest.mark.parametrize("sent", [0, 1, 5])
def test_write_csv_survives_a_failing_child(freefall_full, tmp_path,
                                            monkeypatch, capfd, forks,
                                            deadline, sent):
    # the child formats `sent` blocks and then raises; the caller formats
    # the rest and writes each block once
    monkeypatch.setattr(output, "_two_processes", lambda nblocks: True)
    caller, real, formatted = os.getpid(), output._block, []

    def block(cols, start):
        if os.getpid() != caller:
            formatted.append(start)
            if len(formatted) > sent:
                raise RuntimeError("the child fails")
        return real(cols, start)

    monkeypatch.setattr(output, "_block", block)
    path = tmp_path / "t.csv"
    write_csv(freefall_full, path)
    assert path.read_bytes() == format_csv(freefall_full).encode()
    assert formatted == []  # the child's list is its own
    assert len(forks) == 1
    assert_no_child_left()
    assert capfd.readouterr().err == ""


def test_write_csv_formats_every_block_when_fork_fails(freefall_short,
                                                       tmp_path, monkeypatch):
    def fork():
        raise OSError(errno.EAGAIN, "no process")

    monkeypatch.setattr(output, "_two_processes", lambda nblocks: True)
    monkeypatch.setattr(os, "fork", fork)
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else []
    path = tmp_path / "t.csv"
    write_csv(freefall_short, path)
    assert path.read_bytes() == format_csv(freefall_short).encode()
    # the pipe is closed again
    if fds:
        assert len(os.listdir("/proc/self/fd")) == len(fds)


def test_a_failed_file_write_reaches_the_caller(freefall_full, tmp_path,
                                                monkeypatch, forks, deadline):
    # the child is still sending when the caller's write fails; closing the
    # pipe ends it, so the wait returns
    monkeypatch.setattr(output, "_two_processes", lambda nblocks: True)
    real_open = pathlib.Path.open

    class FullDisk:
        """The file, whose writes fail after the header and first block."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes > 2:
                raise OSError(errno.ENOSPC, "disk full")
            return self.fh.write(data)

    monkeypatch.setattr(pathlib.Path, "open",
                        lambda self, *a, **k: FullDisk(real_open(self, *a,
                                                                 **k)))
    with pytest.raises(OSError, match="disk full"):
        write_csv(freefall_full, tmp_path / "t.csv")
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("stream", [b"", b"\x05\x00",
                                    (10).to_bytes(8, "little") + b"abc"])
def test_received_reads_a_cut_stream_as_its_end(stream):
    assert output._received(io.BytesIO(stream)) is None
    whole = (3).to_bytes(8, "little") + b"abc"
    assert output._received(io.BytesIO(whole)) == b"abc"
