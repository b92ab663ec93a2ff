import errno
import io
import os
import pathlib
import select
import signal
import struct
import threading
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import first_difference, per_value_csv
from rollsim import _core, cli, output
from rollsim.cli import summarize
from rollsim.config import load_scenario
from rollsim.model import ValidationError
from rollsim.output import (_BLOCK_ROWS, CSV_COLUMNS, format_csv,
                            gnuplot_script, write_csv, write_outputs)
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


def test_bit_identical_serialization(freefall_short, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(freefall_short, a)
    write_csv(freefall_short, b)
    assert a.read_bytes() == b.read_bytes()


def load_csv(path):
    """The file's columns back as float arrays, keyed by header name."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return dict(zip(CSV_COLUMNS, data.T))


def test_round_trip_exact(freefall_short, tmp_path):
    path = tmp_path / "t.csv"
    write_csv(freefall_short, path)
    cols = load_csv(path)
    # 17 significant digits reproduce every double exactly
    assert np.array_equal(cols["t"], freefall_short.t)
    assert np.array_equal(cols["theta1"], freefall_short.y[:, 0])
    assert np.array_equal(cols["E"], freefall_short.E)
    assert np.array_equal(cols["disk2_height"], freefall_short.height)
    # V is NaN without a controller and must survive the trip as NaN
    assert np.all(np.isnan(cols["V"]))


# the Trajectory field of each CSV column, written out here rather than
# taken from output, whose order it checks
STATE_COLUMNS = ("theta1", "theta2", "phi1", "phi2",
                 "dtheta1", "dtheta2", "dphi1", "dphi2")


def field_of(traj, name):
    if name in STATE_COLUMNS:
        return traj.y[:, STATE_COLUMNS.index(name)]
    if name in ("u1", "u2"):
        return traj.u[:, ("u1", "u2").index(name)]
    return getattr(traj, "height" if name == "disk2_height" else name)


@pytest.fixture(scope="module")
def lifting_csv(tmp_path_factory):
    """A controlled run's Trajectory and the columns of the CSV that run
    wrote while it ran."""
    sc, p, m = load_scenario("lifting")
    path = tmp_path_factory.mktemp("lifting") / "lifting.csv"
    traj = run(replace(sc, horizon=0.3), p, m, path)
    return traj, load_csv(path)


@pytest.mark.parametrize("name", CSV_COLUMNS)
def test_every_column_round_trips_by_name(lifting_csv, name):
    traj, cols = lifting_csv
    assert np.array_equal(cols[name], field_of(traj, name), equal_nan=True)


def test_summary_recomputable_from_csv(freefall_short, tmp_path):
    path = tmp_path / "t.csv"
    write_csv(freefall_short, path)
    cols = load_csv(path)
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


def test_gnuplot_script_references_csv(tmp_path):
    sc, p, m = load_scenario("freefall")
    run(replace(sc, horizon=0.01), p, m, tmp_path / "ff.csv")
    csv_path, gp_path = write_outputs(tmp_path / "ff.csv")
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


def assert_holds(path, text):
    """The file at path holds the ASCII bytes of text."""
    assert first_difference(path.read_bytes().decode("ascii"), text) is None


def test_format_csv_equals_the_per_value_loop(freefall_short):
    assert first_difference(format_csv(freefall_short),
                            per_value_csv(freefall_short)) is None


def test_format_csv_bytes_for_special_values(tmp_path):
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
    path = tmp_path / "t.csv"
    write_csv(traj, path)
    text = path.read_bytes().decode("ascii")
    assert first_difference(text, per_value_csv(traj)) is None
    for token in ("nan", "inf", "-inf", "-0", "4.9406564584124654e-324",
                  "1e+308", "-1e+308"):
        assert token in text.replace("\n", ",").split(","), token


def first_rows(traj, n, start=0):
    """traj's samples start, start + 1, ..., n - 1, with no events."""
    arrays = {f.name: getattr(traj, f.name) for f in fields(traj)}
    return replace(traj, events=[], **{k: a[start:n] for k, a in arrays.items()
                                       if isinstance(a, np.ndarray)})


@pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                               _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1, None])
def test_write_csv_bytes_equal_the_per_value_loop(freefall_short, tmp_path,
                                                  n):
    # at and around the block boundaries, and the whole 1001-row run
    traj = freefall_short if n is None else first_rows(freefall_short, n)
    path = tmp_path / "t.csv"
    assert write_csv(traj, path) == traj.t.shape[0]
    assert_holds(path, per_value_csv(traj))


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


@pytest.fixture(scope="module")
def freefall_text(freefall_full):
    """The oracle's CSV text of freefall_full."""
    return per_value_csv(freefall_full)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_wrote(path, text, forks, count):
    """path holds text, the run forked count children and none is left."""
    assert_holds(path, text)
    assert len(forks) == count
    assert_no_child_left()


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


@pytest.fixture
def formatted(monkeypatch):
    """The pid of the process that formatted each block, as this process
    saw it: a child's list is its own."""
    real, pids = output._block, []

    def block(cols, start):
        pids.append(os.getpid())
        return real(cols, start)

    monkeypatch.setattr(output, "_block", block)
    return pids


def stream_rows(traj, path):
    """traj's CSV through a CsvStream, fed as run feeds it: after each chunk
    of the loop the rows so far, then all of them. The child's Trajectory
    of a block is traj's rows of it, with y the rows it receives."""
    n = traj.t.shape[0]

    def samples(rows, first, before):
        block = first_rows(traj, first + rows.shape[0], first)
        block.y = rows
        return block

    stream = output.CsvStream(path, traj.y, samples)
    try:
        for rows in range(_core.CHUNK_STEPS + 1, n, _core.CHUNK_STEPS):
            stream.send(rows)
        stream.send(n)
        stream.end()
        if stream.child:
            # the closed rows pipe lets the child finish before close()
            assert select.select([stream.child[2]], [], [], 30)[0]
        stream.finish(traj)
    finally:
        stream.close()


@pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
@pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                               _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1, None])
def test_write_csv_bytes_on_both_paths(freefall_short, tmp_path, monkeypatch,
                                       forks, deadline, forked, n):
    # the run's streamed writer; the helper is forced either way, so a
    # one-block table forks too
    monkeypatch.setattr(output, "_two_processes", lambda nblocks: forked)
    traj = freefall_short if n is None else first_rows(freefall_short, n)
    path = tmp_path / "t.csv"
    stream_rows(traj, path)
    assert_wrote(path, per_value_csv(traj), forks, forked)


# (preset, Scenario fields, MagneticParams fields) of the streamed runs:
# freefall's around one and two blocks; lifting and balancing are cut short
# by overflow at steps 1561 and 835 and their Vdot crosses every block edge;
# lifting_mag is the benchmark's command
STREAMED = {
    **{f"freefall-{h}": ("freefall", {"horizon": h}, {})
       for h in (0.001, 0.255, 0.256, 0.257, 0.511, 0.512)},
    "freefall": ("freefall", {}, {}),
    "lifting": ("lifting", {}, {}),
    "balancing": ("balancing", {}, {}),
    "lifting_mag": ("lifting", {"dt": 2e-4, "horizon": 0.8},
                    {"enabled": True}),
}


def streamed_run(name):
    preset, fields, mag_fields = STREAMED[name]
    sc, p, m = load_scenario(preset)
    return replace(sc, **fields), p, replace(m, **mag_fields)


def assert_same_trajectory(a, b):
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
@pytest.mark.parametrize("name", list(STREAMED))
def test_a_streamed_run_writes_its_trajectory_csv(tmp_path, monkeypatch,
                                                  forks, formatted, deadline,
                                                  forked, name):
    monkeypatch.setattr(output, "_two_processes", lambda nblocks: forked)
    sc, p, m = streamed_run(name)
    path = tmp_path / "t.csv"
    traj = run(sc, p, m, path)
    # the child of a healthy run writes every block, so the caller formats
    # none: a rewrite from the trajectory on every run would show here
    nblocks = -(-traj.t.shape[0] // _BLOCK_ROWS)
    assert formatted == ([] if forked else [os.getpid()] * nblocks)
    assert_same_trajectory(traj, run(sc, p, m))
    assert_wrote(path, per_value_csv(traj), forks, forked)


@pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
@pytest.mark.parametrize("chunk", [1, 100, 300, 5000])
def test_a_streamed_run_with_chunks_unlike_blocks(freefall_full,
                                                  freefall_text, tmp_path,
                                                  monkeypatch, forks,
                                                  formatted, deadline, forked,
                                                  chunk):
    # the caller sends each chunk's rows as they come and the child alone
    # cuts them into blocks, so chunks shorter or longer than a block give
    # the same bytes; a caller that sent only whole blocks would leave the
    # last rows unsent and format the whole file itself
    monkeypatch.setattr(_core, "CHUNK_STEPS", chunk)
    monkeypatch.setattr(output, "_two_processes", lambda nblocks: forked)
    sc, p, m = load_scenario("freefall")
    path = tmp_path / "t.csv"
    traj = run(sc, p, m, path)
    assert formatted == ([] if forked else [os.getpid()] * 20)
    assert_same_trajectory(traj, freefall_full)
    assert_wrote(path, freefall_text, forks, forked)


def test_write_csv_writes_the_blocks_joined(freefall_text, tmp_path, forks):
    # the streamed run as the host has it: on one usable CPU it writes
    # from the trajectory in one process
    sc, p, m = load_scenario("freefall")
    path = tmp_path / "t.csv"
    run(sc, p, m, path)
    assert_wrote(path, freefall_text, forks, output._two_processes(20))


@pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
def test_a_streamed_run_writes_one_block_at_a_time(freefall_text, tmp_path,
                                                   monkeypatch, forks,
                                                   deadline, forked):
    # each write to the file, from whichever process makes it, goes to a
    # log opened before the fork: the writer's pid, the length, the bytes
    monkeypatch.setattr(output, "_two_processes", lambda nblocks: forked)
    sc, p, m = load_scenario("freefall")
    real_open = pathlib.Path.open
    log_path = tmp_path / "writes"
    log = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    class Recorded:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            data = bytes(data)
            os.write(log, struct.pack("<qq", os.getpid(), len(data)) + data)
            return self.fh.write(data)

        def close(self):
            self.fh.close()

    monkeypatch.setattr(pathlib.Path, "open",
                        lambda self, *a, **k: Recorded(real_open(self, *a,
                                                                 **k)))
    try:
        run(sc, p, m, tmp_path / "t.csv")
    finally:
        os.close(log)
    with open(log_path, "rb") as fh:
        raw = fh.read()
    pids, writes, at = [], [], 0
    while at < len(raw):
        pid, size = struct.unpack_from("<qq", raw, at)
        at += 16
        pids.append(pid)
        writes.append(raw[at:at + size])
        at += size
    # the header, then each block of _BLOCK_ROWS lines
    lines = freefall_text.encode().splitlines(keepends=True)
    assert writes == lines[:1] + [b"".join(lines[i:i + _BLOCK_ROWS])
                                  for i in range(1, len(lines), _BLOCK_ROWS)]
    # the child of a forked run is the one writer of the file
    caller = os.getpid()
    assert all((pid != caller) is forked for pid in pids)


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


def test_write_csv_where_sigchld_is_ignored(freefall_text, tmp_path,
                                            monkeypatch, capsys, forks,
                                            formatted, deadline):
    # the kernel reaps each child itself, so the wait for it finds none,
    # but the child's done byte still shows every block written, so the
    # caller formats none; an ignored SIGCHLD is inherited across exec from
    # any parent
    monkeypatch.setattr(output, "_two_processes", lambda nblocks: True)
    sc, p, m = load_scenario("freefall")
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        path = tmp_path / "t.csv"
        run(sc, p, m, path)
        code = cli.main(["run", "freefall", "--out", str(tmp_path / "ff.csv")])
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert formatted == []  # the children's lists are their own
    assert code == 0
    assert (tmp_path / "ff.gp").exists()
    assert "cannot write" not in capsys.readouterr().err
    assert_wrote(path, freefall_text, forks, 2)


@pytest.mark.parametrize("sent", [0, 1, 5, 19])
def test_write_csv_survives_a_failing_child(freefall_text, tmp_path,
                                            monkeypatch, capfd, forks,
                                            deadline, sent):
    # the child of a streamed run formats `sent` blocks and then raises;
    # once it is reaped, the caller writes the file again from the
    # trajectory. At 19 it raises on the last of the 20 blocks, after every
    # row was sent and the rows pipe closed, so only the missing done byte
    # shows the failure
    monkeypatch.setattr(output, "_two_processes", lambda nblocks: True)
    caller, real, formatted = os.getpid(), output._block, []
    real_write, rewrites = output.write_csv, []

    def write_csv(traj, path):
        # the child has been reaped when the caller's rewrite starts, so
        # only one process writes the file at any time
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)
        rewrites.append(path)
        return real_write(traj, path)

    monkeypatch.setattr(output, "write_csv", write_csv)

    def block(cols, start):
        if os.getpid() != caller:
            formatted.append(start)
            if len(formatted) > sent:
                raise RuntimeError("the child fails")
        return real(cols, start)

    monkeypatch.setattr(output, "_block", block)
    sc, p, m = load_scenario("freefall")
    path = tmp_path / "t.csv"
    run(sc, p, m, path)
    assert rewrites == [path]
    assert formatted == []  # the child's list is its own
    assert_wrote(path, freefall_text, forks, 1)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("chunks", [1, 5, 20])
def test_a_streamed_run_survives_a_killed_child(freefall_text, tmp_path,
                                                monkeypatch, forks, deadline,
                                                chunks):
    # SIGKILL after `chunks` chunks of the loop: at 20, the last, every row
    # has been sent and the child dies before its done byte
    monkeypatch.setattr(output, "_two_processes", lambda nblocks: True)
    real, calls = output.CsvStream.send, []

    def send(self, rows):
        real(self, rows)
        calls.append(rows)
        if len(calls) == chunks:
            os.kill(self.child[0], signal.SIGKILL)

    monkeypatch.setattr(output.CsvStream, "send", send)
    sc, p, m = load_scenario("freefall")
    path = tmp_path / "t.csv"
    run(sc, p, m, path)
    # 20 chunks, the last ending at the last row
    assert calls[19:] == [5001]
    assert_wrote(path, freefall_text, forks, 1)


def test_a_run_refused_for_its_size_writes_no_file(tmp_path, monkeypatch,
                                                    forks):
    monkeypatch.setattr(output, "_two_processes", lambda nblocks: True)
    sc, p, m = load_scenario("freefall")
    path = tmp_path / "t.csv"
    with pytest.raises(ValidationError, match="more than memory holds"):
        run(replace(sc, dt=1e-12), p, m, path)
    assert not path.exists() and forks == []


def open_fds():
    return os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else []


def test_write_csv_formats_every_block_when_fork_fails(freefall_short,
                                                       tmp_path, monkeypatch):
    # the streamed run of freefall_short, whose fork fails
    def fork():
        raise OSError(errno.EAGAIN, "no process")

    assert_formats_every_block(freefall_short, tmp_path, monkeypatch, "fork",
                               fork)


def test_a_streamed_run_formats_every_block_when_a_pipe_fails(
        freefall_short, tmp_path, monkeypatch, forks):
    # the rows pipe, the first, fails, so no child is forked
    def pipe():
        raise OSError(errno.EMFILE, "too many open files")

    assert_formats_every_block(freefall_short, tmp_path, monkeypatch, "pipe",
                               pipe)
    assert forks == []


def test_a_streamed_run_formats_every_block_when_the_done_pipe_fails(
        freefall_short, tmp_path, monkeypatch, forks):
    # the done pipe, the second, fails, so no child is forked and the rows
    # pipe is closed again
    real, pipes = os.pipe, []

    def pipe():
        pipes.append(None)
        if len(pipes) == 2:
            raise OSError(errno.EMFILE, "too many open files")
        return real()

    assert_formats_every_block(freefall_short, tmp_path, monkeypatch, "pipe",
                               pipe)
    assert forks == [] and len(pipes) == 2


@pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
def test_a_csv_path_that_is_a_directory_fails_at_the_first_chunk(
        tmp_path, monkeypatch, forks, forked):
    # the stream opens the file when it is made, on either path, so the
    # run fails before its first chunk and before any child is forked
    monkeypatch.setattr(output, "_two_processes", lambda nblocks: forked)
    real, calls = output.CsvStream.send, []

    def send(self, rows):
        calls.append(rows)
        real(self, rows)

    monkeypatch.setattr(output.CsvStream, "send", send)
    sc, p, m = load_scenario("freefall")
    with pytest.raises(IsADirectoryError):
        run(sc, p, m, tmp_path)
    assert calls == []
    assert forks == []


def assert_formats_every_block(traj, tmp_path, monkeypatch, name, failing):
    monkeypatch.setattr(output, "_two_processes", lambda nblocks: True)
    sc, p, m = load_scenario("freefall")
    monkeypatch.setattr(os, name, failing)
    fds = open_fds()
    path = tmp_path / "t.csv"
    run(replace(sc, horizon=1.0), p, m, path)
    assert_holds(path, per_value_csv(traj))
    # no descriptor is left open
    if fds:
        assert len(open_fds()) == len(fds)


def test_a_failed_file_write_reaches_the_caller(freefall_full, tmp_path,
                                                monkeypatch, forks, deadline):
    # the child's write fails during the loop, so the child exits 1 and
    # the caller's next send finds the pipe broken; the caller's rewrite
    # from the trajectory fails the same way, and its error is the one
    # that reaches the caller
    monkeypatch.setattr(output, "_two_processes", lambda nblocks: True)
    sc, p, m = load_scenario("freefall")
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

        def close(self):
            self.fh.close()

    monkeypatch.setattr(pathlib.Path, "open",
                        lambda self, *a, **k: FullDisk(real_open(self, *a,
                                                                 **k)))
    with pytest.raises(OSError, match="disk full"):
        run(sc, p, m, tmp_path / "t.csv")
    assert len(forks) == 1
    assert_no_child_left()


def test_a_rows_stream_cut_inside_a_sample_is_refused(freefall_full,
                                                     freefall_text, tmp_path,
                                                     monkeypatch, forks,
                                                     deadline):
    def samples(rows, first, before):
        return first_rows(freefall_full, first + rows.shape[0], first)

    cut = freefall_full.y[:300].tobytes()[:-3]
    with pytest.raises(ValueError):
        output._format_blocks(io.BytesIO(cut), io.BytesIO(), samples)

    class Cut:
        """The rows pipe less the last 3 bytes of the run's stream: each
        write's last 3 bytes wait for the next write, and the last are
        dropped."""

        def __init__(self, pipe):
            self.pipe, self.held = pipe, b""

        def write(self, data):
            self.pipe.write(self.held + data[:-3])
            self.held = data[-3:]

        def flush(self):
            self.pipe.flush()

        def close(self):
            self.pipe.close()

    real_fork_writer, real_close = output._fork_writer, output.CsvStream.close
    codes, real_write, rewrites = [], output.write_csv, []

    def fork_writer(fh, samples):
        pid, pipe, done = real_fork_writer(fh, samples)
        return pid, Cut(pipe), done

    def close(self):
        codes.append(real_close(self))
        return codes[-1]

    def write_csv(traj, path):
        rewrites.append(path)
        return real_write(traj, path)

    monkeypatch.setattr(output, "_two_processes", lambda nblocks: True)
    monkeypatch.setattr(output, "_fork_writer", fork_writer)
    monkeypatch.setattr(output.CsvStream, "close", close)
    monkeypatch.setattr(output, "write_csv", write_csv)
    sc, p, m = load_scenario("freefall")
    path = tmp_path / "t.csv"
    run(sc, p, m, path)
    # the child's last read ends inside a sample: it raises before its
    # done byte, and the caller writes the file from the trajectory
    assert codes[0] is False
    assert rewrites == [path]
    assert_wrote(path, freefall_text, forks, 1)
