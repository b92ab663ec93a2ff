"""Trajectory file emission: CSV plus a gnuplot script.

Formatting is pinned to 17 significant digits with %g, period decimal
separator, newline row endings. Python's % formatting ignores locale, so
identical trajectories serialize to identical bytes on any machine. Each
row is one % of a 19-field format on that row's Python floats, which gives
the bytes a "%.17g" per value would.

Rows are formatted and written in blocks of _BLOCK_ROWS, so writing a file
holds one block's text, not the whole file's. format_csv is the same
blocks joined, and write_csv writes them in one process.

CsvStream writes a run's CSV while the run's loop computes it, where
os.fork exists, more than one CPU is usable and only one thread runs: a
child forked when the loop's first chunk is done receives the rows of each
block as soon as they are final, computes the block's columns and formats
them, and sends the text back down a pipe; the caller writes every block in order, so
after the loop only the last block is left to write. Otherwise, or for the
blocks a failed child did not send, the caller formats the blocks from the
finished trajectory, as write_csv does. The bytes are the same either way.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

import numpy as np

CSV_COLUMNS = ("t", "theta1", "theta2", "phi1", "phi2",
               "dtheta1", "dtheta2", "dphi1", "dphi2",
               "u1", "u2", "T", "U", "E", "P", "V", "Vdot",
               "disk2_height", "p_m")


_BLOCK_ROWS = 256

# one % per row, on that row's Python floats; the block's tolist() holds a
# float object per value of one block, not of the whole table
_ROW = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n"

_HEADER = ",".join(CSV_COLUMNS) + "\n"

# the byte length of a message down a pipe, ahead of the message
_PREFIX = 8

_V = CSV_COLUMNS.index("V")


def _columns(traj):
    return (traj.t, *traj.y.T, *traj.u.T,
            traj.T, traj.U, traj.E, traj.P, traj.V, traj.Vdot,
            traj.height, traj.p_m)


def _block(cols, start):
    """The text of the rows start to start + _BLOCK_ROWS."""
    block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in cols])
    return "".join([_ROW % tuple(row) for row in block.tolist()])


def _blocks(traj):
    """The CSV text in order: the header line, then one string per block."""
    yield _HEADER
    cols = _columns(traj)
    for start in range(0, traj.t.shape[0], _BLOCK_ROWS):
        yield _block(cols, start)


def format_csv(traj) -> str:
    return "".join(_blocks(traj))


def _write_blocks(fh, traj, first):
    """Format the blocks first, first + 1, ... of traj and write each to fh."""
    cols = _columns(traj)
    for start in range(first * _BLOCK_ROWS, traj.t.shape[0], _BLOCK_ROWS):
        fh.write(_block(cols, start).encode("ascii"))


def write_csv(traj, path) -> int:
    """Write the trajectory; returns the number of data rows."""
    with Path(path).open("wb") as fh:
        fh.write(_HEADER.encode("ascii"))
        _write_blocks(fh, traj, 0)
    return traj.t.shape[0]


def _two_processes(nblocks):
    """Whether a CsvStream forks a child to format the blocks: there are two
    blocks, so one can be formatted while the next is computed, and a
    second CPU to format on, and no other thread runs, since a fork copies
    only the calling thread and a lock another thread holds stays locked in
    the child."""
    if nblocks < 2 or not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus > 1


def _send(pipe, data):
    pipe.write(len(data).to_bytes(_PREFIX, "little"))
    pipe.write(data)
    pipe.flush()


def _received(pipe):
    """The next message, or None once the stream has ended."""
    prefix = pipe.read(_PREFIX)
    if len(prefix) < _PREFIX:
        return None
    size = int.from_bytes(prefix, "little")
    data = pipe.read(size)
    return data if len(data) == size else None


def _format_blocks(rows_in, text_out, columns):
    """The child's work: each message of rows_in is the rows of the next
    block, as doubles; send the text of that block's columns to text_out.
    Returns when rows_in ends."""
    first, V_before = 0, np.nan
    while (data := _received(rows_in)) is not None:
        rows = np.frombuffer(data).reshape(-1, 8)
        cols = columns(rows, first, V_before)
        _send(text_out, _block(cols, 0).encode("ascii"))
        first += rows.shape[0]
        V_before = cols[_V][-1]


def _fork_formatter(columns):
    """(pid, rows pipe, text pipe) of a forked child that runs
    _format_blocks between the two pipes, or None if a pipe or the fork
    fails. The child only formats and sends: it never touches the caller's
    file and never returns into the caller."""
    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    rows_r, rows_w, text_r, text_w = fds
    if pid == 0:
        status = 1
        try:
            # without the caller's ends here, the rows pipe ends when the
            # caller closes it, and a closed text pipe fails the child's next
            # write, so the child cannot block on it
            os.close(rows_w)
            os.close(text_r)
            with open(rows_r, "rb") as rows_in, open(text_w, "wb") as text_out:
                _format_blocks(rows_in, text_out, columns)
            status = 0
        finally:
            os._exit(status)
    os.close(rows_r)
    os.close(text_w)
    return pid, open(rows_w, "wb"), open(text_r, "rb")


class CsvStream:
    """The CSV of one run, written to path while the run's loop runs.

    samples is the run's sample count before the loop, which decides with
    _two_processes whether a child is forked; columns(rows, first, V_before)
    gives the CSV's columns of the samples first, first + 1, ... whose
    states are rows, with V_before the V of sample first - 1 (NaN at the
    first sample). After each chunk of the loop, send(ys, rows) hands the
    child each block that rows 0..rows - 1 of ys complete, and writes the
    block before it; the first send opens the file and forks the child, so
    a run that fails to allocate its samples leaves no file. end(ys, rows)
    after the loop sends the rest; finish(traj) writes what the child has
    not sent from the finished trajectory and closes the file. The caller
    never sends more than one block ahead of what it has read, so neither
    process can block the other for good. close() ends the child on every
    path, and is what finish and an exception in between must reach.
    """

    def __init__(self, path, samples, columns):
        self.path, self.columns = Path(path), columns
        self.forking = _two_processes(-(-samples // _BLOCK_ROWS))
        self.fh = self.child = None
        self.sent = self.written = 0  # blocks

    def send(self, ys, rows):
        if self.forking and self.fh is None:
            self.fh = self.path.open("wb")
            self.fh.write(_HEADER.encode("ascii"))
            self.child = _fork_formatter(self.columns)
        while self.child and (self.sent + 1) * _BLOCK_ROWS <= rows:
            self._send_block(ys, rows)
            while self.child and self.written < self.sent - 1:
                self._write_received()

    def end(self, ys, rows):
        self.send(ys, rows)
        if self.child and self.sent * _BLOCK_ROWS < rows:
            self._send_block(ys, rows)
        if self.child:
            self.child[1].close()

    def finish(self, traj):
        """Write the blocks the child has not, and close."""
        try:
            if self.fh is None:
                write_csv(traj, self.path)
                return
            while self.child and self.written < self.sent:
                self._write_received()
            _write_blocks(self.fh, traj, self.written)
        finally:
            self.close()

    def _send_block(self, ys, rows):
        """Send the child the rows of the next block, up to rows."""
        start = self.sent * _BLOCK_ROWS
        try:
            _send(self.child[1], ys[start:min(start + _BLOCK_ROWS, rows)]
                  .tobytes())
        except OSError:  # the child has gone: the pipe is broken
            self._end_child()
        else:
            self.sent += 1

    def _write_received(self):
        data = _received(self.child[2])
        if data is None:  # the child failed or was killed
            self._end_child()
        else:
            self.fh.write(data)
            self.written += 1

    def _end_child(self):
        """Close the pipes and reap the child; the blocks it has not sent
        are then formatted here."""
        pid, rows_out, text_in = self.child
        self.child = None
        for pipe in (rows_out, text_in):
            try:
                pipe.close()
            except OSError:
                pass  # rows left in the buffer of a broken pipe
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # SIGCHLD is ignored: the kernel has reaped it

    def close(self):
        try:
            if self.child:
                self._end_child()
        finally:
            if self.fh is not None:
                self.fh.close()


def gnuplot_script(csv_path) -> str:
    # gnuplot's escape of a ' inside single quotes is ''
    name = Path(csv_path).name.replace("'", "''")
    deg = "(180.0/pi)"
    # gnuplot numbers the columns from 1
    c = {key: i + 1 for i, key in enumerate(CSV_COLUMNS)}
    t = c["t"]
    return f"""# gnuplot -p {Path(csv_path).stem}.gp
set datafile separator comma
set key autotitle columnhead
set grid
set xlabel 't [s]'

set ylabel 'angle [deg]'
plot '{name}' u {t}:(${c['theta1']}*{deg}) w l t 'theta1', \\
     '' u {t}:(${c['theta2']}*{deg}) w l t 'theta2', \\
     '' u {t}:(${c['phi1']}*{deg}) w l t 'phi1', \\
     '' u {t}:(${c['phi2']}*{deg}) w l t 'phi2'
pause -1 'angles; enter for height'

set ylabel 'disk2 height [m]'
plot '{name}' u {t}:{c['disk2_height']} w l t 'height'
pause -1 'height; enter for energy'

set ylabel 'energy [J]'
plot '{name}' u {t}:{c['T']} w l t 'T', '' u {t}:{c['U']} w l t 'U', '' u {t}:{c['E']} w l t 'E'
pause -1 'energy; enter for control'

set ylabel 'input [N m]'
plot '{name}' u {t}:{c['u1']} w l t 'u1', '' u {t}:{c['u2']} w l t 'u2'
pause -1 'done'
"""


def write_outputs(out_path):
    """The gnuplot script next to the CSV at out_path, which
    simulate.run(..., csv=out_path) has written; returns both paths."""
    csv_path = Path(out_path)
    script_path = csv_path.with_suffix(".gp")
    script_path.write_text(gnuplot_script(csv_path), newline="\n")
    return csv_path, script_path


def read_csv(path) -> dict:
    """Columns back as float arrays, keyed by header name."""
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV columns in {path}: {header}")
    return {name: data[:, i] for i, name in enumerate(header)}
