"""Trajectory file emission: CSV plus a gnuplot script.

Formatting is pinned to 17 significant digits with %g, period decimal
separator, newline row endings. Python's % formatting ignores locale, so
identical trajectories serialize to identical bytes on any machine. Each
row is one % of a 19-field format on that row's Python floats, which gives
the bytes a "%.17g" per value would.

Rows are formatted and written in blocks of _BLOCK_ROWS, so writing a file
holds one block's text, not the whole file's. format_csv is the same
blocks joined, and write_csv writes them in one process.

CsvStream writes a run's CSV while the run's loop computes it. It opens
the file when it is made, before the loop's first step; where os.fork
exists, more than one CPU is usable, only one thread runs and the run has
two blocks, it then forks a child that alone writes the file from then on.
One pipe carries each chunk's rows to the child as soon as they are final;
the child cuts them into blocks, computes the Trajectory of each block,
formats and writes it, and after closing the file sends one byte down a
second pipe. Unless that byte comes with every row sent, the caller writes
the whole file from the trajectory with write_csv once the child is
reaped, so one process writes the file at a time; the bytes are the same.
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

# the bytes of one sample's state, 8 doubles, down the rows pipe
_STATE_BYTES = 64


def _columns(traj):
    """traj's arrays in CSV_COLUMNS order, the one map of field to column."""
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


def write_csv(traj, path) -> int:
    """Write the trajectory; returns the number of data rows."""
    with Path(path).open("wb") as fh:
        for text in _blocks(traj):
            fh.write(text.encode("ascii"))
    return traj.t.shape[0]


def _two_processes(nblocks):
    """Whether a CsvStream forks a child to write the blocks: there are two
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


def _format_blocks(rows_in, fh, samples):
    """The child's work: write the header to fh, then the text of each block
    whose states rows_in carries as doubles. Rows come in chunks of any
    size; each read waits for one whole block, and the short last read is
    the partial block. samples(rows, first, before) is the Trajectory of
    the block's samples first, first + 1, ..., given the Trajectory of the
    block before it (None for the first block). Returns when rows_in ends,
    and raises when it ends inside a sample."""
    fh.write(_HEADER.encode("ascii"))
    first, before = 0, None
    while data := rows_in.read(_BLOCK_ROWS * _STATE_BYTES):
        rows = np.frombuffer(data).reshape(-1, 8)
        block = samples(rows, first, before)
        fh.write(_block(_columns(block), 0).encode("ascii"))
        first, before = first + rows.shape[0], block


def _fork_writer(fh, samples):
    """(pid, rows pipe, done pipe) of a forked child, or None if a pipe or
    the fork fails. The child runs _format_blocks from the rows pipe to fh,
    closes fh, writes one byte down the done pipe and exits; it exits at
    the first exception, without the byte."""
    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    rows_r, rows_w, done_r, done_w = fds
    if pid == 0:
        try:
            # without the caller's end here, the rows pipe ends when the
            # caller closes it
            os.close(rows_w)
            with open(rows_r, "rb") as rows_in, fh:
                _format_blocks(rows_in, fh, samples)
            os.write(done_w, b"\0")
        finally:
            os._exit(0)
    os.close(rows_r)
    os.close(done_w)
    return pid, open(rows_w, "wb"), open(done_r, "rb", buffering=0)


class CsvStream:
    """The CSV of one run, written to path while the run's loop runs.

    ys is the run's (n + 1, 8) state array, allocated before the loop;
    its row count decides with _two_processes whether a child is forked.
    samples(rows, first, before) gives the Trajectory of the samples first,
    first + 1, ... whose states are rows, where before is the Trajectory
    that samples gave for the block before (None for the first block); the
    child formats it with the CSV's columns. The constructor opens the
    file on every path, so an unwritable path fails before the first step,
    then forks the child, which owns the file from then on. After each chunk
    of the loop, send(rows) sends the child every row of ys up to rows that
    it has not been sent; end() after the loop closes the rows pipe.
    finish(traj) reaps the child with close() and, unless its done byte came
    with every row sent, writes the whole file from the trajectory: on the
    serial path, and after a failed fork or pipe, a broken pipe or a failed
    or killed child. close() ends the child on every path, and is what an
    exception between the constructor and finish must reach.
    """

    def __init__(self, path, ys, samples):
        self.path, self.ys = Path(path), ys
        self.child = None
        self.sent = 0  # rows
        with self.path.open("wb") as fh:
            if _two_processes(-(-ys.shape[0] // _BLOCK_ROWS)):
                self.child = _fork_writer(fh, samples)

    def send(self, rows):
        """Send the child the rows of ys from the first unsent one to rows."""
        if self.child is None:
            return
        pipe = self.child[1]
        try:
            pipe.write(self.ys[self.sent:rows].tobytes())
            pipe.flush()
        except OSError:  # the child has gone: the pipe is broken
            self.close()
        else:
            self.sent = rows

    def end(self):
        if self.child:
            # each send flushed, so closing writes nothing
            self.child[1].close()

    def finish(self, traj):
        """Reap the child; write the file here unless it wrote every row."""
        if not self.close() or self.sent < traj.t.shape[0]:
            write_csv(traj, self.path)

    def close(self):
        """Close the rows pipe, read the child's done byte and reap the
        child; whether the byte came, False when no child runs."""
        if self.child is None:
            return False
        pid, rows_out, done_in = self.child
        self.child = None
        try:
            rows_out.close()
        except OSError:
            pass  # rows left in the buffer of a broken pipe
        with done_in:  # at EOF when the child ended without the byte
            done = done_in.read(1) == b"\0"
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # SIGCHLD is ignored: the kernel has reaped it
        return done


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
