"""Trajectory file emission: CSV plus a gnuplot script.

Formatting is pinned to 17 significant digits with %g, period decimal
separator, newline row endings. Python's % formatting ignores locale, so
identical trajectories serialize to identical bytes on any machine. Each
row is one % of a 19-field format on that row's Python floats, which gives
the bytes a "%.17g" per value would.

Rows are formatted and written in blocks of _BLOCK_ROWS, so writing a file
holds one block's text, not the whole file's. format_csv is the same
blocks joined.

write_csv formats the blocks on two CPUs where os.fork exists, more than
one CPU is usable and only one thread runs: a forked child formats the odd
blocks and sends each down a pipe, the caller formats the even ones and
writes every block in order. Otherwise, or if the child fails, the caller
formats the blocks itself. The bytes are the same either way.
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

# the byte length of a block the child sends, ahead of the block
_PREFIX = 8


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


def _two_processes(nblocks):
    """Whether write_csv forks a child to format every other block: there
    are two blocks to share and a second CPU to share them on, and no other
    thread runs, since a fork copies only the calling thread and a lock
    another thread holds stays locked in the child."""
    if nblocks < 2 or not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus > 1


def _fork_odd_blocks(cols, starts):
    """(pid, pipe) of a forked child that formats the odd blocks and sends
    each down the pipe after its byte length, or None if the fork fails.
    The child only formats and sends: it never touches the caller's file
    and never returns into the caller."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        status = 1
        try:
            # without the read end here, a closed one in the caller fails
            # the child's next write, so it cannot block on a full pipe
            os.close(r)
            with open(w, "wb") as pipe:
                for start in starts[1::2]:
                    data = _block(cols, start).encode("ascii")
                    pipe.write(len(data).to_bytes(_PREFIX, "little"))
                    pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _received(pipe):
    """The child's next block, or None once its stream has ended."""
    prefix = pipe.read(_PREFIX)
    if len(prefix) < _PREFIX:
        return None
    size = int.from_bytes(prefix, "little")
    data = pipe.read(size)
    return data if len(data) == size else None


def write_csv(traj, path) -> int:
    """Write the trajectory; returns the number of data rows."""
    cols = _columns(traj)
    starts = range(0, traj.t.shape[0], _BLOCK_ROWS)
    with Path(path).open("wb") as fh:
        fh.write(_HEADER.encode("ascii"))
        child = (_fork_odd_blocks(cols, starts)
                 if _two_processes(len(starts)) else None)
        try:
            for i, start in enumerate(starts):
                data = _received(child[1]) if child and i % 2 else None
                if data is None:
                    # an even block, the serial path, or a failed child
                    data = _block(cols, start).encode("ascii")
                fh.write(data)
        finally:
            if child:
                pid, pipe = child
                pipe.close()
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass  # SIGCHLD is ignored: the kernel has reaped it
    return traj.t.shape[0]


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


def write_outputs(traj, out_path):
    """CSV plus sibling .gp script; returns both paths."""
    csv_path = Path(out_path)
    script_path = csv_path.with_suffix(".gp")
    write_csv(traj, csv_path)
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
