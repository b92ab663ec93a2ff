"""Trajectory file emission: CSV plus a gnuplot script.

Formatting is pinned to 17 significant digits with %g, period decimal
separator, newline row endings. Python's % formatting ignores locale, so
identical trajectories serialize to identical bytes on any machine. Each
row is one % of a 19-field format on that row's Python floats, which gives
the bytes a "%.17g" per value would.

Rows are formatted and written in blocks of _BLOCK_ROWS, so writing a file
holds one block's text, not the whole file's. format_csv is the same
blocks joined.
"""

from __future__ import annotations

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


def _blocks(traj):
    """The CSV text in order: the header line, then one string per block."""
    yield ",".join(CSV_COLUMNS) + "\n"
    cols = (traj.t, *traj.y.T, *traj.u.T,
            traj.T, traj.U, traj.E, traj.P, traj.V, traj.Vdot,
            traj.height, traj.p_m)
    for start in range(0, traj.t.shape[0], _BLOCK_ROWS):
        block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in cols])
        yield "".join([_ROW % tuple(row) for row in block.tolist()])


def format_csv(traj) -> str:
    return "".join(_blocks(traj))


def write_csv(traj, path) -> int:
    """Write the trajectory; returns the number of data rows."""
    with Path(path).open("w", newline="\n") as fh:
        fh.writelines(_blocks(traj))
    return traj.t.shape[0]


def gnuplot_script(csv_path) -> str:
    name = Path(csv_path).name
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
