"""Trajectory file emission: CSV plus a gnuplot script.

Formatting is pinned to 17 significant digits with %g, period decimal
separator, newline row endings. Python's % formatting ignores locale, so
identical trajectories serialize to identical bytes on any machine. Each
row is one % of a 19-field format on that row's Python floats, which gives
the bytes a "%.17g" per value would.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

CSV_COLUMNS = ("t", "theta1", "theta2", "phi1", "phi2",
               "dtheta1", "dtheta2", "dphi1", "dphi2",
               "u1", "u2", "T", "U", "E", "P", "V", "Vdot",
               "disk2_height", "p_m")


def _rows(traj):
    cols = (traj.t,
            traj.y[:, 0], traj.y[:, 1], traj.y[:, 2], traj.y[:, 3],
            traj.y[:, 4], traj.y[:, 5], traj.y[:, 6], traj.y[:, 7],
            traj.u[:, 0], traj.u[:, 1],
            traj.T, traj.U, traj.E, traj.P, traj.V, traj.Vdot,
            traj.height, traj.p_m)
    return np.column_stack(cols)


# one % per row, on that row's Python floats; converting the whole table at
# once would hold a float object per value beside the array
_ROW = ",".join(["%.17g"] * len(CSV_COLUMNS))


def format_csv(traj) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in _rows(traj):
        lines.append(_ROW % tuple(row.tolist()))
    # the final newline comes from the join: appending it to the joined
    # text would copy the whole file once more at the peak of memory
    lines.append("")
    return "\n".join(lines)


def write_csv(traj, path) -> int:
    """Write the trajectory; returns the number of data rows."""
    path = Path(path)
    path.write_text(format_csv(traj), newline="\n")
    return traj.t.shape[0]


def gnuplot_script(csv_path) -> str:
    name = Path(csv_path).name
    deg = "(180.0/pi)"
    return f"""# gnuplot -p {Path(csv_path).stem}.gp
set datafile separator comma
set key autotitle columnhead
set grid
set xlabel 't [s]'

set ylabel 'angle [deg]'
plot '{name}' u 1:($2*{deg}) w l t 'theta1', \\
     '' u 1:($3*{deg}) w l t 'theta2', \\
     '' u 1:($4*{deg}) w l t 'phi1', \\
     '' u 1:($5*{deg}) w l t 'phi2'
pause -1 'angles; enter for height'

set ylabel 'disk2 height [m]'
plot '{name}' u 1:18 w l t 'height'
pause -1 'height; enter for energy'

set ylabel 'energy [J]'
plot '{name}' u 1:12 w l t 'T', '' u 1:13 w l t 'U', '' u 1:14 w l t 'E'
pause -1 'energy; enter for control'

set ylabel 'input [N m]'
plot '{name}' u 1:10 w l t 'u1', '' u 1:11 w l t 'u2'
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
