"""Independent oracles that more than one test file uses.

pytest collects no test from this module, whose name does not start with
test_. Test files import it by name: pytest's default import mode puts
this directory on sys.path before it imports a test file here.
"""

import numpy as np

from rollsim import _core
from rollsim.output import CSV_COLUMNS


def states(n, seed):
    """(qs, qds) of n seeded states, each (n, 4): angles from U[-2π, 2π],
    then rates from U[-3, 3]."""
    rng = np.random.default_rng(seed)
    return (rng.uniform(-2 * np.pi, 2 * np.pi, (n, 4)),
            rng.uniform(-3.0, 3.0, (n, 4)))


def list_rk4_step(p, mag, y, tau, variant, dt):
    """One RK4 step on lists of Python floats, or None where it fails.

    The bit-exact oracle of a step of _eom's loop: the stages and the update
    are list comprehensions, and the derivative is _core.deriv, which solves
    M qdd = (tau - bias - G) + t on the separate _eom terms and shares no
    code with the loop. It fails where deriv does, at a stage input or a qdd
    that is not finite or a failed solve; the new y is returned untested.
    """
    h, w = 0.5 * dt, dt / 6.0

    def f(y):
        dy, ok = _core.deriv(p, mag, y, tau, variant)
        return list(dy) if ok else None

    k1 = f(y)
    k2 = k1 and f([a + h * k for a, k in zip(y, k1)])
    k3 = k2 and f([a + h * k for a, k in zip(y, k2)])
    k4 = k3 and f([a + dt * k for a, k in zip(y, k3)])
    if k4 is None:
        return None
    return [a + w * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def per_value_csv(traj):
    """The CSV text of traj, one "%.17g" per value, with the field of each
    column written out here: the byte oracle of every written CSV."""
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
