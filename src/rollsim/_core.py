"""Numeric kernels: energies, equations of motion and the RK4 loop.

Arguments are packed sequences of Python floats, each built by the
packed() method of the type that holds its values. Nothing here converts
them, except that the array wrappers mass_matrix, bias and gravity stack q
into one array, and chol_solve4 reads M and b as floats:

    par: RobotParams.packed(), (m_p, m_s, I_p, I_s, r1, r2, R1, R2, g,
         d_th1, d_th2, d_ph1, d_ph2)
    mag: MagneticParams.packed(), (enabled, B_max, P_max, A, mu0) with
         enabled 1.0 or 0.0
    y:   State.packed(), (theta1, theta2, phi1, phi2, rates...); q = y[:4]
    tgt: Setpoints.packed(), (th1d, th2d, ph1d, ph2d)
    pd:  PDSpec.packed(), (Kp, Kd, tgt)

Each derived quantity is implemented once, here, for the run loop,
simulate.run and the public functions of control, energetics, kinematics,
magnetics and model. Most functions are elementwise: the entries of a state
may be floats or the equal-length columns of a recorded run, which
simulate.run evaluates in one call. The body geometry (`body_positions`,
`body_velocities`) gives T and U per body (`kinetic_parts`,
`potential_parts`; `kinetic` and `potential` are their sums) and p_m
(`separation` of `bob_offset`). tools/gen_eom.py calls `kinetic`,
`potential`, `bob_offset` and `separation` on sympy symbols, with np.sin,
np.cos and np.sqrt bound to sympy's, so they must stay elementwise
arithmetic with no other library call. It writes _eom: M, bias, G, and p_m
with p_m grad p_m (`tip_geometry`, for `mag_torque`), as straight-line code
on Python floats and math trig; nothing is compiled. It also writes the
Cholesky solve (`solve_spd4`, for `chol_solve4` and `deriv`), the tip force
law (`tip_law`, for `flux_density`, `magnetic_force` and `mag_torque`), the
PD law (`pd_error` and `pd_input`, bound here under those names) and
`loop_for`, which `run_loop` calls once per run: it computes what depends
on the parameters, the coupling and the controller alone and returns
`loop`, which `run_loop` calls once per chunk of CHUNK_STEPS steps.
`loop` keeps the state in locals, computes each step's held PD input with
pd_input's code inline and runs one whole RK4 step of the rest of the code
of M, bias, G and, when the tips couple, the tip geometry and force law,
with the solve inline, in a loop over the four stages; it calls back into
nothing. The generator's `_number` rewrites the stage, and its docstring
states the rules. The tests pin the states `loop` records, byte for byte,
against a list-form RK4 on `deriv`.
`deriv`, one state's derivative from the separate terms and `mag_torque`,
serves `dynamics.forward_dynamics` and is the tests' oracle of `loop`. The
array wrappers `mass_matrix`, `bias` and `gravity` run the same code
objects with numpy's trig bound in place of math's, so they too are
elementwise; dynamics.errata_compare evaluates all its sampled states in
one call each.

Numeric failure is a flag, never an exception: `deriv` returns ok=False for
a non-finite state or result, and `loop` stops at a failed pivot, a
non-finite stage input or a non-finite new state, which `run_loop` reports
as the number of steps taken. `loop` tests only the new state: math's cos
of an inf stage angle raises ValueError, which `loop` catches and returns
as its stop, a NaN angle fails a pivot, and a non-finite rate or qddot
makes the new state non-finite. No code on that path raises Python's
float ** (OverflowError), and no ValueError leaves `loop`. That rule is the
only stop test, also of a non-finite ys[0], from which `loop` takes no step.
"""

import math
import types

import numpy as np

from . import _eom

# nothing is compiled; callers report the backend from this flag
HAVE_NUMBA = False

VARIANT_VERBATIM = 0
VARIANT_GEOMETRIC = 1

# np.errstate for elementwise evaluation: numpy warns where Python floats
# overflow to inf or turn nan quietly, and inf or nan is the honest answer
QUIET = {"over": "ignore", "invalid": "ignore"}

_ZERO4 = (0.0, 0.0, 0.0, 0.0)
_ZERO5 = _ZERO4 + (0.0,)
_ZERO8 = _ZERO4 + _ZERO4


def body_positions(par, q):
    """(x, y) of the disk-1 shell, bob 1, the disk-2 shell and bob 2."""
    r1, r2, R1 = par[4], par[5], par[6]
    L = R1 + par[7]
    s1x = R1 * q[2]
    rs2 = (s1x + L * np.sin(q[2] + q[3]), -L * np.cos(q[2] + q[3]))
    return ((s1x, 0.0),
            (s1x + r1 * np.sin(q[2] + q[0]), -r1 * np.cos(q[2] + q[0])),
            rs2,
            (rs2[0] + r2 * np.sin(q[3] + q[1]),
             rs2[1] - r2 * np.cos(q[3] + q[1])))


def body_velocities(par, q, qd):
    """Time derivatives of body_positions, in the same order."""
    r1, r2, R1 = par[4], par[5], par[6]
    L = R1 + par[7]
    w1 = qd[2] + qd[0]
    w12 = qd[2] + qd[3]
    w2 = qd[3] + qd[1]
    vs1x = R1 * qd[2]
    vs2 = (vs1x + L * w12 * np.cos(q[2] + q[3]), L * w12 * np.sin(q[2] + q[3]))
    return ((vs1x, 0.0),
            (vs1x + r1 * w1 * np.cos(q[2] + q[0]),
             r1 * w1 * np.sin(q[2] + q[0])),
            vs2,
            (vs2[0] + r2 * w2 * np.cos(q[3] + q[1]),
             vs2[1] + r2 * w2 * np.sin(q[3] + q[1])))


def kinetic_parts(par, q, qd):
    """Translational T of the four bodies, then the pendulum and disk spins."""
    m_p, m_s, I_p, I_s = par[0], par[1], par[2], par[3]
    parts = tuple(0.5 * (m * (vx * vx + vy * vy)) for m, (vx, vy)
                  in zip((m_s, m_p, m_s, m_p), body_velocities(par, q, qd)))
    return (*parts, 0.5 * (I_p * (qd[0] * qd[0] + qd[1] * qd[1])),
            0.5 * (I_s * (qd[2] * qd[2] + qd[3] * qd[3])))


def kinetic(par, q, qd):
    return sum(kinetic_parts(par, q, qd))


def potential_parts(par, q, variant):
    """U of bob 1, bob 2 (verbatim: printed sin term) and the disk-2 shell."""
    m_p, m_s, r1, r2, g = par[0], par[1], par[4], par[5], par[8]
    L = par[6] + par[7]
    c34 = np.cos(q[2] + q[3])
    mid = L * (c34 if variant == VARIANT_GEOMETRIC else np.sin(q[2] + q[3]))
    return (-m_p * r1 * g * np.cos(q[2] + q[0]),
            -m_p * g * (mid + r2 * np.cos(q[3] + q[1])),
            -m_s * g * L * c34)


def potential(par, q, variant):
    return sum(potential_parts(par, q, variant))


def bob_offset(par, q):
    """(dx, dy), the position of bob 1 relative to bob 2."""
    _, (x1, y1), _, (x2, y2) = body_positions(par, q)
    return x1 - x2, y1 - y2


def separation(par, q):
    """Pendulum-tip separation p_m, the distance between the two bobs."""
    dx, dy = bob_offset(par, q)
    return np.sqrt(dx * dx + dy * dy)


def dissipation(par, qd):
    """Rayleigh function P = 1/2 sum delta_i qd_i^2, summed left to right."""
    return 0.5 * (par[9] * (qd[0] * qd[0]) + par[10] * (qd[1] * qd[1])
                  + par[11] * (qd[2] * qd[2]) + par[12] * (qd[3] * qd[3]))


# The array wrappers below run _eom's own code objects with numpy's cos, sin
# and sqrt bound in place of math's: the same bytecode and operation order,
# elementwise over q and qd, which may hold floats or equal-length columns.
# Where numpy's sin and cos agree with libm's to the last bit, a column equals
# the scalar _eom call on its state; tests/test_eom.py pins that. A column
# whose q has a non-finite entry comes back all NaN, quietly; math.sin and
# math.cos would raise ValueError on inf instead.

def _on_columns(fn):
    return types.FunctionType(fn.__code__, {"cos": np.cos, "sin": np.sin,
                                            "sqrt": np.sqrt}, fn.__name__)


_mass_matrix_cols = _on_columns(_eom.mass_matrix)
_bias_cols = _on_columns(_eom.bias)
_gravity_cols = _on_columns(_eom.gravity)

# rows of M as indices into _eom.mass_matrix's upper triangle
_M_ENTRY = np.array([[0, 1, 2, 3], [1, 4, 5, 6], [2, 5, 7, 8], [3, 6, 8, 9]])


def _eom_columns(fn, par, q, *args):
    """fn's entries stacked on a new first axis, NaN where q is non-finite."""
    q = np.asarray(q, dtype=np.float64)
    with np.errstate(**QUIET):
        entries = fn(par, q, *args)
    out = np.empty((len(entries),) + q.shape[1:])
    for i, e in enumerate(entries):
        out[i] = e
    return np.where(np.isfinite(q).all(axis=0), out, np.nan)


def mass_matrix(par, q):
    return _eom_columns(_mass_matrix_cols, par, q)[_M_ENTRY]


def bias(par, q, qd):
    """Mdot*qd - dT/dq + diag(delta)*qd."""
    return _eom_columns(_bias_cols, par, q, qd)


def gravity(par, q, variant):
    return _eom_columns(_gravity_cols, par, q, variant)


def chol_solve4(M, b):
    """Solve M x = b for symmetric positive definite 4x4 M.

    Returns (x, ok). ok is False when a pivot is non-positive or non-finite;
    callers must not trust x in that case. No code of the package calls
    it: it is kept as perfbench's core.chol_solve4 layer, and takes any M
    and b that numpy reads as floats.
    """
    M = np.asarray(M, dtype=np.float64).tolist()
    x = _eom.solve_spd4((M[0][0], M[0][1], M[0][2], M[0][3], M[1][1],
                         M[1][2], M[1][3], M[2][2], M[2][3], M[3][3]),
                        np.asarray(b, dtype=np.float64).tolist())
    if x is None:
        return np.zeros(4), False
    return np.array(x), True


def disk2_height(par, q):
    """Ground-relative height of disk 2's center, R1 - (R1+R2) cos(phi1+phi2)."""
    return par[6] + body_positions(par, q)[2][1]


def flux_density(mag, p):
    """B = B_max (1 - p / P_max) for tip separation p, zero beyond P_max."""
    return _eom.tip_law(mag, (p,) + _ZERO4)[0]


def magnetic_force(mag, B):
    """Attractive tip force F = B^2 A / (2 mu0).

    F depends on p_m only through B, which is B_max at contact: this is the
    force law's F at p_m = 0 with B in place of B_max.
    """
    return _eom.tip_law((mag[0], B, mag[2], mag[3], mag[4]), _ZERO5)[1]


def mag_torque(par, mag, q):
    """(Q, degenerate): the tip attraction's generalized force -F grad p_m.

    Q is exactly +0.0 when disabled, beyond P_max and at p_m < 1e-14
    (degenerate).
    """
    if mag[0] == 0.0:
        return _ZERO4, False
    _, _, Q, degenerate = _eom.tip_law(mag, _eom.tip_geometry(par, q))
    return Q, degenerate


# the PD law, printed by tools/gen_eom.py from one text that the run loop
# also holds inline; elementwise, so y may be the columns of a recorded run
pd_error = _eom.pd_error
pd_input = _eom.pd_input


def torque_map(u1, u2):
    """Generalized force of the motor torques; see model.generalized_torque."""
    return u1, u2, -u1, -u2


def lyapunov(Kp, Kd, tgt, y, dE):
    """Monitor value V of y: pd_input's arguments, and dE = E - E_ref.

    Each gain entry weighs its pd_error component squared; the Kd quadratic
    carries no 1/2, as transcribed. Sums run left to right.
    """
    e, de = pd_error(tgt, y)
    kp = [a + b for a, b in zip(Kp[0], Kp[1])]
    kd = [a + b for a, b in zip(Kd[0], Kd[1])]
    return (0.5 * (dE * dE)
            + (0.5 * (e[0] * e[0]) * kp[0] + 0.5 * (e[1] * e[1]) * kp[1]
               + 0.5 * (e[2] * e[2]) * kp[2] + 0.5 * (e[3] * e[3]) * kp[3])
            + ((de[0] * de[0]) * kd[0] + (de[1] * de[1]) * kd[1]
               + (de[2] * de[2]) * kd[2] + (de[3] * de[3]) * kd[3]))


def deriv(par, mag, y, tau, variant):
    """State derivative dy/dt = (qdot, qddot) under generalized force tau.

    Arguments are float sequences. Returns (dy, ok), dy a tuple of 8 floats.
    ok is False, and dy zero, when y or the result is not finite or M fails
    the Cholesky solve; the state is tested before any sine is taken, so an
    overflowing state never raises. qddot is _eom.solve_spd4 of mass_matrix
    and (tau - bias - gravity) + the magnetic torque, the separate _eom
    terms. The loop of _eom.loop_for computes each stage's qddot from the
    same operations as rewritten by tools/gen_eom.py's _number, whose
    docstring says why that qddot is this one to the bit but for the sign
    of a zero; the tests' list-form RK4 on deriv is its oracle.
    """
    if not all(map(math.isfinite, y)):
        return _ZERO8, False
    q, qd = y[:4], y[4:]
    b = _eom.bias(par, q, qd)
    G = _eom.gravity(par, q, variant)
    rhs = (tau[0] - b[0] - G[0], tau[1] - b[1] - G[1],
           tau[2] - b[2] - G[2], tau[3] - b[3] - G[3])
    if mag[0] != 0.0:
        t = mag_torque(par, mag, q)[0]
        rhs = (rhs[0] + t[0], rhs[1] + t[1], rhs[2] + t[2], rhs[3] + t[3])
    qdd = _eom.solve_spd4(_eom.mass_matrix(par, q), rhs)
    if qdd is None or not all(map(math.isfinite, qdd)):
        return _ZERO8, False
    return (*qd, *qdd), True


# run_loop hands the steps to loop in chunks of this many, each chunk
# starting from the last row of the one before
CHUNK_STEPS = 256


def run_loop(par, mag, ys, dt, pd, variant, sink=None):
    """Integrate n = ys.shape[0] - 1 fixed RK4 steps from ys[0] into ys,
    the caller's (n + 1, 8) array.

    pd is None for an uncontrolled run, else the pd_input arguments
    (Kp, Kd, tgt), PDSpec.packed(). The controller input is evaluated
    at the step's start state and held over the step (zero-order hold).
    Magnetic torque, being state dependent physics rather than a sampled
    controller, is evaluated per stage, inside the step. The steps are
    calls of the loop that _eom.loop_for builds for the run from par, mag
    and pd, which computes the PD input inline: one call per CHUNK_STEPS
    steps, on the view of ys that starts at the chunk's first state, so the
    samples are those of one call for all the steps, to the bit. After each
    chunk, sink(rows) sees that rows 0..rows - 1 of ys are final, so a
    caller can stream them while the next chunk runs.

    Returns (ys, us, n_done): samples 0..n_done of ys are valid, and us is
    held_inputs of those states, computed after the last chunk; n_done < n
    means the step after n_done produced a non-finite or non-solvable state.
    A non-finite ys[0] gives n_done 0 by the loop's own stop rule.
    """
    loop = _eom.loop_for(par, variant, dt, mag, pd)
    n = ys.shape[0] - 1
    n_done = 0
    while n_done < n:
        steps = min(CHUNK_STEPS, n - n_done)
        taken = loop(ys[n_done:n_done + steps + 1], steps)
        n_done += taken
        if sink is not None:
            sink(n_done + 1)
        if taken < steps:
            break
    return ys, held_inputs(pd, ys[:n_done + 1]), n_done


def held_inputs(pd, ys):
    """The held input (u1, u2) of each state row of ys: pd_input of their
    columns, or zero without a controller (pd None). The input of a
    non-finite state, such as the last samples of a run cut short, may be
    inf or nan, quietly, as on floats."""
    if pd is None:
        return np.zeros((ys.shape[0], 2))
    with np.errstate(**QUIET):
        return np.transpose(pd_input(*pd, ys.T))


def energies_batch(par, cols, variant):
    """T and U of each recorded state (cols: the 8 state columns); a traced
    layer of perfbench, as is pm_batch."""
    return kinetic(par, cols[:4], cols[4:]), potential(par, cols[:4], variant)


def pm_batch(par, cols):
    """Tip separation p_m of every recorded state."""
    return separation(par, cols)
