"""Numeric kernels: energies, equations of motion and the RK4 loop.

Arguments are packed sequences of Python floats, each built by the
packed() method of the type that holds its values. Nothing here converts
them, except that the array wrappers mass_matrix, bias and gravity stack q
into one array:

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
law (`tip_law`, for `flux_density`, `magnetic_force` and `mag_torque`) and
`step_for`, which `run_loop` calls once per run: it computes what depends
on the parameters and the coupling alone and returns `step`, one whole RK4
step of the rest of the code of M, bias, G and, when the tips couple, the
tip geometry and force law, with the solve inline, a loop over the four
stages. `run_loop` calls `step` once per step and nothing else per stage.
`deriv`, one state's derivative from the separate terms and `mag_torque`,
serves `dynamics.forward_dynamics` and is the tests' oracle of `step`. The
array wrappers
`mass_matrix`, `bias` and `gravity` run the same code objects with numpy's
trig bound in place of math's, so they too are elementwise;
dynamics.errata_compare evaluates all its sampled states in one call each.

Numeric failure is a flag, never an exception: `deriv` returns ok=False for
a non-finite state or result, `step` returns None for a failed pivot or a
non-finite stage input, and `run_loop` stops there. No code on that path
raises Python's float ** (OverflowError) or takes sin or cos of a
value not known to be finite (ValueError).
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


def pd_error(tgt, y):
    """PD errors (e, edot) of the state y, current minus desired.

    e = (psi1, psi2, phi1, phi2) - tgt with psi_i = theta_i - phi_i. The
    targets are constant, so the rate channel is (thetadot1, thetadot2,
    phidot1, phidot2) itself, as printed.
    """
    e = ((y[0] - y[2]) - tgt[0], (y[1] - y[3]) - tgt[1],
         y[2] - tgt[2], y[3] - tgt[3])
    return e, (y[4], y[5], y[6], y[7])


def pd_input(Kp, Kd, tgt, y):
    """Motor torques (u1, u2) = Kp e + Kd edot."""
    (e0, e1, e2, e3), (de0, de1, de2, de3) = pd_error(tgt, y)
    kp0, kp1 = Kp[0], Kp[1]
    kd0, kd1 = Kd[0], Kd[1]
    u1 = (kp0[0] * e0 + kp0[1] * e1 + kp0[2] * e2 + kp0[3] * e3
          + kd0[0] * de0 + kd0[1] * de1 + kd0[2] * de2 + kd0[3] * de3)
    u2 = (kp1[0] * e0 + kp1[1] * e1 + kp1[2] * e2 + kp1[3] * e3
          + kd1[0] * de0 + kd1[1] * de1 + kd1[2] * de2 + kd1[3] * de3)
    return u1, u2


def torque_map(u1, u2):
    """Generalized force of the motor torques; see model.generalized_torque."""
    return u1, u2, -u1, -u2


def lyapunov(Kp, Kd, e, de, dE):
    """Monitor value V and its (energy, Kp, Kd) terms.

    e and de are the four error components as pd_error returns them, dE is
    E - E_ref. Each gain entry weighs its error component squared; the Kd
    quadratic carries no 1/2, as transcribed. Sums run left to right.
    """
    kp = [a + b for a, b in zip(Kp[0], Kp[1])]
    kd = [a + b for a, b in zip(Kd[0], Kd[1])]
    terms = (0.5 * (dE * dE),
             0.5 * (e[0] * e[0]) * kp[0] + 0.5 * (e[1] * e[1]) * kp[1]
             + 0.5 * (e[2] * e[2]) * kp[2] + 0.5 * (e[3] * e[3]) * kp[3],
             (de[0] * de[0]) * kd[0] + (de[1] * de[1]) * kd[1]
             + (de[2] * de[2]) * kd[2] + (de[3] * de[3]) * kd[3])
    return terms[0] + terms[1] + terms[2], terms


def deriv(par, mag, y, tau, variant):
    """State derivative dy/dt = (qdot, qddot) under generalized force tau.

    Arguments are float sequences. Returns (dy, ok), dy a tuple of 8 floats.
    ok is False, and dy zero, when y or the result is not finite or M fails
    the Cholesky solve; the state is tested before any sine is taken, so an
    overflowing state never raises. qddot is _eom.solve_spd4 of mass_matrix
    and (tau - bias - gravity) + the magnetic torque, the separate _eom
    terms; run_loop's step computes each stage's qddot with the same
    arithmetic.
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


def run_loop(par, mag, y0, n, dt, pd, variant):
    """Integrate n fixed RK4 steps from y0.

    pd is None for an uncontrolled run, else the pd_input arguments
    (Kp, Kd, tgt), PDSpec.packed(). The controller input is evaluated
    at the step's start state and held over the step (zero-order hold).
    Magnetic torque, being state dependent physics rather than a sampled
    controller, is evaluated per stage, inside the step. Each step is one
    call of the step that _eom.step_for builds once for the run from par
    and mag.

    Returns (ys, us, n_done): samples 0..n_done are valid; n_done < n means
    the step after n_done produced a non-finite or non-solvable state.
    """
    step = _eom.step_for(par, variant, dt, mag)
    ys = np.empty((n + 1, 8))
    us = np.zeros((n + 1, 2))
    y = y0
    ys[0] = y
    tau = _ZERO4
    if not all(map(math.isfinite, y)):
        n = 0  # no step from y0: record its input and stop, as a failed step

    for i in range(n + 1):
        if pd is not None:
            u1, u2 = pd_input(*pd, y)
            us[i] = u1, u2
            tau = torque_map(u1, u2)
        if i == n:
            break
        # step tests the inputs of stages 2 to 4; a non-finite stage-4 qdd
        # makes the new y non-finite
        y = step(y, tau)
        if y is None or not all(map(math.isfinite, y)):
            return ys, us, i
        ys[i + 1] = y
    return ys, us, n


def energies_batch(par, cols, variant):
    """T and U of each recorded state (cols: the 8 state columns); a traced
    layer of perfbench, as is pm_batch."""
    return kinetic(par, cols[:4], cols[4:]), potential(par, cols[:4], variant)


def pm_batch(par, cols):
    """Tip separation p_m of every recorded state."""
    return separation(par, cols)
