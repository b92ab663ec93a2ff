"""Numeric kernels: energies, equations of motion and the RK4 loop.

Everything in this module works on packed float sequences:

    par: [m_p, m_s, I_p, I_s, r1, r2, R1, R2, g, d_th1, d_th2, d_ph1, d_ph2]
    mag: [enabled, B_max, P_max, A, mu0]
    q:   (theta1, theta2, phi1, phi2)          state y = (q, qdot), length 8
    tgt: (th1d, th2d, ph1d, ph2d, dth1d, dth2d, dph1d, dph2d)

The mass matrix, bias and gravity terms are the closed forms in _eom,
generated by tools/gen_eom.py from the energies `kinetic` and `potential`
below, and solved by a scalar 4x4 Cholesky. The integration loop runs on
Python floats, so one derivative evaluation is a few microseconds of
straight-line arithmetic; there is no compiled variant.

The PD error and law, the motor torque map, the Lyapunov value, the disk-2
height and the flux/force law are implemented once, here, for the loop,
simulate.run and the public functions of control, kinematics, model and
magnetics. Error, torque map and height are elementwise: a state's entries
may be floats or the equal-length columns of a recorded run.

Numeric failure is a flag, never an exception: `deriv` returns ok=False for
a non-finite stage input or result and `run_loop` stops there. No code on
that path raises Python's float ** (OverflowError) or takes sin or cos of a
value not known to be finite (ValueError).
"""

import math

import numpy as np

from . import _eom

# nothing is compiled; callers report the backend from this flag
HAVE_NUMBA = False

VARIANT_VERBATIM = 0
VARIANT_GEOMETRIC = 1

_ZERO4 = (0.0, 0.0, 0.0, 0.0)
_ZERO8 = _ZERO4 + _ZERO4


def _floats(a):
    """Nested lists of Python floats from an array or sequence."""
    return np.asarray(a, dtype=np.float64).tolist()


def kinetic(par, q, qd):
    m_p, m_s, I_p, I_s = par[0], par[1], par[2], par[3]
    r1, r2, R1, R2 = par[4], par[5], par[6], par[7]
    c1 = math.cos(q[2] + q[0])
    s1 = math.sin(q[2] + q[0])
    c12 = math.cos(q[2] + q[3])
    s12 = math.sin(q[2] + q[3])
    c2 = math.cos(q[3] + q[1])
    s2 = math.sin(q[3] + q[1])
    L = R1 + R2
    vs1x = R1 * qd[2]
    vp1x = vs1x + r1 * (qd[2] + qd[0]) * c1
    vp1y = r1 * (qd[2] + qd[0]) * s1
    vs2x = vs1x + L * (qd[2] + qd[3]) * c12
    vs2y = L * (qd[2] + qd[3]) * s12
    vp2x = vs2x + r2 * (qd[3] + qd[1]) * c2
    vp2y = vs2y + r2 * (qd[3] + qd[1]) * s2
    return 0.5 * (m_s * (vs1x * vs1x)
                  + m_p * (vp1x * vp1x + vp1y * vp1y)
                  + m_s * (vs2x * vs2x + vs2y * vs2y)
                  + m_p * (vp2x * vp2x + vp2y * vp2y)
                  + I_p * (qd[0] * qd[0] + qd[1] * qd[1])
                  + I_s * (qd[2] * qd[2] + qd[3] * qd[3]))


def potential(par, q, variant):
    m_p, m_s, g = par[0], par[1], par[8]
    r1, r2 = par[4], par[5]
    L = par[6] + par[7]
    c31 = math.cos(q[2] + q[0])
    c42 = math.cos(q[3] + q[1])
    if variant == VARIANT_GEOMETRIC:
        mid = L * math.cos(q[2] + q[3])
    else:
        mid = L * math.sin(q[2] + q[3])
    return (-m_p * r1 * g * c31
            - m_p * g * (mid + r2 * c42)
            - m_s * g * L * math.cos(q[2] + q[3]))


# The array-returning wrappers below answer a non-finite q with NaN, as numpy's
# sin and cos would; math.sin and math.cos raise ValueError on inf instead.

def mass_matrix(par, q):
    q = _floats(q)
    if not all(map(math.isfinite, q)):
        return np.full((4, 4), math.nan)
    m00, m01, m02, m03, m11, m12, m13, m22, m23, m33 = _eom.mass_matrix(
        _floats(par), q)
    return np.array([[m00, m01, m02, m03],
                     [m01, m11, m12, m13],
                     [m02, m12, m22, m23],
                     [m03, m13, m23, m33]])


def bias(par, q, qd):
    """Mdot*qd - dT/dq + diag(delta)*qd."""
    q = _floats(q)
    if not all(map(math.isfinite, q)):
        return np.full(4, math.nan)
    return np.array(_eom.bias(_floats(par), q, _floats(qd)))


def gravity(par, q, variant):
    q = _floats(q)
    if not all(map(math.isfinite, q)):
        return np.full(4, math.nan)
    return np.array(_eom.gravity(_floats(par), q, variant))


def _solve_spd4(m, b):
    """Solve M x = b by Cholesky; M given as its upper triangle, row by row.

    Returns x as a 4-tuple, or None when a pivot is non-positive or
    non-finite; no input makes it raise.
    """
    m00, m01, m02, m03, m11, m12, m13, m22, m23, m33 = m
    b0, b1, b2, b3 = b
    if not 0.0 < m00 < math.inf:
        return None
    l00 = math.sqrt(m00)
    l10 = m01 / l00
    l20 = m02 / l00
    l30 = m03 / l00
    s = m11 - l10 * l10
    if not 0.0 < s < math.inf:
        return None
    l11 = math.sqrt(s)
    l21 = (m12 - l20 * l10) / l11
    l31 = (m13 - l30 * l10) / l11
    s = m22 - l20 * l20 - l21 * l21
    if not 0.0 < s < math.inf:
        return None
    l22 = math.sqrt(s)
    l32 = (m23 - l30 * l20 - l31 * l21) / l22
    s = m33 - l30 * l30 - l31 * l31 - l32 * l32
    if not 0.0 < s < math.inf:
        return None
    l33 = math.sqrt(s)
    y0 = b0 / l00
    y1 = (b1 - l10 * y0) / l11
    y2 = (b2 - l20 * y0 - l21 * y1) / l22
    y3 = (b3 - l30 * y0 - l31 * y1 - l32 * y2) / l33
    x3 = y3 / l33
    x2 = (y2 - l32 * x3) / l22
    x1 = (y1 - l21 * x2 - l31 * x3) / l11
    x0 = (y0 - l10 * x1 - l20 * x2 - l30 * x3) / l00
    return x0, x1, x2, x3


def chol_solve4(M, b):
    """Solve M x = b for symmetric positive definite 4x4 M.

    Returns (x, ok). ok is False when a pivot is non-positive or non-finite;
    callers must not trust x in that case. The failure path is a flag, not
    an exception, so the integrator can stop cleanly.
    """
    M = _floats(M)
    x = _solve_spd4((M[0][0], M[0][1], M[0][2], M[0][3], M[1][1], M[1][2],
                     M[1][3], M[2][2], M[2][3], M[3][3]), _floats(b))
    if x is None:
        return np.zeros(4), False
    return np.array(x), True


def pm_and_grad(par, q):
    """Pendulum-tip separation p_m and its gradient d p_m / d q.

    The gradient is analytic (chain rule through the tip positions). At
    p_m = 0 the direction is undefined; the gradient is returned as zero and
    the degenerate flag set.
    """
    r1, r2, R1, R2 = par[4], par[5], par[6], par[7]
    L = R1 + R2
    s31 = math.sin(q[2] + q[0])
    c31 = math.cos(q[2] + q[0])
    s34 = math.sin(q[2] + q[3])
    c34 = math.cos(q[2] + q[3])
    s42 = math.sin(q[3] + q[1])
    c42 = math.cos(q[3] + q[1])
    p1x = R1 * q[2] + r1 * s31
    p1y = -r1 * c31
    p2x = R1 * q[2] + L * s34 + r2 * s42
    p2y = -L * c34 - r2 * c42
    dx = p1x - p2x
    dy = p1y - p2y
    p = math.sqrt(dx * dx + dy * dy)
    grad = np.zeros(4)
    if p < 1e-14:
        return p, grad, True
    grad[0] = (r1 * c31 * dx + r1 * s31 * dy) / p
    grad[1] = (-r2 * c42 * dx - r2 * s42 * dy) / p
    grad[2] = ((r1 * c31 - L * c34) * dx + (r1 * s31 - L * s34) * dy) / p
    grad[3] = (-(L * c34 + r2 * c42) * dx - (L * s34 + r2 * s42) * dy) / p
    return p, grad, False


def disk2_height(par, q):
    """Ground-relative height of disk 2's center, R1 - (R1+R2) cos(phi1+phi2)."""
    return par[6] - (par[6] + par[7]) * np.cos(q[2] + q[3])


def flux_density(mag, p):
    """B = B_max (1 - p / P_max) for tip separation p, zero beyond P_max."""
    if p > mag[2]:
        return 0.0
    return mag[1] * (1.0 - p / mag[2])


def magnetic_force(mag, B):
    """Attractive tip force F = B^2 A / (2 mu0)."""
    return B * B * mag[3] / (2.0 * mag[4])


def mag_torque(par, mag, q):
    # attractive tip force mapped through the tip Jacobians: Q = -F * grad p_m
    if mag[0] == 0.0:
        return _ZERO4
    p, grad, degenerate = pm_and_grad(par, q)
    if degenerate or p > mag[2]:
        return _ZERO4
    F = magnetic_force(mag, flux_density(mag, p))
    g0, g1, g2, g3 = grad.tolist()
    return -F * g0, -F * g1, -F * g2, -F * g3


def pd_error(tgt, y, psi_rate):
    """PD errors (e, edot) of the state y, current minus desired.

    e = (psi1, psi2, phi1, phi2) - tgt[:4] with psi_i = theta_i - phi_i. The
    pendulum rate channel is thetadot, as printed, or psidot with psi_rate.
    """
    e = ((y[0] - y[2]) - tgt[0], (y[1] - y[3]) - tgt[1],
         y[2] - tgt[2], y[3] - tgt[3])
    if psi_rate:
        de = ((y[4] - y[6]) - tgt[4], (y[5] - y[7]) - tgt[5])
    else:
        de = (y[4] - tgt[4], y[5] - tgt[5])
    return e, (*de, y[6] - tgt[6], y[7] - tgt[7])


def saturate(u, sat):
    """Clamp a float to [-sat, sat]."""
    return min(max(u, -sat), sat)


def pd_input(Kp, Kd, tgt, y, sat, psi_rate):
    """Motor torques (u1, u2) = Kp e + Kd edot, clamped to sat when sat > 0."""
    (e0, e1, e2, e3), (de0, de1, de2, de3) = pd_error(tgt, y, psi_rate)
    kp0, kp1 = Kp[0], Kp[1]
    kd0, kd1 = Kd[0], Kd[1]
    u1 = (kp0[0] * e0 + kp0[1] * e1 + kp0[2] * e2 + kp0[3] * e3
          + kd0[0] * de0 + kd0[1] * de1 + kd0[2] * de2 + kd0[3] * de3)
    u2 = (kp1[0] * e0 + kp1[1] * e1 + kp1[2] * e2 + kp1[3] * e3
          + kd1[0] * de0 + kd1[1] * de1 + kd1[2] * de2 + kd1[3] * de3)
    if sat > 0.0:
        u1 = saturate(u1, sat)
        u2 = saturate(u2, sat)
    return u1, u2


def torque_map(u1, u2):
    """Generalized force of the motor torques; see model.generalized_torque."""
    return u1, u2, -u1, -u2


def lyapunov(Kp, Kd, e, de, dE):
    """Monitor value V and its (energy, Kp, Kd) terms.

    e and de carry the four error components on their last axis, dE is
    E - E_ref. Each gain entry weighs its error component squared; the Kd
    quadratic carries no 1/2, as transcribed.
    """
    terms = (0.5 * (dE * dE), 0.5 * (e * e) @ np.sum(Kp, axis=0),
             (de * de) @ np.sum(Kd, axis=0))
    return terms[0] + terms[1] + terms[2], terms


def deriv(par, mag, y, tau, variant):
    """State derivative dy/dt = (qdot, qddot) under generalized force tau.

    Arguments are float sequences (lists are fastest). Returns (dy, ok),
    dy a tuple of 8 floats. ok is False, and dy zero, when y or the result
    is not finite or M fails the Cholesky solve; the state is tested before
    any sine is taken, so an overflowing state never raises.
    """
    if not all(map(math.isfinite, y)):
        return _ZERO8, False
    q = y[:4]
    qd = y[4:]
    b = _eom.bias(par, q, qd)
    G = _eom.gravity(par, q, variant)
    rhs = (tau[0] - b[0] - G[0], tau[1] - b[1] - G[1],
           tau[2] - b[2] - G[2], tau[3] - b[3] - G[3])
    if mag[0] != 0.0:
        t = mag_torque(par, mag, q)
        rhs = (rhs[0] + t[0], rhs[1] + t[1], rhs[2] + t[2], rhs[3] + t[3])
    qdd = _solve_spd4(_eom.mass_matrix(par, q), rhs)
    if qdd is None or not all(map(math.isfinite, qdd)):
        return _ZERO8, False
    return (*qd, *qdd), True


def run_loop(par, mag, y0, n, dt, pd, variant):
    """Integrate n fixed RK4 steps from y0.

    pd is None for an uncontrolled run, else the pd_input arguments
    (Kp, Kd, tgt, sat, psi_rate). The controller input is evaluated at the
    step's start state and held over the step (zero-order hold). Magnetic
    torque, being state dependent physics rather than a sampled controller,
    is evaluated per stage.

    Returns (ys, us, n_done): samples 0..n_done are valid; n_done < n means
    the step after n_done produced a non-finite or non-solvable state.
    """
    par, mag = _floats(par), _floats(mag)
    if pd is not None:
        Kp, Kd, tgt = (_floats(a) for a in pd[:3])
        sat, psi_rate = pd[3], pd[4]
    ys = np.empty((n + 1, 8))
    us = np.zeros((n + 1, 2))
    y = _floats(y0)
    ys[0] = y
    tau = _ZERO4
    h = 0.5 * dt
    w = dt / 6.0

    for i in range(n + 1):
        if pd is not None:
            u1, u2 = pd_input(Kp, Kd, tgt, y, sat, psi_rate)
            us[i] = u1, u2
            tau = torque_map(u1, u2)
        if i == n:
            break
        k1, ok = deriv(par, mag, y, tau, variant)
        if ok:
            k2, ok = deriv(par, mag, [a + h * k for a, k in zip(y, k1)], tau,
                           variant)
        if ok:
            k3, ok = deriv(par, mag, [a + h * k for a, k in zip(y, k2)], tau,
                           variant)
        if ok:
            k4, ok = deriv(par, mag, [a + dt * k for a, k in zip(y, k3)], tau,
                           variant)
        if not ok:
            return ys, us, i
        y = [a + w * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        if not all(map(math.isfinite, y)):
            return ys, us, i
        ys[i + 1] = y
    return ys, us, n


def energies_batch(par, ys, n_valid, variant):
    par = _floats(par)
    T = np.empty(n_valid + 1)
    U = np.empty(n_valid + 1)
    for i in range(n_valid + 1):
        row = ys[i].tolist()
        T[i] = kinetic(par, row[:4], row[4:])
        U[i] = potential(par, row[:4], variant)
    return T, U


def pm_batch(par, ys, n_valid):
    par = _floats(par)
    out = np.empty(n_valid + 1)
    for i in range(n_valid + 1):
        out[i], _, _ = pm_and_grad(par, ys[i, :4].tolist())
    return out
