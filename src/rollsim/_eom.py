# Generated by tools/gen_eom.py; do not edit. Regenerate with
#     python tools/gen_eom.py
"""Closed-form equations of motion M(q) qdd + bias(q, qd) + G(q) = tau.

Straight-line scalar code derived symbolically from the kinetic and
potential energies of rollsim._core, and the tip separation p_m with p_m
times its gradient (tip_geometry), derived from rollsim._core.separation,
whose p_m it repeats to the last bit. p is the packed parameter sequence
(m_p, m_s, I_p, I_s, r1, r2, R1, R2, g, delta...), q and qd are 4-sequences
of floats. The mass matrix is returned as its upper triangle, row by row:
(M00, M01, M02, M03, M11, M12, M13, M22, M23, M33). variant selects the
potential: 0 paper-verbatim, 1 geometry-consistent.

Inputs must be finite: math.sin and math.cos raise ValueError on inf.
"""

from math import cos, sin, sqrt


def mass_matrix(p, q):
    """Upper triangle of M(q), 10 entries."""
    m_p, m_s, I_p, I_s, r1, r2, R1, R2, g, d_th1, d_th2, d_ph1, d_ph2 = p
    th1, th2, ph1, ph2 = q
    c31 = cos(ph1 + th1)
    c34 = cos(ph1 + ph2)
    c42 = cos(ph2 + th2)
    c12 = cos(ph1 - th2)
    x0 = m_p*r1*r1
    x1 = R1*c31
    x2 = m_p*r1
    x3 = m_p*r2*r2
    x4 = R1*c42
    x5 = R1*c12
    x6 = R2*c12
    x7 = x5 + x6
    x8 = m_p*r2
    x9 = R1*R1
    x10 = m_p*x9
    x11 = m_s*x9
    x12 = c34*x10
    x13 = c34*x11
    x14 = R1*R2
    x15 = 2*x14
    x16 = m_p*x15
    x17 = m_s*x15
    x18 = R2*R2
    x19 = m_p*x18
    x20 = m_s*x18
    x21 = I_s + x16 + x17 + x19 + x20
    x22 = c34*x14
    x23 = x5*x8
    x24 = x6*x8
    x25 = x10 + x11
    return (I_p + x0, 0.0, x2*(r1 + x1), 0.0, I_p + x3, x8*(x4 + x7), x8*(r2 + x7), c34*x16 + c34*x17 + x0 + 2*x1*x2 + 3*x10 + 3*x11 + 2*x12 + 2*x13 + x21, m_p*x22 + m_s*x22 + x12 + x13 + x16 + x17 + x19 + x20 + x23 + x24 + x25 + x4*x8, x21 + 2*x23 + 2*x24 + x25 + x3)


def bias(p, q, qd):
    """Mdot qd - dT/dq + diag(delta) qd."""
    m_p, m_s, I_p, I_s, r1, r2, R1, R2, g, d_th1, d_th2, d_ph1, d_ph2 = p
    th1, th2, ph1, ph2 = q
    dth1, dth2, dph1, dph2 = qd
    s31 = sin(ph1 + th1)
    s34 = sin(ph1 + ph2)
    s42 = sin(ph2 + th2)
    s12 = sin(ph1 - th2)
    x0 = dph1*dph1
    x1 = m_p*r2
    x2 = R1 + R2
    x3 = s12*x2
    x4 = x1*x3
    x5 = x0*x4
    x6 = dph2*dph2
    x7 = 2*dph2
    x8 = dph1*x7
    x9 = x4*x8
    x10 = m_p*r1*s31
    x11 = R1*x10
    x12 = R1*s34
    x13 = R1*s12
    x14 = R2*s12
    x15 = R1*s42
    x16 = x13 + x14 - x15
    x17 = dth2*dth2
    x18 = m_p*x12
    x19 = m_s*x12
    x20 = R2*s34
    x21 = R1*R1*s34
    return (d_th1*dth1, d_th2*dth2 - x4*x6 - x5 - x9, -R1*x0*(m_p*x20 + m_s*x20 + x10 + x18 + x19) + d_ph1*dph1 - 2*dph1*dth1*x11 + 2*dph2*dth2*m_p*r2*x16 - dth1*dth1*x11 + m_p*r2*x16*x17 - x12*x2*x8*(m_p + m_s) - x6*(R2*x18 + R2*x19 + m_p*x21 + m_s*x21 - x1*x13 - x1*x14 + x1*x15), d_ph2*dph2 + dth2*x4*x7 + x1*x17*x3 - x5 - x9)


def gravity(p, q, variant):
    """dU/dq for the selected potential variant."""
    m_p, m_s, I_p, I_s, r1, r2, R1, R2, g, d_th1, d_th2, d_ph1, d_ph2 = p
    th1, th2, ph1, ph2 = q
    s31 = sin(ph1 + th1)
    c34 = cos(ph1 + ph2)
    s34 = sin(ph1 + ph2)
    s42 = sin(ph2 + th2)
    x0 = m_p*r1*s31
    x1 = g*x0
    x2 = m_p*r2*s42
    x3 = g*x2
    x4 = R1*s34
    x5 = R2*s34
    x6 = m_s*x4 + m_s*x5
    x7 = x0 + x6
    x8 = m_p*x4 + m_p*x5
    x9 = x2 + x6
    x10 = c34*m_p
    x11 = -R1*x10 - R2*x10
    if variant == 1:
        return (x1, x3, g*(x7 + x8), g*(x8 + x9))
    return (x1, x3, g*(x11 + x7), g*(x11 + x9))


def tip_geometry(p, q):
    """(p_m, p_m * d p_m / dq): tip separation, scaled gradient."""
    m_p, m_s, I_p, I_s, r1, r2, R1, R2, g, d_th1, d_th2, d_ph1, d_ph2 = p
    th1, th2, ph1, ph2 = q
    c31 = cos(ph1 + th1)
    s31 = sin(ph1 + th1)
    c34 = cos(ph1 + ph2)
    s34 = sin(ph1 + ph2)
    c42 = cos(ph2 + th2)
    s42 = sin(ph2 + th2)
    dx = (R1*ph1 + r1*s31) - ((R1*ph1 + (R1 + R2)*s34) + r2*s42)
    dy = (-r1)*c31 - ((-(R1 + R2))*c34 - r2*c42)
    dx_th1 = c31*r1
    dx_th2 = -c42*r2
    dx_ph1 = c31*r1 - c34*(R1 + R2)
    dx_ph2 = -c34*(R1 + R2) - c42*r2
    dy_th1 = r1*s31
    dy_th2 = -r2*s42
    dy_ph1 = r1*s31 - s34*(R1 + R2)
    dy_ph2 = -r2*s42 - s34*(R1 + R2)
    return (sqrt(dx*dx + dy*dy), dx*dx_th1 + dy*dy_th1, dx*dx_th2 + dy*dy_th2, dx*dx_ph1 + dy*dy_ph1, dx*dx_ph2 + dy*dy_ph2)
