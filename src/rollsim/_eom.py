# Generated by tools/gen_eom.py with sympy 1.14.0; do not edit. Regenerate
# with
#     python tools/gen_eom.py
"""Closed-form equations of motion M(q) qdd + bias(q, qd) + G(q) = tau.

Straight-line code derived symbolically from the kinetic and potential
energies of rollsim._core, and the tip separation p_m with p_m times its
gradient (tip_geometry), derived from rollsim._core.separation, whose p_m it
repeats to the last bit. p is the packed parameter sequence (m_p, m_s, I_p,
I_s, r1, r2, R1, R2, g, delta...). The mass matrix is returned as its upper
triangle, row by row: (M00, M01, M02, M03, M11, M12, M13, M22, M23, M33).
variant selects the potential: 0 paper-verbatim, 1 geometry-consistent.

tip_law(mag, tip) is the tip force law on tip_geometry's (p_m, p_m grad
p_m): the flux density B, the force F and the generalized force t = -F grad
p_m, exactly +0.0 beyond P_max and at p_m < 1e-14 (degenerate). mag is the
packed coupling (enabled, B_max, P_max, A, mu0).

pd_error(tgt, y) and pd_input(Kp, Kd, tgt, y) are the PD law: the errors
(e, edot) of the state y against the targets tgt = (th1d, th2d, ph1d, ph2d)
and the motor torques (u1, u2) = Kp e + Kd edot, Kp and Kd 2x4. They are
elementwise arithmetic, so y may be floats or the columns of a recorded run.

loop_for(p, variant, dt, mag, pd) builds the run loop once per run. It
computes what the code of mass_matrix, bias, gravity and tip_geometry, the
Cholesky of solve_spd4 and the force law of tip_law derive from p and mag
alone, each value once under one name: the temporaries of p alone, the
first two pivots and whether mag couples the tips among them. It unpacks
the gains and targets of pd, (Kp, Kd, tgt) or None. It returns loop(ys,
n), called once per run, which takes up to n RK4 steps from ys[0] with the
state in eight locals between steps. Each step computes the PD input from
the step's start state by the code of pd_input, inline, and holds tau =
(u1, u2, -u1, -u2) over the step (zero where pd is None). It then runs the
rest of the code above in a loop over the four RK4 stages: each angle sum
named and each sine and cosine taken once, the tip geometry and the force
law under one test of the coupling (p_m grad p_m only where the law reads
it), and (tau - bias - G) + t solved by the Cholesky inline. The stage
leaves out the solve's products with the zeros that M01 = M03 = 0 make and
reads a repeated value by name, by the rules of _number in tools/gen_eom.py,
so each stage's qdd equals the separate calls to the last bit but for the
sign of a zero. The stage inputs and the update are those of a list-form
RK4. loop reads loop_for's values and math's cos, sin, sqrt and inf as
keyword-only defaults, locals bound once per call. It writes each new y to
the next row of ys and returns the number of steps taken: it stops where
solve_spd4 at some stage would return None, or where a stage input or the
new y is not finite. Only the new y is tested: an inf angle makes math.cos
raise ValueError, which loop catches and returns as its stop, a NaN angle
fails a pivot, and a non-finite rate or qdd makes the new y non-finite.

With floats, q and qd are 4-sequences and y is (q, qd); math.sin and
math.cos raise ValueError on inf, so rollsim._core.deriv tests y first.
rollsim._core also runs mass_matrix, bias and gravity on equal-length
columns, with numpy's cos, sin and sqrt bound in place of math's, and masks
the non-finite columns itself.
"""

from math import cos, inf, sin, sqrt


def mass_matrix(p, q):
    """Upper triangle of M(q), 10 entries."""
    m_p, m_s, I_p, I_s, r1, r2, R1, R2, g, d_th1, d_th2, d_ph1, d_ph2 = p
    th1, th2, ph1, ph2 = q
    a31 = ph1 + th1
    c31 = cos(a31)
    a34 = ph1 + ph2
    c34 = cos(a34)
    a42 = ph2 + th2
    c42 = cos(a42)
    a12 = ph1 - th2
    c12 = cos(a12)
    xm0 = m_p*r1*r1
    xm1 = R1*c31
    xm2 = m_p*r1
    xm3 = m_p*r2*r2
    xm4 = R1*c42
    xm5 = R1*c12
    xm6 = R2*c12
    xm7 = xm5 + xm6
    xm8 = m_p*r2
    xm9 = R1*R1
    xm10 = m_p*xm9
    xm11 = m_s*xm9
    xm12 = c34*xm10
    xm13 = c34*xm11
    xm14 = R1*R2
    xm15 = 2.0*xm14
    xm16 = m_p*xm15
    xm17 = m_s*xm15
    xm18 = R2*R2
    xm19 = m_p*xm18
    xm20 = m_s*xm18
    xm21 = I_s + xm16 + xm17 + xm19 + xm20
    xm22 = c34*xm14
    xm23 = xm5*xm8
    xm24 = xm6*xm8
    xm25 = xm10 + xm11
    m00 = I_p + xm0
    m01 = 0.0
    m02 = xm2*(r1 + xm1)
    m03 = 0.0
    m11 = I_p + xm3
    m12 = xm8*(xm4 + xm7)
    m13 = xm8*(r2 + xm7)
    m22 = c34*xm16 + c34*xm17 + xm0 + 2.0*xm1*xm2 + 3.0*xm10 + 3.0*xm11 + 2.0*xm12 + 2.0*xm13 + xm21
    m23 = m_p*xm22 + m_s*xm22 + xm12 + xm13 + xm16 + xm17 + xm19 + xm20 + xm23 + xm24 + xm25 + xm4*xm8
    m33 = xm21 + 2.0*xm23 + 2.0*xm24 + xm25 + xm3
    return (m00, m01, m02, m03, m11, m12, m13, m22, m23, m33)


def bias(p, q, qd):
    """Mdot qd - dT/dq + diag(delta) qd."""
    m_p, m_s, I_p, I_s, r1, r2, R1, R2, g, d_th1, d_th2, d_ph1, d_ph2 = p
    th1, th2, ph1, ph2 = q
    dth1, dth2, dph1, dph2 = qd
    a31 = ph1 + th1
    s31 = sin(a31)
    a34 = ph1 + ph2
    s34 = sin(a34)
    a42 = ph2 + th2
    s42 = sin(a42)
    a12 = ph1 - th2
    s12 = sin(a12)
    xb0 = dph1*dph1
    xb1 = m_p*r2
    xb2 = R1 + R2
    xb3 = s12*xb2
    xb4 = xb1*xb3
    xb5 = xb0*xb4
    xb6 = dph2*dph2
    xb7 = 2.0*dph2
    xb8 = dph1*xb7
    xb9 = xb4*xb8
    xb10 = m_p*r1*s31
    xb11 = R1*xb10
    xb12 = R1*s34
    xb13 = R1*s12
    xb14 = R2*s12
    xb15 = R1*s42
    xb16 = xb13 + xb14 - xb15
    xb17 = dth2*dth2
    xb18 = m_p*xb12
    xb19 = m_s*xb12
    xb20 = R2*s34
    xb21 = R1*R1*s34
    bias0 = d_th1*dth1
    bias1 = d_th2*dth2 - xb4*xb6 - xb5 - xb9
    bias2 = -R1*xb0*(m_p*xb20 + m_s*xb20 + xb10 + xb18 + xb19) + d_ph1*dph1 - 2.0*dph1*dth1*xb11 + 2.0*dph2*dth2*m_p*r2*xb16 - dth1*dth1*xb11 + m_p*r2*xb16*xb17 - xb12*xb2*xb8*(m_p + m_s) - xb6*(R2*xb18 + R2*xb19 + m_p*xb21 + m_s*xb21 - xb1*xb13 - xb1*xb14 + xb1*xb15)
    bias3 = d_ph2*dph2 + dth2*xb4*xb7 + xb1*xb17*xb3 - xb5 - xb9
    return (bias0, bias1, bias2, bias3)


def gravity(p, q, variant):
    """dU/dq for the selected potential variant."""
    m_p, m_s, I_p, I_s, r1, r2, R1, R2, g, d_th1, d_th2, d_ph1, d_ph2 = p
    th1, th2, ph1, ph2 = q
    a31 = ph1 + th1
    s31 = sin(a31)
    a34 = ph1 + ph2
    c34 = cos(a34)
    s34 = sin(a34)
    a42 = ph2 + th2
    s42 = sin(a42)
    xg0 = m_p*r1*s31
    xg1 = g*xg0
    xg2 = m_p*r2*s42
    xg3 = g*xg2
    xg4 = R1*s34
    xg5 = R2*s34
    xg6 = m_s*xg4 + m_s*xg5
    xg7 = xg0 + xg6
    xg8 = m_p*xg4 + m_p*xg5
    xg9 = xg2 + xg6
    xg10 = c34*m_p
    xg11 = -R1*xg10 - R2*xg10
    if variant == 1:
        G0 = xg1
        G1 = xg3
        G2 = g*(xg7 + xg8)
        G3 = g*(xg8 + xg9)
    else:
        G0 = xg1
        G1 = xg3
        G2 = g*(xg11 + xg7)
        G3 = g*(xg11 + xg9)
    return (G0, G1, G2, G3)


def tip_geometry(p, q):
    """(p_m, p_m * d p_m / dq): tip separation, scaled gradient."""
    m_p, m_s, I_p, I_s, r1, r2, R1, R2, g, d_th1, d_th2, d_ph1, d_ph2 = p
    th1, th2, ph1, ph2 = q
    a31 = ph1 + th1
    c31 = cos(a31)
    s31 = sin(a31)
    a34 = ph1 + ph2
    c34 = cos(a34)
    s34 = sin(a34)
    a42 = ph2 + th2
    c42 = cos(a42)
    s42 = sin(a42)
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
    pm = sqrt(dx*dx + dy*dy)
    pg0 = dx*dx_th1 + dy*dy_th1
    pg1 = dx*dx_th2 + dy*dy_th2
    pg2 = dx*dx_ph1 + dy*dy_ph1
    pg3 = dx*dx_ph2 + dy*dy_ph2
    return (pm, pg0, pg1, pg2, pg3)


def tip_law(mag, tip):
    """(B, F, t, degenerate) of the tip force law at tip = (p_m, p_m grad p_m).

    t = -F grad p_m is the generalized force; B and F do not depend on
    the gradient, and at p_m = 0 B is B_max.
    """
    enabled, B_max, P_max, A, mu0 = mag
    pm, pg0, pg1, pg2, pg3 = tip
    degenerate = pm < 1e-14
    if pm > P_max:
        B = F = t0 = t1 = t2 = t3 = 0.0
    else:
        B = B_max * (1.0 - pm / P_max)
        F = B * B * A / (2.0 * mu0)
        if degenerate:
            t0 = t1 = t2 = t3 = 0.0
        else:
            # pg0..pg3 = p_m grad p_m
            t0 = -F * (pg0 / pm)
            t1 = -F * (pg1 / pm)
            t2 = -F * (pg2 / pm)
            t3 = -F * (pg3 / pm)
    return (B, F, (t0, t1, t2, t3), degenerate)


def solve_spd4(m, b):
    """x with M x = b, M as its upper triangle; None when a pivot fails."""
    m00, m01, m02, m03, m11, m12, m13, m22, m23, m33 = m
    b0, b1, b2, b3 = b
    if not 0.0 < m00 < inf:
        return None
    l00 = sqrt(m00)
    l10 = m01 / l00
    l20 = m02 / l00
    l30 = m03 / l00
    d11 = m11 - l10 * l10
    if not 0.0 < d11 < inf:
        return None
    l11 = sqrt(d11)
    l21 = (m12 - l20 * l10) / l11
    l31 = (m13 - l30 * l10) / l11
    d22 = m22 - l20 * l20 - l21 * l21
    if not 0.0 < d22 < inf:
        return None
    l22 = sqrt(d22)
    l32 = (m23 - l30 * l20 - l31 * l21) / l22
    d33 = m33 - l30 * l30 - l31 * l31 - l32 * l32
    if not 0.0 < d33 < inf:
        return None
    l33 = sqrt(d33)
    y0 = b0 / l00
    y1 = (b1 - l10 * y0) / l11
    y2 = (b2 - l20 * y0 - l21 * y1) / l22
    y3 = (b3 - l30 * y0 - l31 * y1 - l32 * y2) / l33
    x3 = y3 / l33
    x2 = (y2 - l32 * x3) / l22
    x1 = (y1 - l21 * x2 - l31 * x3) / l11
    x0 = (y0 - l10 * x1 - l20 * x2 - l30 * x3) / l00
    return (x0, x1, x2, x3)


def pd_error(tgt, y):
    """PD errors (e, edot) of the state y, current minus desired.

    e = (psi1, psi2, phi1, phi2) - tgt with psi_i = theta_i - phi_i. The
    targets are constant, so the rate channel is (thetadot1, thetadot2,
    phidot1, phidot2) itself, as printed."""
    th1d, th2d, ph1d, ph2d = tgt
    th1, th2, ph1, ph2, dth1, dth2, dph1, dph2 = y
    e0 = (th1 - ph1) - th1d
    e1 = (th2 - ph2) - th2d
    e2 = ph1 - ph1d
    e3 = ph2 - ph2d
    return ((e0, e1, e2, e3), (dth1, dth2, dph1, dph2))


def pd_input(Kp, Kd, tgt, y):
    """Motor torques (u1, u2) = Kp e + Kd edot of the state y; see pd_error."""
    (kp00, kp01, kp02, kp03), (kp10, kp11, kp12, kp13) = Kp
    (kd00, kd01, kd02, kd03), (kd10, kd11, kd12, kd13) = Kd
    th1d, th2d, ph1d, ph2d = tgt
    th1, th2, ph1, ph2, dth1, dth2, dph1, dph2 = y
    e0 = (th1 - ph1) - th1d
    e1 = (th2 - ph2) - th2d
    e2 = ph1 - ph1d
    e3 = ph2 - ph2d
    u1 = (kp00 * e0 + kp01 * e1 + kp02 * e2 + kp03 * e3
          + kd00 * dth1 + kd01 * dth2 + kd02 * dph1 + kd03 * dph2)
    u2 = (kp10 * e0 + kp11 * e1 + kp12 * e2 + kp13 * e3
          + kd10 * dth1 + kd11 * dth2 + kd12 * dph1 + kd13 * dph2)
    return (u1, u2)


def _failed_loop(ys, n):
    """loop_for's loop where a pivot of p alone fails: it takes no step."""
    return 0


def loop_for(p, variant, dt, mag, pd):
    """loop(ys, n), up to n RK4 steps of dt for parameters p, potential
    variant, tip coupling mag and PD controller pd, (Kp, Kd, tgt) or None;
    what p, mag and pd alone determine is computed here, once."""
    m_p, m_s, I_p, I_s, r1, r2, R1, R2, g, d_th1, d_th2, d_ph1, d_ph2 = p
    enabled, B_max, P_max, A, mu0 = mag
    controlled = pd is not None
    if controlled:
        Kp, Kd, tgt = pd
        (kp00, kp01, kp02, kp03), (kp10, kp11, kp12, kp13) = Kp
        (kd00, kd01, kd02, kd03), (kd10, kd11, kd12, kd13) = Kd
        th1d, th2d, ph1d, ph2d = tgt
    else:
        # loop binds them; an uncontrolled run never reads them
        kp00 = kp01 = kp02 = kp03 = kp10 = kp11 = kp12 = kp13 = 0.0
        kd00 = kd01 = kd02 = kd03 = kd10 = kd11 = kd12 = kd13 = 0.0
        th1d = th2d = ph1d = ph2d = 0.0
    xm0 = m_p * r1 * r1
    xm2 = m_p * r1
    xm3 = m_p * r2 * r2
    xm8 = m_p * r2
    xm9 = R1 * R1
    xm10 = m_p * xm9
    xm11 = m_s * xm9
    xm14 = R1 * R2
    xm15 = 2.0 * xm14
    xm16 = m_p * xm15
    xm17 = m_s * xm15
    xm18 = R2 * R2
    xm19 = m_p * xm18
    xm20 = m_s * xm18
    xm21 = I_s + xm16 + xm17 + xm19 + xm20
    xm25 = xm10 + xm11
    m00 = I_p + xm0
    m11 = I_p + xm3
    xp0 = 3.0 * xm10
    xp1 = 3.0 * xm11
    xb2 = R1 + R2
    xp2 = -R1
    xp3 = m_p + m_s
    coupled = enabled != 0.0
    xp4 = -r1
    xp5 = -(R1 + R2)
    xp6 = 2.0 * mu0
    xp7 = -r2
    if not 0.0 < m00 < inf:
        return _failed_loop
    l00 = sqrt(m00)
    if not 0.0 < m11 < inf:
        return _failed_loop
    l11 = sqrt(m11)
    h = 0.5 * dt
    w = dt / 6.0

    def loop(ys, n, *, A=A, B_max=B_max, P_max=P_max, R1=R1, R2=R2,
             controlled=controlled, cos=cos, coupled=coupled, d_ph1=d_ph1,
             d_ph2=d_ph2, d_th1=d_th1, d_th2=d_th2, dt=dt, g=g, h=h,
             inf=inf, kd00=kd00, kd01=kd01, kd02=kd02, kd03=kd03, kd10=kd10,
             kd11=kd11, kd12=kd12, kd13=kd13, kp00=kp00, kp01=kp01,
             kp02=kp02, kp03=kp03, kp10=kp10, kp11=kp11, kp12=kp12,
             kp13=kp13, l00=l00, l11=l11, m_p=m_p, m_s=m_s, ph1d=ph1d,
             ph2d=ph2d, r1=r1, r2=r2, sin=sin, sqrt=sqrt, th1d=th1d,
             th2d=th2d, variant=variant, w=w, xb2=xb2, xm0=xm0, xm10=xm10,
             xm11=xm11, xm14=xm14, xm16=xm16, xm17=xm17, xm19=xm19, xm2=xm2,
             xm20=xm20, xm21=xm21, xm25=xm25, xm3=xm3, xm8=xm8, xm9=xm9,
             xp0=xp0, xp1=xp1, xp2=xp2, xp3=xp3, xp4=xp4, xp5=xp5, xp6=xp6,
             xp7=xp7):
        """Up to n RK4 steps from y = ys[0], each new y written to the next
        row of ys, under the PD input at each step's start, held, plus the tip
        torque at each stage when mag couples the tips. Returns the number
        of steps taken, fewer than n where a pivot fails or a stage input or
        the new y is not finite. The keyword-only defaults are loop_for's
        values and math's, bound as locals once per call."""
        z0, z1, z2, z3, z4, z5, z6, z7 = ys[0].tolist()
        tau0 = tau1 = tau2 = tau3 = 0.0
        try:
            for i in range(n):
                th1 = z0
                th2 = z1
                ph1 = z2
                ph2 = z3
                dth1 = z4
                dth2 = z5
                dph1 = z6
                dph2 = z7
                if controlled:
                    e0 = (th1 - ph1) - th1d
                    e1 = (th2 - ph2) - th2d
                    e2 = ph1 - ph1d
                    e3 = ph2 - ph2d
                    u1 = (kp00 * e0 + kp01 * e1 + kp02 * e2 + kp03 * e3
                          + kd00 * dth1 + kd01 * dth2 + kd02 * dph1 + kd03 * dph2)
                    u2 = (kp10 * e0 + kp11 * e1 + kp12 * e2 + kp13 * e3
                          + kd10 * dth1 + kd11 * dth2 + kd12 * dph1 + kd13 * dph2)
                    tau0 = u1
                    tau1 = u2
                    tau2 = -u1
                    tau3 = -u2
                for stage in (1, 2, 3, 4):
                    a31 = ph1 + th1
                    c31 = cos(a31)
                    s31 = sin(a31)
                    a34 = ph1 + ph2
                    c34 = cos(a34)
                    s34 = sin(a34)
                    a42 = ph2 + th2
                    c42 = cos(a42)
                    s42 = sin(a42)
                    a12 = ph1 - th2
                    c12 = cos(a12)
                    s12 = sin(a12)
                    xm1 = R1 * c31
                    xm4 = R1 * c42
                    xm5 = R1 * c12
                    xm6 = R2 * c12
                    xm7 = xm5 + xm6
                    xm12 = c34 * xm10
                    xm13 = c34 * xm11
                    xm22 = c34 * xm14
                    xm23 = xm5 * xm8
                    xm24 = xm6 * xm8
                    m02 = xm2 * (r1 + xm1)
                    m12 = xm8 * (xm4 + xm7)
                    m13 = xm8 * (r2 + xm7)
                    m22 = c34 * xm16 + c34 * xm17 + xm0 + 2.0 * xm1 * xm2 + xp0 + xp1 + 2.0 * xm12 + 2.0 * xm13 + xm21
                    m23 = m_p * xm22 + m_s * xm22 + xm12 + xm13 + xm16 + xm17 + xm19 + xm20 + xm23 + xm24 + xm25 + xm4 * xm8
                    m33 = xm21 + 2.0 * xm23 + 2.0 * xm24 + xm25 + xm3
                    xb0 = dph1 * dph1
                    xb3 = s12 * xb2
                    xb4 = xm8 * xb3
                    xb5 = xb0 * xb4
                    xb6 = dph2 * dph2
                    xb7 = 2.0 * dph2
                    xb8 = dph1 * xb7
                    xb9 = xb4 * xb8
                    xb10 = xm2 * s31
                    xb11 = R1 * xb10
                    xb12 = R1 * s34
                    xb13 = R1 * s12
                    xb14 = R2 * s12
                    xb15 = R1 * s42
                    xb16 = xb13 + xb14 - xb15
                    xb17 = dth2 * dth2
                    xb18 = m_p * xb12
                    xb19 = m_s * xb12
                    xb20 = R2 * s34
                    xb21 = xm9 * s34
                    bias0 = d_th1 * dth1
                    bias1 = d_th2 * dth2 - xb4 * xb6 - xb5 - xb9
                    xv0 = m_p * xb20
                    xv1 = m_s * xb20
                    bias2 = xp2 * xb0 * (xv0 + xv1 + xb10 + xb18 + xb19) + d_ph1 * dph1 - 2.0 * dph1 * dth1 * xb11 + xb7 * dth2 * m_p * r2 * xb16 - dth1 * dth1 * xb11 + xm8 * xb16 * xb17 - xb12 * xb2 * xb8 * xp3 - xb6 * (R2 * xb18 + R2 * xb19 + m_p * xb21 + m_s * xb21 - xm8 * xb13 - xm8 * xb14 + xm8 * xb15)
                    bias3 = d_ph2 * dph2 + dth2 * xb4 * xb7 + xm8 * xb17 * xb3 - xb5 - xb9
                    xg1 = g * xb10
                    xg2 = xm8 * s42
                    xg3 = g * xg2
                    xg6 = xb19 + xv1
                    xg7 = xb10 + xg6
                    xg8 = xb18 + xv0
                    xg9 = xg2 + xg6
                    xg10 = c34 * m_p
                    xg11 = xp2 * xg10 - R2 * xg10
                    if variant == 1:
                        G0 = xg1
                        G1 = xg3
                        G2 = g * (xg7 + xg8)
                        G3 = g * (xg8 + xg9)
                    else:
                        G0 = xg1
                        G1 = xg3
                        G2 = g * (xg11 + xg7)
                        G3 = g * (xg11 + xg9)
                    b0 = tau0 - bias0 - G0
                    b1 = tau1 - bias1 - G1
                    b2 = tau2 - bias2 - G2
                    b3 = tau3 - bias3 - G3
                    if coupled:
                        dx = R1 * ph1 + r1 * s31 - (R1 * ph1 + xb2 * s34 + r2 * s42)
                        dy = xp4 * c31 - (xp5 * c34 - r2 * c42)
                        pm = sqrt(dx * dx + dy * dy)
                        degenerate = pm < 1e-14
                        if pm > P_max:
                            B = F = t0 = t1 = t2 = t3 = 0.0
                        else:
                            B = B_max * (1.0 - pm / P_max)
                            F = B * B * A / xp6
                            if degenerate:
                                t0 = t1 = t2 = t3 = 0.0
                            else:
                                dx_th1 = c31 * r1
                                dx_th2 = -c42 * r2
                                dx_ph1 = dx_th1 - c34 * xb2
                                dx_ph2 = -c34 * xb2 - c42 * r2
                                dy_th1 = r1 * s31
                                dy_th2 = xp7 * s42
                                xv2 = s34 * xb2
                                dy_ph1 = dy_th1 - xv2
                                dy_ph2 = dy_th2 - xv2
                                pg0 = dx * dx_th1 + dy * dy_th1
                                pg1 = dx * dx_th2 + dy * dy_th2
                                pg2 = dx * dx_ph1 + dy * dy_ph1
                                pg3 = dx * dx_ph2 + dy * dy_ph2
                                xv3 = -F
                                t0 = xv3 * (pg0 / pm)
                                t1 = xv3 * (pg1 / pm)
                                t2 = xv3 * (pg2 / pm)
                                t3 = xv3 * (pg3 / pm)
                        b0 = b0 + t0
                        b1 = b1 + t1
                        b2 = b2 + t2
                        b3 = b3 + t3
                    l20 = m02 / l00
                    l21 = m12 / l11
                    l31 = m13 / l11
                    d22 = m22 - l20 * l20 - l21 * l21
                    if not 0.0 < d22 < inf:
                        return i
                    l22 = sqrt(d22)
                    l32 = (m23 - l31 * l21) / l22
                    d33 = m33 - l31 * l31 - l32 * l32
                    if not 0.0 < d33 < inf:
                        return i
                    l33 = sqrt(d33)
                    y0 = b0 / l00
                    y1 = b1 / l11
                    y2 = (b2 - l20 * y0 - l21 * y1) / l22
                    y3 = (b3 - l31 * y1 - l32 * y2) / l33
                    x3 = y3 / l33
                    x2 = (y2 - l32 * x3) / l22
                    x1 = (y1 - l21 * x2 - l31 * x3) / l11
                    x0 = (y0 - l20 * x2) / l00
                    if stage == 4:
                        break
                    if stage == 1:
                        k0 = dth1
                        k1 = dth2
                        k2 = dph1
                        k3 = dph2
                        k4 = x0
                        k5 = x1
                        k6 = x2
                        k7 = x3
                        f = h
                    else:
                        k0 = k0 + 2.0 * dth1
                        k1 = k1 + 2.0 * dth2
                        k2 = k2 + 2.0 * dph1
                        k3 = k3 + xb7
                        k4 = k4 + 2.0 * x0
                        k5 = k5 + 2.0 * x1
                        k6 = k6 + 2.0 * x2
                        k7 = k7 + 2.0 * x3
                        if stage == 3:
                            f = dt
                    th1 = z0 + f * dth1
                    th2 = z1 + f * dth2
                    ph1 = z2 + f * dph1
                    ph2 = z3 + f * dph2
                    dth1 = z4 + f * x0
                    dth2 = z5 + f * x1
                    dph1 = z6 + f * x2
                    dph2 = z7 + f * x3
                z0 = z0 + w * (k0 + dth1)
                z1 = z1 + w * (k1 + dth2)
                z2 = z2 + w * (k2 + dph1)
                z3 = z3 + w * (k3 + dph2)
                z4 = z4 + w * (k4 + x0)
                z5 = z5 + w * (k5 + x1)
                z6 = z6 + w * (k6 + x2)
                z7 = z7 + w * (k7 + x3)
                if 0.0 * z0 + 0.0 * z1 + 0.0 * z2 + 0.0 * z3 + 0.0 * z4 + 0.0 * z5 + 0.0 * z6 + 0.0 * z7 != 0.0:
                    return i
                ys[i + 1] = (z0, z1, z2, z3, z4, z5, z6, z7)
        except ValueError:
            # math.cos or math.sin of an inf stage angle
            return i
        return n
    return loop
