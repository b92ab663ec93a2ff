import numpy as np
import pytest

from rollsim import _core
from rollsim.control import (GainMatrices, Setpoints, lyapunov, pd_control,
                             reference_energy)
from rollsim.energetics import total_energy
from rollsim.model import RobotParams, State, ValidationError

P = RobotParams()

KP = ((20.0, 0.0, 0.3, 0.0), (0.0, 30.0, 0.0, 0.7))
KD = ((0.1, 0.0, 0.5, 0.0), (0.0, 0.2, 0.0, 0.75))


def test_gain_shape_and_sparsity():
    g = GainMatrices(Kp=KP, Kd=KD)
    assert g.Kp == KP and g.Kd == KD
    with pytest.raises(ValidationError, match="Kp"):
        GainMatrices(Kp=((20, 1.0, 0.3, 0), (0, 30, 0, 0.7)), Kd=KD)
    with pytest.raises(ValidationError):
        GainMatrices(Kp=((20, 0, 0.3), (0, 30, 0)), Kd=KD)
    # a ragged matrix was numpy's ValueError
    with pytest.raises(ValidationError, match="Kp"):
        GainMatrices(Kp=((20, 0, 0.3, 0), (0, 30, 0)), Kd=KD)
    # every cross-module slot of either matrix must be zero
    for i, j in ((0, 1), (0, 3), (1, 0), (1, 2)):
        dense = [list(row) for row in KD]
        dense[i][j] = 0.5
        with pytest.raises(ValidationError, match=rf"Kd\[{i}\]\[{j}\]"):
            GainMatrices(Kp=KP, Kd=dense)


def error(sp, st):
    """(e, edot) of the PD law, as pd_control and the run loop take them."""
    return _core.pd_error(sp.packed(), st.packed())


def test_error_vector_convention():
    # e = current - desired, with psi = theta - phi for the pendulum pair
    sp = Setpoints(theta_d=(0.0, 0.0), phi_d=(0.0, 0.0))
    st = State(q=(1.0, 0.0, 0.0, 0.0))
    assert np.array_equal(error(sp, st)[0], [1.0, 0.0, 0.0, 0.0])
    st2 = State(q=(0.5, 0.0, 0.2, 0.0))
    e, _ = error(sp, st2)
    assert e[0] == pytest.approx(0.3) and e[2] == pytest.approx(0.2)


def test_pd_control_unit_error_example():
    g = GainMatrices(Kp=KP, Kd=KD)
    sp = Setpoints(theta_d=(0.0, 0.0), phi_d=(0.0, 0.0))
    st = State(q=(1.0, 0.0, 0.0, 0.0))  # e = (1,0,0,0), edot = 0
    u = pd_control(g, sp, st)
    assert u.tau[0] == pytest.approx(20.0, abs=1e-15)
    assert u.tau[1] == pytest.approx(0.0, abs=1e-15)


def test_pd_control_rate_term():
    g = GainMatrices(Kp=KP, Kd=KD)
    sp = Setpoints()
    st = State(q=(0.0,) * 4, qdot=(1.0, 0.0, 0.0, 0.0))
    assert pd_control(g, sp, st).tau[0] == pytest.approx(0.1, abs=1e-15)
    # the pendulum rate is thetadot, not psidot: phidot does not cancel it
    st2 = State(q=(0.0,) * 4, qdot=(1.0, 0.0, 1.0, 0.0))
    assert pd_control(g, sp, st2).tau[0] == pytest.approx(0.6, abs=1e-15)


def test_error_rate_is_the_thetadot_channel():
    sp = Setpoints()
    st = State(q=(0.0,) * 4, qdot=(2.0, 0.0, 0.5, 0.0))
    assert list(error(sp, st)[1]) == [2.0, 0.0, 0.5, 0.0]


def test_reference_energy_is_setpoint_configuration_energy():
    sp = Setpoints(theta_d=(np.radians(-180), np.radians(-155)),
                   phi_d=(np.pi, np.radians(185)))
    e_ref = reference_energy(P, sp)
    q_ref = (sp.theta_d[0] + sp.phi_d[0], sp.theta_d[1] + sp.phi_d[1],
             sp.phi_d[0], sp.phi_d[1])
    assert e_ref == pytest.approx(total_energy(P, State(q=q_ref)), abs=1e-12)


def test_lyapunov_nonnegative_and_components():
    g = GainMatrices(Kp=KP, Kd=KD)
    sp = Setpoints(theta_d=(0.1, -0.2), phi_d=(np.pi, 0.5))
    rng = np.random.default_rng(21)
    for _ in range(50):
        st = State(q=tuple(rng.uniform(-4, 4, 4)), qdot=tuple(rng.uniform(-2, 2, 4)))
        sample = lyapunov(P, g, sp, st)
        assert sample.V >= 0.0
        assert sample.Vdot is None
        assert all(c >= 0.0 for c in sample.components)
        assert sample.V == pytest.approx(sum(sample.components), rel=1e-12)


def test_lyapunov_backward_difference():
    g = GainMatrices(Kp=KP, Kd=KD)
    sp = Setpoints()
    s1 = lyapunov(P, g, sp, State(q=(0.1, 0.0, 0.0, 0.0)))
    s2 = lyapunov(P, g, sp, State(q=(0.2, 0.0, 0.0, 0.0)),
                  prev_sample=s1, dt=0.5)
    assert s2.Vdot == pytest.approx((s2.V - s1.V) / 0.5, rel=1e-12)
