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


def test_pd_control_is_quiet_on_a_numpy_float_state():
    # an infinite np.float64 error times a zero gain raised numpy's
    # RuntimeWarning; Python floats give (inf, nan) quietly, and so must it
    g = GainMatrices(Kp=KP, Kd=KD)
    for inf in (float("inf"), np.float64("inf")):
        u1, u2 = pd_control(g, Setpoints(), State(q=(inf, 0.0, 0.0, 0.0)))
        assert u1 == np.inf and np.isnan(u2)


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
    u1, u2 = pd_control(g, sp, st)
    assert u1 == pytest.approx(20.0, abs=1e-15)
    assert u2 == pytest.approx(0.0, abs=1e-15)


def test_pd_control_rate_term():
    g = GainMatrices(Kp=KP, Kd=KD)
    sp = Setpoints()
    st = State(q=(0.0,) * 4, qdot=(1.0, 0.0, 0.0, 0.0))
    assert pd_control(g, sp, st)[0] == pytest.approx(0.1, abs=1e-15)
    # the pendulum rate is thetadot, not psidot: phidot does not cancel it
    st2 = State(q=(0.0,) * 4, qdot=(1.0, 0.0, 1.0, 0.0))
    assert pd_control(g, sp, st2)[0] == pytest.approx(0.6, abs=1e-15)


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


def setpoint_state(sp):
    """The setpoint configuration at rest: psi_i = theta_id, phi_i = phi_id."""
    return State(q=(sp.theta_d[0] + sp.phi_d[0], sp.theta_d[1] + sp.phi_d[1],
                    sp.phi_d[0], sp.phi_d[1]))


def lyapunov_oracle(g, sp, st):
    """V by the formula of control.lyapunov's docstring: every gain entry of
    both rows weighs its error component squared, Kd with no 1/2."""
    e = (st.q[0] - st.q[2] - sp.theta_d[0], st.q[1] - st.q[3] - sp.theta_d[1],
         st.q[2] - sp.phi_d[0], st.q[3] - sp.phi_d[1])
    de = st.qdot
    dE = total_energy(P, st) - total_energy(P, setpoint_state(sp))
    return (0.5 * dE ** 2
            + sum(0.5 * row[c] * e[c] ** 2 for row in g.Kp for c in range(4))
            + sum(row[c] * de[c] ** 2 for row in g.Kd for c in range(4)))


def test_lyapunov_nonnegative_and_components():
    # V against its energy, Kp and Kd components, summed by the oracle
    g = GainMatrices(Kp=KP, Kd=KD)
    sp = Setpoints(theta_d=(0.1, -0.2), phi_d=(np.pi, 0.5))
    rng = np.random.default_rng(21)
    for _ in range(50):
        st = State(q=tuple(rng.uniform(-4, 4, 4)), qdot=tuple(rng.uniform(-2, 2, 4)))
        V = lyapunov(P, g, sp, st)
        assert type(V) is float and V >= 0.0
        assert V == pytest.approx(lyapunov_oracle(g, sp, st), rel=1e-12)
    # zero at the target equilibrium
    assert lyapunov(P, g, sp, setpoint_state(sp)) == pytest.approx(0.0,
                                                                   abs=1e-24)
