from dataclasses import replace

import numpy as np
import pytest

from rollsim.config import load_scenario
from rollsim.control import GainMatrices, Setpoints, lyapunov, pd_control
from rollsim.kinematics import disk2_height
from rollsim.model import RobotParams, State, ValidationError, generalized_torque
from rollsim.simulate import (GROUND_PENETRATION, NON_FINITE_STATE, TOPPLE,
                              IntegrationError, PDSpec, Scenario, detect_events,
                              rk4_step, run, sample_count)

P = RobotParams()


def test_rk4_zero_dynamics_is_identity():
    y = np.array([1.0, -2.0, 3.0])
    out = rk4_step(lambda t, y: np.zeros_like(y), y, 0.0, 0.1)
    assert np.array_equal(out, y)


def test_rk4_exponential_order():
    # x' = x from 1: single-step defect against e^dt shrinks as dt^5
    errs = []
    for dt in (0.1, 0.05):
        x1 = rk4_step(lambda t, x: x, np.array([1.0]), 0.0, dt)[0]
        errs.append(abs(x1 - np.exp(dt)))
    order = np.log2(errs[0] / errs[1])
    assert order == pytest.approx(5.0, abs=0.2)


def test_rk4_rejects_nonfinite_stage():
    def f(t, y):
        return np.array([np.inf])
    with pytest.raises(IntegrationError, match="stage 1"):
        rk4_step(f, np.array([1.0]), 0.0, 0.1)
    with pytest.raises(ValidationError):
        rk4_step(lambda t, y: y, np.array([1.0]), 0.0, 0.0)


def test_rk4_matches_compiled_loop_one_step():
    sc, p, m = load_scenario("freefall")
    from rollsim.dynamics import forward_dynamics

    def f(t, y):
        st = State(q=tuple(y[:4]), qdot=tuple(y[4:]))
        return np.concatenate([y[4:], forward_dynamics(p, st, np.zeros(4))])

    one = run(Scenario(name="one", y0=sc.y0, horizon=sc.dt, dt=sc.dt), p, m)
    ref = rk4_step(f, sc.y0_array(), 0.0, sc.dt)
    assert np.allclose(one.y[1], ref, rtol=0, atol=1e-13)


def test_sample_count_real_arithmetic():
    assert sample_count(5.0, 1e-3) == 5001
    assert sample_count(10.0, 5e-4) == 20001
    assert sample_count(1.0, 1e-3) == 1001
    # a horizon deliberately between grid points still rounds down
    assert sample_count(0.9995, 1e-3) == 1000


def test_scenario_validation():
    with pytest.raises(ValidationError):
        Scenario(name="x", y0=(0.0,) * 7)
    with pytest.raises(ValidationError):
        Scenario(name="x", y0=(0.0,) * 8, dt=0.0)
    with pytest.raises(ValidationError):
        Scenario(name="x", y0=(0.0,) * 8, dt=0.1, horizon=0.05)
    with pytest.raises(Exception):
        Scenario(name="x", y0=(0.0,) * 8, potential="bogus")


def test_run_shapes_and_determinism():
    sc, p, m = load_scenario("freefall")
    a = run(sc, p, m)
    b = run(sc, p, m)
    assert a.t.shape == (5001,)
    assert a.y.shape == (5001, 8) and a.u.shape == (5001, 2)
    for name in ("t", "y", "u", "T", "U", "E", "P", "height", "p_m"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.events == b.events
    # no controller: V undefined, inputs identically zero
    assert np.all(np.isnan(a.V)) and np.all(a.u == 0.0)
    assert np.all(a.tau_gen == 0.0)


def test_run_zero_order_hold_records_pd_input():
    sc, p, m = load_scenario("balancing")
    traj = run(sc, p, m)
    u0 = pd_control(sc.controller.gains, sc.controller.setpoints,
                    State.from_array(sc.y0_array()))
    assert traj.u[0, 0] == pytest.approx(u0.tau[0], rel=1e-12)
    assert traj.u[0, 1] == pytest.approx(u0.tau[1], rel=1e-12)
    # generalized mapping recorded alongside
    assert np.array_equal(traj.tau_gen[:, 2], -traj.u[:, 0])
    assert np.array_equal(traj.tau_gen[:, 3], -traj.u[:, 1])


def test_run_truncates_on_blowup():
    gains = GainMatrices(Kp=((1e9, 0.0, 0.0, 0.0), (0.0, 1e9, 0.0, 0.0)),
                         Kd=((0.0,) * 4, (0.0,) * 4))
    spec = PDSpec(gains=gains, setpoints=Setpoints(theta_d=(2.0, 2.0)))
    sc = Scenario(name="blow", y0=(0.0,) * 8, controller=spec, horizon=2.0,
                  dt=1e-3)
    traj = run(sc, P)
    assert traj.truncated
    assert traj.t.shape[0] < 2001
    assert traj.events and traj.events[-1].kind == NON_FINITE_STATE
    assert np.all(np.isfinite(traj.y))  # only valid samples are kept


def test_events_edge_triggered_not_level():
    # held state inside every condition: no events at all
    st = np.concatenate([np.array([0.0, 0.0, np.pi, 0.0]), np.zeros(4)])
    evs = detect_events(P, (1e-3, st), (0.0, st))
    assert evs == []
    # balancing starts below ground level; the initial sample must not fire
    sc, p, m = load_scenario("balancing")
    traj = run(sc, p, m)
    assert all(e.time > 0.0 for e in traj.events)
    pen = traj.events_of(GROUND_PENETRATION)
    assert all(traj.height[int(round(e.time / sc.dt))] < p.R2 for e in pen)


def test_topple_crossing_semantics():
    sc, p, m = load_scenario("freefall")
    traj = run(sc, p, m)
    topples = traj.events_of(TOPPLE)
    assert topples and topples[0].time == pytest.approx(0.698, abs=1e-12)
    # each event is a genuine upward crossing of the 90 degree deviation
    from rollsim.kinematics import upright_deviation
    dev = upright_deviation(traj.y[:, 2] + traj.y[:, 3])
    above = dev > np.pi / 2
    crossings = int(np.sum(above[1:] & ~above[:-1]))
    assert len(topples) == crossings


def test_detect_events_requires_time_order():
    st = np.zeros(8)
    with pytest.raises(ValidationError):
        detect_events(P, (0.0, st), (0.0, st))


def test_magnetics_flag_changes_dynamics():
    y0 = (0.0, 0.0, np.radians(170), 0.0, 0.0, 0.0, 0.0, 0.0)
    base = Scenario(name="m0", y0=y0, horizon=0.5, dt=1e-3)
    on = Scenario(name="m1", y0=y0, horizon=0.5, dt=1e-3, magnetics=True)
    t0 = run(base, P)
    t1 = run(on, P)
    # tips start 0.0113 m apart, inside P_max = 0.02: the pull must act
    assert t1.p_m[0] < 0.02
    assert not np.array_equal(t0.y, t1.y)


def test_run_loop_saturation_clamps_the_input():
    sc, p, m = load_scenario("balancing")
    short = replace(sc, horizon=0.1)
    free = run(short, p, m)
    sat = 0.5 * float(np.max(np.abs(free.u)))
    clamped = run(replace(short, controller=replace(sc.controller,
                                                    saturation=sat)), p, m)
    assert np.max(np.abs(clamped.u)) <= sat
    assert np.any(np.abs(clamped.u) == sat)  # the clamp was active


def test_run_loop_psi_rate_uses_the_psi_rate_law():
    sc, p, m = load_scenario("balancing")
    spec = replace(sc.controller, psi_rate=True)
    traj = run(replace(sc, controller=spec, horizon=0.05), p, m)
    for y, u in zip(traj.y, traj.u):
        st = State.from_array(y)
        assert tuple(u) == pd_control(spec.gains, spec.setpoints, st,
                                      psi_rate=True).tau
    # the disks move, so the psidot channel differs from the printed one
    last = State.from_array(traj.y[-1])
    assert (pd_control(spec.gains, spec.setpoints, last).tau
            != pd_control(spec.gains, spec.setpoints, last, psi_rate=True).tau)


def test_run_records_the_public_quantities():
    # every recorded per-sample quantity is the public function's value
    sc, p, m = load_scenario("lifting")
    y0 = (0.0, 0.0, np.radians(170), 0.0, 0.0, 0.0, 0.0, 0.0)
    sc = replace(sc, y0=y0, magnetics=True, horizon=0.1)
    traj = run(sc, p, m)
    spec = sc.controller
    assert np.any(traj.p_m < m.P_max)  # the tips pull at the start
    for i, y in enumerate(traj.y):
        st = State.from_array(y)
        u = pd_control(spec.gains, spec.setpoints, st)
        V = lyapunov(p, spec.gains, spec.setpoints, st, variant=sc.potential).V
        assert traj.u[i] == pytest.approx(u.tau, rel=1e-12, abs=0)
        assert traj.tau_gen[i] == pytest.approx(generalized_torque(u),
                                                rel=1e-12, abs=0)
        assert traj.V[i] == pytest.approx(V, rel=1e-12, abs=0)
        assert traj.height[i] == pytest.approx(disk2_height(p, st), rel=1e-12,
                                               abs=0)
