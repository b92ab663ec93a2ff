import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rollsim import _core, _eom
from rollsim.config import load_scenario
from rollsim.control import GainMatrices, Setpoints, lyapunov, pd_control
from rollsim.energetics import dissipation, kinetic_energy, potential_energy
from rollsim.kinematics import disk2_height
from rollsim.magnetics import MagneticParams, magnetic_potential, separation
from rollsim.model import (RobotParams, State, ValidationError,
                           generalized_torque)
from rollsim.simulate import (COUPLING_ENGAGED, COUPLING_LOST,
                              GROUND_PENETRATION, NON_FINITE_STATE, TOPPLE,
                              PDSpec, Scenario, _detect_all, run,
                              sample_count)

P = RobotParams()


def rk4_step(f, y, t, dt):
    """One classical RK4 step of y' = f(t, y), on arrays.

    The oracle for the run loop, _core.run_loop, which runs the same Butcher
    tableau on Python floats.
    """
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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


def test_rk4_oracle_matches_run_one_step():
    sc, p, m = load_scenario("freefall")
    from rollsim.dynamics import forward_dynamics

    def f(t, y):
        st = State(q=tuple(y[:4]), qdot=tuple(y[4:]))
        return np.concatenate([y[4:], forward_dynamics(p, st, np.zeros(4))])

    one = run(Scenario(name="one", y0=sc.y0, horizon=sc.dt, dt=sc.dt), p, m)
    ref = rk4_step(f, np.array(sc.y0), 0.0, sc.dt)
    assert np.allclose(one.y[1], ref, rtol=0, atol=1e-13)


# list_rk4_step of tests/test_eom.py, loaded by path so the import does not
# depend on pytest's import mode
_spec = importlib.util.spec_from_file_location(
    "eom_oracle", Path(__file__).with_name("test_eom.py"))
_eom_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_eom_oracle)


def list_rk4(par, mag, y0, n, dt, pd, variant):
    """(ys, us) of up to n RK4 steps on lists of Python floats.

    The bit-exact oracle of _core.run_loop: each step is list_rk4_step of
    tests/test_eom.py, on the separate _eom terms plus the magnetic torque
    with every stage input and qdd tested, not _eom's loop. It stops, as
    run_loop does, at a step that fails or leaves a non-finite y. The input
    is pd_input at each step's start state, held over the step.
    """
    tau = (0.0,) * 4
    y, ys, us = list(y0), [], []
    for i in range(n + 1):
        ys.append(y)
        us.append([0.0, 0.0])
        if pd is not None:
            us[-1] = list(_core.pd_input(*pd, y))
            tau = _core.torque_map(*us[-1])
        if i == n:
            break
        y = _eom_oracle.list_rk4_step(par, mag, y, tau, variant, dt)
        if y is None or not all(map(math.isfinite, y)):
            break
    return ys, us


def samples(y0, n):
    """run_loop's array for n steps from y0, as run allocates it."""
    ys = np.empty((n + 1, 8))
    ys[0] = y0
    return ys


def loop_calls(monkeypatch):
    """The (arguments, result) of each _core.run_loop call from now on."""
    calls = []
    real_loop = _core.run_loop

    def loop(*args):
        calls.append((args, real_loop(*args)))
        return calls[-1][1]

    monkeypatch.setattr(_core, "run_loop", loop)
    return calls


def assert_loop_is_list_rk4(args, result):
    """run_loop's samples are list_rk4's, to the bit; returns n_done.

    The bytes are compared, so -0.0 in place of 0.0 fails: a zero input
    recorded as -0.0 would print -0 in the CSV.
    """
    par, mag, ys, dt, pd, variant, _ = args
    ys, us, n_done = result
    ref_ys, ref_us = list_rk4(par, mag, ys[0].tolist(), ys.shape[0] - 1, dt,
                              pd, variant)
    assert len(ref_ys) == n_done + 1
    assert ys[:n_done + 1].tobytes() == np.array(ref_ys).tobytes()
    assert us[:n_done + 1].tobytes() == np.array(ref_us).tobytes()
    return n_done


@pytest.mark.parametrize("preset,changes,start", [
    ("freefall", ({}, {}), 0),
    # from 0.48 s of the lifting_mag run: the held PD input, and the tips
    # couple at 0.4864 s
    ("lifting", ({"dt": 2e-4}, {"enabled": True}), 2400),
    ("balancing", ({}, {}), 0),
])
def test_run_loop_equals_a_list_rk4_to_the_bit(preset, changes, start,
                                               monkeypatch):
    # changes: the (Scenario, MagneticParams) fields to replace
    sc, p, m = load_scenario(preset)
    sc, m = replace(sc, **changes[0]), replace(m, **changes[1])
    if start:
        before = run(replace(sc, horizon=start * sc.dt), p, m)
        assert len(before.t) == start + 1
        sc = replace(sc, y0=tuple(before.y[-1]))
    sc = replace(sc, horizon=300 * sc.dt)
    loops = loop_calls(monkeypatch)
    run(sc, p, m)
    [(args, result)] = loops
    assert assert_loop_is_list_rk4(args, result) == 300 == len(args[2]) - 1
    ys, us, _ = result
    # the lifting run is coupled over part of the 300 steps, so the loop's
    # own tip force law is checked against the oracle's mag_torque
    if m.enabled:
        pulled = [_core.mag_torque(args[0], args[1], y[:4])[0]
                  != (0.0,) * 4 for y in ys.tolist()]
        assert 0 < sum(pulled) < 300
    if args[4] is not None:
        assert np.any(us[1:] != us[:-1])


@pytest.mark.parametrize("preset,n_done", [("lifting", 1561),
                                           ("balancing", 835)])
def test_a_truncated_run_stops_where_a_list_rk4_does(preset, n_done,
                                                      monkeypatch):
    # the loop tests only the new y, and stops where math.cos of an inf
    # angle raises or a pivot fails; a list RK4 that tests every stage input
    # and qdd, as deriv does at each stage, must stop after the same step
    sc, p, m = load_scenario(preset)
    loops = loop_calls(monkeypatch)
    assert run(sc, p, m).truncated
    [(args, result)] = loops
    assert assert_loop_is_list_rk4(args, result) == n_done < len(args[2]) - 1
    # the inputs of the valid samples only
    assert result[1].shape == (n_done + 1, 2)


@pytest.mark.parametrize("preset,changes,n_done", [
    ("freefall", ({}, {}), 5000),
    ("lifting", ({}, {}), 1561),
    ("balancing", ({}, {}), 835),
    ("lifting", ({"dt": 2e-4, "horizon": 0.8}, {"enabled": True}), 4000),
])
def test_run_loop_in_chunks_equals_one_loop_call(preset, changes, n_done):
    # each chunk starts from the last row of the one before, read back from
    # ys; the sink sees the rows of each chunk as it ends
    sc, p, m = load_scenario(preset)
    sc, m = replace(sc, **changes[0]), replace(m, **changes[1])
    par, mag, pd = p.packed(), m.packed(), sc.controller and \
        sc.controller.packed()
    n = sample_count(sc.horizon, sc.dt) - 1
    seen = []
    ys = samples(sc.y0, n)
    whole = ys.copy()
    out, us, done = _core.run_loop(par, mag, ys, sc.dt, pd, 0, seen.append)
    # the samples are written into the caller's array
    assert out is ys
    assert _eom.loop_for(par, 0, sc.dt, mag, pd)(whole, n) == done == n_done
    assert ys[:done + 1].tobytes() == whole[:done + 1].tobytes()
    # none of these runs stops at a chunk's first step
    assert seen == [*range(_core.CHUNK_STEPS + 1, done + 1,
                           _core.CHUNK_STEPS), done + 1]
    assert us[:done + 1].tobytes() == _core.held_inputs(pd, ys[:done + 1]) \
        .tobytes()


def test_a_nonfinite_stage_2_qdd_fails_the_step():
    # rates of 1e100 leave stage 1's qdd (~1e300) and stage 2's input finite,
    # and square to inf in stage 2's bias
    par, mag = P.packed(), [0.0] * 5
    y = [0.1, 0.5, 3.0, 0.2, 1e100, -1e100, 1e100, 1e100]
    dt, tau = 1e-3, (0.0,) * 4
    dy, ok = _core.deriv(par, mag, y, tau, 0)
    y2 = [a + 0.5 * dt * k for a, k in zip(y, dy)]
    assert ok and all(map(math.isfinite, dy[4:] + tuple(y2)))
    assert not _core.deriv(par, mag, y2, tau, 0)[1]
    *_, n_done = _core.run_loop(par, mag, samples(y, 3), dt, None, 0)
    assert n_done == 0
    assert list_rk4(par, mag, y, 3, dt, None, 0) == ([y], [[0.0, 0.0]])


def stage_inputs(par, y, dt, tau=(0.0,) * 4):
    """The stage inputs of one uncoupled list RK4 step from y under the held
    tau, up to the first that is not finite. Each qdd is solve_spd4 of the
    separate _eom terms, as deriv's, but kept where it is not finite."""
    ins = [list(y)]
    for f in (0.5 * dt, 0.5 * dt, dt):
        q, qd = ins[-1][:4], ins[-1][4:]
        b, G = _eom.bias(par, q, qd), _eom.gravity(par, q, 0)
        qdd = _eom.solve_spd4(_eom.mass_matrix(par, q),
                              [t - bi - gi for t, bi, gi in zip(tau, b, G)])
        ins.append([a + f * d for a, d in zip(y, [*qd, *qdd])])
        if not all(map(math.isfinite, ins[-1])):
            break
    return ins


def nonfinite_kind(y):
    """'inf angle' where an angle sum the loop takes cos and sin of is inf
    (math.cos raises ValueError), else 'nan' or 'inf rate'."""
    th1, th2, ph1, ph2 = y[:4]
    if any(map(math.isinf, (ph1 + th1, ph1 + ph2, ph2 + th2, ph1 - th2))):
        return "inf angle"
    return "nan" if any(map(math.isnan, y)) else "inf rate"


AT_REST = [0.1, 0.5, 3.0, 0.2, 0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("y,dt,stage,kind", [
    (AT_REST[:4] + [1e10, 0.0, 0.0, 0.0], 1e300, 2, "inf angle"),
    (AT_REST[:4] + [1e10, 0.0, 0.0, 0.0], 1e295, 2, "inf rate"),
    (AT_REST[:4] + [1e155, 0.0, 0.0, 0.0], 1e-3, 2, "nan"),
    (AT_REST, 1e160, 3, "inf angle"),
    (AT_REST, 1e105, 3, "inf rate"),
    (AT_REST, 1e154, 3, "nan"),
    (AT_REST, 1e80, 4, "inf angle"),
    (AT_REST, 1e48, 4, "inf rate"),
    (AT_REST, 1e60, 4, "nan"),
])
def test_a_nonfinite_stage_input_stops_where_a_list_rk4_does(y, dt, stage,
                                                             kind):
    # the loop tests no stage input: an inf angle makes math.cos raise
    # ValueError, which the loop turns into its stop; a NaN angle fails the
    # d22 pivot; a non-finite rate or qdd reaches the new y through the
    # slopes' sums, and the new y's test stops the step
    par, mag = P.packed(), [0.0] * 5
    ins = stage_inputs(par, y, dt)
    assert (len(ins), nonfinite_kind(ins[-1])) == (stage, kind)
    args = (par, mag, samples(y, 3), dt, None, 0, None)
    assert assert_loop_is_list_rk4(args, _core.run_loop(*args)) == 0


def test_a_chunk_stops_at_its_last_step_where_the_new_y_overflows():
    # balancing at this dt first fails a step whose four stage inputs are
    # finite: its stage 4 qdd is not, so neither is its new y, and the new
    # y's test stops the loop. Started 255 steps before that step, the run
    # stops at the last step of its first chunk.
    sc, p, m = load_scenario("balancing")
    assert not m.enabled
    par, mag, pd, dt = p.packed(), m.packed(), sc.controller.packed(), 0.00102
    ref_ys, _ = list_rk4(par, mag, sc.y0, 1000, dt, pd, 0)
    assert len(ref_ys) - 1 < 1000
    tau = _core.torque_map(*_core.pd_input(*pd, ref_ys[-1]))
    ins = stage_inputs(par, ref_ys[-1], dt, tau)
    assert len(ins) == 4 and all(map(math.isfinite, ins[-1]))
    args = (par, mag, samples(ref_ys[-_core.CHUNK_STEPS], 300), dt, pd, 0,
            None)
    assert (assert_loop_is_list_rk4(args, _core.run_loop(*args))
            == _core.CHUNK_STEPS - 1)


def y0_cases():
    """(par, mag, y0, dt, pd) of freefall, lifting with the tips coupled and
    balancing with them coupled and not."""
    for name, coupled in (("freefall", False), ("lifting", True),
                          ("balancing", True), ("balancing", False)):
        sc, p, m = load_scenario(name)
        pd = None if sc.controller is None else sc.controller.packed()
        yield (p.packed(), replace(m, enabled=coupled).packed(), sc.y0,
               sc.dt, pd)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_run_loop_takes_no_step_from_a_nonfinite_y0(bad):
    # run_loop has no test of its own for y0: the loop's stop rule takes no
    # step from it (an inf angle raises in math.cos, a NaN angle fails the
    # d22 pivot, a non-finite rate makes the new y non-finite), and y0 is
    # recorded with its input. Scenario rejects such a y0 before run gets it.
    for par, mag, y0, dt, pd in y0_cases():
        for variant in (_core.VARIANT_VERBATIM, _core.VARIANT_GEOMETRIC):
            for k in range(8):
                y = list(y0)
                y[k] = bad
                rows = []
                ys, us, n_done = _core.run_loop(par, mag, samples(y, 5), dt,
                                                pd, variant, rows.append)
                assert (n_done, rows) == (0, [1])
                ref_ys, ref_us = list_rk4(par, mag, y, 5, dt, pd, variant)
                assert ys[:1].tobytes() == np.array(ref_ys).tobytes()
                assert us.tobytes() == np.array(ref_us).tobytes()


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
    with pytest.raises(ValidationError, match="bogus"):
        Scenario(name="x", y0=(0.0,) * 8, potential="bogus")
    # config checked the name before; a string is never a y0
    for name in ("", None, 5):
        with pytest.raises(ValidationError, match="name"):
            Scenario(name=name, y0=(0.0,) * 8)
    with pytest.raises(ValidationError, match="y0"):
        Scenario(name="x", y0="01234567")
    # the name is printed in the summary and the gnuplot script
    for name in ("a\nb", "a\rb", "tab\there", "nul\x00", "del\x7f",
                 "line\u2028sep"):
        with pytest.raises(ValidationError, match="printable"):
            Scenario(name=name, y0=(0.0,) * 8)
    assert Scenario(name="it's ok", y0=(0.0,) * 8).name == "it's ok"


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("dt,horizon", [
    (1e-3, INF), (INF, INF), (INF, 1.0), (1e-3, NAN), (NAN, 1.0), (NAN, NAN),
    (True, 1.0), pytest.param(1e-3, 10**400, id="0.001-10**400")])
def test_scenario_rejects_a_nonfinite_step_or_horizon(dt, horizon):
    # an infinite horizon used to pass and make run's sample_count raise
    # OverflowError (or ValueError for inf/inf) instead; a bool step passed
    # as 1.0, and a horizon past the float range made run raise
    # OverflowError at horizon / dt
    with pytest.raises(ValidationError):
        Scenario(name="x", y0=(0.0,) * 8, dt=dt, horizon=horizon)


@pytest.mark.parametrize("bad", [
    INF, -INF, NAN, True, pytest.param(10**400, id="10**400")])
@pytest.mark.parametrize("index", range(8))
def test_scenario_rejects_a_nonfinite_initial_state(index, bad):
    # run used to raise "invalid value encountered in sin" from disk2_height
    # for an infinite angle, and to record a 1-row truncated run for a NaN;
    # a bool entry ran as 1.0, and an int past the float range made the
    # check itself raise OverflowError
    y0 = [0.1] * 8
    y0[index] = bad
    with pytest.raises(ValidationError, match="y0 must be finite"):
        Scenario(name="x", y0=tuple(y0))


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


def test_run_zero_order_hold_records_pd_input():
    sc, p, m = load_scenario("balancing")
    traj = run(sc, p, m)
    u0 = pd_control(sc.controller.gains, sc.controller.setpoints,
                    State(q=sc.y0[:4], qdot=sc.y0[4:]))
    assert traj.u[0, 0] == pytest.approx(u0[0], rel=1e-12)
    assert traj.u[0, 1] == pytest.approx(u0[1], rel=1e-12)
    # a recorded row maps to the two-sided generalized force, as floats
    tau = generalized_torque(traj.u[0])
    assert all(type(x) is float for x in tau)
    assert tau == pytest.approx((u0[0], u0[1], -u0[0], -u0[1]), rel=1e-12)


def test_run_truncates_on_blowup():
    gains = GainMatrices(Kp=((1e9, 0.0, 0.0, 0.0), (0.0, 1e9, 0.0, 0.0)),
                         Kd=((0.0,) * 4, (0.0,) * 4))
    spec = PDSpec(gains=gains, setpoints=Setpoints(theta_d=(2.0, 2.0)))
    sc = Scenario(name="blow", y0=(0.0,) * 8, controller=spec, horizon=2.0,
                  dt=1e-3)
    traj = run(sc, P)
    assert traj.truncated
    assert traj.t.shape[0] < 2001
    assert np.all(np.isfinite(traj.y))  # only valid samples are kept
    # one NonFiniteState event, the last, at the last kept sample
    assert [e.kind for e in traj.events].count(NON_FINITE_STATE) == 1
    last = traj.events[-1]
    assert last.kind == NON_FINITE_STATE and last.time == traj.t[-1]
    assert last.state == tuple(traj.y[-1])


def test_events_edge_triggered_not_level():
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


def test_detect_all_orders_equal_times_and_ignores_held_conditions():
    # synthetic samples, not a run: phi1 + phi2 = 0 is a deviation of 180
    # degrees, so Topple's condition holds wherever phi2 is 0 here
    mag = MagneticParams(enabled=True)
    t = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
    ys = np.zeros((5, 8))
    ys[[2, 4], 3] = np.pi
    low, high = P.R2 - 0.01, P.R2 + 0.01
    height = np.array([low, low, high, low, high])
    near, far = mag.P_max / 2, 2 * mag.P_max
    p_m = np.array([near, near, near, far, near])
    events = _detect_all(P, mag, t, ys, height, p_m)
    # Topple, GroundPenetration and CouplingEngaged hold from sample 0 and
    # fire only on re-entry; at t = 0.3 the kinds keep the table order
    assert [(e.kind, e.time) for e in events] == [
        (TOPPLE, 0.3), (GROUND_PENETRATION, 0.3), (COUPLING_LOST, 0.3),
        (COUPLING_ENGAGED, 0.4)]
    assert [e.details for e in events] == [
        "deviation 180.00 deg", f"height {low:.4f} m", f"p_m {far:.4f} m",
        f"p_m {near:.4f} m"]
    assert events[0].state == tuple(ys[3])
    # a condition true from the first sample and never left fires nothing
    assert _detect_all(P, mag, t[:2], ys[:2], height[:2], p_m[:2]) == []


def test_an_uncoupled_run_logs_no_coupling_event():
    # lifting ships with coupling off; its tips still pass inside P_max and
    # out again before 0.5 s, where no force engages and none is lost
    sc, p, m = load_scenario("lifting")
    assert not m.enabled
    traj = run(replace(sc, horizon=0.5), p, m)
    inside = traj.p_m < m.P_max
    assert np.any(inside[1:] & ~inside[:-1])
    assert np.any(~inside[1:] & inside[:-1])
    assert not traj.events_of(COUPLING_ENGAGED)
    assert not traj.events_of(COUPLING_LOST)
    assert traj.events_of(TOPPLE)  # the other kinds are still detected


def test_magnetics_flag_changes_dynamics():
    # MagneticParams.enabled is the one coupling switch; run used to
    # overwrite it with a Scenario flag that was off by default
    y0 = (0.0, 0.0, np.radians(170), 0.0, 0.0, 0.0, 0.0, 0.0)
    sc = Scenario(name="m", y0=y0, horizon=0.5, dt=1e-3)
    t0 = run(sc, P, MagneticParams(enabled=False))
    t1 = run(sc, P, MagneticParams(enabled=True))
    # tips start 0.0151 m apart, inside P_max = 0.02: the pull must act
    assert t1.p_m[0] < 0.02
    assert not np.array_equal(t0.y, t1.y)


def test_frictionless_magnetic_run_conserves_energy_plus_w():
    # the loop integrates the tip force -F grad p_m; W(p_m) is its
    # closed-form potential, so without damping E + W is conserved to the
    # RK4 error (1.6e-12 J at this dt, 2.6e-11 J at dt 2e-3)
    sc, p, _ = load_scenario("freefall")
    mag = MagneticParams(B_max=0.05, P_max=1.0, enabled=True)
    traj = run(replace(sc, horizon=1.0, dt=1e-3),
               replace(p, delta=(0.0,) * 4), mag)
    total = traj.E + np.array([magnetic_potential(mag, x) for x in traj.p_m])
    assert np.max(np.abs(total - total[0])) < 1e-9
    assert np.max(np.abs(traj.E - traj.E[0])) > 0.1  # the coupling did work


def test_run_records_the_public_quantities():
    # every recorded per-sample quantity is the public function's value
    sc, p, m = load_scenario("lifting")
    y0 = (0.0, 0.0, np.radians(170), 0.0, 0.0, 0.0, 0.0, 0.0)
    sc, m = replace(sc, y0=y0, horizon=0.1), replace(m, enabled=True)
    traj = run(sc, p, m)
    spec = sc.controller
    assert np.any(traj.p_m < m.P_max)  # the tips pull at the start
    for i, y in enumerate(traj.y):
        st = State(q=tuple(y[:4]), qdot=tuple(y[4:]))
        u = pd_control(spec.gains, spec.setpoints, st)
        V = lyapunov(p, spec.gains, spec.setpoints, st, variant=sc.potential)
        assert traj.u[i] == pytest.approx(u, rel=1e-12, abs=0)
        assert traj.V[i] == pytest.approx(V, rel=1e-12, abs=0)
        assert traj.height[i] == pytest.approx(disk2_height(p, st), rel=1e-12,
                                               abs=0)
        assert traj.T[i] == pytest.approx(kinetic_energy(p, st), rel=1e-12,
                                          abs=0)
        assert traj.U[i] == pytest.approx(
            potential_energy(p, st, sc.potential), rel=1e-12, abs=0)
        assert traj.P[i] == pytest.approx(dissipation(p, st), rel=1e-12, abs=0)
        assert traj.p_m[i] == pytest.approx(separation(p, st), rel=1e-12,
                                            abs=0)
