import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from rollsim import _eom, dynamics
from rollsim.dynamics import (MATCH_REL_TOL, SingularDynamicsError,
                              bias_vector, errata_compare, forward_dynamics,
                              gravity_vector, mass_matrix, printed_terms)
from rollsim.energetics import breakdown, kinetic_energy, potential_energy
from rollsim.kinematics import disk2_height, positions, velocities
from rollsim.magnetics import (MagneticParams, generalized_magnetic_torque,
                               separation)
from rollsim.model import RobotParams, State, ValidationError

P = RobotParams()


def random_states(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2 * np.pi, 2 * np.pi, (n, 4)), rng.uniform(-3, 3, (n, 4))


def test_bias_row1_is_pure_friction():
    # the theta1 Coriolis row vanishes identically: r_p1 depends on q only
    # through phi1+theta1, which kills the cross terms
    qs, qds = random_states(100, 4)
    for q, qd in zip(qs, qds):
        b = bias_vector(P, State(q=tuple(q), qdot=tuple(qd)))
        assert b[0] == pytest.approx(P.delta[0] * qd[0], abs=5e-8)


def test_bias_regression_vector():
    st = State(q=(0.0, np.radians(30), np.radians(185), 0.0),
               qdot=(0.1, 0.2, 0.3, 0.4))
    b = bias_vector(P, st)
    ref = np.array([0.00199999999997986, 0.00357680528696167,
                    0.02148839883824468, 0.02388772385161737])
    assert np.allclose(b, ref, rtol=0, atol=1e-10)


def test_forward_dynamics_reconstructs_torque():
    qs, qds = random_states(50, 5)
    rng = np.random.default_rng(6)
    for q, qd in zip(qs, qds):
        st = State(q=tuple(q), qdot=tuple(qd))
        tau = rng.uniform(-2, 2, 4)
        qdd = forward_dynamics(P, st, tau)
        lhs = mass_matrix(P, q) @ qdd + bias_vector(P, st) + gravity_vector(P, q)
        assert np.allclose(lhs, tau, atol=1e-10)


def test_forward_dynamics_regression():
    st = State(q=(0.0, np.radians(30), np.radians(185), 0.0),
               qdot=(0.1, 0.2, 0.3, 0.4))
    ref = np.array([0.11166196225130612, -0.8479933136865726,
                    -2.2626991856774445, -3.0004626122503057])
    assert np.allclose(forward_dynamics(P, st, np.zeros(4)), ref,
                       rtol=0, atol=1e-9)


def test_forward_dynamics_rejects_nonfinite_state():
    inf, nan = float("inf"), float("nan")
    for st in (State(q=(nan, 0.0, 0.0, 0.0)), State(q=(inf, 0.0, 0.0, 0.0)),
               State(q=(0.0,) * 4, qdot=(0.0, -inf, 0.0, 0.0))):
        with pytest.raises(SingularDynamicsError, match="non-finite state"):
            forward_dynamics(P, st, np.zeros(4))
    # a finite state whose rates square to inf in the bias
    st = State(q=(0.1, 0.5, 3.0, 0.2), qdot=(0.0, 0.0, 1e200, -1e200))
    with pytest.raises(SingularDynamicsError, match="qddot not finite"):
        forward_dynamics(P, st, np.zeros(4))


@pytest.mark.parametrize("tau", [
    (0.0, 0.0, 0.0),
    (0.0, float("inf"), 0.0, 0.0),
    (0.0, 0.0, float("nan"), 0.0),
    ("0", 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, True),
    np.array([0.0, 0.0, 0.0, np.inf], dtype=np.float32),
    np.array([False, False, False, True]),
], ids=["three", "inf", "nan", "string", "bool", "float32_inf",
        "bool_array"])
def test_forward_dynamics_refuses_a_tau_that_is_not_4_finite_numbers(tau):
    # three entries raised a bare unpacking ValueError, and inf blamed the
    # dynamics with "qddot not finite"
    with pytest.raises(ValidationError, match="tau_gen must be 4 finite"):
        forward_dynamics(P, State(q=(0.1, 0.5, 3.0, 0.2)), tau)
    # the state is checked first
    with pytest.raises(SingularDynamicsError, match="non-finite state"):
        forward_dynamics(P, State(q=(float("nan"), 0.0, 0.0, 0.0)), tau)


def test_forward_dynamics_takes_a_numpy_int_or_float32_tau():
    # refused as not 4 finite numbers, though float() reads them exactly
    st = State(q=(0.1, 0.5, 3.0, 0.2))
    ref = forward_dynamics(P, st, [1.0, 0.0, -1.0, 0.0])
    for tau in (np.array([1, 0, -1, 0]),
                np.array([1.0, 0.0, -1.0, 0.0], dtype=np.float32)):
        assert forward_dynamics(P, st, tau).tobytes() == ref.tobytes()


def test_forward_dynamics_reports_the_spectrum_of_a_singular_mass_matrix():
    bad = RobotParams()
    object.__setattr__(bad, "I_p", -1.0)  # past RobotParams' own validation
    st = State(q=(0.1, 0.5, 3.0, 0.2))
    with pytest.raises(SingularDynamicsError,
                       match=r"not positive definite at q=\[0.1, 0.5, 3.0, "
                             r"0.2\]; eigenvalues=\[-0.99"):
        forward_dynamics(bad, st, np.zeros(4))


def test_terms_are_nan_for_an_infinite_coordinate():
    # numpy's answer for sin(inf); math.sin would raise ValueError
    st = State(q=(float("inf"), 0.0, 0.0, 0.0))
    for a in (mass_matrix(P, st.q), bias_vector(P, st),
              gravity_vector(P, st.q)):
        assert np.all(np.isnan(a))


@pytest.mark.parametrize("k", range(4))
def test_energies_and_separation_are_nan_for_an_infinite_coordinate(k):
    q = [0.0] * 4
    q[k] = float("inf")
    st = State(q=tuple(q), qdot=(0.1, 0.2, 0.3, 0.4))
    assert np.isnan(kinetic_energy(P, st))
    assert np.isnan(potential_energy(P, st))
    assert np.isnan(separation(P, st))
    energies = breakdown(P, st)
    assert np.isnan([energies.T, energies.U, energies.E]).all()
    assert np.isnan(astuple(positions(P, st))).any()
    assert np.isnan(astuple(velocities(P, st))).any()
    # the height of disk 2 depends on phi1 + phi2 alone
    assert np.isnan(disk2_height(P, st)) == (k >= 2)
    Q, degenerate = generalized_magnetic_torque(
        P, MagneticParams(enabled=True), st)
    assert np.all(np.isnan(Q)) and Q.shape == (4,)
    assert not degenerate


def test_printed_terms_reference_values():
    a, x, y = printed_terms(P, State(q=(0.0,) * 4))
    # the transcribed a_13 drops the m_p factor: r1^2 + R1*r1 at q = 0
    assert a[0, 2] == pytest.approx(0.0075, abs=1e-15)
    # diagonal wheel entries are transcribed correctly
    assert a[0, 0] == pytest.approx(mass_matrix(P, np.zeros(4))[0, 0], abs=1e-15)
    assert x.shape == (4,) and y.shape == (4,)

    # a state where f1 + t2 and f1 - t2 differ: the entries that read
    # cos(f1 + t2), cos(f1 - t2) and sin(f1 - t2), as printed, written out
    t1, t2, f1, f2 = 0.3, 0.7, 1.1, -0.4
    dt1, dt2, df1, df2 = 0.5, -0.2, 0.9, 1.3
    a, x, _ = printed_terms(P, State(q=(t1, t2, f1, f2),
                                     qdot=(dt1, dt2, df1, df2)))
    mp, r1, r2, R1 = P.m_p, P.r1, P.r2, P.R1
    L = P.R1 + P.R2
    c34 = math.cos(f1 + f2)
    a23 = mp * (r2 + math.cos(f1 + t2)
                + L * r2 * c34 * math.cos(f1 + t2))
    a42 = mp * r2 ** 2 + mp * L * r2 * c34 * math.cos(f1 - t2)
    x2 = (-mp * (df1 * math.sin(f1 + t2) * (df1 + dt2)
                 + L * r2 * (df1 + df2) ** 2 * math.sin(2 * f1 + f2 + t2))
          + P.delta[1] * dt2
          - mp * (df1 * R1 * r1 * (df2 + dt2) * math.sin(f2 + t2)
                  + (df1 + df2) * (df2 + dt2) * L * math.sin(f1 - t2)))
    assert a[1, 2] == pytest.approx(a23, rel=1e-12)
    assert a[3, 1] == pytest.approx(a42, rel=1e-12)
    assert x[1] == pytest.approx(x2, rel=1e-12)


def test_errata_expected_classifications():
    rep = errata_compare(P, samples=300, seed=42)
    classes = {e.name: e.classification for e in rep.entries}
    assert classes["a_11"] == "MATCH"
    assert classes["a_22"] == "MATCH"
    # structurally zero entries agree too
    for name in ("a_12", "a_14", "a_21", "a_41"):
        assert classes[name] == "MATCH"
    # everything else disagrees with the energy-derived dynamics
    assert classes["a_13"] == "MISMATCH"
    assert classes["x_1"] == "MISMATCH"
    for name in ("x_2", "x_3", "x_4", "y_1", "y_2", "y_3", "y_4",
                 "a_23", "a_24", "a_31", "a_32", "a_33", "a_34",
                 "a_42", "a_43", "a_44"):
        assert classes[name] == "MISMATCH"
    assert rep.entry("a_13").note != ""


def test_errata_deterministic():
    r1 = errata_compare(P, samples=120, seed=9)
    r2 = errata_compare(P, samples=120, seed=9)
    assert r1 == r2
    assert r1.to_text() == r2.to_text()
    assert r1.to_json() == r2.to_json()
    # a different seed moves the sampled deviations
    r3 = errata_compare(P, samples=120, seed=10)
    assert r3.entry("a_13").max_abs_dev != r1.entry("a_13").max_abs_dev


def _eom_mass_matrix(par, q):
    M = np.empty((4, 4))
    M[np.triu_indices(4)] = M.T[np.triu_indices(4)] = _eom.mass_matrix(par, q)
    return M


def per_state_errata(params, samples, seed):
    """errata_compare as one loop over the states, the scalar _eom terms of
    each against printed_terms of that state alone; the oracle of the
    column evaluation. Labels and notes are errata_compare's."""
    rng = np.random.default_rng(seed)
    qs = rng.uniform(-2 * np.pi, 2 * np.pi, size=(samples, 4))
    qds = rng.uniform(-3.0, 3.0, size=(samples, 4))
    par = params.packed()

    names_m = [(i, j, f"a_{i + 1}{j + 1}") for i in range(4) for j in range(4)]
    acc = {name: [] for _, _, name in names_m}
    acc.update({f"x_{i + 1}": [] for i in range(4)})
    acc.update({f"y_{i + 1}": [] for i in range(4)})
    acc["Vp2_norm2"] = []
    acc["Vs2_norm2"] = []
    acc["rp2_y"] = []
    acc["U2_sin_term"] = []

    for k in range(samples):
        q, qd = qs[k].tolist(), qds[k].tolist()
        st = State(q=tuple(qs[k]), qdot=tuple(qds[k]))
        a, x, y = printed_terms(params, st)
        M = _eom_mass_matrix(par, q)
        b = _eom.bias(par, q, qd)
        G = np.array(_eom.gravity(par, q, 0))
        for i, j, name in names_m:
            acc[name].append((a[i, j], M[i, j]))
        for i in range(4):
            acc[f"x_{i + 1}"].append((x[i], b[i]))
            acc[f"y_{i + 1}"].append((y[i], G[i]))
        v = velocities(params, st)
        vp2, vs2, rp2_y = dynamics._printed_expansion(params, st)
        acc["Vp2_norm2"].append((vp2, dynamics._norm2(v.v_p2)))
        acc["Vs2_norm2"].append((vs2, dynamics._norm2(v.v_s2)))
        acc["rp2_y"].append((rp2_y, positions(params, st).r_p2[1]))
        gg = np.array(_eom.gravity(par, q, 1))
        acc["U2_sin_term"].append((float(np.max(np.abs(G - gg))), 0.0))

    labels = errata_compare(params, 1, seed)
    entries = []
    for name, pairs in acc.items():
        arr = np.asarray(pairs, dtype=np.float64)
        devs = np.abs(arr[:, 0] - arr[:, 1])
        scale = float(np.max(np.abs(arr)))
        max_dev = float(np.max(devs))
        classification = ("MATCH"
                          if max_dev <= MATCH_REL_TOL * max(1.0, scale)
                          else "MISMATCH")
        entries.append(replace(
            labels.entry(name), classification=classification,
            max_abs_dev=max_dev, mean_abs_dev=float(np.mean(devs)),
            scale=scale))
    return replace(labels, samples=samples, entries=tuple(entries))


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("samples", [1, 10, 257, 1000])
def test_errata_on_columns_equals_the_per_state_loop(samples, seed):
    rep = errata_compare(P, samples=samples, seed=seed)
    oracle = per_state_errata(P, samples, seed)
    assert rep.to_json() == oracle.to_json()
    assert rep.to_text() == oracle.to_text()


def test_printed_terms_on_columns_equal_the_per_state_calls():
    # squared rates are products: with ** 2, 4 of these states differ in the
    # last bit, as numpy squares an array by a product and a scalar by
    # libm's pow
    n = 10000
    qs, qds = random_states(n, 1)
    cols = printed_terms(P, State(q=tuple(qs.T), qdot=tuple(qds.T)))
    assert [c.shape for c in cols] == [(4, 4, n), (4, n), (4, n)]
    each = [printed_terms(P, State(q=tuple(q), qdot=tuple(qd)))
            for q, qd in zip(qs, qds)]
    for c, e in zip(cols, zip(*each)):
        assert np.array_equal(c, np.stack(e, axis=-1))
