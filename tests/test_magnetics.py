import numpy as np
import pytest

from rollsim import _eom
from rollsim.magnetics import (MagneticParams, flux_density,
                               generalized_magnetic_torque, magnetic_force,
                               magnetic_potential, separation)
from rollsim.model import RobotParams, State, ValidationError

P = RobotParams()
MAG = MagneticParams()


def test_separation_reference_values():
    # bobs hang straight down on both disks: tips r1 + r2 + L apart vertically
    # minus the stacking geometry works out to 0.13 m at the zero state
    assert separation(P, State(q=(0.0,) * 4)) == pytest.approx(0.13, abs=1e-15)
    assert separation(P, State(q=(0.0, 0.0, np.pi, 0.0))) == pytest.approx(
        0.01, abs=1e-12)


def test_flux_density_shape():
    m = MAG
    assert flux_density(m, 0.0) == m.B_max
    assert flux_density(m, m.P_max) == 0.0
    assert flux_density(m, m.P_max * 10) == 0.0
    assert flux_density(m, 0.01) == pytest.approx(0.025, abs=1e-15)
    # linear on [0, P_max]: zero second difference
    ps = np.linspace(0.0, m.P_max, 41)
    bs = np.array([flux_density(m, p) for p in ps])
    assert np.max(np.abs(np.diff(bs, 2))) < 1e-15
    # continuous across the cutoff
    eps = 1e-12
    assert flux_density(m, m.P_max - eps) < 1e-6
    with pytest.raises(ValidationError):
        flux_density(m, -0.001)


def test_force_quadratic_in_flux():
    for b in (1e-4, 0.007, 0.05, 0.3):
        assert magnetic_force(MAG, 2 * b) == 4 * magnetic_force(MAG, b)
    assert magnetic_force(MAG, 0.1) == pytest.approx(9.944311853619732, rel=1e-15)


# True was taken as a 1 m separation or a 1 T flux (994.43 N), and a
# string raised TypeError
@pytest.mark.parametrize("value", [True, False, "0.01", None, float("nan"),
                                   float("inf"), -float("inf"), 10 ** 400],
                         ids=["True", "False", "str", "None", "nan", "inf",
                              "-inf", "int_past_float"])
def test_flux_and_force_refuse_what_is_not_a_finite_number(value):
    with pytest.raises(ValidationError, match="separation"):
        flux_density(MAG, value)
    with pytest.raises(ValidationError, match="flux density"):
        magnetic_force(MAG, value)
    # W took True for a 1 m separation (-0.2072 with P_max = 2) and a
    # string raised TypeError
    with pytest.raises(ValidationError, match="separation"):
        magnetic_potential(MagneticParams(P_max=2.0), value)


def test_flux_force_and_potential_read_numpy_scalars_as_floats():
    mag = MagneticParams(B_max=0.05, P_max=2.0)
    for p_m in (np.float32(0.5), np.int64(1)):
        assert type(flux_density(mag, p_m)) is float
        assert flux_density(mag, p_m) == flux_density(mag, float(p_m))
        assert magnetic_potential(mag, p_m) == magnetic_potential(
            mag, float(p_m))
    assert magnetic_force(MAG, np.float32(0.25)) == magnetic_force(MAG, 0.25)
    for value in (np.bool_(True), np.float32("nan"), np.float32("inf")):
        with pytest.raises(ValidationError, match="separation"):
            flux_density(mag, value)
        with pytest.raises(ValidationError, match="flux density"):
            magnetic_force(mag, value)


def test_potential_refuses_a_negative_separation():
    for p_m in (-1e-3, -2.0):
        with pytest.raises(ValidationError, match="separation"):
            magnetic_potential(MagneticParams(P_max=2.0), p_m)
    assert magnetic_potential(MagneticParams(P_max=2.0), 0.0) < 0.0


def test_potential_matches_force():
    m = MagneticParams(B_max=0.05, P_max=1.0)
    # -dW/dp reproduces -F inside the range; W vanishes smoothly at P_max
    h = 1e-7
    for p in (0.05, 0.3, 0.7, 0.95):
        dw = (magnetic_potential(m, p + h) - magnetic_potential(m, p - h)) / (2 * h)
        f = magnetic_force(m, flux_density(m, p))
        assert dw == pytest.approx(f, rel=1e-7)
    assert magnetic_potential(m, 1.0) == 0.0
    assert magnetic_potential(m, 2.0) == 0.0
    assert magnetic_potential(m, 0.5) < 0.0


def test_potential_overflows_to_minus_inf_as_the_force_does():
    # B_max ** 2 raised OverflowError where the force's B * B gives inf
    huge = MagneticParams(B_max=1e200)
    assert magnetic_force(huge, huge.B_max) == np.inf
    assert magnetic_potential(huge, 0.0) == -np.inf
    assert magnetic_potential(huge, 0.01) == -np.inf
    assert magnetic_potential(huge, huge.P_max) == 0.0


def test_torque_disabled_is_exactly_zero():
    st = State(q=(0.0, 0.0, np.pi, 0.0))
    q, degenerate = generalized_magnetic_torque(P, MagneticParams(enabled=False), st)
    assert not degenerate
    assert np.all(q == 0.0)


def test_torque_zero_beyond_range():
    st = State(q=(0.0,) * 4)  # p_m = 0.13 >> P_max
    q, degenerate = generalized_magnetic_torque(
        P, MagneticParams(enabled=True), st)
    assert not degenerate and np.all(q == 0.0)
    assert not np.any(np.signbit(q))  # +0.0, as the run loop adds


def test_loop_separation_is_separation():
    # the run loop's p_m is generated from _core.separation and repeats its
    # float operations, so the two agree to the last bit
    rng = np.random.default_rng(17)
    for _ in range(500):
        q = rng.uniform(-2 * np.pi, 2 * np.pi, 4)
        p = _eom.tip_geometry(P.packed(), q.tolist())[0]
        assert p == separation(P, State(q=tuple(q)))


def test_torque_virtual_work():
    # Q_k = -dW/dq_k with W evaluated through the separation map
    m = MagneticParams(B_max=0.05, P_max=1.0, enabled=True)
    rng = np.random.default_rng(13)
    h = 1e-6
    checked = 0
    for _ in range(200):
        q = rng.uniform(-2 * np.pi, 2 * np.pi, 4)
        st = State(q=tuple(q))
        Q, degenerate = generalized_magnetic_torque(P, m, st)
        if degenerate:
            continue
        for k in range(4):
            qp, qm = q.copy(), q.copy()
            qp[k] += h
            qm[k] -= h
            w_fd = (magnetic_potential(m, separation(P, State(q=tuple(qp))))
                    - magnetic_potential(m, separation(P, State(q=tuple(qm))))) / (2 * h)
            assert Q[k] == pytest.approx(-w_fd, rel=1e-5, abs=1e-9)
        checked += 1
    assert checked > 150


def test_degenerate_at_coincident_tips():
    # default radii keep the tips at least |L - r2| = 0.01 m apart, so
    # lengthen arm 1 to 0.07 = L - r2: both bobs land on (0, -0.07) when
    # q = (0, pi, 0, 0) and the gradient direction is undefined there
    p_long = RobotParams(r1=0.07)
    st = State(q=(0.0, np.pi, 0.0, 0.0))
    assert separation(p_long, st) < 1e-14
    q, degenerate = generalized_magnetic_torque(
        p_long, MagneticParams(enabled=True), st)
    assert degenerate
    assert np.all(q == 0.0)


def test_default_radii_floor_separation():
    # |L e + r2 e'| >= L - r2 = 0.07 > r1: coincidence is unreachable
    rng = np.random.default_rng(3)
    for _ in range(500):
        s = separation(P, State(q=tuple(rng.uniform(-np.pi, np.pi, 4))))
        assert s >= 0.01 - 1e-12


def test_param_validation():
    with pytest.raises(ValidationError):
        MagneticParams(B_max=-1.0)
    with pytest.raises(ValidationError):
        MagneticParams(P_max=0.0)
    with pytest.raises(ValidationError):
        MagneticParams(mu0=0.0)
    # a bool is not a number, and an int past the float range made numpy's
    # isfinite raise TypeError
    for bad in ({"B_max": True}, {"A": True}, {"P_max": 10**400},
                {"mu0": "1"}, {"B_max": float("inf")}):
        with pytest.raises(ValidationError):
            MagneticParams(**bad)
    # the coupling switch takes only a bool: "off" is truthy and coupled
    with pytest.raises(ValidationError, match="enabled"):
        MagneticParams(enabled="off")
