import numpy as np
import pytest

from rollsim.kinematics import (disk2_height, positions, upright_deviation,
                                velocities, wrap_angle)
from rollsim.model import RobotParams, State

P = RobotParams()


def state_deg(*vals):
    q = tuple(np.radians(v) for v in vals[:4])
    qd = tuple(vals[4:]) if len(vals) > 4 else (0.0, 0.0, 0.0, 0.0)
    return State(q=q, qdot=qd)


@pytest.mark.parametrize("angles,expected", [
    ((0, 30, 185, 0), 0.19450531075192692),
    ((0, 30, 180, 185), -0.06450531075192692),
    ((0, 0, 0, -107.19), 0.10342037134183053),
    ((0, 0, 180, 0), 0.195),
])
def test_disk2_height_reference_configs(angles, expected):
    assert disk2_height(P, state_deg(*angles)) == pytest.approx(expected, abs=1e-15)


def test_rolling_translation_not_wrapped():
    # a full extra disk revolution must shift the track position, so the
    # coordinates cannot be wrapped anywhere in the kinematics
    a = positions(P, State(q=(0.0, 0.0, 0.1, 0.0)))
    b = positions(P, State(q=(0.0, 0.0, 0.1 + 2 * np.pi, 0.0)))
    assert b.r_s1[0] - a.r_s1[0] == pytest.approx(2 * np.pi * P.R1)


def test_velocities_match_position_derivative():
    rng = np.random.default_rng(7)
    h = 1e-7
    for _ in range(50):
        q = rng.uniform(-2 * np.pi, 2 * np.pi, 4)
        qd = rng.uniform(-3, 3, 4)
        vel = velocities(P, State(q=tuple(q), qdot=tuple(qd)))
        pp = positions(P, State(q=tuple(q + h * qd)))
        pm = positions(P, State(q=tuple(q - h * qd)))
        for name in ("r_s1", "r_p1", "r_s2", "r_p2"):
            fd = (np.array(getattr(pp, name)) - np.array(getattr(pm, name))) / (2 * h)
            v = np.array(getattr(vel, "v" + name[1:]))
            assert np.allclose(v, fd, atol=1e-6), name


def test_wrap_angle_range_and_values():
    assert wrap_angle(np.pi) == -np.pi  # half-open interval
    assert wrap_angle(-np.pi) == -np.pi
    assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    a = np.linspace(-20, 20, 401)
    w = wrap_angle(a)
    assert np.all(w >= -np.pi) and np.all(w < np.pi)


def test_upright_deviation():
    assert upright_deviation(np.pi) == 0.0
    assert upright_deviation(np.radians(185)) == pytest.approx(np.radians(5))
    # balancing start: 365 deg is 5 deg short of a full turn, i.e. the
    # second disk hangs at the bottom, 175 deg away from upright
    assert upright_deviation(np.radians(365)) == pytest.approx(np.radians(175))
