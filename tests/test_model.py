import numpy as np
import pytest

from rollsim.model import (Input, RobotParams, State, ValidationError,
                           generalized_torque, load_params)


def test_defaults_valid():
    p = RobotParams()
    assert p.m_p == 0.262
    assert p.delta == (0.02, 0.02, 0.07, 0.06)


@pytest.mark.parametrize("kwargs", [
    {"m_p": 0.0},
    {"m_s": -1.0},
    {"g": float("nan")},
    {"R1": float("inf")},
    {"delta": (0.1, 0.1, 0.1)},
    {"delta": (0.1, 0.1, -0.1, 0.1)},
    {"m_p": True},                       # a bool is an int to Python
    {"R2": 10**400},                     # beyond the float range
    {"delta": (True, 0.0, 0.0, 0.0)},
    {"delta": ("a", 0.0, 0.0, 0.0)},
    {"delta": 5},
    {"delta": None},
])
def test_rejects_bad_params(kwargs):
    with pytest.raises(ValidationError):
        RobotParams(**kwargs)


def test_as_array_layout():
    arr = RobotParams().as_array()
    assert arr.shape == (13,)
    assert arr[0] == 0.262 and arr[8] == 9.81 and arr[9] == 0.02


def test_load_params_defaults_and_overrides():
    assert load_params(None) == RobotParams()
    p = load_params({"m_s": 0.8, "delta": [0, 0, 0, 0]})
    assert p.m_s == 0.8 and p.delta == (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("mapping,fragment", [
    ({"m_p": True}, "m_p"),
    ({"delta": ["a", 0.0, 0.0, 0.0]}, "delta"),   # was float()'s ValueError
    ({"delta": 5}, "delta"),                      # was a TypeError
    ({"delta": [False, 0.0, 0.0, 0.0]}, "delta"),
    ({"delta": "0000"}, "delta"),
    ({"delta": [0.1, 0.1, 0.1]}, "delta"),
    ({"delta": {"a": 1}}, "delta"),
    ({"m_s": 10**400}, "m_s"),                    # was np.isfinite's TypeError
    ({"delta": [0.0, 10**400, 0.0, 0.0]}, "delta"),  # was an OverflowError
])
def test_load_params_rejects_malformed_values(mapping, fragment):
    with pytest.raises(ValidationError, match=fragment):
        load_params(mapping)


def test_load_params_rejects_unknown_key():
    with pytest.raises(ValidationError, match="mass"):
        load_params({"mass": 1.0})


def test_state_round_trip():
    s = State(q=(0.1, 0.2, 0.3, 0.4), qdot=(1.0, 2.0, 3.0, 4.0))
    assert State.from_array(s.as_array()) == s


def test_generalized_torque_two_sided():
    tau = generalized_torque(Input(tau=(1.5, -0.25)))
    assert tau == (1.5, -0.25, -1.5, 0.25)
    # reaction pairs cancel: no net external torque from internal motors
    assert tau[0] + tau[2] == 0.0 and tau[1] + tau[3] == 0.0


def test_generalized_torque_rejects_nonfinite():
    with pytest.raises(ValidationError):
        generalized_torque(Input(tau=(float("nan"), 0.0)))
