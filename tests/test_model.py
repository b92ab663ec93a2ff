import ast
import inspect

import numpy as np
import pytest

from rollsim import _eom
from rollsim.config import ConfigError, load_scenario_dict
from rollsim.magnetics import MagneticParams
from rollsim.model import (Input, RobotParams, State, ValidationError,
                           generalized_torque)


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
    {"delta": "0000"},                   # a string is never a sequence
    {"delta": np.array([0.1, 0.1, -0.1, 0.1])},
    {"delta": np.zeros((1, 4))},
    {"I_p": "1"},
])
def test_rejects_bad_params(kwargs):
    with pytest.raises(ValidationError):
        RobotParams(**kwargs)


def test_packed_lists_the_values_in_the_order_the_kernels_unpack():
    # distinct values, so any two swapped entries show; the order is read
    # from the names the generated step_for unpacks p and mag into
    params = RobotParams(m_p=1.0, m_s=2.0, I_p=3.0, I_s=4.0, r1=5.0, r2=6.0,
                         R1=7.0, R2=8.0, g=9.0, delta=(10.0, 11.0, 12.0, 13.0))
    mag = MagneticParams(B_max=2.0, P_max=3.0, A=4.0, mu0=5.0, enabled=True)
    [step_for] = ast.parse(inspect.getsource(_eom.step_for)).body
    unpacked = {s.value.id: [n.id for n in s.targets[0].elts]
                for s in step_for.body if isinstance(s, ast.Assign)
                and isinstance(s.value, ast.Name)}
    # delta is in state order (theta1, theta2, phi1, phi2)
    values = dict(vars(params), d_th1=10.0, d_th2=11.0, d_ph1=12.0,
                  d_ph2=13.0)
    assert params.packed() == tuple(values[n] for n in unpacked["p"])
    values = dict(vars(mag), enabled=1.0)
    assert mag.packed() == tuple(values[n] for n in unpacked["mag"])
    assert MagneticParams().packed()[0] == 0.0


def _load_params(mapping):
    """RobotParams from a config document whose params section is mapping."""
    doc = {"scenario": {"y0_deg": [0] * 8}}
    if mapping is not None:
        doc["params"] = mapping
    return load_scenario_dict(doc, default_name="p")[1]


def test_load_params_defaults_and_overrides():
    assert _load_params(None) == RobotParams()
    p = _load_params({"m_s": 0.8, "delta": [0, 0, 0, 0]})
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
    with pytest.raises(ConfigError, match=fragment):
        _load_params(mapping)


def test_load_params_rejects_unknown_key():
    with pytest.raises(ConfigError, match="mass"):
        _load_params({"mass": 1.0})


def test_state_round_trip():
    s = State(q=(0.1, 0.2, 0.3, 0.4), qdot=(1.0, 2.0, 3.0, 4.0))
    assert s.packed() == (0.1, 0.2, 0.3, 0.4, 1.0, 2.0, 3.0, 4.0)
    y = s.packed()
    assert State(q=tuple(y[:4]), qdot=tuple(y[4:])) == s


def test_state_of_lists_is_hashable():
    s = State(q=[0.0] * 4, qdot=[1.0] * 4)
    assert s.q == (0.0,) * 4 and s.qdot == (1.0,) * 4
    assert hash(s) == hash(State(q=(0.0,) * 4, qdot=(1.0,) * 4))


def test_state_keeps_its_own_copy_of_a_list():
    q = [0.1, 0.2, 0.3, 0.4]
    s = State(q=q)
    q[0] = 9.0
    assert s.q == (0.1, 0.2, 0.3, 0.4)


@pytest.mark.parametrize("name", ["q", "qdot"])
def test_state_rejects_a_string(name):
    with pytest.raises(ValidationError, match=name):
        State(**{"q": (0.0,) * 4, name: "abcd"})


@pytest.mark.parametrize("n", [0, 3, 5])
@pytest.mark.parametrize("name", ["q", "qdot"])
def test_state_rejects_a_length_other_than_4(name, n):
    with pytest.raises(ValidationError, match=name):
        State(**{"q": (0.0,) * 4, name: [0.0] * n})


def test_generalized_torque_two_sided():
    tau = generalized_torque(Input(tau=(1.5, -0.25)))
    assert tau == (1.5, -0.25, -1.5, 0.25)
    # reaction pairs cancel: no net external torque from internal motors
    assert tau[0] + tau[2] == 0.0 and tau[1] + tau[3] == 0.0


def test_generalized_torque_rejects_nonfinite():
    with pytest.raises(ValidationError):
        generalized_torque(Input(tau=(float("nan"), 0.0)))
