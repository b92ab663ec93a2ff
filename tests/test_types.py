"""Each frozen type checks the numbers it holds and stores them as floats.

The table walks dataclasses.fields of every type that holds run inputs, so
a numeric field added later is covered without a new test.
"""

import dataclasses

import numpy as np
import pytest

from rollsim.control import GainMatrices, Setpoints
from rollsim.magnetics import MagneticParams
from rollsim.model import RobotParams, ValidationError
from rollsim.simulate import PDSpec, Scenario, run

# a valid construction of each type; the defaults fill the rest
VALID = {
    RobotParams: {},
    MagneticParams: {},
    Scenario: {"name": "s", "y0": (0.1,) * 8},
    PDSpec: {"gains": GainMatrices(), "setpoints": Setpoints(),
             "saturation": 2.0},
    GainMatrices: {},
    Setpoints: {},
}


def numeric_fields():
    """(type, field, index path) of one number in each numeric field.

    The path is () for a float field, (0,) for a tuple of floats and (0, 0)
    for a matrix; slot (0, 0) of a gain matrix may be nonzero.
    """
    for cls, kwargs in VALID.items():
        obj = cls(**kwargs)
        for f in dataclasses.fields(cls):
            value = getattr(obj, f.name)
            if type(value) is float:
                yield cls, f.name, ()
            elif isinstance(value, tuple):
                yield cls, f.name, (0, 0) if isinstance(value[0], tuple) else (0,)


FIELDS = [pytest.param(*c, id=f"{c[0].__name__}.{c[1]}")
          for c in numeric_fields()]


def replaced(value, path, new):
    """value as lists along path, with new at the end of the path."""
    if not path:
        return new
    items = list(value)
    items[path[0]] = replaced(value[path[0]], path[1:], new)
    return items


def test_the_table_covers_every_numeric_field():
    names = {f"{cls.__name__}.{name}" for cls, name, _ in numeric_fields()}
    assert len(names) == 24
    assert {"RobotParams.delta", "MagneticParams.mu0", "Scenario.y0",
            "Scenario.dt", "PDSpec.saturation", "GainMatrices.Kd",
            "Setpoints.dphi_d"} <= names


@pytest.mark.parametrize("bad", [True, "1", float("inf"), float("nan"),
                                 10**400], ids=["True", "str", "inf", "nan",
                                                "10**400"])
@pytest.mark.parametrize("cls,name,path", FIELDS)
def test_each_number_is_checked(cls, name, path, bad):
    value = getattr(cls(**VALID[cls]), name)
    with pytest.raises(ValidationError, match=name):
        cls(**{**VALID[cls], name: replaced(value, path, bad)})


@pytest.mark.parametrize("cls,name,path",
                         [p for p in FIELDS if p.values[2]])
def test_a_list_is_stored_as_a_tuple_of_floats(cls, name, path):
    given = replaced(getattr(cls(**VALID[cls]), name), path, 1)
    obj = cls(**{**VALID[cls], name: given})
    stored = getattr(obj, name)
    rows = stored if len(path) == 2 else (stored,)
    assert type(stored) is tuple
    assert all(type(row) is tuple for row in rows)
    assert all(type(v) is float for row in rows for v in row)
    hash(obj)  # every field is a tuple, so the object hashes
    # the caller's list is not the stored value: changing it changes nothing
    inner = given[0] if len(path) == 2 else given
    inner[0] = 5.0
    assert getattr(obj, name) == stored


def test_robot_params_with_a_delta_list_hash():
    assert hash(RobotParams(delta=[0.0] * 4)) == hash(RobotParams(
        delta=(0.0,) * 4))


def test_a_float64_array_y0_runs_as_its_tuple():
    y0 = np.radians([0.0, 30.0, 185.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    from_array = run(Scenario(name="a", y0=y0, horizon=0.05))
    from_tuple = run(Scenario(name="a", y0=tuple(y0.tolist()), horizon=0.05))
    np.testing.assert_array_equal(from_array.y, from_tuple.y)


SC = {"name": "a", "y0": (0.0,) * 8, "horizon": 0.01}


@pytest.mark.parametrize("make,name", [
    (lambda: Scenario(**SC, controller=5), "controller"),
    (lambda: PDSpec(gains=None, setpoints=Setpoints()), "gains"),
    (lambda: PDSpec(gains=GainMatrices(), setpoints=(0.0, 0.0)), "setpoints"),
    (lambda: run(Scenario(**SC), params=5), "params"),
    (lambda: run(Scenario(**SC), mag={"enabled": True}), "mag"),
], ids=["controller", "gains", "setpoints", "params", "mag"])
def test_each_input_object_is_checked_for_its_type(make, name):
    # these raised AttributeError inside run, or were accepted
    with pytest.raises(ValidationError, match=name):
        make()
