"""Robot parameters and the basic model-level types.

Parameter symbols follow the equations of motion, not the hardware drawing:
R1, R2 are the disk radii (they appear in the rolling translation R1*phi1),
r1, r2 are the pendulum arm lengths. Angles are stored unwrapped everywhere;
rolling translation depends on accumulated rotation, so taking a modulo
anywhere in the state would change the physics. Wrapping happens only in
reporting.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _core


class ValidationError(ValueError):
    """A parameter value violates a physical constraint."""


def finite_number(v) -> bool:
    """v is a real number of finite value: a Python or numpy int or float.
    A bool (Python's or numpy's) is not a number here, and an int beyond
    the float range is not finite."""
    if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def positive_number(v) -> bool:
    """v is a finite_number greater than 0: a step, a bound or a constant."""
    return finite_number(v) and v > 0


def finite_numbers(v, n) -> bool:
    """v is a tuple, list or 1-D array of n finite_numbers; never a string."""
    if not (isinstance(v, (tuple, list))
            or isinstance(v, np.ndarray) and v.ndim == 1):
        return False
    return len(v) == n and all(map(finite_number, v))


@dataclass(frozen=True)
class RobotParams:
    """Physical constants of the two-module robot.

    Defaults are the reference prototype values. delta holds the viscous
    damping coefficients in state order (theta1, theta2, phi1, phi2).
    Each value is checked on construction and stored as a float, delta as
    a tuple of floats, so instances are immutable, hashable and safe to
    share across concurrent runs.
    """

    m_p: float = 0.262
    m_s: float = 0.70
    I_p: float = 0.1
    I_s: float = 0.1
    r1: float = 0.06
    r2: float = 0.06
    R1: float = 0.065
    R2: float = 0.065
    g: float = 9.81
    delta: tuple[float, float, float, float] = (0.02, 0.02, 0.07, 0.06)

    def __post_init__(self):
        for name in ("m_p", "m_s", "I_p", "I_s", "r1", "r2", "R1", "R2", "g"):
            v = getattr(self, name)
            if not positive_number(v):
                raise ValidationError(f"{name} must be positive and finite, got {v!r}")
            object.__setattr__(self, name, float(v))
        if not (finite_numbers(self.delta, 4) and min(self.delta) >= 0):
            raise ValidationError(
                f"delta must be 4 finite numbers >= 0, got {self.delta!r}")
        object.__setattr__(self, "delta", tuple(map(float, self.delta)))

    def packed(self) -> tuple:
        """_core's par: the 13 floats in the order the kernels unpack."""
        return (self.m_p, self.m_s, self.I_p, self.I_s, self.r1, self.r2,
                self.R1, self.R2, self.g, *self.delta)


@dataclass(frozen=True)
class State:
    """Generalized coordinates and rates.

    q = (theta1, theta2, phi1, phi2) in radians, qdot in rad/s. Each is
    stored as a tuple of its 4 entries, which may be floats or the
    equal-length columns of recorded states. Finiteness is not checked: the
    functions that take a State define their answer for a non-finite one.
    """

    q: tuple[float, float, float, float]
    qdot: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        for name in ("q", "qdot"):
            v = getattr(self, name)
            if isinstance(v, str) or len(v) != 4:
                raise ValidationError(f"{name} must have 4 entries, got {v!r}")
            object.__setattr__(self, name, tuple(v))

    def packed(self) -> tuple:
        """The state y = (*q, *qdot) as the kernels take it."""
        return (*self.q, *self.qdot)


def generalized_torque(tau) -> tuple[float, float, float, float]:
    """Map motor torques tau = (u1, u2) onto the generalized coordinates.

    tau is a pair of finite numbers: pd_control's or a row of Trajectory.u.
    Each motor acts between its pendulum and its disk shell, so the reaction
    is two sided: (u1, u2, -u1, -u2) in state order, as floats. The theta
    and phi components sum to zero exactly; internal actuation imparts no
    net external torque.
    """
    if not finite_numbers(tau, 2):
        raise ValidationError(f"input torques must be finite, got {tau!r}")
    return _core.torque_map(float(tau[0]), float(tau[1]))
