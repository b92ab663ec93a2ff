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
from dataclasses import dataclass, fields

import numpy as np

from . import _core


class ValidationError(ValueError):
    """A parameter value violates a physical constraint."""


def finite_number(v) -> bool:
    """v is an int or float of finite value. A bool is an int to Python but
    not a number here, and an int beyond the float range is not finite."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
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

    @staticmethod
    def from_array(y) -> "State":
        y = np.asarray(y, dtype=np.float64)
        return State(q=tuple(y[:4]), qdot=tuple(y[4:8]))


@dataclass(frozen=True)
class Input:
    """Motor torque pair (tau1, tau2) in N*m."""

    tau: tuple[float, float] = (0.0, 0.0)


def load_params(mapping: dict | None) -> RobotParams:
    """Build RobotParams from a plain mapping (e.g. a parsed config section).

    Missing fields keep their defaults; unknown keys are rejected so typos
    can't silently fall back to defaults. RobotParams checks the values.
    """
    if mapping is None:
        return RobotParams()
    if not isinstance(mapping, dict):
        raise ValidationError(
            f"expected a mapping of parameters, got {type(mapping).__name__}")
    known = {f.name for f in fields(RobotParams)}
    unknown = sorted(map(str, set(mapping) - known))
    if unknown:
        raise ValidationError(f"unknown parameter keys: {', '.join(unknown)}")
    return RobotParams(**mapping)


def generalized_torque(inp: Input) -> tuple[float, float, float, float]:
    """Map motor torques onto the generalized coordinates.

    Each motor acts between its pendulum and its disk shell, so the reaction
    is two sided: (tau1, tau2, -tau1, -tau2) in state order. The theta and
    phi components sum to zero exactly; internal actuation imparts no net
    external torque.
    """
    t1, t2 = inp.tau
    if not (np.isfinite(t1) and np.isfinite(t2)):
        raise ValidationError(f"input torques must be finite, got {inp.tau!r}")
    return _core.torque_map(t1, t2)
