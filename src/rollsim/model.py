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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class RobotParams:
    """Physical constants of the two-module robot.

    Defaults are the reference prototype values. delta holds the viscous
    damping coefficients in state order (theta1, theta2, phi1, phi2).
    Instances are immutable and safe to share across concurrent runs.
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
            if not (finite_number(v) and v > 0):
                raise ValidationError(f"{name} must be positive and finite, got {v!r}")
        if not isinstance(self.delta, (tuple, list)) or len(self.delta) != 4:
            raise ValidationError(
                f"delta must be a sequence of exactly 4 entries, got {self.delta!r}")
        for i, d in enumerate(self.delta):
            if not (finite_number(d) and d >= 0):
                raise ValidationError(f"delta[{i}] must be non-negative, got {d!r}")

    def as_array(self) -> np.ndarray:
        """Packed layout consumed by the kernels in _core."""
        return np.array([self.m_p, self.m_s, self.I_p, self.I_s,
                         self.r1, self.r2, self.R1, self.R2, self.g,
                         *self.delta], dtype=np.float64)


@dataclass(frozen=True)
class State:
    """Generalized coordinates and rates.

    q = (theta1, theta2, phi1, phi2) in radians, qdot in rad/s.
    """

    q: tuple[float, float, float, float]
    qdot: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def as_array(self) -> np.ndarray:
        return np.array([*self.q, *self.qdot], dtype=np.float64)

    @staticmethod
    def from_array(y) -> "State":
        y = np.asarray(y, dtype=np.float64)
        return State(q=tuple(y[:4]), qdot=tuple(y[4:8]))


@dataclass(frozen=True)
class Input:
    """Motor torque pair (tau1, tau2) in N*m."""

    tau: tuple[float, float] = (0.0, 0.0)


_PARAM_FIELDS = ("m_p", "m_s", "I_p", "I_s", "r1", "r2", "R1", "R2", "g",
                 "delta")


def load_params(mapping: dict | None) -> RobotParams:
    """Build RobotParams from a plain mapping (e.g. a parsed config section).

    Missing fields keep their defaults; unknown keys are rejected so typos
    can't silently fall back to defaults. delta is a list of 4 finite numbers.
    """
    if mapping is None:
        return RobotParams()
    if not isinstance(mapping, dict):
        raise ValidationError(f"params section must be a mapping, got {type(mapping).__name__}")
    unknown = sorted(set(mapping) - set(_PARAM_FIELDS))
    if unknown:
        raise ValidationError(f"unknown parameter keys: {', '.join(unknown)}")
    kwargs = dict(mapping)
    if "delta" in kwargs:
        delta = kwargs["delta"]
        if not (isinstance(delta, (list, tuple)) and len(delta) == 4
                and all(map(finite_number, delta))):
            raise ValidationError(
                f"delta must be a list of 4 finite numbers, got {delta!r}")
        kwargs["delta"] = tuple(map(float, delta))
    return RobotParams(**kwargs)


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
