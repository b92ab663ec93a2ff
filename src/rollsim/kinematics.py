"""Planar kinematics of the stacked disk pair.

Frame: x to the right, y up, origin at disk 1's center height. Disk 1 rolls
on the ground (translation R1*phi1); disk 2 rolls on disk 1, its center at
angle phi1+phi2 measured from straight down, so phi1+phi2 = 180 deg is the
stacked upright configuration. Pendulum i hangs at absolute angle
phi_i + theta_i from straight down.

The functions here evaluate _core's body geometry, from which the energies
and the tip separation are built, for a State; a non-finite coordinate
gives NaN where it enters, without a warning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _core
from .model import RobotParams, State


@dataclass(frozen=True)
class BodyPositions:
    """Centers of mass (disk shells) and pendulum bobs, inertial frame, m."""

    r_s1: tuple[float, float]
    r_p1: tuple[float, float]
    r_s2: tuple[float, float]
    r_p2: tuple[float, float]


@dataclass(frozen=True)
class BodyVelocities:
    v_s1: tuple[float, float]
    v_p1: tuple[float, float]
    v_s2: tuple[float, float]
    v_p2: tuple[float, float]


def positions(params: RobotParams, state: State) -> BodyPositions:
    with np.errstate(**_core.QUIET):
        return BodyPositions(*_core.body_positions(params.packed(), state.q))


def velocities(params: RobotParams, state: State) -> BodyVelocities:
    with np.errstate(**_core.QUIET):
        return BodyVelocities(*_core.body_velocities(params.packed(), state.q,
                                                     state.qdot))


def disk2_height(params: RobotParams, state: State) -> float:
    """Ground-relative height of disk 2's center.

    Ground sits at y = -R1, so this is R1 - (R1+R2)*cos(phi1+phi2): 0.195 m
    when stacked upright with the default radii, negative when the center
    dips below the ground plane (the model has no ground constraint for
    disk 2; penetration is only flagged as an event).
    """
    with np.errstate(**_core.QUIET):
        return _core.disk2_height(params.packed(), state.q)


def wrap_angle(a):
    """Wrap to [-pi, pi); reporting only, never applied to stored state."""
    return (np.asarray(a) + np.pi) % (2.0 * np.pi) - np.pi


def upright_deviation(q2_plus_q3):
    """|wrapped deviation of phi1+phi2 from the stacked upright 180 deg|."""
    return np.abs(wrap_angle(np.asarray(q2_plus_q3) - np.pi))
