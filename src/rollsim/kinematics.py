"""Planar kinematics of the stacked disk pair.

Frame: x to the right, y up, origin at disk 1's center height. Disk 1 rolls
on the ground (translation R1*phi1); disk 2 rolls on disk 1, its center at
angle phi1+phi2 measured from straight down, so phi1+phi2 = 180 deg is the
stacked upright configuration. Pendulum i hangs at absolute angle
phi_i + theta_i from straight down.
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
    t1, t2, p1, p2 = state.q
    L = params.R1 + params.R2
    s1x = params.R1 * p1
    rs1 = (s1x, 0.0)
    rp1 = (s1x + params.r1 * np.sin(p1 + t1),
           -params.r1 * np.cos(p1 + t1))
    rs2 = (s1x + L * np.sin(p1 + p2),
           -L * np.cos(p1 + p2))
    rp2 = (rs2[0] + params.r2 * np.sin(p2 + t2),
           rs2[1] - params.r2 * np.cos(p2 + t2))
    return BodyPositions(rs1, rp1, rs2, rp2)


def velocities(params: RobotParams, state: State) -> BodyVelocities:
    t1, t2, p1, p2 = state.q
    dt1, dt2, dp1, dp2 = state.qdot
    L = params.R1 + params.R2
    vs1 = (params.R1 * dp1, 0.0)
    vp1 = (vs1[0] + params.r1 * (dp1 + dt1) * np.cos(p1 + t1),
           params.r1 * (dp1 + dt1) * np.sin(p1 + t1))
    vs2 = (vs1[0] + L * (dp1 + dp2) * np.cos(p1 + p2),
           L * (dp1 + dp2) * np.sin(p1 + p2))
    vp2 = (vs2[0] + params.r2 * (dp2 + dt2) * np.cos(p2 + t2),
           vs2[1] + params.r2 * (dp2 + dt2) * np.sin(p2 + t2))
    return BodyVelocities(vs1, vp1, vs2, vp2)


def disk2_height(params: RobotParams, state: State) -> float:
    """Ground-relative height of disk 2's center.

    Ground sits at y = -R1, so this is R1 - (R1+R2)*cos(phi1+phi2): 0.195 m
    when stacked upright with the default radii, negative when the center
    dips below the ground plane (the model has no ground constraint for
    disk 2; penetration is only flagged as an event).
    """
    return _core.disk2_height(params.as_array(), state.q)


def pendulum_tips(params: RobotParams, state: State):
    """The two magnet-carrying bob positions (r_p1, r_p2)."""
    pos = positions(params, state)
    return pos.r_p1, pos.r_p2


def wrap_angle(a):
    """Wrap to [-pi, pi); reporting only, never applied to stored state."""
    return (np.asarray(a) + np.pi) % (2.0 * np.pi) - np.pi


def upright_deviation(q2_plus_q3):
    """|wrapped deviation of phi1+phi2 from the stacked upright 180 deg|."""
    return np.abs(wrap_angle(np.asarray(q2_plus_q3) - np.pi))
