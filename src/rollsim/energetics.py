"""Energy functions.

The potential has two selectable forms. The default, named paper-verbatim in
configs and on the CLI, keeps the original printed expression including its
sin(phi1+phi2) term in the pendulum-2 part, which does not match the height
implied by the position equations; geometry-consistent replaces that term
with the cos form implied by the geometry (sum of m*g*height over bodies, up
to a constant). The verbatim form is the default because the reproduction
scenarios are defined against it; the discrepancy is recorded by the errata
report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _core
from .kinematics import velocities
from .model import RobotParams, State

POTENTIAL_VARIANTS = ("paper-verbatim", "geometry-consistent")


def variant_code(name: str) -> int:
    try:
        return POTENTIAL_VARIANTS.index(name)
    except ValueError:
        raise ValueError(
            f"unknown potential variant {name!r}; choose one of {POTENTIAL_VARIANTS}"
        ) from None


@dataclass(frozen=True)
class EnergyBreakdown:
    T: float
    U: float
    E: float
    T_parts: tuple[float, float, float, float, float, float]
    U_parts: tuple[float, float, float]


def kinetic_energy(params: RobotParams, state: State) -> float:
    return float(_core.kinetic(params.as_array(), np.asarray(state.q, float),
                               np.asarray(state.qdot, float)))


def potential_energy(params: RobotParams, state: State,
                     variant: str = "paper-verbatim") -> float:
    return float(_core.potential(params.as_array(), np.asarray(state.q, float),
                                 variant_code(variant)))


def dissipation(params: RobotParams, state: State) -> float:
    """Rayleigh function P = 1/2 sum delta_i qdot_i^2. Power loss is 2P."""
    qd = np.asarray(state.qdot, float)
    return float(0.5 * np.dot(params.delta, qd * qd))


def breakdown(params: RobotParams, state: State,
              variant: str = "paper-verbatim") -> EnergyBreakdown:
    """Per-body energy terms; mostly a debugging aid."""
    t1, t2, p1, p2 = state.q
    dt1, dt2, dp1, dp2 = state.qdot
    m_p, m_s, L = params.m_p, params.m_s, params.R1 + params.R2
    g = params.g
    v = velocities(params, state)
    T_parts = (0.5 * m_s * v.v_s1[0] ** 2,
               0.5 * m_p * (v.v_p1[0] ** 2 + v.v_p1[1] ** 2),
               0.5 * m_s * (v.v_s2[0] ** 2 + v.v_s2[1] ** 2),
               0.5 * m_p * (v.v_p2[0] ** 2 + v.v_p2[1] ** 2),
               0.5 * params.I_p * (dt1 ** 2 + dt2 ** 2),
               0.5 * params.I_s * (dp1 ** 2 + dp2 ** 2))
    if variant_code(variant) == _core.VARIANT_GEOMETRIC:
        mid = L * np.cos(p1 + p2)
    else:
        mid = L * np.sin(p1 + p2)
    U_parts = (-m_p * params.r1 * g * np.cos(p1 + t1),
               -m_p * g * (mid + params.r2 * np.cos(p2 + t2)),
               -m_s * g * L * np.cos(p1 + p2))
    T = float(sum(T_parts))
    U = float(sum(U_parts))
    return EnergyBreakdown(T=T, U=U, E=T + U,
                           T_parts=tuple(map(float, T_parts)),
                           U_parts=tuple(map(float, U_parts)))


def total_energy(params: RobotParams, state: State,
                 variant: str = "paper-verbatim") -> float:
    return kinetic_energy(params, state) + potential_energy(params, state, variant)
