"""Energy functions.

The potential has two selectable forms. The default, named paper-verbatim in
configs and on the CLI, keeps the original printed expression including its
sin(phi1+phi2) term in the pendulum-2 part, which does not match the height
implied by the position equations; geometry-consistent replaces that term
with the cos form implied by the geometry (sum of m*g*height over bodies, up
to a constant). The verbatim form is the default because the reproduction
scenarios are defined against it; the discrepancy is recorded by the errata
report.

T, U and their per-body parts (from _core's body geometry) and P are _core
functions; the functions here evaluate them for a State.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _core
from .model import RobotParams, State, ValidationError

POTENTIAL_VARIANTS = ("paper-verbatim", "geometry-consistent")


def variant_code(name: str) -> int:
    """Index of a potential variant name; ValidationError for another."""
    try:
        return POTENTIAL_VARIANTS.index(name)
    except ValueError:
        raise ValidationError(
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
    """T; NaN for a non-finite state."""
    with np.errstate(**_core.QUIET):
        return float(_core.kinetic(params.packed(), state.q, state.qdot))


def potential_energy(params: RobotParams, state: State,
                     variant: str = "paper-verbatim") -> float:
    """U; NaN for a non-finite state."""
    with np.errstate(**_core.QUIET):
        return float(_core.potential(params.packed(), state.q,
                                     variant_code(variant)))


def dissipation(params: RobotParams, state: State) -> float:
    """Rayleigh function P = 1/2 sum delta_i qdot_i^2. Power loss is 2P."""
    return float(_core.dissipation(params.packed(), state.qdot))


def breakdown(params: RobotParams, state: State,
              variant: str = "paper-verbatim") -> EnergyBreakdown:
    """Per-body energy terms, whose left-to-right sums are T and U."""
    par = params.packed()
    with np.errstate(**_core.QUIET):
        T_parts = tuple(map(float, _core.kinetic_parts(par, state.q,
                                                       state.qdot)))
        U_parts = tuple(map(float, _core.potential_parts(
            par, state.q, variant_code(variant))))
    T, U = sum(T_parts), sum(U_parts)
    return EnergyBreakdown(T=T, U=U, E=T + U, T_parts=T_parts, U_parts=U_parts)


def total_energy(params: RobotParams, state: State,
                 variant: str = "paper-verbatim") -> float:
    return kinetic_energy(params, state) + potential_energy(params, state, variant)
