"""Magnetic tip coupling: linear flux model and its generalized force.

B falls linearly from B_max at contact to zero at separation P_max and stays
zero beyond; the attractive tip force F = B^2 A / (2 mu0) maps onto the
generalized coordinates through the tip Jacobians (virtual work), which is
the only mapping consistent with the Lagrangian setting. The force is
conservative along p_m, with closed-form potential W used in tests.

The functions here evaluate for a State the tip geometry and force law
that a run uses. tools/gen_eom.py generates p_m and its gradient from
_core.separation (_eom.tip_geometry) and writes the force law once
(_eom.tip_law), which _core.flux_density, magnetic_force and mag_torque call;
the run loop (_eom.loop_for) holds the same two, printed inline in each
RK4 stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _core
from .model import (RobotParams, State, ValidationError, finite_number,
                    positive_number)


@dataclass(frozen=True)
class MagneticParams:
    """Flux model constants.

    B_max and P_max have no authoritative values; the shipped presets carry
    placeholders and disable the coupling. A and mu0 defaults are the
    documented interaction area and free-space permeability as used
    throughout. Each constant is checked on construction and stored as a
    float.
    """

    B_max: float = 0.05
    P_max: float = 0.02
    A: float = 0.0025
    mu0: float = 1.257e-6
    enabled: bool = False

    def __post_init__(self):
        if not isinstance(self.enabled, bool):
            raise ValidationError(
                f"enabled must be True or False, got {self.enabled!r}")
        if not (finite_number(self.B_max) and self.B_max >= 0):
            raise ValidationError(f"B_max must be >= 0, got {self.B_max!r}")
        object.__setattr__(self, "B_max", float(self.B_max))
        for name in ("P_max", "A", "mu0"):
            v = getattr(self, name)
            if not positive_number(v):
                raise ValidationError(f"{name} must be positive, got {v!r}")
            object.__setattr__(self, name, float(v))

    def packed(self) -> tuple:
        """_core's mag: enabled as 1.0 or 0.0, then the four constants."""
        return (1.0 if self.enabled else 0.0,
                self.B_max, self.P_max, self.A, self.mu0)


def separation(params: RobotParams, state: State) -> float:
    """Euclidean distance p_m between the pendulum tips; NaN if non-finite."""
    with np.errstate(**_core.QUIET):
        return float(_core.separation(params.packed(), state.q))


def flux_density(mag: MagneticParams, p_m: float) -> float:
    """Flux density B at a finite tip separation p_m >= 0, T."""
    if not (finite_number(p_m) and p_m >= 0):
        raise ValidationError(
            f"separation must be finite and >= 0, got {p_m!r}")
    return _core.flux_density(mag.packed(), p_m)


def magnetic_force(mag: MagneticParams, B: float) -> float:
    """Attractive force magnitude F = B^2 A / (2 mu0) for a finite B, N."""
    if not finite_number(B):
        raise ValidationError(f"flux density must be finite, got {B!r}")
    return _core.magnetic_force(mag.packed(), B)


def generalized_magnetic_torque(params: RobotParams, mag: MagneticParams,
                                state: State):
    """Generalized force of the tip attraction, with a degeneracy flag.

    Returns (Q, degenerate). Q = -F * grad_q p_m: the force on tip 1 acts
    along the unit vector toward tip 2 and vice versa, so attraction does
    positive work while the tips approach. At p_m = 0 the direction is
    undefined; the equal-and-opposite pair then contributes nothing and Q is
    zero with degenerate = True. Disabled coupling and separations beyond
    P_max return exact zeros, as in the run loop, which prints the
    same force law inline; a disabled run reproduces the uncoupled dynamics
    bit for bit. With coupling enabled, a non-finite state gives NaN.
    """
    if mag.enabled and not np.all(np.isfinite(state.q)):
        return np.full(4, np.nan), False
    Q, degenerate = _core.mag_torque(params.packed(), mag.packed(), state.q)
    return np.array(Q), degenerate


def magnetic_potential(mag: MagneticParams, p_m: float) -> float:
    """Potential W(p) with -dW/dp = -F(p), zero at and beyond P_max.

    p_m must be a finite number >= 0, as for flux_density.

    Integrating F = (A B_max^2 / (2 mu0)) (1 - p/P_max)^2 from p to P_max
    gives W(p) = -(A B_max^2 P_max / (6 mu0)) (1 - p/P_max)^3, so the
    generalized force -grad_q W equals -F grad_q p_m. Test oracle; the
    simulator integrates the force directly.
    """
    if not (finite_number(p_m) and p_m >= 0):
        raise ValidationError(
            f"separation must be finite and >= 0, got {p_m!r}")
    if p_m >= mag.P_max:
        return 0.0
    # products, as in the generated force law: a float ** 2 past the
    # largest double raises OverflowError, where a product is inf
    c = mag.A * (mag.B_max * mag.B_max) * mag.P_max / (6.0 * mag.mu0)
    s = 1.0 - p_m / mag.P_max
    return -c * (s * s * s)
