"""PD controller on the true pendulum angles, and the Lyapunov monitor.

The controlled quantities are psi_i = theta_i - phi_i (pendulum orientation
relative to its disk) and the disk angles phi_i. There is one control law,
in its printed form: u = Kp e + Kd edot with position errors taken as
current minus desired, the derivative channel on thetadot/phidot rather
than psidot, and 2x4 gains whose cross-module slots are zero.

The errors, the law, the clamp and the Lyapunov value are computed by the
_core functions that the simulator's run loop and post-processing call, so
these functions return what a run records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _core
from .energetics import potential_energy, total_energy
from .model import (Input, RobotParams, State, ValidationError,
                    finite_numbers, positive_number)

# zero pattern of the printed 2x4 gain matrices: row 1 couples
# (psi1, phi1), row 2 couples (psi2, phi2)
_ZERO_SLOTS = ((0, 1), (0, 3), (1, 0), (1, 2))


@dataclass(frozen=True)
class GainMatrices:
    """2x4 proportional and derivative gains.

    Rows produce (u1, u2); columns weight the error vector
    (psi1 - theta1d, psi2 - theta2d, phi1 - phi1d, phi2 - phi2d). Each
    matrix is 2 rows of 4 finite numbers, stored as a tuple of float
    tuples. The printed structure leaves the cross-module slots zero, so u1
    sees only module 1's errors and u2 only module 2's; a nonzero
    cross-module slot is rejected.
    """

    Kp: tuple = ((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0))
    Kd: tuple = ((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0))

    def __post_init__(self):
        for label in ("Kp", "Kd"):
            m = getattr(self, label)
            if not (isinstance(m, (tuple, list)) and len(m) == 2
                    and all(finite_numbers(row, 4) for row in m)):
                raise ValidationError(
                    f"{label} must be 2 rows of 4 finite numbers, got {m!r}")
            for (i, j) in _ZERO_SLOTS:
                if m[i][j] != 0.0:
                    raise ValidationError(
                        f"{label}[{i}][{j}] must be 0 by the gain structure, "
                        f"got {m[i][j]!r}")
            object.__setattr__(self, label,
                               tuple(tuple(map(float, row)) for row in m))


@dataclass(frozen=True)
class Setpoints:
    """Targets: theta_d for the true pendulum angles psi, phi_d for disks.

    Each is a pair of finite numbers, stored as a tuple of floats.
    """

    theta_d: tuple[float, float] = (0.0, 0.0)
    phi_d: tuple[float, float] = (0.0, 0.0)
    dtheta_d: tuple[float, float] = (0.0, 0.0)
    dphi_d: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        for name in ("theta_d", "phi_d", "dtheta_d", "dphi_d"):
            v = getattr(self, name)
            if not finite_numbers(v, 2):
                raise ValidationError(
                    f"{name} must be 2 finite numbers, got {v!r}")
            object.__setattr__(self, name, tuple(map(float, v)))

    def packed(self) -> tuple:
        """_core's tgt: (th1d, th2d, ph1d, ph2d) then their 4 rates."""
        return (*self.theta_d, *self.phi_d, *self.dtheta_d, *self.dphi_d)


def error_vector(setpoints: Setpoints, state: State) -> np.ndarray:
    """e = (psi1 - theta1d, psi2 - theta2d, phi1 - phi1d, phi2 - phi2d)."""
    e, _ = _core.pd_error(setpoints.packed(), state.packed())
    return np.array(e)


def error_rate(setpoints: Setpoints, state: State) -> np.ndarray:
    """edot on (thetadot1, thetadot2, phidot1, phidot2)."""
    _, de = _core.pd_error(setpoints.packed(), state.packed())
    return np.array(de)


def pd_control(gains: GainMatrices, setpoints: Setpoints,
               state: State) -> Input:
    """u = Kp e + Kd edot, unsaturated; the run loop's law."""
    u = _core.pd_input(gains.Kp, gains.Kd, setpoints.packed(),
                       state.packed(), 0.0)
    return Input(tau=u)


def saturate(inp: Input, M: float) -> Input:
    """Component-wise clamp to [-M, M]; idempotent, sign preserving."""
    if not positive_number(M):
        raise ValidationError(
            f"saturation bound must be positive and finite, got {M!r}")
    return Input(tau=tuple(float(_core.saturate(u, M)) for u in inp.tau))


@dataclass(frozen=True)
class LyapunovSample:
    V: float
    Vdot: Optional[float]
    components: tuple[float, float, float]  # energy, Kp, Kd terms


def reference_energy(params: RobotParams, setpoints: Setpoints,
                     variant: str = "paper-verbatim") -> float:
    """Energy at the setpoint configuration, zero velocity.

    The configuration solves psi_i = theta_id, phi_i = phi_id, i.e.
    q_ref = (theta1d + phi1d, theta2d + phi2d, phi1d, phi2d).
    """
    q_ref = (setpoints.theta_d[0] + setpoints.phi_d[0],
             setpoints.theta_d[1] + setpoints.phi_d[1],
             setpoints.phi_d[0], setpoints.phi_d[1])
    return potential_energy(params, State(q=q_ref), variant)


def lyapunov(params: RobotParams, gains: GainMatrices, setpoints: Setpoints,
             state: State, prev_sample: Optional[LyapunovSample] = None,
             dt: float = 0.0,
             variant: str = "paper-verbatim") -> LyapunovSample:
    """Composite monitor value; diagnostic only, never fed back.

    V = 1/2 (E - E_ref)^2 + 1/2 sum_rc Kp[r][c] e[c]^2
      + sum_rc Kd[r][c] edot[c]^2
    with E shifted by the setpoint-configuration energy so V is zero at the
    target equilibrium. The derivative-gain quadratic deliberately carries no
    1/2: the composite is kept as transcribed (see the errata report notes).
    Vdot is a backward difference against prev_sample when given. The 2x4
    gain matrices do not define a square quadratic form; the weighting sums
    each gain entry against its error component squared.
    """
    e, de = _core.pd_error(setpoints.packed(), state.packed())
    dE = (total_energy(params, state, variant)
          - reference_energy(params, setpoints, variant))
    V, terms = _core.lyapunov(gains.Kp, gains.Kd, e, de, dE)
    Vdot = None
    if prev_sample is not None:
        if not dt > 0:
            raise ValidationError("dt must be positive when chaining samples")
        Vdot = (V - prev_sample.V) / dt
    return LyapunovSample(V=float(V), Vdot=Vdot,
                          components=tuple(map(float, terms)))
