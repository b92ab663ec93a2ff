"""PD controller on the true pendulum angles, and the Lyapunov monitor.

The controlled quantities are psi_i = theta_i - phi_i (pendulum orientation
relative to its disk) and the disk angles phi_i. There is one control law,
in its printed form: u = Kp e + Kd edot with position errors taken as
current minus desired against constant angle targets, the derivative
channel on thetadot/phidot rather than psidot, 2x4 gains whose
cross-module slots are zero, and no clamp on u.

The errors, the law and the Lyapunov value are computed by the
_core functions that the simulator's run loop and post-processing call, so
these functions return the numbers a run records: (u1, u2) and V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _core
from .energetics import potential_energy, total_energy
from .model import RobotParams, State, ValidationError, finite_numbers

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

    Each is a pair of finite numbers, stored as a tuple of floats. The
    targets are constant: the rate errors are the rates themselves.
    """

    theta_d: tuple[float, float] = (0.0, 0.0)
    phi_d: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        for name in ("theta_d", "phi_d"):
            v = getattr(self, name)
            if not finite_numbers(v, 2):
                raise ValidationError(
                    f"{name} must be 2 finite numbers, got {v!r}")
            object.__setattr__(self, name, tuple(map(float, v)))

    def packed(self) -> tuple:
        """_core's tgt: (th1d, th2d, ph1d, ph2d)."""
        return (*self.theta_d, *self.phi_d)


def pd_control(gains: GainMatrices, setpoints: Setpoints,
               state: State) -> tuple[float, float]:
    """Motor torques (u1, u2) = Kp e + Kd edot; the run loop's law.

    A state of numpy floats gives what Python floats give, quietly: inf and
    nan where the law overflows or multiplies an infinite error by 0.
    """
    with np.errstate(**_core.QUIET):
        return _core.pd_input(gains.Kp, gains.Kd, setpoints.packed(),
                              state.packed())


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
             state: State, variant: str = "paper-verbatim") -> float:
    """Composite monitor value V; diagnostic only, never fed back.

    V = 1/2 (E - E_ref)^2 + 1/2 sum_rc Kp[r][c] e[c]^2
      + sum_rc Kd[r][c] edot[c]^2
    with E shifted by the setpoint-configuration energy so V is zero at the
    target equilibrium. The derivative-gain quadratic deliberately carries no
    1/2: the composite is kept as transcribed (see the errata report notes).
    The 2x4 gain matrices do not define a square quadratic form; the
    weighting sums each gain entry against its error component squared.
    Its rate is Trajectory.Vdot, a backward difference along a run.
    """
    dE = (total_energy(params, state, variant)
          - reference_energy(params, setpoints, variant))
    return float(_core.lyapunov(gains.Kp, gains.Kd, setpoints.packed(),
                                state.packed(), dE))
