"""Closed-loop integration, scenario definitions, and event detection.

Fixed-step classical RK4. The controller is sampled at each step's start
state and held across the step (zero-order hold); magnetic torque is state
dependent physics and is evaluated at every stage. The recorded PD input,
generalized torque, Lyapunov value and disk-2 height come from the same
_core functions that pd_control, generalized_torque, lyapunov and
disk2_height call, applied to the columns of the recorded states. Events are
detected on the recorded samples after integration, strictly
edge-triggered: a sample already inside a condition at t = 0 fires nothing
until the condition is left and re-entered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import _core
from .control import GainMatrices, Setpoints, reference_energy
from .energetics import variant_code
from .kinematics import upright_deviation
from .magnetics import MagneticParams
from .model import RobotParams, ValidationError

TOPPLE = "Topple"
GROUND_PENETRATION = "GroundPenetration"
COUPLING_ENGAGED = "CouplingEngaged"
COUPLING_LOST = "CouplingLost"
NON_FINITE_STATE = "NonFiniteState"

# sample count is floor(T/dt) + 1 in real arithmetic; the epsilon absorbs
# IEEE quotients like 5/0.001 landing just under the integer
_COUNT_EPS = 1e-6


class IntegrationError(RuntimeError):
    """A derivative evaluation produced a non-finite stage value."""


@dataclass(frozen=True)
class PDSpec:
    """Controller attachment for a scenario."""

    gains: GainMatrices
    setpoints: Setpoints
    saturation: Optional[float] = None
    psi_rate: bool = False


@dataclass(frozen=True)
class Scenario:
    name: str
    y0: tuple  # (theta1, theta2, phi1, phi2, rates...) radians, rad/s
    controller: Optional[PDSpec] = None
    magnetics: bool = False
    horizon: float = 10.0
    dt: float = 1e-3
    potential: str = "paper-verbatim"

    def __post_init__(self):
        if len(self.y0) != 8:
            raise ValidationError(f"y0 must have 8 entries, got {len(self.y0)}")
        if not self.dt > 0:
            raise ValidationError(f"dt must be positive, got {self.dt!r}")
        if not self.horizon >= self.dt:
            raise ValidationError(
                f"horizon {self.horizon!r} must be at least dt {self.dt!r}")
        variant_code(self.potential)  # validates the name

    def y0_array(self) -> np.ndarray:
        return np.asarray(self.y0, dtype=np.float64)


@dataclass(frozen=True)
class Event:
    kind: str
    time: float
    state: tuple
    details: str = ""


@dataclass
class Trajectory:
    """Recorded run: one row per sample plus the event log.

    All arrays share the first axis. V and Vdot are NaN for controller-less
    runs (and Vdot is NaN at the first sample); u and tau_gen are zero when
    no controller is attached. truncated marks a run cut short by a
    non-finite state; the arrays then hold only the valid samples and the
    event log ends with a NonFiniteState entry.
    """

    scenario_name: str
    t: np.ndarray
    y: np.ndarray
    u: np.ndarray
    tau_gen: np.ndarray
    T: np.ndarray
    U: np.ndarray
    E: np.ndarray
    P: np.ndarray
    V: np.ndarray
    Vdot: np.ndarray
    height: np.ndarray
    p_m: np.ndarray
    events: list = field(default_factory=list)
    truncated: bool = False

    def events_of(self, kind: str):
        return [e for e in self.events if e.kind == kind]


def rk4_step(f: Callable, y, t: float, dt: float):
    """One classical RK4 step of y' = f(t, y); reference implementation.

    The production loop, _core.run_loop, runs the same Butcher tableau on
    Python floats; this generic version exists for tests and small
    experiments.
    """
    if not dt > 0:
        raise ValidationError(f"dt must be positive, got {dt!r}")
    y = np.asarray(y, dtype=np.float64)
    k1 = np.asarray(f(t, y), dtype=np.float64)
    k2 = np.asarray(f(t + 0.5 * dt, y + 0.5 * dt * k1), dtype=np.float64)
    k3 = np.asarray(f(t + 0.5 * dt, y + 0.5 * dt * k2), dtype=np.float64)
    k4 = np.asarray(f(t + dt, y + dt * k3), dtype=np.float64)
    for idx, k in enumerate((k1, k2, k3, k4)):
        if not np.all(np.isfinite(k)):
            raise IntegrationError(f"non-finite derivative at stage {idx + 1}, t={t!r}")
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def sample_count(horizon: float, dt: float) -> int:
    return int(np.floor(horizon / dt + _COUNT_EPS)) + 1


def run(scenario: Scenario, params: Optional[RobotParams] = None,
        mag: Optional[MagneticParams] = None) -> Trajectory:
    """Integrate a scenario and return the fully populated trajectory.

    The scenario's magnetics flag decides whether coupling forces act; mag
    supplies the model constants (defaults when omitted). Deterministic:
    identical inputs give bit-identical trajectories.
    """
    params = params if params is not None else RobotParams()
    mag = mag if mag is not None else MagneticParams()
    par = params.as_array()
    mag_arr = mag.as_array()
    mag_arr[0] = 1.0 if scenario.magnetics else 0.0
    variant = variant_code(scenario.potential)

    ctrl = scenario.controller
    pd = None
    if ctrl is not None:
        Kp = ctrl.gains.kp_array()
        Kd = ctrl.gains.kd_array()
        tgt = ctrl.setpoints.target_array()
        sat = float(ctrl.saturation) if ctrl.saturation else 0.0
        pd = (Kp, Kd, tgt, sat, ctrl.psi_rate)

    n = sample_count(scenario.horizon, scenario.dt) - 1
    ys, us, n_done = _core.run_loop(par, mag_arr, scenario.y0_array(), n,
                                    scenario.dt, pd, variant)
    truncated = n_done < n
    ys = ys[:n_done + 1]
    us = us[:n_done + 1]
    t = np.arange(n_done + 1) * scenario.dt
    cols = ys.T  # the state sequence y, one array per component

    T, U = _core.energies_batch(par, ys, n_done, variant)
    qd = ys[:, 4:]
    # a run cut short by overflow keeps its last finite samples, whose
    # squared rates may overflow to inf: the honest float answer
    with np.errstate(over="ignore"):
        P = 0.5 * (qd * qd) @ np.asarray(params.delta)
    p_m = _core.pm_batch(par, ys, n_done)
    height = _core.disk2_height(par, cols)
    tau_gen = np.column_stack(_core.torque_map(us[:, 0], us[:, 1]))

    V = np.full(n_done + 1, np.nan)
    Vdot = np.full(n_done + 1, np.nan)
    if ctrl is not None:
        e, de = (np.column_stack(c)
                 for c in _core.pd_error(tgt, cols, ctrl.psi_rate))
        e_ref = reference_energy(params, ctrl.setpoints, scenario.potential)
        # a diverging run overflows V to inf; that is the honest float
        # answer, keep it quiet
        with np.errstate(over="ignore", invalid="ignore"):
            V, _ = _core.lyapunov(Kp, Kd, e, de, T + U - e_ref)
            Vdot[1:] = np.diff(V) / scenario.dt

    events = _detect_all(params, mag, t, ys, height, p_m)
    if truncated:
        events.append(Event(kind=NON_FINITE_STATE, time=float(t[-1]),
                            state=tuple(ys[-1]),
                            details="integration aborted after this sample"))

    return Trajectory(scenario_name=scenario.name, t=t, y=ys, u=us,
                      tau_gen=tau_gen, T=T, U=U, E=T + U, P=P, V=V, Vdot=Vdot,
                      height=height, p_m=p_m, events=events,
                      truncated=truncated)


def _detect_all(params, mag, t, ys, height, p_m):
    dev = upright_deviation(ys[:, 2] + ys[:, 3])
    events = []

    def crossings(flags):
        return np.nonzero(flags[1:] & ~flags[:-1])[0] + 1

    for i in crossings(dev > np.pi / 2):
        events.append(Event(kind=TOPPLE, time=float(t[i]), state=tuple(ys[i]),
                            details=f"deviation {np.degrees(dev[i]):.2f} deg"))
    for i in crossings(height < params.R2):
        events.append(Event(kind=GROUND_PENETRATION, time=float(t[i]),
                            state=tuple(ys[i]),
                            details=f"height {height[i]:.4f} m"))
    for i in crossings(p_m < mag.P_max):
        events.append(Event(kind=COUPLING_ENGAGED, time=float(t[i]),
                            state=tuple(ys[i]),
                            details=f"p_m {p_m[i]:.4f} m"))
    for i in crossings(p_m > mag.P_max):
        events.append(Event(kind=COUPLING_LOST, time=float(t[i]),
                            state=tuple(ys[i]),
                            details=f"p_m {p_m[i]:.4f} m"))
    events.sort(key=lambda ev: ev.time)
    return events


def detect_events(params: RobotParams, sample, previous,
                  mag: Optional[MagneticParams] = None):
    """Events fired between two consecutive samples (t, y) -> (t', y').

    Edge-triggered: a condition already true at `previous` cannot fire.
    The batch detection inside run() applies the same predicates.
    """
    mag = mag if mag is not None else MagneticParams()
    t_prev, y_prev = previous
    t_cur, y_cur = sample
    if not t_cur > t_prev:
        raise ValidationError("samples must be ordered in time")
    y_prev = np.asarray(y_prev, dtype=np.float64)
    y_cur = np.asarray(y_cur, dtype=np.float64)
    t = np.array([t_prev, t_cur])
    ys = np.stack([y_prev, y_cur])
    par = params.as_array()
    height = _core.disk2_height(par, ys.T)
    p_m = _core.pm_batch(par, ys, 1)
    return _detect_all(params, mag, t, ys, height, p_m)
