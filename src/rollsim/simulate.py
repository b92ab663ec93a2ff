"""Closed-loop integration, scenario definitions, and event detection.

Fixed-step classical RK4. The controller is sampled at each step's start
state and held across the step (zero-order hold); magnetic torque is state
dependent physics and is evaluated at every stage. The recorded PD input,
generalized torque, energies, Rayleigh function, Lyapunov value, disk-2
height and tip separation come from the same _core functions that the
public functions (pd_control, generalized_torque, kinetic_energy,
potential_energy, dissipation, lyapunov, disk2_height, separation) call,
applied once to the columns of the recorded states. Events are
detected on the recorded samples after integration, strictly
edge-triggered: a sample already inside a condition at t = 0 fires nothing
until the condition is left and re-entered.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _core
from .control import GainMatrices, Setpoints, reference_energy
from .energetics import variant_code
from .kinematics import upright_deviation
from .magnetics import MagneticParams
from .model import (RobotParams, ValidationError, finite_number,
                    finite_numbers, positive_number)

TOPPLE = "Topple"
GROUND_PENETRATION = "GroundPenetration"
COUPLING_ENGAGED = "CouplingEngaged"
COUPLING_LOST = "CouplingLost"
NON_FINITE_STATE = "NonFiniteState"

# sample count is floor(T/dt) + 1 in real arithmetic; the epsilon absorbs
# IEEE quotients like 5/0.001 landing just under the integer
_COUNT_EPS = 1e-6

# the most samples of 8 doubles that numpy can index: it refuses a larger
# array with ValueError, not MemoryError
_MAX_SAMPLES = sys.maxsize // 64


@dataclass(frozen=True)
class PDSpec:
    """Controller attachment for a scenario; a saturation bounds each |u_i|."""

    gains: GainMatrices
    setpoints: Setpoints
    saturation: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.gains, GainMatrices):
            raise ValidationError(
                f"gains must be a GainMatrices, got {self.gains!r}")
        if not isinstance(self.setpoints, Setpoints):
            raise ValidationError(
                f"setpoints must be a Setpoints, got {self.setpoints!r}")
        if self.saturation is None:
            return
        if not positive_number(self.saturation):
            raise ValidationError("saturation must be None or positive and "
                                  f"finite, got {self.saturation!r}")
        object.__setattr__(self, "saturation", float(self.saturation))

    def packed(self) -> tuple:
        """_core.run_loop's pd: (Kp, Kd, tgt, sat), sat 0.0 for no bound."""
        return (self.gains.Kp, self.gains.Kd, self.setpoints.packed(),
                self.saturation or 0.0)


@dataclass(frozen=True)
class Scenario:
    """Initial state, controller, horizon, step and potential of one run.

    Tip coupling is not set here but by MagneticParams.enabled, passed to run.
    The values are checked on construction; y0 is stored as a tuple of
    floats, dt and horizon as floats.
    """

    name: str
    y0: tuple  # (theta1, theta2, phi1, phi2, rates...) radians, rad/s
    controller: Optional[PDSpec] = None
    horizon: float = 10.0
    dt: float = 1e-3
    potential: str = "paper-verbatim"

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name):
            raise ValidationError(
                f"name must be a non-empty string, got {self.name!r}")
        if not finite_numbers(self.y0, 8):
            raise ValidationError(
                f"y0 must be finite and have 8 entries, got {self.y0!r}")
        if not (self.controller is None
                or isinstance(self.controller, PDSpec)):
            raise ValidationError("controller must be None or a PDSpec, "
                                  f"got {self.controller!r}")
        if not positive_number(self.dt):
            raise ValidationError(
                f"dt must be positive and finite, got {self.dt!r}")
        if not (finite_number(self.horizon) and self.horizon >= self.dt):
            raise ValidationError(f"horizon {self.horizon!r} must be finite "
                                  f"and at least dt {self.dt!r}")
        variant_code(self.potential)  # validates the name
        object.__setattr__(self, "y0", tuple(map(float, self.y0)))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "horizon", float(self.horizon))


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


def sample_count(horizon: float, dt: float) -> int:
    return int(np.floor(horizon / dt + _COUNT_EPS)) + 1


def _too_many_samples(scenario, count):
    return ValidationError(
        f"horizon {scenario.horizon!r} s at dt {scenario.dt!r} s needs "
        f"{count} samples, more than memory holds")


def run(scenario: Scenario, params: Optional[RobotParams] = None,
        mag: Optional[MagneticParams] = None) -> Trajectory:
    """Integrate a scenario and return the fully populated trajectory.

    mag.enabled alone decides whether the tips couple; mag also holds the
    flux model constants. Omitted params and mag default to RobotParams()
    and MagneticParams(), whose coupling is off. Deterministic: identical
    inputs give bit-identical trajectories. Raises ValidationError when
    params or mag is not None and not of its type, or when the samples of
    the run do not fit in memory.
    """
    if not (params is None or isinstance(params, RobotParams)):
        raise ValidationError(
            f"params must be None or a RobotParams, got {params!r}")
    if not (mag is None or isinstance(mag, MagneticParams)):
        raise ValidationError(
            f"mag must be None or a MagneticParams, got {mag!r}")
    params = params if params is not None else RobotParams()
    mag = mag if mag is not None else MagneticParams()
    par = params.packed()
    variant = variant_code(scenario.potential)
    ctrl = scenario.controller
    pd = None if ctrl is None else ctrl.packed()

    # horizon / dt may also overflow to inf
    if not scenario.horizon / scenario.dt < _MAX_SAMPLES:
        raise _too_many_samples(scenario, f"over {_MAX_SAMPLES}")
    n = sample_count(scenario.horizon, scenario.dt) - 1
    try:
        ys, us, n_done = _core.run_loop(par, mag.packed(), scenario.y0, n,
                                        scenario.dt, pd, variant)
    except MemoryError as exc:
        # run_loop allocates every sample before the first step
        raise _too_many_samples(scenario, n + 1) from exc
    truncated = n_done < n
    ys = ys[:n_done + 1]
    us = us[:n_done + 1]
    t = np.arange(n_done + 1) * scenario.dt
    cols = ys.T  # the state sequence y, one array per component
    height = _core.disk2_height(par, cols)
    tau_gen = np.column_stack(_core.torque_map(us[:, 0], us[:, 1]))
    V = np.full(n_done + 1, np.nan)
    Vdot = np.full(n_done + 1, np.nan)
    # a run cut short by overflow keeps its last finite samples, whose
    # energies, squared rates and V may overflow to inf: the honest float
    # answer, kept quiet
    with np.errstate(**_core.QUIET):
        T, U = _core.energies_batch(par, cols, variant)
        P = _core.dissipation(par, cols[4:])
        p_m = _core.pm_batch(par, cols)
        if ctrl is not None:
            Kp, Kd, tgt, _ = pd
            e, de = _core.pd_error(tgt, cols)
            e_ref = reference_energy(params, ctrl.setpoints,
                                     scenario.potential)
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
    The batch detection inside run() applies the same predicates. A
    non-finite y' gives one NonFiniteState event at t' and nothing else, as
    run() ends on such a state. A non-finite y is rejected: run() records
    no sample after one.
    """
    mag = mag if mag is not None else MagneticParams()
    t_prev, y_prev = previous
    t_cur, y_cur = sample
    if not t_cur > t_prev:
        raise ValidationError("samples must be ordered in time")
    y_prev = np.asarray(y_prev, dtype=np.float64)
    y_cur = np.asarray(y_cur, dtype=np.float64)
    if not np.all(np.isfinite(y_prev)):
        raise ValidationError("previous sample must be finite")
    if not np.all(np.isfinite(y_cur)):
        return [Event(kind=NON_FINITE_STATE, time=float(t_cur),
                      state=tuple(y_cur), details="non-finite state")]
    t = np.array([t_prev, t_cur])
    ys = np.stack([y_prev, y_cur])
    par = params.packed()
    height = _core.disk2_height(par, ys.T)
    p_m = _core.pm_batch(par, ys.T)
    return _detect_all(params, mag, t, ys, height, p_m)
