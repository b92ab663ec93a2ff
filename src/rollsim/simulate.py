"""Closed-loop integration, scenario definitions, and event detection.

run is the one way to simulate a scenario. Fixed-step classical RK4. The
controller is sampled at each step's start state and held across the step
(zero-order hold); magnetic torque is state dependent physics and is
evaluated at every stage. The recorded PD input, energies, Rayleigh
function, Lyapunov value, disk-2 height and tip separation come from the
same _core functions that the public functions (pd_control,
kinetic_energy, potential_energy, dissipation, lyapunov, disk2_height,
separation) call, applied once to the columns of the recorded states;
generalized_torque maps a recorded input pair to its generalized force.
One function, _samples, computes these for any run of samples as a
Trajectory with no events: run applies it to the whole run, and with a
CSV path the child that output.CsvStream forks applies it to each 256-row
block as soon as the loop has finished the block, passing the Trajectory
of the block before for Vdot's first difference, and writes the block's
text.
Events are detected on the recorded samples after integration, strictly
edge-triggered: a sample already inside a condition at t = 0 fires nothing
until the condition is left and re-entered. A run cut short by a
non-finite state records only its finite samples and ends its event log
with one NonFiniteState event.
"""

from __future__ import annotations

import os
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
from .output import CsvStream

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
    """Controller attachment for a scenario: the gains and their targets."""

    gains: GainMatrices
    setpoints: Setpoints

    def __post_init__(self):
        if not isinstance(self.gains, GainMatrices):
            raise ValidationError(
                f"gains must be a GainMatrices, got {self.gains!r}")
        if not isinstance(self.setpoints, Setpoints):
            raise ValidationError(
                f"setpoints must be a Setpoints, got {self.setpoints!r}")

    def packed(self) -> tuple:
        """_core.run_loop's pd: (Kp, Kd, tgt)."""
        return self.gains.Kp, self.gains.Kd, self.setpoints.packed()


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
        # `rollsim run` writes <name>.csv into its output directory
        if self.name in (".", "..") or {os.sep, os.altsep} & set(self.name):
            raise ValidationError(
                f"name must be a file name, not a path, got {self.name!r}")
        # and it is printed in the summary and the gnuplot script's comment,
        # where a newline would end the line early
        if not self.name.isprintable():
            raise ValidationError(
                f"name must be printable, got {self.name!r}")
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
    """Recorded samples, one row each, plus the event log: a whole run, or
    one CSV block of a run with no events.

    All arrays share the first axis. V and Vdot are NaN for controller-less
    runs; Vdot, the backward difference of V, is NaN at the run's first
    sample.
    u holds the (u1, u2) pairs, zero when no controller is attached, and
    model.generalized_torque maps a row to the generalized force.

    truncated marks a run cut short by a non-finite state; the arrays then
    hold only the valid samples, and the event log ends with a
    NonFiniteState entry.
    """

    scenario_name: str
    t: np.ndarray
    y: np.ndarray
    u: np.ndarray
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


def reserve(scenario: Scenario):
    """The empty (n + 1, 8) state array of scenario's n steps, which run
    allocates before the first step. A caller that must know before its
    first run that the samples of every run fit in memory at once reserves
    them all, and drops a run's reserve just before the run. Raises
    ValidationError when they do not fit."""
    # horizon / dt may also overflow to inf
    if not scenario.horizon / scenario.dt < _MAX_SAMPLES:
        raise _too_many_samples(scenario, f"over {_MAX_SAMPLES}")
    count = sample_count(scenario.horizon, scenario.dt)
    try:
        return np.empty((count, 8))
    except MemoryError as exc:
        raise _too_many_samples(scenario, count) from exc


def _samples(name, par, variant, pd, e_ref, dt, ys, us, first, before):
    """The Trajectory, with no events, of the samples first, first + 1, ...
    whose states are the rows of ys and whose inputs are the rows of us.
    before is the Trajectory of the samples just before first, None at the
    first sample: Vdot takes its last V. Every field is elementwise in the
    samples, so a block's Trajectory equals, to the bit, the same rows of
    the whole run's."""
    cols = ys.T  # the state sequence y, one array per component
    t = np.arange(first, first + ys.shape[0]) * dt
    height = _core.disk2_height(par, cols)
    V = np.full(ys.shape[0], np.nan)
    Vdot = np.full(ys.shape[0], np.nan)
    # a run cut short by overflow keeps its last finite samples, whose
    # energies, squared rates and V may overflow to inf: the honest float
    # answer, kept quiet
    with np.errstate(**_core.QUIET):
        T, U = _core.energies_batch(par, cols, variant)
        P = _core.dissipation(par, cols[4:])
        p_m = _core.pm_batch(par, cols)
        if pd is not None:
            V = _core.lyapunov(*pd, cols, T + U - e_ref)
            Vdot = np.diff(V, prepend=np.nan if before is None
                           else before.V[-1]) / dt
    return Trajectory(scenario_name=name, t=t, y=ys, u=us, T=T, U=U,
                      E=T + U, P=P, V=V, Vdot=Vdot, height=height, p_m=p_m)


def run(scenario: Scenario, params: Optional[RobotParams] = None,
        mag: Optional[MagneticParams] = None, csv=None) -> Trajectory:
    """Integrate a scenario and return the fully populated trajectory.

    mag.enabled alone decides whether the tips couple; mag also holds the
    flux model constants. Omitted params and mag default to RobotParams()
    and MagneticParams(), whose coupling is off. Deterministic: identical
    inputs give bit-identical trajectories. With csv, a path, the
    trajectory's CSV is also written there, as output.write_csv would
    write it: opened once the samples are allocated, before the first step,
    then written by a forked child while the loop runs, or from the
    finished trajectory where no child runs or it does not report every
    block (output.CsvStream).
    Raises ValidationError when params or mag is not None and not of its
    type, or when the samples of the run do not fit in memory, and OSError
    when the CSV cannot be written.
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
    e_ref = None if ctrl is None else reference_energy(
        params, ctrl.setpoints, scenario.potential)
    dt = scenario.dt

    def samples(ys, first, before):
        """The child's Trajectory of a CSV block, inputs included."""
        return _samples(scenario.name, par, variant, pd, e_ref, dt, ys,
                        _core.held_inputs(pd, ys), first, before)

    ys = reserve(scenario)
    ys[0] = scenario.y0
    n = ys.shape[0] - 1
    # a run refused for its size has raised by now, so it leaves no file
    stream = None if csv is None else CsvStream(csv, ys, samples)
    try:
        ys, us, n_done = _core.run_loop(
            par, mag.packed(), ys, dt, pd, variant,
            None if stream is None else stream.send)
        ys = ys[:n_done + 1]
        if stream is not None:
            stream.end()
        traj = _samples(scenario.name, par, variant, pd, e_ref, dt, ys, us,
                        0, None)
        traj.events = _detect_all(params, mag, traj.t, ys, traj.height,
                                  traj.p_m)
        traj.truncated = n_done < n
        if traj.truncated:
            traj.events.append(Event(
                kind=NON_FINITE_STATE, time=float(traj.t[-1]),
                state=tuple(ys[-1]),
                details="integration aborted after this sample"))
        if stream is not None:
            stream.finish(traj)
    finally:
        if stream is not None:
            stream.close()
    return traj


def _detect_all(params, mag, t, ys, height, p_m):
    """Edge-triggered events of the finite samples ys at times t.

    An event fires at sample i when its condition holds at i and not at
    i - 1, so a condition already true at sample 0 fires nothing. The
    coupling events fire only when mag.enabled: uncoupled tips cross P_max
    with no force to engage. The table order is the order of events at
    equal times: the sort is stable.
    """
    dev = upright_deviation(ys[:, 2] + ys[:, 3])
    table = [(TOPPLE, dev > np.pi / 2, "deviation {:.2f} deg", np.degrees(dev)),
             (GROUND_PENETRATION, height < params.R2, "height {:.4f} m",
              height)]
    if mag.enabled:
        table += [(COUPLING_ENGAGED, p_m < mag.P_max, "p_m {:.4f} m", p_m),
                  (COUPLING_LOST, p_m > mag.P_max, "p_m {:.4f} m", p_m)]
    events = []
    for kind, inside, details, value in table:
        for i in np.nonzero(inside[1:] & ~inside[:-1])[0] + 1:
            events.append(Event(kind=kind, time=float(t[i]),
                                state=tuple(ys[i]),
                                details=details.format(value[i])))
    events.sort(key=lambda ev: ev.time)
    return events
