"""rollsim: dynamics of a two-module pendulum-driven rolling robot.

The equations of motion are produced from the energy functions themselves:
tools/gen_eom.py calls _core.kinetic and _core.potential on sympy symbols
and differentiates them into generated closed-form code, so the simulated
dynamics cannot drift from the energies they claim to conserve. A verbatim
transcription of the published coefficient tables lives alongside for
comparison; see dynamics.printed_terms and dynamics.errata_compare.
"""

from .control import (GainMatrices, LyapunovSample, Setpoints, lyapunov,
                      pd_control)
from .config import ConfigError, UnknownPresetError, list_presets, load_scenario
from .dynamics import (ErrataReport, SingularDynamicsError, bias_vector,
                       errata_compare, forward_dynamics, gravity_vector,
                       mass_matrix, printed_terms)
from .energetics import (POTENTIAL_VARIANTS, EnergyBreakdown, breakdown,
                         dissipation, kinetic_energy, potential_energy,
                         total_energy)
from .kinematics import (BodyPositions, BodyVelocities, disk2_height,
                         positions, upright_deviation, velocities, wrap_angle)
from .magnetics import (MagneticParams, flux_density, generalized_magnetic_torque,
                        magnetic_force, magnetic_potential, separation)
from .model import Input, RobotParams, State, ValidationError, generalized_torque
from .simulate import Event, PDSpec, Scenario, Trajectory, run

__version__ = "0.1.0"

__all__ = [
    "RobotParams", "State", "Input", "ValidationError", "generalized_torque",
    "BodyPositions", "BodyVelocities", "positions", "velocities",
    "disk2_height", "wrap_angle", "upright_deviation",
    "EnergyBreakdown", "breakdown", "kinetic_energy", "potential_energy",
    "dissipation", "total_energy", "POTENTIAL_VARIANTS",
    "ErrataReport", "SingularDynamicsError", "mass_matrix", "gravity_vector",
    "bias_vector", "forward_dynamics", "printed_terms", "errata_compare",
    "MagneticParams", "separation", "flux_density", "magnetic_force",
    "generalized_magnetic_torque", "magnetic_potential",
    "GainMatrices", "Setpoints", "LyapunovSample", "pd_control", "lyapunov",
    "Scenario", "Trajectory", "Event", "PDSpec", "run",
    "ConfigError", "UnknownPresetError", "load_scenario", "list_presets",
    "__version__",
]
