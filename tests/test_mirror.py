"""Mirror symmetry of the whole run path, to the bit.

Reflecting the plane, x -> -x, maps the robot onto itself with every angle
negated. T and the geometry-consistent U are even under q -> -q, so the
dynamics are odd; so are the PD law with its targets negated and the tip
force law. The disk-2 height, p_m, T, U, P and V are even. IEEE arithmetic
keeps each of these identities exactly, so a run from -y0 with negated
targets is the negation of the run from y0, sample by sample, with no
tolerance. The oracle follows from the geometry, not from the generated
code. It catches a slip that changes a parity: sin for cos in an energy
term, and so in every generated term derived from it (the paper-verbatim
potential has that defect, so the check runs under geometry-consistent),
or a signed test in an event predicate where the geometry needs |.|. A
flipped sign inside a term keeps its parity, and the PD law is linear in
the state and targets, so such slips are left to the other tests.
"""

from dataclasses import replace

import pytest

from rollsim.config import load_scenario
from rollsim.control import Setpoints
from rollsim.simulate import run

# freefall and lifting cut short for the suite's budget; balancing stops
# on its own well before its horizon
HORIZON = {"freefall": 2.0, "lifting": 1.0, "balancing": None}
EVEN = ("T", "U", "E", "P", "V", "Vdot", "height", "p_m")


def mirrored(scenario):
    """scenario from -y0, with its controller's targets negated."""
    ctrl = scenario.controller
    if ctrl is not None:
        sp = ctrl.setpoints
        ctrl = replace(ctrl, setpoints=Setpoints(
            theta_d=tuple(-v for v in sp.theta_d),
            phi_d=tuple(-v for v in sp.phi_d)))
    return replace(scenario, y0=tuple(-v for v in scenario.y0),
                   controller=ctrl)


@pytest.mark.parametrize("coupled", [False, True], ids=["uncoupled",
                                                        "coupled"])
@pytest.mark.parametrize("preset", sorted(HORIZON))
def test_a_mirrored_run_is_the_negated_run(preset, coupled):
    sc, p, m = load_scenario(preset)
    sc = replace(sc, potential="geometry-consistent")
    if HORIZON[preset] is not None:
        sc = replace(sc, horizon=HORIZON[preset])
    m = replace(m, enabled=coupled)
    traj = run(sc, p, m)
    mirror = run(mirrored(sc), p, m)

    assert (mirror.y == -traj.y).all()
    assert (mirror.u == -traj.u).all()
    for name in EVEN:
        a, b = getattr(traj, name), getattr(mirror, name)
        assert a.tobytes() == b.tobytes(), name
    assert ([(e.kind, e.time) for e in mirror.events]
            == [(e.kind, e.time) for e in traj.events])
    assert mirror.truncated == traj.truncated
    assert mirror.t.tobytes() == traj.t.tobytes()
