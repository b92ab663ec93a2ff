import numpy as np
import pytest

from rollsim.energetics import (POTENTIAL_VARIANTS, breakdown, dissipation,
                                kinetic_energy, potential_energy, total_energy)
from rollsim.model import RobotParams, State

P = RobotParams()


def test_kinetic_reference_value():
    s = State(q=(0.0, 0.0, 0.0, 0.0), qdot=(1.0, 0.0, 0.0, 0.0))
    # (m_p r1^2 + I_p)/2 with the defaults
    assert kinetic_energy(P, s) == pytest.approx(0.0504716, abs=1e-12)


def test_kinetic_zero_at_rest():
    assert kinetic_energy(P, State(q=(0.3, -0.2, 1.0, 2.0))) == 0.0


def test_potential_reference_value():
    s = State(q=(0.0, 0.0, 0.0, 0.0))
    assert potential_energy(P, s) == pytest.approx(-1.2011364, abs=1e-12)


def test_potential_variants_differ():
    s = State(q=(0.2, 0.3, 0.4, 0.5))
    u_v = potential_energy(P, s, "paper-verbatim")
    u_g = potential_energy(P, s, "geometry-consistent")
    assert u_v != u_g
    # the two agree where sin and cos of phi1+phi2 coincide
    q45 = (0.0, 0.0, np.pi / 8, np.pi / 8)
    assert potential_energy(P, State(q=q45), "paper-verbatim") == pytest.approx(
        potential_energy(P, State(q=q45), "geometry-consistent"), abs=1e-12)


def test_unknown_variant_rejected():
    with pytest.raises(Exception):
        potential_energy(P, State(q=(0.0,) * 4), "nope")
    assert POTENTIAL_VARIANTS == ("paper-verbatim", "geometry-consistent")


def test_dissipation_rayleigh():
    s = State(q=(0.0,) * 4, qdot=(1.0, 2.0, 3.0, 4.0))
    expected = 0.5 * (0.02 * 1 + 0.02 * 4 + 0.07 * 9 + 0.06 * 16)
    assert dissipation(P, s) == pytest.approx(expected, abs=1e-15)
    assert dissipation(P, State(q=(0.0,) * 4)) == 0.0


def test_breakdown_sums_to_totals():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = State(q=tuple(rng.uniform(-6, 6, 4)), qdot=tuple(rng.uniform(-3, 3, 4)))
        b = breakdown(P, s)
        assert b.T == pytest.approx(kinetic_energy(P, s), rel=1e-12)
        assert b.U == pytest.approx(potential_energy(P, s), rel=1e-12)
        assert sum(b.T_parts) == b.T
        assert sum(b.U_parts) == b.U
        assert total_energy(P, s) == pytest.approx(b.E, rel=1e-12)
