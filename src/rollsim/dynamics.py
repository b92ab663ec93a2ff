"""Equations of motion in the form M(q) qddot + bias(q, qdot) + G(q) = tau.

All terms come from the energy functions, not from transcribed closed-form
coefficients: tools/gen_eom.py differentiates T and U symbolically into
rollsim._eom, giving M = d2T/dqdot2, the bias vector (Coriolis/centrifugal
plus viscous friction) Mdot*qdot - dT/dq + delta*qdot, and G = dU/dq. The
closed-form coefficient tables from the original derivation write-up are
preserved verbatim in printed_terms, typos included, purely as a diagnostic
reference; errata_compare classifies each printed entry against the
energy-derived terms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _core, _eom
from .energetics import variant_code
from .kinematics import positions, velocities
from .magnetics import MagneticParams
from .model import RobotParams, State, ValidationError, finite_numbers


class SingularDynamicsError(RuntimeError):
    """No finite qddot: a non-finite state or result, or a mass matrix that
    failed the positive-definite solve."""


def mass_matrix(params: RobotParams, q) -> np.ndarray:
    return _core.mass_matrix(params.packed(), q)


def gravity_vector(params: RobotParams, q,
                   variant: str = "paper-verbatim") -> np.ndarray:
    return _core.gravity(params.packed(), q, variant_code(variant))


def bias_vector(params: RobotParams, state: State) -> np.ndarray:
    return _core.bias(params.packed(), state.q, state.qdot)


def forward_dynamics(params: RobotParams, state: State, tau_gen,
                     variant: str = "paper-verbatim") -> np.ndarray:
    """Solve for qddot given the full generalized force tau_gen.

    tau_gen must already contain every external generalized force (motor
    mapping, magnetic torque if any); this function adds nothing to it.
    Raises SingularDynamicsError for a non-finite state, with the
    mass-matrix spectrum if the solve fails, and for a non-finite qddot;
    ValidationError when tau_gen is not 4 finite numbers.
    One state on Python floats: _core.deriv with magnetics off, the separate
    _eom terms and _eom.solve_spd4, not the run loop's _eom.loop_for, so the
    RK4 oracle of tests/test_simulate.py stays independent of the run
    loop's kernel.
    """
    par = params.packed()
    q = [float(v) for v in state.q]
    qd = [float(v) for v in state.qdot]
    if not all(map(math.isfinite, q + qd)):
        raise SingularDynamicsError(f"non-finite state q={q}, qdot={qd}")
    if not finite_numbers(tau_gen, 4):
        raise ValidationError(
            f"tau_gen must be 4 finite numbers, got {tau_gen!r}")
    dy, ok = _core.deriv(par, MagneticParams().packed(), q + qd,
                         tuple(map(float, tau_gen)), variant_code(variant))
    if ok:
        return np.array(dy[4:])
    if _eom.solve_spd4(_eom.mass_matrix(par, q), (0.0,) * 4) is not None:
        raise SingularDynamicsError(f"qddot not finite at q={q}, qdot={qd}")
    M = _core.mass_matrix(par, q)
    eigs = np.linalg.eigvalsh(M) if np.all(np.isfinite(M)) else None
    raise SingularDynamicsError(
        f"mass matrix not positive definite at q={q}; "
        f"eigenvalues={None if eigs is None else eigs.tolist()}")


# --- transcribed closed-form coefficient tables -----------------------------
#
# Verbatim transcription, typos preserved: a_13 lacks its m_p factor, the
# x_1 velocity term carries a spurious (m_p - 1), y rows flip signs and swap
# sin/cos, x_4 repeats delta_phi1*phidot1 where the phi2 row should have
# delta_phi2*phidot2. Where the source's bracketing is broken (x_2), the
# grouping choice is documented in errata_compare's entry notes. Diagnostic
# reference only; never used for integration. State entries may be floats or
# equal-length columns. A squared rate is np.square, a product: numpy's ** 2
# is libm's pow on a scalar but a product on an array, and the two differ in
# the last bit for about one input in a thousand, so a column would not
# repeat the scalar call.

def printed_terms(params: RobotParams, state: State):
    """Return (a, x, y): transcribed mass matrix, velocity and gravity rows.

    Shapes are (4, 4) + s and (4,) + s for state entries of shape s.
    """
    mp_, ms_ = params.m_p, params.m_s
    Ip, Is = params.I_p, params.I_s
    r1, r2, R1, R2 = params.r1, params.r2, params.R1, params.R2
    g = params.g
    d = params.delta
    L = R1 + R2
    t1, t2, f1, f2 = state.q
    dt1, dt2, df1, df2 = state.qdot

    c31 = np.cos(f1 + t1)
    s31 = np.sin(f1 + t1)
    c34 = np.cos(f1 + f2)
    s34 = np.sin(f1 + f2)
    c42 = np.cos(f2 + t2)
    s42 = np.sin(f2 + t2)
    # cd32 and sd32 take f1 - t2, the difference
    c32 = np.cos(f1 + t2)
    cd32 = np.cos(f1 - t2)
    sd32 = np.sin(f1 - t2)

    shape = np.broadcast(*state.q, *state.qdot).shape
    a = np.zeros((4, 4) + shape)
    a[0, 0] = mp_ * r1 ** 2 + Ip
    a[0, 2] = r1 ** 2 + R1 * r1 * c31
    a[1, 1] = mp_ * r2 ** 2 + Ip
    a[1, 2] = mp_ * (r2 + c32 + L * r2 * c34 * c32)
    a[1, 3] = mp_ * L * r2 * c34 * c32
    a[2, 0] = mp_ * (R1 * r1 * c31 - R1 * L * c34) + ms_ * (R1 * L * c34)
    a[2, 1] = mp_ * L * r2 * (c42 - s34) - ms_ * R1 * L * s34
    a[2, 2] = ms_ * R1 ** 2 + Is + mp_ * (2 * R1 ** 2 + L ** 2 + R1 * L * c34)
    a[2, 3] = (mp_ * (L * r2 * c34 - L * cd32)
               + ms_ * (L ** 2 + R1 * L) * c34)
    a[3, 1] = mp_ * r2 ** 2 + mp_ * L * r2 * c34 * cd32
    a[3, 2] = ((mp_ + ms_) * L ** 2 + mp_ * R1 * L * c34
               + mp_ * L * r2 * c34 * cd32)
    a[3, 3] = ((mp_ + ms_) * L ** 2 + mp_ * r2 ** 2 + Is
               + mp_ * L * r2 * c34 * cd32)

    x = np.zeros((4,) + shape)
    x[0] = R1 * r1 * s31 * ((mp_ - 1.0) * df1 * (df1 + dt1)) + d[0] * dt1
    x[1] = (-mp_ * (df1 * np.sin(f1 + t2) * (df1 + dt2)
                    + L * r2 * np.square(df1 + df2) * np.sin(2 * f1 + f2 + t2))
            + d[1] * dt2
            - mp_ * (df1 * R1 * r1 * (df2 + dt2) * s42
                     + (df1 + df2) * (df2 + dt2) * L * sd32))
    x[2] = (-R1 * r1 * s31 * np.square(df1 + dt1)
            + mp_ * R1 * r1 * s31 * (np.square(df1) + df1 * dt1)
            - mp_ * (df1 + df2) * L * r2 * (df2 + dt2) * np.sin(2 * f1 + f2 - t2)
            - L * r2 * (np.square(df1 + df2) * (df2 + dt2) * sd32 * c34)
            + ms_ * R1 * L * s34 * (np.square(df1) + df1 * df2)
            + d[2] * df1)
    x[3] = (-(mp_ + ms_) * R1 * L * s34 * (np.square(df1) + df1 * df2)
            - mp_ * L * r2 * s34 * (df1 + df2) * (df1 + 2 * df2 + dt2)
            - mp_ * R1 * r2 * s42 * (df1 + df2) * df1
            + mp_ * R1 * L * df1 * (df1 + df2) * s34
            + mp_ * R1 * r2 * df1 * (df2 + dt2) * s42
            - mp_ * L * r2 * (df2 + dt2) * (df1 + df2) * cd32 * s34
            + d[2] * df1)

    y = np.zeros((4,) + shape)
    y[0] = -mp_ * g * (r1 * s31 + L * np.cos(t1))
    y[1] = -mp_ * g * r2 * c42
    y[2] = mp_ * r1 * g * s31 - L * g * (-mp_ * c34 + ms_ * s34)
    y[3] = (-mp_ * g * r2 * s42 + (ms_ - mp_) * g * L * s34
            - mp_ * g * L * c34)
    return a, x, y


# --- errata comparison -------------------------------------------------------

MATCH_REL_TOL = 1e-6


@dataclass(frozen=True)
class ErrataEntry:
    name: str
    group: str
    classification: str  # MATCH | MISMATCH
    max_abs_dev: float
    mean_abs_dev: float
    scale: float
    note: str = ""


@dataclass(frozen=True)
class ErrataReport:
    samples: int
    seed: int
    entries: tuple
    notes: tuple

    @property
    def mismatches(self):
        return tuple(e for e in self.entries if e.classification == "MISMATCH")

    def entry(self, name: str) -> ErrataEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_text(self) -> str:
        lines = [
            "errata report: transcribed closed-form tables vs energy-derived dynamics",
            f"samples={self.samples} seed={self.seed} "
            f"match_rel_tol={MATCH_REL_TOL:g}",
            "",
            f"{'entry':<12} {'group':<10} {'class':<9} "
            f"{'max_abs_dev':>12} {'mean_abs_dev':>13} {'scale':>10}  note",
        ]
        for e in self.entries:
            lines.append(
                f"{e.name:<12} {e.group:<10} {e.classification:<9} "
                f"{e.max_abs_dev:>12.4e} {e.mean_abs_dev:>13.4e} "
                f"{e.scale:>10.3e}  {e.note}")
        lines.append("")
        for n in self.notes:
            lines.append(f"note: {n}")
        lines.append(f"{len(self.mismatches)} of {len(self.entries)} entries mismatch")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "samples": self.samples,
            "seed": self.seed,
            "match_rel_tol": MATCH_REL_TOL,
            # each entry's fields in order, without asdict's deep copy
            "entries": [vars(e) for e in self.entries],
            "notes": list(self.notes),
            "mismatch_count": len(self.mismatches),
        }, indent=2) + "\n"


def _printed_expansion(params, state):
    """The transcribed expansion rows (|V_p2|^2, |V_s2|^2, r_p2's y), each
    sine and cosine taken once. |V_p2|^2's final cross term carries an extra
    cos(phi1+phi2) factor relative to the expansion of the velocity vector.
    |V_s2|^2's bracketing in the source is broken; grouping adopted:
    [R1^2 + L^2 + 2 R1 L cos] dphi1^2 + [L^2 + r2^2] dphi2^2
    + 2 L r2 cos(phi2+theta2) dphi1 dphi2. r_p2's y is as printed: sin where
    the vector composition forces cos."""
    r2, R1 = params.r2, params.R1
    L = params.R1 + params.R2
    t2, f1, f2 = state.q[1], state.q[2], state.q[3]
    dt2, df1, df2 = state.qdot[1], state.qdot[2], state.qdot[3]
    c34, s34 = np.cos(f1 + f2), np.sin(f1 + f2)
    c42, cd32 = np.cos(f2 + t2), np.cos(f1 - t2)
    vp2 = (np.square(df1) * R1 ** 2 + np.square(df1 + df2) * L ** 2
           + r2 ** 2 * np.square(df2 + dt2)
           + 2 * df1 * R1 * (df1 + df2) * L * c34
           + 2 * df1 * R1 * r2 * (df2 + dt2) * c42
           + 2 * (df1 + df2) * L * r2 * (df2 + dt2) * c34 * cd32)
    vs2 = ((R1 ** 2 + L ** 2 + 2 * R1 * L * c34) * np.square(df1)
           + (L ** 2 + r2 ** 2) * np.square(df2)
           + 2 * L * r2 * c42 * df1 * df2)
    return vp2, vs2, -L * s34 - r2 * c42


def _norm2(v):
    return np.square(v[0]) + np.square(v[1])


def sample_states(samples: int, seed: int):
    """(q, qd), each (4, samples): the angles of samples states drawn
    uniform in [-2pi, 2pi], then their rates uniform in [-3, 3] rad/s, from
    numpy's default_rng(seed). errata_compare and the CLI's validate draw
    the states they check here."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(-2 * np.pi, 2 * np.pi, size=(samples, 4)).T
    qd = rng.uniform(-3.0, 3.0, size=(samples, 4)).T
    return q, qd


def errata_compare(params: RobotParams, samples: int = 1000,
                   seed: int = 42) -> ErrataReport:
    """Classify every transcribed term against the energy-derived dynamics.

    Deterministic for a fixed seed: the states are sample_states(samples,
    seed), drawn once. An entry is MATCH when its worst absolute deviation
    stays below MATCH_REL_TOL relative to the larger of 1 and the entry's
    magnitude scale.

    The sampled states are evaluated as columns: one call each to
    printed_terms, the mass matrix, the bias, the gravity vector of each
    potential variant, velocities and positions. Each column equals the
    call on its state alone, so the report does not depend on the batching.
    The 28 entries reduce in four row blocks, one abs-difference, max, mean
    and scale per block along the sample axis; each row's figures equal
    the per-entry reductions to the bit.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    q, qd = sample_states(samples, seed)
    par = params.packed()

    st = State(q=tuple(q), qdot=tuple(qd))
    a, x, y = printed_terms(params, st)
    M = _core.mass_matrix(par, q)
    b = _core.bias(par, q, qd)
    G = _core.gravity(par, q, _core.VARIANT_VERBATIM)
    gg = _core.gravity(par, q, _core.VARIANT_GEOMETRIC)
    v = velocities(params, st)

    # the entries' labels in the report's order, then their (printed,
    # derived) rows as four blocks in that order: a against M as (16, n)
    # views, x against b, y against G and the four expansion rows stacked
    labels = [(f"a_{i + 1}{j + 1}", "mass")
              for i in range(4) for j in range(4)]
    labels += [(f"x_{i + 1}", "velocity") for i in range(4)]
    labels += [(f"y_{i + 1}", "gravity") for i in range(4)]
    labels += [("Vp2_norm2", "expansion"), ("Vs2_norm2", "expansion"),
               ("rp2_y", "position"), ("U2_sin_term", "potential")]
    expansion = (np.stack([*_printed_expansion(params, st),
                           np.max(np.abs(G - gg), axis=0)]),
                 np.stack([_norm2(v.v_p2), _norm2(v.v_s2),
                           positions(params, st).r_p2[1], np.zeros(samples)]))
    blocks = [(a.reshape(16, samples), M.reshape(16, samples)), (x, b),
              (y, G), expansion]
    notes_of = {
        "a_13": "transcription lacks the m_p factor of the derived entry",
        "x_1": "carries a spurious (m_p - 1) factor; derived row is "
               "delta_theta1*thetadot1 exactly",
        "x_2": "source bracketing broken; grouping documented in the module",
        "x_4": "ends with delta_phi1*phidot1 where the phi2 row is expected "
               "to carry delta_phi2*phidot2",
        "y_2": "cos where the derived term has sin, sign flipped",
        "rp2_y": "sin(phi1+phi2) where vector composition forces cos",
        "U2_sin_term": "gradient gap between the verbatim potential and the "
                       "geometry-consistent one",
        "Vs2_norm2": "source bracketing broken; grouping documented in the "
                     "module",
        "Vp2_norm2": "final cross term carries an extra cos(phi1+phi2) "
                     "factor",
    }

    # each row's max, mean and scale reduce along axis 1: a contiguous row
    # sums pairwise, as np.mean of that row alone does
    stats = []
    for printed, derived in blocks:
        devs = np.abs(printed - derived)
        scale = np.maximum(np.max(np.abs(printed), axis=1),
                           np.max(np.abs(derived), axis=1))
        stats += zip(np.max(devs, axis=1).tolist(),
                     np.mean(devs, axis=1).tolist(), scale.tolist())
    entries = []
    for (name, group), (max_dev, mean_dev, scale) in zip(labels, stats):
        classification = ("MATCH"
                          if max_dev <= MATCH_REL_TOL * max(1.0, scale)
                          else "MISMATCH")
        entries.append(ErrataEntry(
            name=name, group=group, classification=classification,
            max_abs_dev=max_dev, mean_abs_dev=mean_dev, scale=scale,
            note=notes_of.get(name, "")))
    notes = (
        "Lyapunov monitor keeps the derivative-gain quadratic without the "
        "1/2 factor, matching the transcribed composite function.",
        "the verbatim potential's sin(phi1+phi2) term is what the "
        "reproduction scenarios integrate; the geometry-consistent variant "
        "is selectable per run.",
    )
    return ErrataReport(samples=samples, seed=seed, entries=tuple(entries),
                        notes=notes)
