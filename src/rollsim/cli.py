"""Command-line front end: run, errata and validate.

validate checks M and T, G against a central difference of U for both
potential variants, and the power balance of a 1 s run.

Exit codes: 0 success, 2 usage, 3 config or unwritable output, 4 numeric
(truncated run or failed validation check).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ConfigError, UnknownPresetError, list_presets, load_scenario
from .dynamics import errata_compare, gravity_vector, mass_matrix
from .energetics import POTENTIAL_VARIANTS, kinetic_energy, potential_energy
from .model import RobotParams, State, ValidationError
from .output import write_outputs
from .simulate import NON_FINITE_STATE, Scenario, Trajectory, run

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4


@dataclass(frozen=True)
class RunSummary:
    scenario_name: str
    final_state: tuple
    events: tuple  # (kind, time) pairs
    height_min: float
    height_max: float
    energy_start: float
    energy_end: float
    v_range: Optional[tuple]
    max_abs_u: tuple
    samples: int
    exit_status: int


def summarize(traj: Trajectory) -> RunSummary:
    v_range = None
    if np.any(np.isfinite(traj.V)):
        v_range = (float(np.nanmin(traj.V)), float(np.nanmax(traj.V)))
    return RunSummary(
        scenario_name=traj.scenario_name,
        final_state=tuple(traj.y[-1]),
        events=tuple((e.kind, e.time) for e in traj.events),
        height_min=float(np.min(traj.height)),
        height_max=float(np.max(traj.height)),
        energy_start=float(traj.E[0]),
        energy_end=float(traj.E[-1]),
        v_range=v_range,
        max_abs_u=(float(np.max(np.abs(traj.u[:, 0]))),
                   float(np.max(np.abs(traj.u[:, 1])))),
        samples=traj.t.shape[0],
        exit_status=EXIT_NUMERIC if traj.truncated else EXIT_OK)


def _print_summary(s: RunSummary, csv_path, script_path):
    print(f"scenario {s.scenario_name}: {s.samples} samples")
    state = ", ".join("%.6g" % v for v in s.final_state)
    print(f"  final state: [{state}]")
    if s.events:
        shown = s.events[:8]
        ev = "; ".join(f"{kind} @ {t:.4g} s" for kind, t in shown)
        if len(s.events) > len(shown):
            ev += f"; ... {len(s.events) - len(shown)} more"
        print(f"  events ({len(s.events)}): {ev}")
    else:
        print("  events: none")
    print(f"  disk2 height: min={s.height_min:.6g} max={s.height_max:.6g} m")
    print(f"  energy: start={s.energy_start:.6g} end={s.energy_end:.6g} J")
    if s.v_range is not None:
        print(f"  V: min={s.v_range[0]:.6g} max={s.v_range[1]:.6g}")
    print(f"  max |u|: ({s.max_abs_u[0]:.6g}, {s.max_abs_u[1]:.6g}) N m")
    print(f"  wrote {csv_path} and {script_path}")
    print(f"  exit status {s.exit_status}")


def _positive(text):
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (np.isfinite(v) and v > 0):
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return v


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rollsim",
        description="Simulate the two-module pendulum-driven rolling robot.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one or more scenarios")
    p_run.add_argument("scenarios", nargs="+", metavar="SCENARIO",
                       help="preset name or path to a config file")
    p_run.add_argument("--dt", type=_positive, help="override step size [s]")
    p_run.add_argument("--horizon", type=_positive, help="override horizon [s]")
    p_run.add_argument("--out", help="output CSV path (directory when "
                       "running several scenarios)")
    p_run.add_argument("--magnetics", choices=("on", "off"),
                       help="override magnetics.enabled, the tip coupling")
    p_run.add_argument("--potential", choices=POTENTIAL_VARIANTS,
                       help="override the potential-energy variant")

    p_err = sub.add_parser("errata", help="compare printed dynamics tables "
                           "against the energy-derived ones")
    p_err.add_argument("--samples", type=int, default=1000)
    p_err.add_argument("--seed", type=int, default=42)
    p_err.add_argument("--out", default=".", help="output directory")

    p_val = sub.add_parser("validate", help="run the fast invariant suite")
    p_val.add_argument("config", nargs="?", default=None,
                       help="optional config whose params to validate")
    return parser


def _apply_overrides(scenario, params, mag, args):
    """load_scenario's (scenario, params, mag) with the run options applied."""
    changes = {key: getattr(args, key) for key in ("dt", "horizon", "potential")
               if getattr(args, key) is not None}
    if changes:
        scenario = replace(scenario, **changes)
    if args.magnetics is not None:
        mag = replace(mag, enabled=args.magnetics == "on")
    return scenario, params, mag


def _out_path(args, scenario_name: str, several: bool) -> Path:
    if args.out is None:
        return Path(f"{scenario_name}.csv")
    out = Path(args.out)
    if several or out.is_dir():
        return out / f"{scenario_name}.csv"
    return out


def cmd_run(args) -> int:
    loaded = [_apply_overrides(*load_scenario(ref), args)
              for ref in args.scenarios]

    trajectories = [run(*a) for a in loaded]

    status = EXIT_OK
    several = len(loaded) > 1
    for traj in trajectories:
        out = _out_path(args, traj.scenario_name, several)
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            csv_path, script_path = write_outputs(traj, out)
        except OSError as exc:
            print(f"cannot write {out}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        summary = summarize(traj)
        _print_summary(summary, csv_path, script_path)
        status = max(status, summary.exit_status)
    return status


def cmd_errata(args) -> int:
    if args.samples < 1:
        print("errata: --samples must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    report = errata_compare(RobotParams(), samples=args.samples,
                            seed=args.seed)
    out = Path(args.out)
    text = report.to_text()
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "errata.txt").write_text(text, newline="\n")
        (out / "errata.json").write_text(report.to_json(), newline="\n")
    except OSError as exc:
        print(f"cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(text, end="")
    print(f"wrote {out / 'errata.txt'} and {out / 'errata.json'}")
    return EXIT_OK


def _gravity_fd_error(params: RobotParams, q, variant: str) -> float:
    """Relative error of G against a central difference of U, h = 1e-5."""
    h = 1e-5
    fd = np.empty(4)
    for k in range(4):
        dq = np.zeros(4)
        dq[k] = h
        fd[k] = (potential_energy(params, State(q=tuple(q + dq)), variant)
                 - potential_energy(params, State(q=tuple(q - dq)), variant)
                 ) / (2.0 * h)
    G = gravity_vector(params, q, variant)
    return float(np.max(np.abs(G - fd))) / max(1.0, float(np.max(np.abs(fd))))


def _validation_checks(params: RobotParams):
    rng = np.random.default_rng(2024)
    n = 200
    qs = rng.uniform(-2 * np.pi, 2 * np.pi, size=(n, 4))
    qds = rng.uniform(-3.0, 3.0, size=(n, 4))

    asym = 0.0
    min_eig = np.inf
    quad_err = 0.0
    grav_err = 0.0
    for q, qd in zip(qs, qds):
        state = State(q=tuple(q), qdot=tuple(qd))
        M = mass_matrix(params, q)
        asym = max(asym, float(np.max(np.abs(M - M.T))))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(M)[0]))
        t_quad = 0.5 * qd @ M @ qd
        t_ref = kinetic_energy(params, state)
        quad_err = max(quad_err, abs(t_quad - t_ref) / max(1.0, abs(t_ref)))
        grav_err = max(grav_err, *(_gravity_fd_error(params, q, v)
                                   for v in POTENTIAL_VARIANTS))

    yield ("mass matrix symmetric", asym < 1e-12, f"max asymmetry {asym:.3e}")
    yield ("mass matrix positive definite", min_eig > 0.0,
           f"min eigenvalue {min_eig:.6g}")
    yield ("kinetic energy quadratic form", quad_err < 1e-12,
           f"max rel err {quad_err:.3e}")
    yield ("gravity vs difference of potential", grav_err < 1e-8,
           f"max rel err {grav_err:.3e}")

    conservative = all(d == 0.0 for d in params.delta)
    scenario = Scenario(name="validate", y0=(0.0, np.radians(30.0),
                                             np.radians(185.0), 0.0,
                                             0.0, 0.0, 0.0, 0.0),
                        horizon=1.0, dt=1e-3)
    traj = run(scenario, params)
    if conservative:
        drift = float(np.max(np.abs(traj.E - traj.E[0])))
        yield ("energy drift (conservative mode)", drift < 1e-8,
               f"max |E - E0| {drift:.3e} J")
    else:
        loss = 2.0 * traj.P
        resid = np.abs(np.diff(traj.E) + 0.5 * (loss[1:] + loss[:-1]) * scenario.dt)
        worst = float(np.max(resid))
        yield ("power balance", worst < 5e-7,
               f"max residual {worst:.3e} J/step")


def cmd_validate(args) -> int:
    if args.config is not None:
        _, params, _ = load_scenario(args.config)
    else:
        params = RobotParams()
    failed = 0
    for name, ok, detail in _validation_checks(params):
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed} check(s) failed")
        return EXIT_NUMERIC
    print("all checks passed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "errata":
            return cmd_errata(args)
        return cmd_validate(args)
    except UnknownPresetError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
