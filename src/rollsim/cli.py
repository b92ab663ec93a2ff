"""Command-line front end: run, errata and validate.

validate checks M and T, and G against a central difference of U for both
potential variants, on 200 states drawn by dynamics.sample_states and
evaluated as columns, one _core call per check; then the power balance of a
1 s run.

main builds its argparse parser once per process and reuses it for every
later in-process call.

Exit codes: 0 success, 2 usage, 3 config or unwritable output, 4 numeric
(truncated run or failed validation check).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import _core
from .config import ConfigError, UnknownPresetError, load_scenario
from .dynamics import errata_compare, sample_states
from .energetics import POTENTIAL_VARIANTS
from .model import RobotParams, ValidationError, positive_number
from .output import write_outputs
from .simulate import Scenario, Trajectory, reserve, run

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

# errata draws its states as (samples, 4) arrays of doubles; numpy refuses
# an array larger than it can index with ValueError, not MemoryError
_MAX_ERRATA_SAMPLES = sys.maxsize // 32


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
    if not positive_number(v):
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return v


@functools.cache
def _build_parser():
    # built once per process: parse_args keeps no state between calls, so
    # each in-process main call parses into a fresh namespace
    parser = argparse.ArgumentParser(
        prog="rollsim",
        description="Simulate the two-module pendulum-driven rolling robot.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one or more scenarios")
    p_run.add_argument("scenarios", nargs="+", metavar="SCENARIO",
                       help="preset name or path to a config file")
    p_run.add_argument("--dt", type=_positive, help="override step size [s]")
    p_run.add_argument("--horizon", type=_positive, help="override horizon [s]")
    p_run.add_argument("--out", help="output CSV path (a directory when it "
                       "exists, ends in a separator or several scenarios run)")
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
    # Path drops a trailing separator, which names a directory
    if several or args.out[-1:] in (os.sep, os.altsep) or out.is_dir():
        return out / f"{scenario_name}.csv"
    return out


def cmd_run(args) -> int:
    loaded = [_apply_overrides(*load_scenario(ref), args)
              for ref in args.scenarios]
    # each scenario writes <name>.csv: a repeated name would overwrite
    names = [scenario.name for scenario, _, _ in loaded]
    repeats = sorted({name for name in names if names.count(name) > 1})
    if repeats:
        print("usage error: more than one scenario is named "
              f"{', '.join(map(repr, repeats))}", file=sys.stderr)
        return EXIT_USAGE

    several = len(loaded) > 1
    outs = [_out_path(args, name, several) for name in names]
    for out in outs:
        # the script is written next to the CSV, and names it in a comment
        # line and in its plot commands; x.GP and x.gp are one file where
        # names ignore case
        if out.suffix.lower() == ".gp" or not out.name.isprintable():
            print(f"usage error: --out {str(out)!r} must be a printable file "
                  "name that does not end in .gp", file=sys.stderr)
            return EXIT_USAGE

    # each run writes its CSV while it runs, so every run's samples must
    # fit before the first: a run refused for its size then writes nothing
    reserves = [reserve(scenario) for scenario, _, _ in loaded]

    status = EXIT_OK
    for i, (scenario, params, mag) in enumerate(loaded):
        reserves[i] = None  # run allocates them again
        out = outs[i]
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            traj = run(scenario, params, mag, out)
            csv_path, script_path = write_outputs(out)
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
    if args.seed < 0:
        print("errata: --seed must be at least 0", file=sys.stderr)
        return EXIT_USAGE
    too_many = (f"errata: --samples {args.samples} needs more than memory "
                "holds")
    if args.samples > _MAX_ERRATA_SAMPLES:
        print(too_many, file=sys.stderr)
        return EXIT_USAGE
    try:
        report = errata_compare(RobotParams(), samples=args.samples,
                                seed=args.seed)
    except MemoryError:
        print(too_many, file=sys.stderr)
        return EXIT_USAGE
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


def _validation_checks(params: RobotParams):
    # 200 sampled states as (4, n) columns: one _core call per check and
    # potential variant
    q, qd = sample_states(200, 2024)
    par = params.packed()
    M = _core.mass_matrix(par, q).transpose(2, 0, 1)  # (n, 4, 4)
    asym = float(np.max(np.abs(M - M.transpose(0, 2, 1))))
    min_eig = float(np.min(np.linalg.eigvalsh(M)[:, 0]))
    t_quad = (0.5 * qd.T[:, None, :] @ M @ qd.T[:, :, None])[:, 0, 0]
    t_ref = _core.kinetic(par, q, qd)
    quad_err = float(np.max(np.abs(t_quad - t_ref)
                            / np.maximum(1.0, np.abs(t_ref))))
    # G against a central difference of U, h = 1e-5: row k of the (4, 4, n)
    # stack moves q_k
    h = 1e-5
    step = h * np.eye(4)[:, :, None]
    grav_err = 0.0
    for variant in (_core.VARIANT_VERBATIM, _core.VARIANT_GEOMETRIC):
        fd = (_core.potential(par, q[:, None] + step, variant)
              - _core.potential(par, q[:, None] - step, variant)) / (2.0 * h)
        G = _core.gravity(par, q, variant)
        err = (np.max(np.abs(G - fd), axis=0)
               / np.maximum(1.0, np.max(np.abs(fd), axis=0)))
        grav_err = max(grav_err, float(np.max(err)))

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
