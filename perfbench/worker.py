"""One benchmark process: set rollsim up, time `cli.main` calls, check them.

run.py starts this in a fresh interpreter with PYTHONPATH set to the
checkout's src/. With --mode setup it only times the set-up: `import
rollsim`, `load_scenario` and the minimal first call. With --mode measure it
sets up the same way, then invokes the workload until --seconds have passed,
checking every invocation's outputs. With --trace 0 a SpeedProbe times a
reference loop during every invocation (see probe.py). With --trace 1
traced and untraced invocations alternate, starting with a traced one, and
no probe runs. The last stdout line is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS

EVENT_KINDS = ("Topple", "GroundPenetration", "CouplingEngaged",
               "CouplingLost", "NonFiniteState")
CORE_KERNELS = ("deriv", "bias", "mass_matrix", "gravity", "chol_solve4",
                "pd_input", "mag_torque")
# RK4 evaluates the derivative four times per step; the count is computed
# from the steps, not observed, because compiled loops hide the calls
DERIVS_PER_STEP = 4


def invoke(cli, argv):
    """One cli.main call with its output captured: (seconds, error or None)."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        error = None
    except Exception:
        code, error = None, traceback.format_exc(limit=4)
    wall = time.perf_counter() - t0
    if error is None and code != 0:
        error = f"exit code {code}: {sink.getvalue()[-400:]}"
    return wall, error


def set_up(wl, seed, work, src):
    """Time import, scenario load and the minimal first call: (seconds, error)."""
    t0 = time.perf_counter()
    import rollsim
    from rollsim import cli, config
    if wl.preset is not None:
        config.load_scenario(wl.preset)
    _, error = invoke(cli, wl.minimal_argv(seed, work))
    elapsed = time.perf_counter() - t0
    if Path(rollsim.__file__).resolve().parent.parent != src:
        sys.exit(f"rollsim imported from {rollsim.__file__}, not from {src}")
    return elapsed, error


class SummaryTap:
    """Keeps the RunSummary the CLI builds, so the events can be checked."""

    def __init__(self, cli):
        self.last = None
        summarize = getattr(cli, "summarize", None)
        if summarize is None:
            return

        def tap(traj):
            self.last = summarize(traj)
            return self.last

        cli.summarize = tap


def unit_of(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith(".us"):
        return "us"
    if name.endswith("ms"):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def layer_metrics(tracer, wall, obs):
    """Per-layer metrics of one traced invocation."""
    t = tracer.totals

    def ms(label, part="total_s"):
        return getattr(t[label], part) * 1e3

    def per_call(name, label):
        calls = t[label].calls
        m[f"{name}.us"] = t[label].total_s / calls * 1e6 if calls else 0.0
        m[f"{name}.calls"] = calls

    steps = t["core.run_loop"].result
    m = {"core.run_loop.s": t["core.run_loop"].total_s,
         "core.run_loop.steps": steps,
         "core.deriv_evals": DERIVS_PER_STEP * steps}
    for k in CORE_KERNELS:
        per_call(f"core.{k}", f"core.{k}")
    m["core.energies_batch.ms"] = ms("core.energies_batch")
    m["core.pm_batch.ms"] = ms("core.pm_batch")
    m["simulate.run.self_ms"] = ms("simulate.run", "self_s")
    m["simulate._detect_all.ms"] = ms("simulate._detect_all")
    kinds = [k for k, _ in obs.get("events") or ()]
    for kind in EVENT_KINDS:
        m[f"simulate.events.{kind}"] = kinds.count(kind)
    m["output.format_csv.ms"] = ms("output.format_csv")
    m["output.write_outputs.ms"] = ms("output.write_outputs")
    m["output.csv_bytes"] = obs.get("csv_bytes", 0)
    m["output.rows"] = obs.get("rows", 0)
    m["dynamics.errata_compare.self_ms"] = ms("dynamics.errata_compare", "self_s")
    per_call("dynamics.printed_terms", "dynamics.printed_terms")
    per_call("kinematics.velocities", "kinematics.velocities")
    per_call("kinematics.positions", "kinematics.positions")
    m["config.load_scenario.ms"] = ms("config.load_scenario")
    m["cli.summarize.ms"] = ms("cli.summarize")
    m["cli.main.self_ms"] = ms("cli.main", "self_s")
    m["trace.coverage_pct"] = 100.0 * tracer.children_s("cli.main") / wall
    m["trace.traced_wall_s"] = wall
    return m


def environment():
    from rollsim import _core
    import numpy
    import yaml
    try:
        numba = metadata.version("numba")
    except metadata.PackageNotFoundError:
        numba = "absent"
    return {
        "backend": "numba" if _core.HAVE_NUMBA else "pure-python",
        "numba": numba,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


def measure(args, wl, ref, work, src):
    setup_s, error = set_up(wl, args.seed, work, src)
    failures = [f"set-up call: {error}"] if error else []
    attempted, failed = 1, len(failures)

    from rollsim import _core, cli
    import checks
    from probe import SpeedProbe
    from tracer import Tracer

    tap = SummaryTap(cli) if wl.command == "run" else None
    tracer = Tracer(skip_inner=_core.HAVE_NUMBA) if args.trace else None
    argv = wl.argv(args.size, args.seed, work)
    plan = ("traced", "plain") if args.trace else ("plain",)
    walls = {kind: [] for kind in plan}
    throughputs, samples = [], []
    wall_ref, loop_s = [], []
    first_obs = None
    peak_rss_mb = None

    start = time.perf_counter()
    for i in itertools.count():
        kind = plan[i % len(plan)]
        due = walls[kind][-1] if walls[kind] else 0.0
        if i >= len(plan) and time.perf_counter() - start + due > args.seconds:
            break
        traced = kind == "traced"
        if traced:
            tracer.begin(i)
            tracer.install()
        if tap is not None:
            tap.last = None
        probe = contextlib.nullcontext() if args.trace else SpeedProbe()
        try:
            with probe:
                wall, error = invoke(cli, argv)
        finally:
            if traced:
                tracer.uninstall()
        if not args.trace:
            wall_ref.append((wall - probe.inside_s) / probe.loop_s)
            loop_s.append(probe.loop_s)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted += 1
        walls[kind].append(wall)
        if error:
            failed += 1
            failures.append(f"invocation {i} ({kind}): {error}")
            continue
        try:
            if wl.command == "run":
                obs = checks.observe_run(work / f"{wl.preset}.csv", tap.last)
                problems = checks.check_run(ref, obs)
            else:
                obs = checks.observe_errata(work)
                problems = checks.check_errata(ref, obs, args.seed)
        except (OSError, ValueError, KeyError) as exc:
            failed += 1
            failures.append(f"invocation {i} ({kind}): unreadable outputs: {exc!r}")
            continue
        if first_obs is None:
            first_obs = obs
        elif obs != first_obs:
            problems.append("outputs differ from the run's first invocation")
        failed += bool(problems)
        failures.extend(f"invocation {i} ({kind}): {p}" for p in problems)
        if traced:
            samples.append(layer_metrics(tracer, wall, obs))
        else:
            throughputs.append(obs[wl.unit] / wall)

    if args.trace:
        layers, repeat_problems = summarize_layers(samples, walls)
        failed += bool(repeat_problems)
        failures += repeat_problems
    result = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "walls": walls,
              "wall_ref": wall_ref, "loop_s": loop_s,
              "throughputs": throughputs, "attempted": attempted,
              "failed": failed, "failures": failures,
              "environment": environment()}
    if args.trace:
        result["layers"] = layers
        result["absent"], result["hidden"] = tracer.absent, tracer.hidden
        keys = ("request", "id", "name", "start_s", "end_s", "parent")
        Path(args.spans).write_text(json.dumps({
            "spans": [dict(zip(keys, s)) for s in tracer.spans],
            "layers_per_invocation": samples,
        }, indent=1) + "\n")
    return result


def summarize_layers(samples, walls):
    """Median of each time across traced invocations; counts must repeat.

    Returns the layer metrics and the counts that did not repeat.
    """
    layers, problems = {}, []
    for name in samples[0] if samples else ():
        values = [s[name] for s in samples]
        if unit_of(name) in ("count", "bytes"):
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced invocations: {values}")
            layers[name] = values[0]
        else:
            layers[name] = statistics.median(values)
    if walls["traced"] and walls["plain"]:
        untraced = statistics.median(walls["plain"])
        layers["trace.untraced_wall_s"] = untraced
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(walls["traced"]) / untraced - 1.0)
    return layers, problems


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "measure"), required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full")
    p.add_argument("--reference")
    p.add_argument("--work", required=True)
    p.add_argument("--spans")
    args = p.parse_args()
    wl = WORKLOADS[args.workload]
    work = Path(args.work)
    src = Path(__file__).resolve().parent.parent / "src"
    if args.mode == "setup":
        setup_s, error = set_up(wl, args.seed, work, src)
        failures = [error] if error else []
        result = {"setup_s": setup_s, "failed": len(failures), "failures": failures}
    else:
        with open(args.reference) as fh:
            ref = json.load(fh)[args.workload][args.size]
        result = measure(args, wl, ref, work, src)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
