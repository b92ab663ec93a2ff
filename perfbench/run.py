"""rollsim benchmark: `rollsim.cli.main` timed end to end and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload freefall --seed 1 --seconds 35 --trace 0

rollsim is imported from the checkout's src/ (PYTHONPATH=src), never from an
installed copy. Load is a closed loop with one client: one process makes one
`cli.main` call at a time, with no threads. Every call's outputs are checked
against references.json, frozen from the package's own outputs; an
exception, an unexpected exit code or a failed check counts in `failed`, and
error_rate = failed / attempted.

--trace 0 gives the end-to-end metrics:
  wall_ref     median time of one warm in-process cli.main call, in units
               of a reference loop timed during the call (probe.py), so
               that the host's changing speed cancels out
  setup_s      median over fresh interpreters of import rollsim,
               load_scenario and the minimal first call
  peak_rss_mb  peak RSS of a fresh process after set-up and one full call
and records, without a bound, the same calls' wall_s (median seconds) and
throughput (work units per second: RK4 steps, or errata states).
--trace 1 alternates traced and untraced calls and gives the per-layer
metrics, the tracing overhead among them.

The last stdout line is the result object. The line before it, and
out/<workload>-seed<seed>-trace<trace>.json, hold the full record: quartiles,
sample counts, error_rate, the failures and the environment. Traced runs
also write their spans to out/<workload>-seed<seed>-spans.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import unit_of
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# fresh interpreters that only set up; the measuring process adds one more
SETUP_PROBES = 4
DEADLINE_S = 170.0
TAIL_SAMPLES = 10


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(values):
    """Highest whole percentile with at least TAIL_SAMPLES samples above it."""
    n = len(values)
    if n <= TAIL_SAMPLES:
        return None
    rank = n - TAIL_SAMPLES  # 1-based rank of the value with ten beyond it
    return {"percentile": math.floor(100 * rank / n),
            "value": sorted(values)[rank - 1]}


def timing(values):
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "samples": len(values), "tail": tail(values), "values": values}


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown (not a git checkout)"


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("ROLLSIM_CONFIG_DIR", None)  # bundled presets only
    return env


def run_worker(args, mode, work, deadline, spans=None):
    """Run worker.py to completion and return its result object."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--reference", str(args.reference),
           "--work", str(work)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = max(1.0, deadline - time.monotonic())
    r = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                       text=True, timeout=timeout)
    if r.returncode != 0:
        raise RuntimeError(f"worker --mode {mode} exited {r.returncode}:\n"
                           f"{r.stderr[-2000:]}")
    return json.loads(r.stdout.splitlines()[-1])


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke is a tiny size for the benchmark's own tests")
    p.add_argument("--reference", type=Path, default=HERE / "references.json")
    return p.parse_args()


def main():
    args = parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "rollsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rollsim source tree at {SRC}")
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    stem = OUT / f"{args.workload}-seed{args.seed}"
    try:
        setup_s, failures, attempted, failed = [], [], 0, 0
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = run_worker(args, "setup", work, deadline)
                setup_s.append(probe["setup_s"])
                failures += [f"set-up probe: {f}" for f in probe["failures"]]
                attempted += 1
                failed += probe["failed"]
        spans = Path(f"{stem}-spans.json") if args.trace else None
        res = run_worker(args, "measure", work, deadline, spans)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"perfbench: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_s.append(res["setup_s"])
    failures += res["failures"]
    attempted += res["attempted"]
    failed += res["failed"]
    env = dict(res["environment"], git_commit=git_commit())
    if env["backend"] != "numba":
        print("perfbench: numba absent, timing the pure-Python kernels",
              file=sys.stderr)
    wl = WORKLOADS[args.workload]
    walls = res["walls"]["plain"]
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "load": "closed loop, one client, one cli.main call at a time, no threads",
        "environment": env,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures,
        "wall_s": timing(walls),
        "throughput": {"unit": f"{wl.unit}/s",
                       "median": statistics.median(res["throughputs"] or [0.0])},
        "setup_s": timing(setup_s),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    if args.trace:
        record.update(layers=res["layers"], absent=res["absent"],
                      hidden=res["hidden"],
                      tracing_overhead_pct=res["layers"].get("trace.overhead_pct"))
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in res["layers"].items()}
    else:
        record.update(wall_ref=timing(res["wall_ref"]),
                      reference_loop_s=timing(res["loop_s"]))
        metrics = {
            "wall_ref": {"value": record["wall_ref"]["median"], "unit": "ref"},
            "setup_s": {"value": record["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    Path(f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
