"""Correctness checks of one invocation's outputs against frozen references.

`observe_*` reads what an invocation wrote; `check_*` compares that against
a reference entry and returns the list of problems, empty for a pass.
freeze.py builds the reference entries from the same observations, and
every observation must repeat exactly between invocations of one run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# sample times are k * dt; anything above rounding in k * dt is a real shift
EVENT_TIME_TOL = 1e-9


def observe_run(csv_path: Path, summary) -> dict:
    """What a `rollsim run` wrote: its CSV and the RunSummary it printed from."""
    data = csv_path.read_bytes()
    header, _, body = data.decode("ascii").partition("\n")
    columns = header.split(",")
    table = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    col = dict(zip(columns, table.T))
    rows = table.shape[0]
    return {
        "digest": hashlib.sha256(data).hexdigest(),
        "csv_bytes": len(data),
        "columns": columns,
        "rows": rows,
        "steps": rows - 1,
        "final_state": table[-1, 1:9].tolist(),
        "energy_rise": float(np.max(np.diff(col["E"]))) if rows > 1 else 0.0,
        "lift_margin": float(np.max(col["disk2_height"]) - col["disk2_height"][0]),
        "events": (None if summary is None
                   else [(kind, float(t)) for kind, t in summary.events]),
    }


def check_run(ref: dict, obs: dict) -> list:
    problems = []
    if obs["columns"] != ref["columns"]:
        problems.append(f"CSV columns {obs['columns']} differ from the reference")
    if obs["rows"] != ref["rows"]:
        problems.append(f"{obs['rows']} CSV rows, reference {ref['rows']}")
    dev = float(np.max(np.abs(np.subtract(obs["final_state"], ref["final_state"]))))
    if not dev <= ref["final_tol"]:
        problems.append(f"final state off the reference by {dev:.3e} "
                        f"(tolerance {ref['final_tol']:g})")
    if ref.get("max_energy_rise") is not None:
        if obs["energy_rise"] > ref["max_energy_rise"]:
            problems.append(f"energy rose {obs['energy_rise']:.3e} J in one step")
    if ref.get("lift_margin") is not None:
        want = ref["lift_margin"]
        if abs(obs["lift_margin"] - want) > ref["lift_margin_rel_tol"] * want:
            problems.append(f"lift margin {obs['lift_margin']:.6f} m, "
                            f"reference {want:.6f} m")
    events, want = obs["events"], ref["events"]
    if events is None:
        problems.append("no RunSummary captured; events unchecked")
    elif not (len(events) == len(want)
              and all(k == wk and abs(t - wt) <= EVENT_TIME_TOL
                      for (k, t), (wk, wt) in zip(events, want))):
        problems.append(f"events {events[:4]}... ({len(events)}) differ "
                        f"from the reference ({len(want)})")
    return problems


def observe_errata(out_dir: Path) -> dict:
    """What an `errata` invocation wrote to errata.json."""
    data = (out_dir / "errata.json").read_bytes()
    doc = json.loads(data)
    return {
        "digest": hashlib.sha256(data).hexdigest(),
        "seed": doc["seed"],
        "states": doc["samples"],
        "classification": {e["name"]: e["classification"] for e in doc["entries"]},
        "mismatch_count": doc["mismatch_count"],
    }


def check_errata(ref: dict, obs: dict, seed: int) -> list:
    problems = []
    if obs["seed"] != seed or obs["states"] != ref["samples"]:
        problems.append(f"errata.json is for seed {obs['seed']}, "
                        f"{obs['states']} samples")
    got, want = obs["classification"], ref["classification"]
    for name in sorted(set(got) | set(want)):
        if got.get(name) != want.get(name):
            problems.append(f"{name} classified {got.get(name)}, "
                            f"reference {want.get(name)}")
    if obs["mismatch_count"] != ref["mismatch_count"]:
        problems.append(f"{obs['mismatch_count']} of {len(got)} entries "
                        f"mismatch, reference {ref['mismatch_count']}")
    return problems
