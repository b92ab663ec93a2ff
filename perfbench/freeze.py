"""Write references.json from the package's own outputs.

    python3 perfbench/freeze.py

Run it only when rollsim's outputs change on purpose: every benchmark run
checks its outputs against these values.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import observe_errata, observe_run  # noqa: E402
from rollsim import cli  # noqa: E402
from rollsim.output import CSV_COLUMNS  # noqa: E402
from worker import SummaryTap, invoke  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Nudging y0 by 1e-11 moves the final state by 5.7e-12 on freefall (5 s) and
# by 3.2e-7 on lifting_mag (0.8 s, states up to ~440). The tolerances leave
# room for a rounding-level change to the equations of motion, not for a
# different trajectory.
FINAL_TOL = {"freefall": 1e-8, "lifting_mag": 1e-4}
# freefall is unforced and damped, so its energy never rises (criterion 6)
MAX_ENERGY_RISE = {"freefall": 1e-9}
# criterion 8's tolerance on the lift margin
LIFT_MARGIN_REL_TOL = 0.05
ERRATA_SEED = 42


def freeze_run(wl, size, work, tap):
    _, error = invoke(cli, wl.argv(size, 0, work))
    if error:
        raise RuntimeError(error)
    obs = observe_run(work / f"{wl.preset}.csv", tap.last)
    if obs["columns"] != list(CSV_COLUMNS):
        raise RuntimeError(f"CSV header {obs['columns']} is not CSV_COLUMNS")
    ref = {key: obs[key] for key in ("columns", "rows", "events", "final_state")}
    ref["final_tol"] = FINAL_TOL[wl.name]
    ref["max_energy_rise"] = MAX_ENERGY_RISE.get(wl.name)
    if wl.name == "lifting_mag" and size == "full":
        ref["lift_margin"] = obs["lift_margin"]
        ref["lift_margin_rel_tol"] = LIFT_MARGIN_REL_TOL
    return ref


def freeze_errata(wl, size, work):
    _, error = invoke(cli, wl.argv(size, ERRATA_SEED, work))
    if error:
        raise RuntimeError(error)
    obs = observe_errata(work)
    return {"samples": obs["states"], "classification": obs["classification"],
            "mismatch_count": obs["mismatch_count"]}


def main():
    tap = SummaryTap(cli)
    refs = {}
    work = Path(tempfile.mkdtemp(prefix="freeze-", dir=HERE))
    try:
        for wl in WORKLOADS.values():
            refs[wl.name] = {
                size: (freeze_run(wl, size, work, tap) if wl.command == "run"
                       else freeze_errata(wl, size, work))
                for size in wl.sizes}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
