"""The benchmark's workloads: which `rollsim` command each one runs.

Each workload is one `rollsim.cli.main` argument list at two sizes: "full"
is what the benchmark times, "smoke" is a tiny version for the benchmark's
own tests. `minimal` is the smallest call of the same path; set-up time
ends after it, so numba compilation or its disk-cache load lands there.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                   # "run" or "errata"
    preset: str | None             # scenario loaded during set-up
    fixed: tuple                   # arguments shared by every size
    sizes: dict                    # size name -> extra arguments
    minimal: tuple                 # extra arguments of the set-up call
    unit: str                      # what throughput counts

    def argv(self, size: str, seed: int, out_dir: Path) -> list:
        return self._argv(self.sizes[size], seed, out_dir)

    def minimal_argv(self, seed: int, out_dir: Path) -> list:
        return self._argv(self.minimal, seed, out_dir)

    def _argv(self, extra, seed, out_dir):
        if self.command == "run":
            return (["run", self.preset, *self.fixed, *extra,
                     "--out", str(out_dir / f"{self.preset}.csv")])
        return ["errata", *self.fixed, *extra, "--seed", str(seed),
                "--out", str(out_dir)]


WORKLOADS = {w.name: w for w in (
    # The paper's uncontrolled reproduction exactly as shipped: 5 s at
    # dt 1e-3, 5000 RK4 steps. Control and coupling are off, so a change
    # to them is predicted not to move this workload.
    Workload("freefall", "run", "freefall", (),
             {"full": (), "smoke": ("--horizon", "0.05")},
             ("--horizon", "0.001"), "steps"),
    # PD input and magnetic tip torque at every step. The horizon stops at
    # 0.8 s because both controlled presets diverge: past ~0.9 s a 1e-11
    # nudge to y0 changes the event count and the CSV size.
    Workload("lifting_mag", "run", "lifting",
             ("--magnetics", "on", "--dt", "2e-4"),
             {"full": ("--horizon", "0.8"), "smoke": ("--horizon", "0.01")},
             ("--horizon", "2e-4"), "steps"),
    # The M/bias/G kernels once per random state, called from Python, with
    # no integration and no CSV: per-call cost shows here.
    Workload("errata", "errata", None, (),
             {"full": ("--samples", "1000"), "smoke": ("--samples", "10")},
             ("--samples", "1"), "states"),
)}
