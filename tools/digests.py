"""Pin the bytes of rollsim's outputs: rewrite tests/digests.json.

Run from a checkout (nothing is installed; rollsim is imported from the
src/ directory next to it):

    python tools/digests.py              # rewrite tests/digests.json
    python tools/digests.py --out PATH   # write the manifest somewhere else

The manifest holds the sha256 of every file each command of COMMANDS
writes, and of its stdout with the output directory masked, all produced
in-process by rollsim.cli.main; tests/test_digests.py produces them the
same way, from this module's COMMANDS, and compares. The loop's bits follow
libm's sin and cos, and the derived columns' follow numpy's, so the
manifest also records a host fingerprint, the sha256 of math's and numpy's
sin and cos on a fixed grid: on a host whose fingerprint differs the test
cannot tell a changed output from a changed library, and skips.

A change that alters output bytes on purpose reruns this command and says
so where it records the change; the names of the outputs whose digest
moved are printed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
from rollsim import cli  # noqa: E402

OUT = SRC.parent / "tests" / "digests.json"

# each command's arguments; a run or errata also gets --out, a directory
COMMANDS = {
    "freefall": ["run", "freefall"],
    "lifting": ["run", "lifting"],
    "balancing": ["run", "balancing"],
    "lifting_mag": ["run", "lifting", "--magnetics", "on", "--dt", "2e-4",
                    "--horizon", "0.8"],
    "errata": ["errata"],
    "validate": ["validate"],
}
MASK = "<out>"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint():
    """{function: sha256 of its values} for math's and numpy's cos and sin
    on 100 001 points in [-50, 50]."""
    grid = np.linspace(-50.0, 50.0, 100_001)
    values = {"math.cos": np.array([math.cos(x) for x in grid.tolist()]),
              "math.sin": np.array([math.sin(x) for x in grid.tolist()]),
              "np.cos": np.cos(grid), "np.sin": np.sin(grid)}
    return {name: sha256(v.tobytes()) for name, v in values.items()}


def produce(directory):
    """{output: sha256} of each command's files, written to a directory of
    its own under directory, and of its stdout, the directory masked."""
    digests = {}
    for name, argv in COMMANDS.items():
        out = Path(directory) / name
        out.mkdir()
        if argv[0] == "run":
            argv = [*argv, "--out", f"{out}/"]
        elif argv[0] == "errata":
            argv = [*argv, "--out", str(out)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            cli.main(argv)
        text = stdout.getvalue().replace(str(out), MASK)
        digests[f"{name}/stdout"] = sha256(text.encode())
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = sha256(path.read_bytes())
    return digests


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as directory:
        outputs = produce(directory)
    old = {}
    if args.out.exists():
        old = json.loads(args.out.read_text())["outputs"]
    manifest = {"fingerprint": fingerprint(), "outputs": outputs}
    args.out.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    moved = sorted(k for k in outputs.keys() | old.keys()
                   if outputs.get(k) != old.get(k))
    print(f"wrote {args.out}; changed: {', '.join(moved) or 'none'}")


if __name__ == "__main__":
    main()
