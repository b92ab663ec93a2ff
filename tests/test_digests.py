"""Every output's bytes against tests/digests.json.

tools/digests.py wrote the manifest; this test produces the same outputs
from that module's COMMANDS, in-process under tmp_path, and compares their
sha256. Rewrite the manifest with `python tools/digests.py` only where a
change means to alter output bytes.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "digests.json"


def digests_tool():
    spec = importlib.util.spec_from_file_location(
        "digests", ROOT / "tools" / "digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_output_has_its_recorded_bytes(tmp_path):
    tool = digests_tool()
    manifest = json.loads(MANIFEST.read_text())
    here = tool.fingerprint()
    if here != manifest["fingerprint"]:
        pytest.skip("this host's sin and cos give other bits than the "
                    "manifest's host, so its outputs cannot be compared: "
                    f"here {here}, manifest {manifest['fingerprint']}")
    got = tool.produce(tmp_path)
    want = manifest["outputs"]
    assert {"freefall/freefall.csv", "lifting_mag/lifting.gp",
            "errata/errata.json", "validate/stdout"} <= set(want)
    moved = sorted(k for k in got.keys() | want.keys()
                   if got.get(k) != want.get(k))
    assert moved == []
