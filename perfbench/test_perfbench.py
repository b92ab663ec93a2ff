"""Tests of the benchmark itself, at the tiny smoke size.

Every workload and metric BENCHMARK.json names appears in the record, a
deliberately wrong reference trips a correctness check, the tracer
reports a vanished call site instead of crashing, and the speed probe
samples during a call and then restores the previous SIGALRM handler.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from probe import SpeedProbe
from tracer import Layer, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def records(proc):
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return record, result


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_record_names_every_metric(workload, trace):
    record, result = records(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert ({m["name"]: m["unit"] for m in spec}
            == {name: m["unit"] for name, m in result["metrics"].items()})
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert record["workload"] == workload and record["error_rate"] == 0
    for key in ("wall_s", "throughput", "setup_s", "peak_rss_mb", "environment"):
        assert key in record
    if trace:
        assert record["tracing_overhead_pct"] is not None
        assert record["absent"] == []


def test_wrong_reference_fails_the_check(tmp_path):
    refs = json.loads((HERE / "references.json").read_text())
    refs["freefall"]["smoke"]["final_state"][0] += 1e-6
    wrong = tmp_path / "references.json"
    wrong.write_text(json.dumps(refs))
    record, result = records(bench("freefall", 0, "--reference", str(wrong)))
    assert not result["correct"] and result["failed"] > 0
    assert record["error_rate"] > 0
    assert any("final state" in f for f in record["failures"])


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("freefall", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_counts_calls_and_reports_absent_sites():
    import json as target
    tracer = Tracer(layers=(
        Layer("json.dumps", "json", "dumps", "agg"),
        Layer("json.gone", "json", "no_such_function", "span"),
    ))
    original = target.dumps
    tracer.install()
    try:
        target.dumps([1])
        target.dumps([2])
    finally:
        tracer.uninstall()
    assert target.dumps is original
    assert tracer.absent == ["json.gone"]
    assert tracer.totals["json.dumps"].calls == 2


def test_probe_samples_during_the_call_and_restores_the_handler():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 4  # before, at least two inside, after
    assert 0 < probe.inside_s < 0.2
    assert probe.loop_s > 0
