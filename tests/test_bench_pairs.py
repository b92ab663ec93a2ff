import importlib.util
import json
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(wall_ref, setup_s, rss):
    """perfbench/run.py's record of one run, with what side_summary reads."""
    def timing(median):
        return {"median": median, "q1": median, "q3": median, "samples": 1,
                "tail": None}

    return {"wall_ref": timing(wall_ref), "wall_s": timing(wall_ref / 1000),
            "setup_s": timing(setup_s), "reference_loop_s": timing(5e-4),
            "peak_rss_mb": rss, "attempted": 10, "failed": 0}


def test_workload_summary_counts_the_pairs_past_each_bound(bench_pairs):
    parent = [record(200.0, 0.20, 38.0), record(210.0, 0.20, 38.0),
              record(190.0, 0.16, 40.0)]
    # wall_ref lower in two pairs and 1.3x the parent's in one; setup_s
    # 1.3x, 1.2x and 1.0x; peak_rss_mb past its 0.1 bound in one pair
    change = [record(150.0, 0.26, 38.0), record(160.0, 0.24, 42.0),
              record(247.1, 0.16, 41.8)]
    limits = {"wall_ref": (0.25, "lower"), "setup_s": (0.25, "lower"),
              "peak_rss_mb": (0.1, "lower")}
    s = bench_pairs.workload_summary(parent, change, [1, 2, 3], "abc", limits)
    assert s["pairs"] == 3
    assert s["change_wall_ref_lower_in_pairs"] == 2
    # wall_s is wall_ref / 1000 here, rounded as side_summary rounds it
    assert s["wall_s_ratio_change_over_parent_per_pair"] == [0.75, 0.762,
                                                             1.301]
    assert s["setup_s_ratio_change_over_parent_per_pair"] == [1.3, 1.2, 1.0]
    assert s["peak_rss_mb_ratio_change_over_parent_per_pair"] == [
        1.0, 1.105, 1.045]
    assert s["pairs_past_bound"] == {"wall_ref": 1, "setup_s": 1,
                                     "peak_rss_mb": 1}
    assert s["bounds"] == {"wall_ref": 0.25, "setup_s": 0.25,
                           "peak_rss_mb": 0.1}
    assert s["median_difference"] == 200.0 - 160.0


def test_past_bound_follows_the_better_direction(bench_pairs):
    assert bench_pairs.past_bound(1.0, 1.26, 0.25, "lower")
    assert not bench_pairs.past_bound(1.0, 1.25, 0.25, "lower")
    assert bench_pairs.past_bound(1.0, 0.74, 0.25, "higher")
    assert not bench_pairs.past_bound(1.0, 1.5, 0.25, "higher")


def test_bounds_are_the_end_to_end_metrics_of_the_tree(bench_pairs):
    root = BENCH_PAIRS.parent.parent
    limits = bench_pairs.bounds(root)
    assert set(limits) == set(bench_pairs.RUN_VALUES)
    assert all(better in ("lower", "higher") for _, better in limits.values())


def test_writes_bytecode_reads_pythondontwritebytecode(bench_pairs):
    assert bench_pairs.writes_bytecode({})
    assert bench_pairs.writes_bytecode({"PYTHONDONTWRITEBYTECODE": ""})
    assert not bench_pairs.writes_bytecode({"PYTHONDONTWRITEBYTECODE": "1"})


@pytest.mark.parametrize("flag,writes", [(None, True), ("1", False)])
def test_the_record_says_whether_the_runs_write_bytecode(
        bench_pairs, monkeypatch, tmp_path, flag, writes):
    if flag is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", flag)

    def bench(tree, workload, seed, seconds, trace):
        return {**record(200.0, 0.1, 38.0), "workload": workload,
                "seed": seed, "trace": trace, "error_rate": 0.0,
                "throughput": 1.0, "environment": {"python": "3.x"}}

    monkeypatch.setattr(bench_pairs, "git", lambda *args: b"abc\n")
    monkeypatch.setattr(bench_pairs, "export", lambda commit, into: None)
    monkeypatch.setattr(bench_pairs, "run_seconds", lambda tree: 1)
    monkeypatch.setattr(bench_pairs, "bounds",
                        lambda tree: {"wall_ref": (0.25, "lower")})
    monkeypatch.setattr(bench_pairs, "bench", bench)
    out = tmp_path / "bench.json"
    bench_pairs.main(["--parent", "a", "--change", "b", "--scratch",
                      str(tmp_path / "trees"), "--pairs", "freefall=1-2",
                      "--label", "t", "--out", str(out)])
    env = json.loads(out.read_text())["environment"]
    assert env == {"writes_bytecode": writes, "python": "3.x"}
