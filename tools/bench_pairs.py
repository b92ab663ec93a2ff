"""Benchmark two commits in alternated pairs and write a BENCH_*.json record.

Run from a checkout; nothing is installed and the working tree is not read:

    python tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --scratch /tmp/pairs --label prN \\
        --pairs lifting_mag=31-40 --pairs freefall=31-35 --pairs errata=31-33 \\
        --traced lifting_mag=31-35 --about about.json --out BENCH_prN.json

Each commit is exported with `git archive` into its own directory under
--scratch, and perfbench/run.py runs there from the exported files, one run
at a time with the same settings on both sides; each run lasts the
run_seconds that the change's BENCHMARK.json fixes. For each workload the
pairs share a seed; odd seeds run the parent first and even seeds the
change first. --traced runs traced pairs (--trace 1) the same way for the
per-layer records: a layer's time is in seconds, not in units of the
reference loop, so one traced run per side shows the host's speed at the
time as much as the change. --about names a JSON object whose keys (such
as "change" and "claim") head the record.

An A/A round pairs a commit with itself, --parent X --change X: the two
sides then differ only by the host, so its pairs_past_bound counts how
often this host alone puts an unchanged commit past a bound, and a claim's
record can show that round beside its own pairs.

The record has the layout of BENCH_pr14.json. Per workload and side it
gives the run medians of wall_ref, of the raw wall_s, of setup_s and of
the reference loop's time (reference_loop_s), their median, the quartiles
of the wall_ref run medians and each run's peak_rss_mb; per workload the
pairs the change won on wall_ref (ties count for neither side), the
parent's quartile spread, the difference of the medians and the
parent/change ratio of the medians in both units, the change/parent
ratio of setup_s and of peak_rss_mb in each pair, and per end-to-end
metric of the change's BENCHMARK.json the number of pairs whose change run
is worse than its parent run by more than the metric's bound. wall_ref
divides by a reference loop timed in the calling process, so a change
that moves work to another CPU shows in wall_s as well, and a wall_ref
that moves with reference_loop_s alone shows the host, not the program. "traced" holds
per workload and side the median of each layer metric over the traced
runs, and each run's layers. "runs" holds each run's record without its
per-sample values.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(commit, into):
    """The files of commit, extracted into the new directory into."""
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        tar.extractall(into, filter="data")


def seeds(text):
    """'31-40' or '31,33,35' as a list of ints."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(s) for s in text.split(",")]


def run_seconds(tree):
    """The run length BENCHMARK.json in the exported tree fixes."""
    return json.loads((tree / "BENCHMARK.json").read_text())["run_seconds"]


def bounds(tree):
    """{metric: (bound, better)} of the end_to_end metrics BENCHMARK.json
    in the exported tree fixes."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


# each end-to-end metric's run values in side_summary, one per run
RUN_VALUES = {"wall_ref": "wall_ref_run_medians",
              "setup_s": "setup_s_run_medians",
              "peak_rss_mb": "peak_rss_mb"}


def bench(tree, workload, seed, seconds, trace):
    """perfbench/run.py's full record of one run in the exported tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {tree} exited {r.returncode}:\n"
                 f"{r.stderr[-2000:]}")
    return json.loads(r.stdout.splitlines()[-2])


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def run_entry(side, commit, rec):
    """One run's record without its per-sample values."""
    def timing(t):
        return {k: t[k] for k in ("median", "q1", "q3", "samples", "tail")}

    return {"side": side, "workload": rec["workload"], "seed": rec["seed"],
            "git_commit": commit, "attempted": rec["attempted"],
            "failed": rec["failed"], "error_rate": rec["error_rate"],
            "wall_ref": timing(rec["wall_ref"]),
            "setup_s": timing(rec["setup_s"]),
            "reference_loop_s": timing(rec["reference_loop_s"]),
            "peak_rss_mb": rec["peak_rss_mb"],
            "wall_s_median": rec["wall_s"]["median"],
            "throughput": rec["throughput"]}


def side_summary(recs):
    walls = [round(r["wall_ref"]["median"], 2) for r in recs]
    seconds = [round(r["wall_s"]["median"], 5) for r in recs]
    setups = [round(r["setup_s"]["median"], 4) for r in recs]
    loops = [round(r["reference_loop_s"]["median"], 7) for r in recs]
    rss = [r["peak_rss_mb"] for r in recs]
    return {"runs": len(recs),
            "wall_ref_median_of_runs": round(statistics.median(walls), 2),
            "wall_ref_quartiles_of_runs": [round(q, 2)
                                           for q in quartiles(walls)],
            "wall_ref_run_medians": walls,
            "wall_s_median_of_runs": round(statistics.median(seconds), 5),
            "wall_s_run_medians": seconds,
            "setup_s_run_medians": setups,
            "setup_s_median_of_runs": round(statistics.median(setups), 4),
            "reference_loop_s_run_medians": loops,
            "reference_loop_s_median_of_runs": round(
                statistics.median(loops), 7),
            "peak_rss_mb": rss,
            "peak_rss_mb_median_of_runs": statistics.median(rss),
            "attempted": sum(r["attempted"] for r in recs),
            "failed": sum(r["failed"] for r in recs)}


def past_bound(parent, change, bound, better):
    """Whether change is worse than parent by more than the relative bound."""
    if better == "lower":
        return change > parent * (1.0 + bound)
    return change < parent * (1.0 - bound)


def workload_summary(parent, change, seed_list, change_commit, limits):
    """The pairs of one workload; limits is bounds() of the change's tree.
    Per pair it gives the change/parent ratio of setup_s and peak_rss_mb,
    and per end-to-end metric the pairs whose change run is worse than its
    parent run by more than the metric's bound."""
    p, c = side_summary(parent), side_summary(change)
    q1, q3 = p["wall_ref_quartiles_of_runs"]
    won = sum(b < a for a, b in zip(p["wall_ref_run_medians"],
                                    c["wall_ref_run_medians"]))
    pm, cm = p["wall_ref_median_of_runs"], c["wall_ref_median_of_runs"]

    def pairs(metric):
        return list(zip(p[RUN_VALUES[metric]], c[RUN_VALUES[metric]]))

    return {"parent": p, "change": c, "seeds": seed_list,
            "pairs": len(seed_list),
            "change_wall_ref_lower_in_pairs": won,
            "parent_wall_ref_quartile_spread": round(q3 - q1, 2),
            "median_difference": round(pm - cm, 2),
            "wall_ref_ratio_parent_over_change": round(pm / cm, 3),
            "wall_s_ratio_parent_over_change": round(
                p["wall_s_median_of_runs"] / c["wall_s_median_of_runs"], 3),
            **{f"{metric}_ratio_change_over_parent_per_pair":
               [round(b / a, 3) for a, b in pairs(metric)]
               for metric in ("setup_s", "peak_rss_mb")},
            "pairs_past_bound": {
                metric: sum(past_bound(a, b, bound, better)
                            for a, b in pairs(metric))
                for metric, (bound, better) in limits.items()},
            "bounds": {metric: bound for metric, (bound, _) in limits.items()},
            "change_commit": change_commit}


def traced_summary(commit, recs):
    """Each layer metric's median over the traced runs recs of one side."""
    runs = [r["layers"] for r in recs]
    return {"seeds": [r["seed"] for r in recs],
            "absent": sorted({a for r in recs for a in r["absent"]}),
            "hidden": sorted({h for r in recs for h in r["hidden"]}),
            "failed": sum(r["failed"] for r in recs),
            "layers": {name: statistics.median(run[name] for run in runs)
                       for name in runs[0]},
            "layers_of_runs": runs, "git_commit": commit}


def alternate(trees, workload, seed_list, seconds, trace, report):
    """{side: records} of pairs of runs that share a seed, odd seeds
    parent first."""
    recs = {"parent": [], "change": []}
    for seed in seed_list:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            rec = bench(trees[side], workload, seed, seconds, trace)
            report(side, rec)
            recs[side].append(rec)
    return recs


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent commit")
    p.add_argument("--change", required=True, help="changed commit")
    p.add_argument("--scratch", type=Path, required=True,
                   help="new directory for the two exports")
    p.add_argument("--pairs", action="append", default=[],
                   metavar="WORKLOAD=SEEDS",
                   help="a workload and its seeds, as 31-40 or 31,33")
    p.add_argument("--traced", action="append", default=[],
                   metavar="WORKLOAD=SEEDS",
                   help="the same for traced pairs")
    p.add_argument("--label", required=True)
    p.add_argument("--about", type=Path)
    p.add_argument("--out", type=Path, required=True)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    commits = {side: git("rev-parse", "--verify", rev + "^{commit}")
               .decode().strip()
               for side, rev in (("parent", args.parent),
                                 ("change", args.change))}
    trees = {side: args.scratch / side for side in commits}
    for side, tree in trees.items():
        export(commits[side], tree)
    seconds = run_seconds(trees["change"])
    limits = bounds(trees["change"])

    def plan(specs):
        return [(w, seeds(s)) for w, s in (p.split("=", 1) for p in specs)]

    record = json.loads(args.about.read_text()) if args.about else {}
    record = {"label": args.label, **record,
              "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                         f"--seconds {seconds:g} --trace 0 (trace 1 for "
                         "the per-layer records)",
              "method": "tools/bench_pairs.py: each side from a `git archive` "
                        "export of its commit into its own directory, one "
                        "run at a time. Pairs share a seed; odd seeds ran "
                        "parent first, even seeds change first, traced "
                        "pairs (trace 1) too. The exports are not git "
                        "checkouts, so the commits are filled in here. "
                        "Per-sample value lists are left out.",
              "parent_commit": commits["parent"],
              "change_commit": commits["change"]}
    summary, traced, runs, env = {}, {}, [], {}

    def report(side, rec):
        env.update((k, v) for k, v in rec["environment"].items()
                   if k != "git_commit")
        if rec["trace"]:
            print(f"{rec['workload']} seed {rec['seed']} {side} traced: "
                  f"core.run_loop.s {rec['layers']['core.run_loop.s']:.4f}",
                  file=sys.stderr)
            return
        print(f"{rec['workload']} seed {rec['seed']} {side}: wall_ref "
              f"{rec['wall_ref']['median']:.2f} wall_s "
              f"{rec['wall_s']['median']:.4f} setup_s "
              f"{rec['setup_s']['median']:.4f}", file=sys.stderr)
        runs.append(run_entry(side, commits[side], rec))

    for workload, seed_list in plan(args.pairs):
        recs = alternate(trees, workload, seed_list, seconds, 0, report)
        summary[workload] = workload_summary(recs["parent"], recs["change"],
                                             seed_list, commits["change"],
                                             limits)
    for workload, seed_list in plan(args.traced):
        recs = alternate(trees, workload, seed_list, seconds, 1, report)
        traced[workload] = {side: traced_summary(commits[side], recs[side])
                            for side in recs}
    record.update(environment=env, summary=summary, traced=traced, runs=runs)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
