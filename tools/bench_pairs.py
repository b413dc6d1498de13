#!/usr/bin/env python3
"""Alternating benchmark pairs of a parent tree and a change, in the BENCH_*.json layout.

usage: tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W [--workload W:N ...]
                            --pairs N --seconds S --out BENCH.json [--seed K]
                            [--pr P] [--change TEXT] [--parent-commit SHA]

Each run is `python3 perfbench/run.py --workload W --seed K --seconds S
--trace 0`.  Both sides run from one scratch directory that holds a copy of
CHANGE_TREE's perfbench/; before each run its src/squeezebath is replaced by
a copy of that side's package, so that peak_rss_mb does not move with the
directory a run starts from.  PYTHONDONTWRITEBYTECODE=1 is set, so no side
reads bytecode that the other left behind.  Each workload runs N pairs (W:N
gives that workload its own count), one after the other, in the order the
workloads are given; the parent runs first in odd-numbered pairs and the
change first in even-numbered ones.

After every run, BENCH.json is rewritten with the runs so far and a summary:
for each workload and end-to-end metric, each side's runs, median and
quartiles, the change's median over the parent's, and the pairs the change
won (a lower value wins).  The last summary is printed as one line per
workload and metric.

Exits 64 when a tree has no src/squeezebath or CHANGE_TREE has no
perfbench/run.py, as tools/pr3_line.sh does; 1 when a run was not correct
or exited non-zero; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

METRICS = ("wall_norm_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        sys.exit(64)


def _quartiles(values: list[float]) -> tuple[float, float]:
    # linear interpolation between order statistics
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _side(values: list[float]) -> dict:
    q1, q3 = _quartiles(values)
    return {"runs": values, "median": round(statistics.median(values), 4),
            "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs: list[dict]) -> dict:
    """workload -> metric -> both sides' runs, medians and quartiles, the
    change's median over the parent's and the pairs it won, from runs in the
    order they ran.  Pair k of a workload is the k-th run of each side."""
    summary: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        summary[workload] = {}
        for metric in METRICS:
            # every statistic is taken of the values rounded to 4 decimals
            values = {side: [round(run["result"]["metrics"][metric]["value"], 4)
                             for run in mine if run["side"] == side] for side in SIDES}
            if not all(values.values()):
                continue
            pairs = list(zip(values["parent"], values["change"]))
            won = sum(change < parent for parent, change in pairs)
            summary[workload][metric] = {
                "parent": _side(values["parent"]),
                "change": _side(values["change"]),
                "change_over_parent_median": round(
                    round(statistics.median(values["change"]), 4)
                    / round(statistics.median(values["parent"]), 4), 4),
                "pairs_won_by_change": "%d of %d" % (won, len(pairs)),
            }
    return summary


def summary_lines(summary: dict) -> list[str]:
    return ["%-13s %-12s parent %.4f  change %.4f  (%.4f)  change won %s" % (
                workload, metric, entry["parent"]["median"], entry["change"]["median"],
                entry["change_over_parent_median"], entry["pairs_won_by_change"])
            for workload, metrics in summary.items() for metric, entry in metrics.items()]


def _run(bench_root: str, tree: str, workload: str, seed: int, seconds: float) -> tuple[int, dict, dict]:
    # one perfbench run of tree's package from bench_root: (exit, result, env)
    package = os.path.join(bench_root, "src", "squeezebath")
    shutil.rmtree(package, ignore_errors=True)
    shutil.copytree(os.path.join(tree, "src", "squeezebath"), package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=bench_root, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=seconds + 600)
    lines = proc.stdout.splitlines()
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    bench_env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    return proc.returncode, result, bench_env


def main(argv=None) -> int:
    ap = _Parser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("parent_tree")
    ap.add_argument("change_tree")
    ap.add_argument("--workload", action="append", required=True,
                    help="a perfbench workload, or W:N to give it N pairs; repeatable")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pr", type=int)
    ap.add_argument("--change", help="what the change does, copied into BENCH.json")
    ap.add_argument("--parent-commit")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent_tree, "change": args.change_tree}
    for tree in trees.values():
        if not os.path.isdir(os.path.join(tree, "src", "squeezebath")):
            print("%s: %s has no src/squeezebath: pass the root of a source tree" % (ap.prog, tree),
                  file=sys.stderr)
            return 64
    if not os.path.isfile(os.path.join(args.change_tree, "perfbench", "run.py")):
        print("%s: %s has no perfbench/run.py" % (ap.prog, args.change_tree), file=sys.stderr)
        return 64
    plan = []
    for spec in args.workload:
        name, _, count = spec.partition(":")
        plan.append((name, int(count) if count else args.pairs))

    bench = {
        "pr": args.pr,
        "change": args.change,
        "parent_commit": args.parent_commit,
        "source_sha256": {},
        "host": None,
        "protocol": [
            "python3 perfbench/run.py --workload W --seed %d --seconds %g --trace 0, both sides run "
            "from one directory holding a copy of the change's perfbench/: before each run its "
            "src/squeezebath was replaced by a copy of that side's package, so peak_rss_mb does "
            "not move with the directory; PYTHONDONTWRITEBYTECODE=1 in the environment, as on the "
            "benchmark host" % (args.seed, args.seconds),
            "pairs per workload: %s, in that order, one run at a time in runs[].order; within each "
            "workload the parent runs first in odd-numbered pairs and the change first in "
            "even-numbered ones" % ", ".join("%s %d" % step for step in plan),
            "quartiles are linear interpolations between order statistics; source_sha256 is "
            "perfbench's own hash (file name, NUL and bytes of each src/squeezebath/*.py in "
            "sorted order); a lower value wins a pair",
        ],
        "all_correct": True,
        "summary": {},
        "runs": [],
    }
    bench_root = tempfile.mkdtemp(prefix="bench_pairs-")
    try:
        shutil.copytree(os.path.join(args.change_tree, "perfbench"),
                        os.path.join(bench_root, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        for workload, count in plan:
            for pair in range(1, count + 1):
                for side in SIDES if pair % 2 else SIDES[::-1]:
                    code, result, env = _run(bench_root, trees[side], workload, args.seed,
                                             args.seconds)
                    if env:
                        bench["source_sha256"][side] = env["source_sha256"]
                        bench["host"] = "%s, nproc %s, %s, Python %s, numpy %s" % (
                            env["cpu_model"], env["nproc"], env["llc"], env["python"],
                            env["numpy"])
                    bench["runs"].append({
                        "order": len(bench["runs"]) + 1, "side": side, "workload": workload,
                        "seed": args.seed, "trace": 0, "exit": code, "result": result})
                    bench["all_correct"] &= code == 0 and bool(result["correct"])
                    bench["summary"] = summarize([run for run in bench["runs"]
                                                  if run["result"]["metrics"]])
                    with open(args.out, "w", encoding="utf-8") as fh:
                        json.dump(bench, fh, indent=1)
                        fh.write("\n")
    finally:
        shutil.rmtree(bench_root, ignore_errors=True)
    for line in summary_lines(bench["summary"]):
        print(line)
    return 0 if bench["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
