#!/usr/bin/env python3
"""Time the package's import in alternating fresh interpreters, a parent tree against a change.

usage: tools/import_time.py PARENT_TREE CHANGE_TREE --runs N

Each run is a fresh interpreter that imports numpy and then times `import
squeezebath.cli` plus `cli.resolve_config({}, ".")`: the part of
perfbench's setup_s that is the package's own.  Each tree's src/squeezebath
is first copied, without its __pycache__, into a temporary directory and
imported from there, so nothing is read from the trees' bytecode or written
into the trees.  The runs are made in two bytecode states:

  none  PYTHONDONTWRITEBYTECODE=1 and no bytecode for the package, as
        perfbench runs;
  warm  a private PYTHONPYCACHEPREFIX per tree under the temporary
        directory, filled by one untimed run of that tree.

Each state runs N pairs, the parent first in odd-numbered pairs and the
change first in even-numbered ones.  The tool prints each tree's median and
quartiles per state, the change's median over the parent's and the pairs
the change won (a lower time wins).

Exits 64 when a tree has no src/squeezebath, as tools/bench_pairs.py does;
1 when a run fails; 0 otherwise.
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

SIDES = ("parent", "change")
STATES = ("none", "warm")

# argv[1] is the directory holding the package copy; prints the time and
# the file the package came from
_CHILD = """
import json, sys, time
import numpy
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
from squeezebath import cli
cli.resolve_config({}, ".")
elapsed = time.perf_counter() - t0
print(json.dumps([elapsed, cli.__file__]))
"""


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


def summarize(times: dict) -> dict:
    """state -> each side's median and quartiles (seconds), the change's
    median over the parent's and the pairs it won, from state -> side ->
    times in the order they ran.  Pair k is the k-th run of each side."""
    summary = {}
    for state, sides in times.items():
        entry = {}
        for side in SIDES:
            q1, q3 = _quartiles(sides[side])
            entry[side] = {"median": statistics.median(sides[side]), "q1": q1, "q3": q3}
        pairs = list(zip(sides["parent"], sides["change"]))
        entry["change_over_parent_median"] = entry["change"]["median"] / entry["parent"]["median"]
        entry["pairs_won_by_change"] = "%d of %d" % (
            sum(change < parent for parent, change in pairs), len(pairs))
        summary[state] = entry
    return summary


def summary_lines(summary: dict) -> list[str]:
    lines = []
    for state, entry in summary.items():
        for side in SIDES:
            lines.append("%-5s %-7s median %.2f ms  q1 %.2f ms  q3 %.2f ms" % (
                state, side, *(1e3 * entry[side][k] for k in ("median", "q1", "q3"))))
        lines.append("%-5s change over parent %.3f, change won %s" % (
            state, entry["change_over_parent_median"], entry["pairs_won_by_change"]))
    return lines


def _env(prefix: str | None, write: bool) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if prefix is not None:
        env["PYTHONPYCACHEPREFIX"] = prefix
    if not write:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _time(copy: str, env: dict) -> float:
    # one fresh interpreter: the package import plus resolve_config, in seconds
    proc = subprocess.run([sys.executable, "-c", _CHILD, copy], cwd=copy, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=300)
    if proc.returncode:
        raise RuntimeError("run of %s exited %d:\n%s" % (copy, proc.returncode, proc.stderr))
    elapsed, path = json.loads(proc.stdout.splitlines()[-1])
    if not os.path.realpath(path).startswith(os.path.realpath(copy) + os.sep):
        raise RuntimeError("squeezebath was imported from %s, not from %s" % (path, copy))
    return elapsed


def main(argv=None) -> int:
    ap = _Parser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("parent_tree")
    ap.add_argument("change_tree")
    ap.add_argument("--runs", type=int, required=True, help="pairs per bytecode state")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent_tree, "change": args.change_tree}
    for tree in trees.values():
        if not os.path.isdir(os.path.join(tree, "src", "squeezebath")):
            print("%s: %s has no src/squeezebath: pass the root of a source tree" % (ap.prog, tree),
                  file=sys.stderr)
            return 64
    if args.runs < 1:
        ap.error("--runs must be at least 1")

    root = tempfile.mkdtemp(prefix="import_time-")
    try:
        copies, prefixes = {}, {}
        for side, tree in trees.items():
            copies[side] = os.path.join(root, side)
            shutil.copytree(os.path.join(tree, "src", "squeezebath"),
                            os.path.join(copies[side], "squeezebath"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            prefixes[side] = os.path.join(root, "pycache-" + side)
        times = {state: {side: [] for side in SIDES} for state in STATES}
        for state in STATES:
            envs = {side: _env(None if state == "none" else prefixes[side], write=False)
                    for side in SIDES}
            if state == "warm":
                for side in SIDES:
                    _time(copies[side], _env(prefixes[side], write=True))
            for pair in range(1, args.runs + 1):
                for side in SIDES if pair % 2 else SIDES[::-1]:
                    times[state][side].append(_time(copies[side], envs[side]))
    except RuntimeError as exc:
        print("%s: %s" % (ap.prog, exc), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for line in summary_lines(summarize(times)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
