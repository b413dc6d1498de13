#!/usr/bin/env python3
"""Time the CSV formatter of a parent tree against a change's, in one process.

usage: tools/csv_time.py PARENT_TREE CHANGE_TREE --rounds N

Each tree's src/squeezebath/csvformat.py is loaded by path (it imports only
numpy), and its format_rows formats each table in blocks of that tree's
cli._CSV_BLOCK_ROWS, as the writer does.  The tables are the trajectory
tables of perfbench's dense_output and long_horizon workloads at seed 0,
and the six figure tables (each computed on its own), all computed once by
CHANGE_TREE's cli.compute_frame from the workloads of its
perfbench/workloads.py.  One untimed pass checks that both formatters
write the same bytes.  Then each round times every table once per tree,
the parent first in odd-numbered rounds and the change first in
even-numbered ones.  The tool prints, per table, each tree's median and
quartiles, the change's median over the parent's and the rounds the change
won (a lower time wins).  No bytecode is written into the trees.

Exits 64 when a tree has no src/squeezebath or CHANGE_TREE has no
perfbench/workloads.py, as tools/bench_pairs.py does; 1 when the two
formatters write different bytes; 0 otherwise.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from import_time import SIDES, _Parser, summarize, summary_lines  # noqa: E402

TRAJECTORIES = ("dense_output", "long_horizon")


def _load(path: str, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def block_rows(tree: str) -> int:
    """The tree's cli._CSV_BLOCK_ROWS, read from its source."""
    with open(os.path.join(tree, "src", "squeezebath", "cli.py"), encoding="utf-8") as fh:
        module = ast.parse(fh.read())
    for node in module.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
                "_CSV_BLOCK_ROWS"]:
            return ast.literal_eval(node.value)
    raise ValueError("%s has no _CSV_BLOCK_ROWS" % tree)


def tables(change_tree: str) -> dict[str, list]:
    """table name -> the tables it formats, computed by the change's cli."""
    sys.path.insert(0, os.path.join(change_tree, "src"))
    from squeezebath import cli

    workloads = _load(os.path.join(change_tree, "perfbench", "workloads.py"), "csv_time_workloads")
    out = {}
    for name in TRAJECTORIES:
        rc = cli.resolve_config(dict(workloads.make(name, 0).overrides), ".")
        out[name] = cli.compute_frame(rc.schedule, rc.rho0[None], rc.t_max, rc.dt_out, rc.dt_int)
    rc = cli.resolve_config(dict(workloads.make("figures", 0).overrides), ".")
    out["figures"] = [
        cli.compute_frame(cli.figure_schedule(fid), cli.figure_initial(fid)[None],
                          rc.t_max, rc.dt_out, rc.dt_int)[0]
        for fid in rc.figure_ids
    ]
    return out


def _blocks(group: list, rows: int) -> list:
    # the tables' blocks of rows, as the writer slices them
    return [table[i : i + rows] for table in group for i in range(0, len(table), rows)]


def _time(format_rows, blocks: list) -> float:
    t0 = time.perf_counter()
    for block in blocks:
        format_rows(block)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = _Parser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("parent_tree")
    ap.add_argument("change_tree")
    ap.add_argument("--rounds", type=int, required=True)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent_tree, "change": args.change_tree}
    for tree in trees.values():
        if not os.path.isdir(os.path.join(tree, "src", "squeezebath")):
            print("%s: %s has no src/squeezebath" % (ap.prog, tree), file=sys.stderr)
            return 64
    if not os.path.isfile(os.path.join(args.change_tree, "perfbench", "workloads.py")):
        print("%s: %s has no perfbench/workloads.py" % (ap.prog, args.change_tree), file=sys.stderr)
        return 64
    sys.dont_write_bytecode = True
    formatters = {side: _load(os.path.join(tree, "src", "squeezebath", "csvformat.py"),
                              "csvformat_" + side).format_rows for side, tree in trees.items()}
    blocks = {side: block_rows(tree) for side, tree in trees.items()}
    work = {name: {side: _blocks(group, blocks[side]) for side in SIDES}
            for name, group in tables(args.change_tree).items()}
    for name, sides in work.items():
        text = [b"".join(bytes(formatters[side](block)) for block in sides[side]) for side in SIDES]
        if text[0] != text[1]:
            print("%s: the formatters write different bytes for %s" % (ap.prog, name),
                  file=sys.stderr)
            return 1
    print("block rows: parent %d, change %d" % (blocks["parent"], blocks["change"]))
    times = {name: {side: [] for side in SIDES} for name in work}
    for k in range(1, args.rounds + 1):
        for name, sides in work.items():
            for side in SIDES if k % 2 else SIDES[::-1]:
                times[name][side].append(_time(formatters[side], sides[side]))
    for line in summary_lines(summarize(times)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
