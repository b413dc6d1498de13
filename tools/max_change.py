#!/usr/bin/env python3
"""The largest change in every output column between two runs of tools/pr3_line.sh.

usage: tools/max_change.py A B

A and B are two OUT_DIRs of tools/pr3_line.sh, say of a parent tree and of
a change.  Every CSV found in both, at the same path below A and B, is read
as a header line and rows of numbers, and one line per column prints the
largest absolute change |b - a| over its rows (0 where both are NaN or the
same infinity, inf where only one is NaN).  Every other file is compared byte for byte and named if
it differs (verify reports, stdout, stderr, exit codes, figures), as is a
file found on one side only, or a CSV whose header or row count changed.
A differing file that holds a verify report (verify_report.txt, or the
stdout of a verify command) is then compared check by check: one line per
check gives its status, as "A -> B" where it changed, and the change
|b - a| in its measured value as printed ("-" where a side measures
nothing, "only in A" or "only in B" for a check on one side), with
"detail differs" added when the rest of the line moved; every other line
of the report that differs is named by its line number.
The last line names the largest change in any column.

Exits 0 when no file differs at all, 1 otherwise, like diff.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import sys

# a check line of verify.format_report: "  [STATUS] name<padding> body"
_CHECK = re.compile(r"  \[(PASS|FAIL|SKIP)\] (\S+) +(.*)")


def _files(root: str) -> set[str]:
    # every file below root, as a path relative to it
    return {os.path.relpath(os.path.join(d, name), root)
            for d, _, names in os.walk(root) for name in names}


def _table(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines() or [""]
    return lines[0].split(","), [[float(x) for x in line.split(",")] for line in lines[1:]]


def _change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return math.inf if math.isnan(a) or math.isnan(b) else abs(b - a)


def column_changes(path_a: str, path_b: str) -> list[tuple[str, float]] | None:
    """(column, largest |b - a|) for each column of two CSV tables of one
    shape and header, or None when the header or row count differs."""
    (head_a, rows_a), (head_b, rows_b) = _table(path_a), _table(path_b)
    if head_a != head_b or len(rows_a) != len(rows_b):
        return None
    largest = [0.0] * len(head_a)
    for row_a, row_b in zip(rows_a, rows_b):
        for j, (a, b) in enumerate(zip(row_a, row_b)):
            largest[j] = max(largest[j], _change(a, b))
    return list(zip(head_a, largest))


def _checks(text: str) -> tuple[dict[str, tuple[str, float | None, str]], list[str | None]]:
    # {name: (status, measured or None, the body without it)} of a report's
    # check lines, and its lines with each check line as None
    checks, others = {}, []
    for line in text.splitlines():
        match = _CHECK.fullmatch(line)
        others.append(None if match else line)
        if match:
            status, name, body = match.groups()
            measured = None
            if body.startswith("measured "):
                value, _, rest = body[len("measured "):].partition(" ")
                measured, body = float(value.rstrip(",")), rest
            checks[name] = (status, measured, body)
    return checks, others


def report_changes(text_a: str, text_b: str) -> list[str] | None:
    """One line per check of two verify reports (status, |b - a| of its
    measured value) and one per other line that differs, or None when
    neither text holds a check line."""
    (checks_a, others_a), (checks_b, others_b) = _checks(text_a), _checks(text_b)
    if not checks_a and not checks_b:
        return None
    lines = []
    for name in list(checks_a) + [n for n in checks_b if n not in checks_a]:
        if name not in checks_a or name not in checks_b:
            lines.append("%s only in %s" % (name, "A" if name in checks_a else "B"))
            continue
        (status_a, value_a, body_a), (status_b, value_b, body_b) = checks_a[name], checks_b[name]
        status = status_a if status_a == status_b else "%s -> %s" % (status_a, status_b)
        change = "-" if value_a is None or value_b is None else "%.3g" % _change(value_a, value_b)
        detail = "" if body_a == body_b else " detail differs"
        lines.append("%s %s %s%s" % (name, status, change, detail))
    for k, (a, b) in enumerate(itertools.zip_longest(others_a, others_b)):
        if a != b:
            lines.append("line %d differs" % (k + 1))
    return lines


def compare(dir_a: str, dir_b: str, out=sys.stdout) -> bool:
    """Print the report of A against B; True when no file differs."""
    files_a, files_b = _files(dir_a), _files(dir_b)
    same = files_a == files_b
    top = ("", -1.0)
    for rel in sorted(files_a | files_b):
        if rel not in files_b or rel not in files_a:
            print("only in %s: %s" % ("A" if rel in files_a else "B", rel), file=out)
            continue
        path_a, path_b = os.path.join(dir_a, rel), os.path.join(dir_b, rel)
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            bytes_a, bytes_b = fa.read(), fb.read()
        identical = bytes_a == bytes_b
        same = same and identical
        if not rel.endswith(".csv"):
            if not identical:
                print("differs: %s" % rel, file=out)
                text_a, text_b = (b.decode("utf-8", "replace") for b in (bytes_a, bytes_b))
                for line in report_changes(text_a, text_b) or []:
                    print("%s %s" % (rel, line), file=out)
            continue
        changes = column_changes(path_a, path_b)
        if changes is None:
            print("differs in header or rows: %s" % rel, file=out)
            continue
        for column, change in changes:
            print("%s %s %.3g" % (rel, column, change), file=out)
            if change > top[1]:
                top = ("%s of %s" % (column, rel), change)
    if top[0]:
        print("largest change: %.3g in %s" % (top[1], top[0]), file=out)
    return same


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(d) for d in argv):
        print("usage: tools/max_change.py A B (two tools/pr3_line.sh output directories)",
              file=sys.stderr)
        return 2
    return 0 if compare(*argv) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
