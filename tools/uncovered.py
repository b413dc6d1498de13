#!/usr/bin/env python3
"""List the lines of the package that no test runs.

usage: tools/uncovered.py [PYTEST_ARGS]

Runs pytest in this process, with PYTEST_ARGS (default: the tier-1 suite
under tests/), under a sys.settrace hook that records only the lines run in
the files of src/squeezebath.  Then it prints `module:line source` for
every executable line that did not run, and one summary line.  The
executable lines of a module are the line numbers of its compiled code
objects' co_lines, nested functions and classes included.  It needs only
the standard library, so it runs where the coverage package is missing.

Code run in a subprocess is not seen: the tests that start `python -m
squeezebath` or tools/pr3_line.sh run their lines in another process, so a
line that only they reach is listed.  A test that sets its own trace
function hides the lines it runs.  Run from the repository root:

    python3 tools/uncovered.py -q -x
"""

from __future__ import annotations

import os
import sys
import threading

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
PACKAGE = os.path.join(ROOT, "src", "squeezebath")


def executable_lines(code) -> set[int]:
    """The line numbers of a code object and of every code object nested in it.

    A module's code starts with an instruction on line 0, which is no line
    of its source, and some instructions have no line (None): neither counts.
    """
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


class LineTracer:
    """Records (filename, line) for each line run in the given files.

    Usable as a context manager: tracing starts on entry, for this thread
    and any started later, and on exit the trace functions from before are
    put back.  Frames of other files get no local trace function, so they
    cost one call event each.
    """

    def __init__(self, filenames):
        self.filenames = {os.path.abspath(f) for f in filenames}
        self.ran: set[tuple[str, int]] = set()
        self._before = (None, None)

    def _global(self, frame, event, arg):
        if os.path.abspath(frame.f_code.co_filename) in self.filenames:
            return self._local
        return None

    def _local(self, frame, event, arg):
        if event == "line":
            self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def __enter__(self):
        self._before = (sys.gettrace(), threading.gettrace())
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._before[0])
        threading.settrace(self._before[1])
        self.ran = {(os.path.abspath(f), line) for f, line in self.ran}
        return False


def unrun_lines(filename: str, source: str, ran) -> list[tuple[int, str]]:
    """(line, stripped text) of each executable line of source not in ran,
    a set of (filename, line) pairs, in line order."""
    filename = os.path.abspath(filename)
    code = compile(source, filename, "exec")
    text = source.splitlines()
    return [(line, text[line - 1].strip())
            for line in sorted(executable_lines(code)) if (filename, line) not in ran]


def main(argv: list[str]) -> int:
    import pytest

    modules = sorted(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
                     if name.endswith(".py"))
    # the package must be imported under the hook, so its module lines are seen
    if any(name == "squeezebath" or name.startswith("squeezebath.") for name in sys.modules):
        raise SystemExit("uncovered.py: squeezebath is already imported")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with LineTracer(modules) as tracer:
        status = pytest.main(argv or [os.path.join(ROOT, "tests")])
    total = missed = 0
    for path in modules:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = unrun_lines(path, source, tracer.ran)
        total += len(executable_lines(compile(source, path, "exec")))
        missed += len(lines)
        for line, text in lines:
            print("%s:%d %s" % (os.path.basename(path)[:-3], line, text))
    print("%d of %d executable lines not run (pytest exit status %d)" % (missed, total, status))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
