#!/usr/bin/env python3
"""Count the code, docstring, comment and blank lines of each module.

usage: tools/code_lines.py [TREE]

Reads every TREE/src/squeezebath/*.py (TREE defaults to the current
directory) and prints one row per module and a total.  Each line gets
exactly one class, the first that applies in this order:

- code: a token other than a comment or a docstring starts, ends or runs
  through the line (a line of code with a trailing comment is code);
- docstring: the line is part of a docstring, the first statement of a
  module, class or function when that statement is a string literal (blank
  lines inside a docstring count here);
- comment: the line holds a comment;
- blank: anything else.

Lines won by joining wrapped expressions are code lines lost, so compare
counts between trees that keep the same wrapping style.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

CLASSES = ("code", "docstring", "comment", "blank")

# tokens that carry no code of their own
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    # the (start, end) positions of every docstring statement
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def classify(source: str) -> list[str]:
    """The class of each line of a module's source, in order."""
    n_lines = len(source.splitlines())
    marks = [set() for _ in range(n_lines + 1)]  # marks[k] for line k, 1-based
    spans = _docstrings(ast.parse(source))
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.COMMENT:
            kind = "comment"
        elif any(lo <= tok.start and tok.end <= hi for lo, hi in spans):
            kind = "docstring"
        else:
            kind = "code"
        for line in range(tok.start[0], min(tok.end[0], n_lines) + 1):
            marks[line].add(kind)
    return [next((c for c in CLASSES if c in marks[k]), "blank") for k in range(1, n_lines + 1)]


def count(path: str) -> dict[str, int]:
    """Lines of each class in one file, and their sum under "lines"."""
    with open(path, encoding="utf-8") as fh:
        classes = classify(fh.read())
    counts = {c: classes.count(c) for c in CLASSES}
    counts["lines"] = len(classes)
    return counts


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: code_lines.py [TREE]", file=sys.stderr)
        return 64
    package = os.path.join(argv[0] if argv else ".", "src", "squeezebath")
    names = sorted(n for n in os.listdir(package) if n.endswith(".py"))
    columns = CLASSES + ("lines",)
    total = dict.fromkeys(columns, 0)
    print("%-16s" % "module" + "".join("%10s" % c for c in columns))
    for name in names:
        counts = count(os.path.join(package, name))
        for c in columns:
            total[c] += counts[c]
        print("%-16s" % name + "".join("%10d" % counts[c] for c in columns))
    print("%-16s" % "total" + "".join("%10d" % total[c] for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
