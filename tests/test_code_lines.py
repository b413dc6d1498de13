import importlib.util
import os

import squeezebath

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "code_lines.py")
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# one line of each class, with the cases where the order of precedence decides
_SAMPLE = '''"""Module docstring.

Its blank line is docstring."""
import os  # code with a comment is code

# a comment alone
TEXT = """a string that is not
a docstring is code"""


class Widget:
    """One line."""

    def size(self):  # comment
        """Two
        lines."""
        return 1
'''
_SAMPLE_CLASSES = [
    "docstring", "docstring", "docstring", "code", "blank", "comment", "code", "code",
    "blank", "blank", "code", "docstring", "blank", "code", "docstring", "docstring", "code",
]


def test_each_line_gets_one_class_by_precedence():
    assert code_lines.classify(_SAMPLE) == _SAMPLE_CLASSES


def test_each_module_counts_sum_to_its_lines():
    package = os.path.dirname(squeezebath.__file__)
    names = sorted(n for n in os.listdir(package) if n.endswith(".py"))
    assert "cli.py" in names
    for name in names:
        path = os.path.join(package, name)
        counts = code_lines.count(path)
        with open(path, encoding="utf-8") as fh:
            n_lines = len(fh.read().splitlines())
        assert counts["lines"] == n_lines, name
        assert sum(counts[c] for c in code_lines.CLASSES) == n_lines, name
