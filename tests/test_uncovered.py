import importlib.util
import os
import sys

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "uncovered.py")
_spec = importlib.util.spec_from_file_location("uncovered", _TOOL)
uncovered = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(uncovered)

# docstrings and blank lines are not executable; the def line and the
# comprehension's own code object are
_SAMPLE = '''"""A module."""


def sign(x):
    """The sign of x."""
    if x < 0:
        return -1
    return [1 for _ in range(1)][0]
'''


def test_executable_lines_span_every_nested_code_object():
    code = compile(_SAMPLE, "sample.py", "exec")
    assert uncovered.executable_lines(code) == {1, 4, 6, 7, 8}


def test_the_lines_no_call_reaches_are_listed_in_order(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(_SAMPLE, encoding="utf-8")
    namespace = {}
    before = sys.gettrace()
    with uncovered.LineTracer([path]) as tracer:
        exec(compile(_SAMPLE, str(path), "exec"), namespace)
        assert namespace["sign"](2) == 1
    # the trace function from before is back (the tool runs this suite too)
    assert sys.gettrace() is before
    assert uncovered.unrun_lines(str(path), _SAMPLE, tracer.ran) == [(7, "return -1")]
    with uncovered.LineTracer([path]) as tracer:
        namespace["sign"](-2)
    assert [line for line, _ in uncovered.unrun_lines(str(path), _SAMPLE, tracer.ran)] == [1, 4, 8]


def test_lines_of_other_files_are_not_recorded(tmp_path):
    with uncovered.LineTracer([tmp_path / "elsewhere.py"]) as tracer:
        exec(compile(_SAMPLE, str(tmp_path / "sample.py"), "exec"), {})
    assert tracer.ran == set()
