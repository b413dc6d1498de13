import os
import subprocess

import pytest

_TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")


def _assert_refused(tool, tmp_path, tree):
    # <tree>/src would run every command into ModuleNotFoundError on both
    # sides of a comparison, and diff -r would call them identical
    (tmp_path / "src").mkdir()
    out = tmp_path / "out"
    proc = subprocess.run(["sh", os.path.join(_TOOLS, tool), str(tmp_path / tree), str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 64
    assert "has no src/squeezebath" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("tree", ["src", "missing"])
def test_a_tree_without_the_package_is_refused(tmp_path, tree):
    _assert_refused("pr3_line.sh", tmp_path, tree)


@pytest.mark.parametrize("tree", ["src", "missing"])
def test_the_edge_line_refuses_a_tree_without_the_package(tmp_path, tree):
    _assert_refused("edge_line.sh", tmp_path, tree)


def test_a_wrong_argument_count_is_refused(tmp_path):
    proc = subprocess.run(["sh", os.path.join(_TOOLS, "edge_line.sh"), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 64
    assert proc.stderr.startswith("usage: ")
