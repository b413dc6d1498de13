import os
import subprocess

import pytest

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "pr3_line.sh")


@pytest.mark.parametrize("tree", ["src", "missing"])
def test_a_tree_without_the_package_is_refused(tmp_path, tree):
    # <tree>/src would run all twelve commands into ModuleNotFoundError on
    # both sides of a comparison, and diff -r would call them identical
    (tmp_path / "src").mkdir()
    out = tmp_path / "out"
    proc = subprocess.run(["sh", _TOOL, str(tmp_path / tree), str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 64
    assert "has no src/squeezebath" in proc.stderr
    assert not out.exists()
