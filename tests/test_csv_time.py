import importlib.util
import os
import shutil
import subprocess
import sys

import pytest

from squeezebath import cli

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_TOOL = os.path.join(_ROOT, "tools", "csv_time.py")
_spec = importlib.util.spec_from_file_location("csv_time", _TOOL)
csv_time = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(csv_time)

# appended to a tree's copy of csvformat.py: every call logs the tree and
# the rows it was given, and CSV_TIME_BREAK makes the change write ';'
_LOGGED = '''
import os as _os

_format_rows = format_rows


def format_rows(block):
    with open(_os.environ["CSV_TIME_LOG"], "a") as fh:
        fh.write("%s %d\\n" % (SIDE, len(block)))
    text = _format_rows(block)
    return text.tobytes().replace(b",", b";") if SIDE == _os.environ.get("CSV_TIME_BREAK") else text
'''


def _tree(root, side, block):
    # the package and perfbench/workloads.py, with the logging formatter
    # and the block size given
    package = root / "src" / "squeezebath"
    package.mkdir(parents=True)
    for name in os.listdir(os.path.join(_ROOT, "src", "squeezebath")):
        if name.endswith(".py"):
            shutil.copy(os.path.join(_ROOT, "src", "squeezebath", name), package / name)
    with open(package / "csvformat.py", "a") as fh:
        fh.write("\nSIDE = %r\n%s" % (side, _LOGGED))
    source = (package / "cli.py").read_text()
    (package / "cli.py").write_text(source.replace(
        "\n_CSV_BLOCK_ROWS = %d\n" % cli._CSV_BLOCK_ROWS, "\n_CSV_BLOCK_ROWS = %d\n" % block))
    (root / "perfbench").mkdir()
    shutil.copy(os.path.join(_ROOT, "perfbench", "workloads.py"), root / "perfbench")
    return root


def _listing(root):
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, files in os.walk(root) for f in files)


def _run(trees, rounds, **env):
    return subprocess.run([sys.executable, _TOOL, *map(str, trees), "--rounds", str(rounds)],
                          capture_output=True, text=True, timeout=300, env={**os.environ, **env})


@pytest.mark.parametrize("missing", ["parent", "change"])
def test_a_tree_without_the_package_is_refused(tmp_path, missing):
    trees = {side: tmp_path / side for side in ("parent", "change")}
    (trees["parent" if missing == "change" else "change"] / "src" / "squeezebath").mkdir(parents=True)
    proc = _run(trees.values(), 1)
    assert proc.returncode == 64
    assert "%s has no src/squeezebath" % trees[missing] in proc.stderr


def test_block_rows_is_read_from_the_tree():
    assert csv_time.block_rows(_ROOT) == cli._CSV_BLOCK_ROWS


def test_the_trees_alternate_at_their_own_block_size_and_are_not_written(tmp_path):
    log = tmp_path / "log"
    trees = [_tree(tmp_path / "parent", "parent", 128), _tree(tmp_path / "change", "change", 300)]
    before = [_listing(tree) for tree in trees]
    proc = _run(trees, 2, CSV_TIME_LOG=str(log))
    assert proc.returncode == 0, proc.stderr
    assert [_listing(tree) for tree in trees] == before
    # the byte check, then round 1 with the parent first and round 2 with
    # the change first, each over dense_output, long_horizon and figures
    block = {"parent": 128, "change": 300}
    want = []
    for order in (("parent", "change"),) * 2 + (("change", "parent"),):
        for group in ([10_001], [6_001], [601] * 6):
            for side in order:
                want += [(side, min(block[side], n - i))
                         for n in group for i in range(0, n, block[side])]
    got = [(side, int(n)) for side, n in (line.split() for line in log.read_text().splitlines())]
    assert got == want
    lines = proc.stdout.splitlines()
    assert lines[0] == "block rows: parent 128, change 300"
    assert [line.split()[0] for line in lines[1:]] == [
        name for name in ("dense_output", "long_horizon", "figures") for _ in range(3)]
    assert lines[3].startswith("dense_output change over parent ")
    assert lines[3].endswith(" of 2")


def test_formatters_that_write_different_bytes_are_refused(tmp_path):
    trees = [_tree(tmp_path / side, side, 256) for side in ("parent", "change")]
    proc = _run(trees, 1, CSV_TIME_LOG=str(tmp_path / "log"), CSV_TIME_BREAK="change")
    assert proc.returncode == 1
    assert "the formatters write different bytes for dense_output" in proc.stderr
