import importlib.util
import json
import os
import subprocess
import sys

import pytest

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "import_time.py")
_spec = importlib.util.spec_from_file_location("import_time", _TOOL)
import_time = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(import_time)

# A stand-in for the package's cli: it logs which tree it came from and the
# bytecode settings it ran under, and defines the resolve_config the tool calls.
_FAKE_CLI = '''
import json, os, sys
with open(os.path.join(os.path.dirname(__file__), "side.txt")) as fh:
    side = fh.read()
with open(os.environ["IMPORT_TIME_LOG"], "a") as fh:
    fh.write(json.dumps([side, os.environ.get("PYTHONDONTWRITEBYTECODE"), sys.pycache_prefix,
                         "numpy" in sys.modules]) + "\\n")

def resolve_config(user, out_dir):
    assert user == {} and out_dir == "."
'''


def _tree(root, side):
    package = root / "src" / "squeezebath"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(_FAKE_CLI)
    (package / "side.txt").write_text(side)
    return root


def _listing(root):
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, files in os.walk(root) for f in files)


@pytest.mark.parametrize("missing", ["parent", "change"])
def test_a_tree_without_the_package_is_refused(tmp_path, missing):
    trees = {side: _tree(tmp_path / side, side) for side in ("parent", "change")}
    for name in ("__init__.py", "cli.py", "side.txt"):
        (trees[missing] / "src" / "squeezebath" / name).unlink()
    (trees[missing] / "src" / "squeezebath").rmdir()
    proc = subprocess.run(
        [sys.executable, _TOOL, str(trees["parent"]), str(trees["change"]), "--runs", "1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 64
    assert "%s has no src/squeezebath" % trees[missing] in proc.stderr


def test_the_summary_gives_medians_quartiles_and_pairs_won():
    times = {"warm": {"parent": [0.016, 0.018, 0.015, 0.017], "change": [0.006, 0.005, 0.016, 0.004]}}
    summary = import_time.summarize(times)["warm"]
    # quartiles interpolate linearly: 0.015 + 0.75 (0.016 - 0.015) = 0.01575
    assert summary["parent"] == pytest.approx({"median": 0.0165, "q1": 0.01575, "q3": 0.01725})
    assert summary["change"] == pytest.approx({"median": 0.0055, "q1": 0.00475, "q3": 0.0085})
    assert summary["change_over_parent_median"] == pytest.approx(1.0 / 3.0)
    assert summary["pairs_won_by_change"] == "3 of 4"
    assert import_time.summary_lines({"warm": summary}) == [
        "warm  parent  median 16.50 ms  q1 15.75 ms  q3 17.25 ms",
        "warm  change  median 5.50 ms  q1 4.75 ms  q3 8.50 ms",
        "warm  change over parent 0.333, change won 3 of 4",
    ]


def test_the_sides_alternate_in_both_states_and_the_trees_are_not_written(tmp_path, monkeypatch):
    log = tmp_path / "log"
    monkeypatch.setenv("IMPORT_TIME_LOG", str(log))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    trees = [_tree(tmp_path / side, side) for side in ("parent", "change")]
    before = [_listing(tree) for tree in trees]
    proc = subprocess.run([sys.executable, _TOOL, *map(str, trees), "--runs", "2"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = [json.loads(line) for line in log.read_text().splitlines()]
    # none: DONTWRITEBYTECODE and no prefix; warm: one untimed run per tree
    # that may write its own prefix, then timed runs that may not
    assert [side for side, *_ in seen] == [
        "parent", "change", "change", "parent",
        "parent", "change", "parent", "change", "change", "parent"]
    assert all(flag == "1" and prefix is None for _, flag, prefix, _ in seen[:4])
    assert [flag for _, flag, _, _ in seen[4:]] == [None, None, "1", "1", "1", "1"]
    prefixes = {side: prefix for side, _, prefix, _ in seen[4:]}
    assert len(set(prefixes.values())) == 2
    assert all(prefixes[side] == prefix for side, _, prefix, _ in seen[4:])
    assert all(numpy_first for *_, numpy_first in seen)
    assert [_listing(tree) for tree in trees] == before
    assert proc.stdout.splitlines()[2].startswith("none  change over parent ")
    assert proc.stdout.splitlines()[5].startswith("warm  change over parent ")
