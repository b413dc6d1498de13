import importlib.util
import json
import os
import subprocess
import sys

import pytest

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# A stand-in for perfbench/run.py: it logs which package it found, from
# which directory and with which environment, and reports the metrics that
# the package's side.txt names.
_FAKE_RUN = '''
import json, os, sys
root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(root, "src", "squeezebath", "side.txt")) as fh:
    side, wall = fh.read().split()
workload = sys.argv[sys.argv.index("--workload") + 1]
with open(os.environ["BENCH_PAIRS_LOG"], "a") as fh:
    fh.write(json.dumps([side, workload, os.getcwd(), os.environ.get("PYTHONDONTWRITEBYTECODE"),
                         os.path.isdir(os.path.join(root, "src", "squeezebath", "__pycache__"))]) + "\\n")
print("env " + json.dumps({"source_sha256": side + "-hash", "cpu_model": "cpu", "nproc": 2,
                           "llc": "L3 1K", "python": "3.11", "numpy": "2.4"}))
metrics = {"wall_norm_s": float(wall), "setup_s": 0.08, "peak_rss_mb": 40.0}
print(json.dumps({"correct": True, "attempted": 2, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}))
'''


def _tree(root, side, wall, perfbench=True):
    package = root / "src" / "squeezebath"
    (package / "__pycache__").mkdir(parents=True)
    (package / "side.txt").write_text("%s %s" % (side, wall))
    if perfbench:
        (root / "perfbench").mkdir()
        (root / "perfbench" / "run.py").write_text(_FAKE_RUN)
    return root


def _run(value, side, workload="verify"):
    metrics = {"wall_norm_s": value, "setup_s": 0.08, "peak_rss_mb": 40.0}
    return {"side": side, "workload": workload,
            "result": {"metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}}


@pytest.mark.parametrize("missing", ["parent", "change"])
def test_a_tree_without_the_package_is_refused(tmp_path, missing):
    trees = {side: _tree(tmp_path / side, side, 0.03) for side in ("parent", "change")}
    (trees[missing] / "src" / "squeezebath" / "side.txt").unlink()
    (trees[missing] / "src" / "squeezebath" / "__pycache__").rmdir()
    (trees[missing] / "src" / "squeezebath").rmdir()
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, _TOOL, str(trees["parent"]), str(trees["change"]), "--workload", "verify",
         "--pairs", "1", "--seconds", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 64
    assert "%s has no src/squeezebath" % trees[missing] in proc.stderr
    assert not out.exists()


def test_the_summary_gives_medians_quartiles_and_pairs_won():
    parent = [0.0312, 0.0320, 0.0300, 0.0336]
    change = [0.0260, 0.0332, 0.0252, 0.0272]
    runs = [_run(p, "parent") for p in parent] + [_run(c, "change") for c in change]
    runs.append(_run(0.05, "parent", "figures"))
    summary = bench_pairs.summarize(runs + [_run(0.04, "change", "figures")])
    wall = summary["verify"]["wall_norm_s"]
    # quartiles interpolate linearly: 0.0300 + 0.75 (0.0312 - 0.0300) = 0.0309
    assert wall["parent"] == {"runs": parent, "median": 0.0316, "q1": 0.0309, "q3": 0.0324}
    assert wall["change"] == {"runs": change, "median": 0.0266, "q1": 0.0258, "q3": 0.0287}
    assert wall["change_over_parent_median"] == 0.8418
    assert wall["pairs_won_by_change"] == "3 of 4"
    assert summary["verify"]["setup_s"]["pairs_won_by_change"] == "0 of 4"
    assert summary["figures"]["wall_norm_s"]["parent"] == {
        "runs": [0.05], "median": 0.05, "q1": 0.05, "q3": 0.05}
    # a workload with one side's runs only has no summary yet
    assert bench_pairs.summarize(runs)["figures"] == {}
    assert bench_pairs.summary_lines(summary)[0] == (
        "verify        wall_norm_s  parent 0.0316  change 0.0266  (0.8418)  change won 3 of 4")


def test_the_sides_alternate_in_one_directory(tmp_path, monkeypatch):
    log = tmp_path / "log"
    monkeypatch.setenv("BENCH_PAIRS_LOG", str(log))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    parent = _tree(tmp_path / "parent", "parent", 0.031, perfbench=False)
    change = _tree(tmp_path / "change", "change", 0.026)
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, _TOOL, str(parent), str(change), "--workload", "verify:3",
         "--workload", "figures", "--pairs", "1", "--seconds", "1", "--out", str(out), "--pr", "7"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = [json.loads(line) for line in log.read_text().splitlines()]
    assert [(side, workload) for side, workload, *_ in seen] == [
        ("parent", "verify"), ("change", "verify"), ("change", "verify"), ("parent", "verify"),
        ("parent", "verify"), ("change", "verify"), ("parent", "figures"), ("change", "figures")]
    assert len({cwd for _, _, cwd, _, _ in seen}) == 1
    assert all(flag == "1" and not cached for *_, flag, cached in seen)
    bench = json.loads(out.read_text())
    assert list(bench) == ["pr", "change", "parent_commit", "source_sha256", "host", "protocol",
                           "all_correct", "summary", "runs"]
    assert bench["pr"] == 7 and bench["all_correct"]
    assert bench["source_sha256"] == {"parent": "parent-hash", "change": "change-hash"}
    assert [run["order"] for run in bench["runs"]] == list(range(1, 9))
    assert bench["summary"]["verify"]["wall_norm_s"]["pairs_won_by_change"] == "3 of 3"
    assert "verify        wall_norm_s  parent 0.0310  change 0.0260  (0.8387)" in proc.stdout
