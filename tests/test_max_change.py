import importlib.util
import io
import os
import subprocess
import sys

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "max_change.py")
_spec = importlib.util.spec_from_file_location("max_change", _TOOL)
max_change = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(max_change)


def _tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


_SAME = {"1.exit": "0\n", "9/spectrum.csv": "k,eig_re\n0,0\n1,-0.5\n"}


def test_each_column_gets_its_largest_change_and_other_files_are_named(tmp_path):
    a = _tree(tmp_path / "a", dict(_SAME, **{
        "1/trajectory.csv": "t,sx,sy,sz\n0,0.4,nan,-inf\n0.05,0.3,1,2\n",
        "1.stdout": "[PASS] check measured 3.937e-13\n",
        "3/fig1.csv": "t,sx\n0,1\n",
        "4.stderr": "",
        "6/steady.csv": "sz\nnan\n1\n",
    }))
    b = _tree(tmp_path / "b", dict(_SAME, **{
        "1/trajectory.csv": "t,sx,sy,sz\n0,0.4000000000000001,nan,-inf\n0.05,0.25,1,2.5\n",
        "1.stdout": "[PASS] check measured 3.935e-13\n",
        "3/fig1.csv": "t,sx,sy\n0,1,2\n",
        "5.exit": "2\n",
        "6/steady.csv": "sz\n0.5\n1\n",
    }))
    out = io.StringIO()
    assert not max_change.compare(str(a), str(b), out)
    assert out.getvalue().splitlines() == [
        "differs: 1.stdout",
        "1/trajectory.csv t 0",
        "1/trajectory.csv sx 0.05",
        "1/trajectory.csv sy 0",
        "1/trajectory.csv sz 0.5",
        "differs in header or rows: 3/fig1.csv",
        "only in A: 4.stderr",
        "only in B: 5.exit",
        "6/steady.csv sz inf",
        "9/spectrum.csv k 0",
        "9/spectrum.csv eig_re 0",
        "largest change: inf in sz of 6/steady.csv",
    ]


def test_exit_code_is_that_of_diff(tmp_path):
    a = _tree(tmp_path / "a", _SAME)
    b = _tree(tmp_path / "b", _SAME)
    run = [sys.executable, _TOOL, str(a), str(b)]
    assert subprocess.run(run, capture_output=True, timeout=60).returncode == 0
    (b / "1.exit").write_text("1\n")
    assert subprocess.run(run, capture_output=True, timeout=60).returncode == 1
    usage = subprocess.run(run[:-1], capture_output=True, text=True, timeout=60)
    assert usage.returncode == 2 and "usage" in usage.stderr


_REPORT = (
    "verification report (t_max=30, dt_out=0.05, dt_int=0.01, ideal squeezed reservoir)\n"
    "\n"
    "  [PASS] commutators                measured 0.000e+00 (exact) | exact integer identities\n"
    "  [PASS] spectrum-formulas          measured 8.808e-16, tolerance 1.000e-10 | 25 random (gamma, r)\n"
    "  [PASS] oracle-agreement           measured 3.238e-13, tolerance 1.000e-07 | sup over grid\n"
    "  [SKIP] steady-approach            skipped: thermal override\n"
    "  [PASS] decay-asymmetry            measured 1.652e-01 | fitted rates: sx 0.5894, sy 0.4242\n"
    "\n"
    "summary: 4 passed, 0 failed, 1 skipped\n"
)


def test_verify_reports_are_compared_check_by_check(tmp_path):
    changed = (_REPORT
               .replace("8.808e-16", "7.502e-16")
               .replace("[PASS] oracle-agreement           measured 3.238e-13",
                        "[FAIL] oracle-agreement           measured 2.000e-07")
               .replace("sx 0.5894", "sx 0.5895")
               .replace("dt_int=0.01", "dt_int=0.02")
               .replace("4 passed, 0 failed", "3 passed, 1 failed"))
    a = _tree(tmp_path / "a", {"3.stdout": _REPORT, "3/verify_report.txt": _REPORT})
    b = _tree(tmp_path / "b", {"3.stdout": _REPORT,
                               "3/verify_report.txt": changed.replace(
                                   "  [PASS] commutators", "  [PASS] basis-actions")})
    out = io.StringIO()
    assert not max_change.compare(str(a), str(b), out)
    assert out.getvalue().splitlines() == [
        "differs: 3/verify_report.txt",
        "3/verify_report.txt commutators only in A",
        "3/verify_report.txt spectrum-formulas PASS 1.31e-16",
        "3/verify_report.txt oracle-agreement PASS -> FAIL 2e-07",
        "3/verify_report.txt steady-approach SKIP -",
        "3/verify_report.txt decay-asymmetry PASS 0 detail differs",
        "3/verify_report.txt basis-actions only in B",
        "3/verify_report.txt line 1 differs",
        "3/verify_report.txt line 9 differs",
    ]


def test_a_file_without_check_lines_is_only_named(tmp_path):
    a = _tree(tmp_path / "a", {"4.stderr": "verify: FAILED at check 'x'\n"})
    b = _tree(tmp_path / "b", {"4.stderr": "verify: FAILED at check 'y'\n"})
    out = io.StringIO()
    assert not max_change.compare(str(a), str(b), out)
    assert out.getvalue().splitlines() == ["differs: 4.stderr"]
    assert max_change.report_changes("a\n", "b\n") is None
