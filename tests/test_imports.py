import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import squeezebath


def _imported(paths):
    """(file name, top-level module) of every absolute import in paths."""
    imported = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((path.name, node.module.split(".")[0]))
            elif isinstance(node, ast.Import):
                imported += [(path.name, a.name.split(".")[0]) for a in node.names]
    assert imported
    return imported


def test_package_imports_only_the_standard_library_and_numpy():
    # numpy is the package's only declared dependency (pyproject.toml); other
    # installed packages, such as scipy or mpmath, may be absent elsewhere
    allowed = set(sys.stdlib_module_names) | {"numpy", "squeezebath"}
    imported = _imported(sorted(pathlib.Path(squeezebath.__file__).parent.glob("*.py")))
    assert not [(f, m) for f, m in imported if m not in allowed], imported


def test_tests_import_only_the_standard_library_numpy_and_pytest():
    # the tests may add pytest, and nothing else: no scipy, mpmath or hypothesis
    allowed = set(sys.stdlib_module_names) | {"numpy", "pytest", "squeezebath"}
    imported = _imported(sorted(pathlib.Path(__file__).parent.glob("*.py")))
    assert not [(f, m) for f, m in imported if m not in allowed], imported


# imports the CLI, runs one command, and prints its exit code and the
# modules that the command added to sys.modules while it ran
_RUN_AND_LIST = """
import json, sys
from squeezebath import cli
before = set(sys.modules)
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


@pytest.mark.parametrize("command", ["trajectory", "figures", "verify", "spectrum", "steady"])
def test_no_command_imports_a_numpy_submodule_while_it_runs(tmp_path, command):
    # numpy loads submodules such as numpy.random on first use; one loaded
    # inside a command is paid in its run time, in every fresh process
    src = os.path.dirname(os.path.dirname(squeezebath.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST, command, "--out", str(tmp_path),
         "--grid.t_max=20", "--grid.dt_out=0.5"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, added = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    numpy_added = [m for m in added if m.split(".")[0] == "numpy"]
    assert not numpy_added, "%s imported while it ran: %s" % (command, added)
