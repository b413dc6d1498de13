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


_PACKAGE = pathlib.Path(squeezebath.__file__).parent


def _fresh(code, *args):
    """Run code in a fresh interpreter that imports this source tree; its last
    stdout line, read as JSON."""
    path = os.pathsep.join(filter(None, [str(_PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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
    # numpy loads submodules such as numpy.random on first use, and argparse
    # loads locale on its first message; a module loaded inside a command is
    # paid in its run time, in every fresh process, so none may be
    code, added = _fresh(_RUN_AND_LIST, command, "--out", str(tmp_path),
                         "--grid.t_max=20", "--grid.dt_out=0.5")
    assert code == 0
    assert not added, "%s imported while it ran: %s" % (command, added)


# imports its argument and prints the package modules then loaded
_IMPORT_AND_LIST = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "squeezebath")))
"""


def _package_imports(name):
    # the package modules that module name imports, directly or through others
    seen, todo = set(), [name]
    while todo:
        tree = ast.parse((_PACKAGE / (todo.pop() + ".py")).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for new in [node.module] if node.module else [a.name for a in node.names]:
                    if new not in seen:
                        seen.add(new)
                        todo.append(new)
    return seen


def test_importing_the_package_imports_no_module():
    assert _fresh(_IMPORT_AND_LIST, "squeezebath") == ["squeezebath"]


@pytest.mark.parametrize("name", sorted(p.stem for p in _PACKAGE.glob("*.py")
                                        if p.stem != "__init__"))
def test_importing_a_module_imports_only_what_it_imports(name):
    want = {"squeezebath", "squeezebath." + name}
    want |= {"squeezebath." + m for m in _package_imports(name)}
    assert _fresh(_IMPORT_AND_LIST, "squeezebath." + name) == sorted(want)


def test_every_export_is_its_module_s_object_and_a_star_import_binds_them():
    # each name of __all__ is the object that the module named by its
    # __module__ defines under that name, and an unknown name is refused
    checked = _fresh("""
import json, sys
import squeezebath
names = [n for n in squeezebath.__all__ if n != "__version__"]
same = [getattr(sys.modules[getattr(squeezebath, n).__module__], n) is getattr(squeezebath, n)
        and getattr(squeezebath, n).__module__.startswith("squeezebath.") for n in names]
try:
    squeezebath.no_such_name
    refused = False
except AttributeError:
    refused = True
print(json.dumps([len(names), all(same), refused]))
""")
    assert checked == [34, True, True]
    bound = _fresh("""
import json
from squeezebath import *
import squeezebath
print(json.dumps([n for n in squeezebath.__all__ if n not in globals()]))
""")
    assert bound == []
