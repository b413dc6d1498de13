import ast
import pathlib
import sys

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
