import ast
import pathlib
import sys

import squeezebath


def test_package_imports_only_the_standard_library_and_numpy():
    # numpy is the package's only declared dependency (pyproject.toml); other
    # installed packages, such as scipy or mpmath, may be absent elsewhere
    allowed = set(sys.stdlib_module_names) | {"numpy", "squeezebath"}
    imported = []
    for path in sorted(pathlib.Path(squeezebath.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((path.name, node.module))
            elif isinstance(node, ast.Import):
                imported += [(path.name, a.name) for a in node.names]
    assert imported
    assert not [(f, m) for f, m in imported if m.split(".")[0] not in allowed], imported
