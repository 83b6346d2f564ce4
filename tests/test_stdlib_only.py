"""The runtime stays stdlib-only: every module of the package imports only
its sibling modules and the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "anchornet"


def _outside_imports(path: Path) -> list[str]:
    """Top-level names of the absolute imports in ``path`` that are not in
    the standard library."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_package_imports_only_siblings_and_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    outside = {path.name: _outside_imports(path) for path in modules}
    assert {name: found for name, found in outside.items() if found} == {}


def test_an_outside_import_is_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import simnet\nimport json, numpy.linalg\nfrom yaml import safe_load\n")
    assert _outside_imports(probe) == ["numpy.linalg", "yaml"]
