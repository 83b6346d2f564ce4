"""The package's export list names exactly what ``__init__.py`` imports."""

import ast
from pathlib import Path

import anchornet

INIT = Path(__file__).resolve().parent.parent / "src" / "anchornet" / "__init__.py"


def _public_imports() -> set[str]:
    """Every name that an import statement of ``__init__.py`` binds, but those
    that start with an underscore."""
    names = set()
    for node in ast.parse(INIT.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    return {name for name in names if not name.startswith("_")}


def test_every_exported_name_is_an_attribute_of_the_package():
    assert [name for name in anchornet.__all__ if not hasattr(anchornet, name)] == []
    assert len(set(anchornet.__all__)) == len(anchornet.__all__)


def test_every_public_name_the_package_imports_is_exported():
    imported = _public_imports()
    assert "Simulation" in imported
    assert sorted(imported - set(anchornet.__all__)) == []
