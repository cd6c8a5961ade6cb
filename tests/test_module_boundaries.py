"""Module boundaries: no sinech module uses another one's private names."""

import ast
from pathlib import Path

import pytest

import sinech

MODULES = sorted(Path(sinech.__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_uses(path: Path) -> list:
    """"line: name" for every underscore name that the module at path
    imports from another sinech module, or reads off a sinech module it
    imported by name (from . import analysis)."""
    tree = ast.parse(path.read_text())
    modules, uses = set(), []  # modules: local names bound to sinech modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "sinech"
                                                   or node.module.startswith("sinech.")):
            for alias in node.names:
                if _private(alias.name):
                    uses.append(f"{node.lineno}: {alias.name}")
                elif node.module in (None, "sinech"):  # from . import spectral
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            uses.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return uses


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_uses_another_modules_private_names(path):
    assert _private_uses(path) == []
