"""Every name the package exports resolves to a live object."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pagerank_limits

MODULES = sorted(m.name for m in pkgutil.iter_modules(pagerank_limits.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"pagerank_limits.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_package_imports_resolve_to_their_modules():
    tree = ast.parse(Path(pagerank_limits.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"pagerank_limits.{node.module}")
        for alias in node.names:
            assert alias.name in getattr(mod, "__all__", [alias.name]), alias.name
            assert getattr(pagerank_limits, alias.asname or alias.name) is \
                getattr(mod, alias.name)
