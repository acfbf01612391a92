"""Every name the package exports resolves to a live object."""

import ast
import importlib
import pkgutil
import re
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


def _overview_rows():
    """(module, names) of each row of README's "Library overview" table."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) == 4 and cells[1].strip().startswith("`pagerank_limits."):
            rows.append((cells[1].strip().strip("`"), re.findall(r"`([^`]+)`", cells[2])))
    return rows


def test_readme_overview_names_resolve():
    rows = _overview_rows()
    assert [m for m, _ in rows] == [f"pagerank_limits.{m}" for m in
                                    ("graph", "pagerank", "generators", "limits",
                                     "census", "cli")]
    for module, names in rows:
        mod = importlib.import_module(module)
        assert [n for n in names if not hasattr(mod, n)] == [], module
