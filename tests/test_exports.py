"""Every name the package exports resolves to a live object, and importing
the command line loads only what every command needs."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
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


# public names that only tests called, moved to tests/_oracles.py or deleted,
# the truncation sweeps, whose checks the exact solve's own pass now feeds,
# the per-tree limit samplers, root rank and law, which the level-wise laws
# replaced, the gw forest and pool wrappers over ``LimitLaw.gw(law)``, and
# the back-to-back forest type and its builder, which level-order stacks of
# limit trees replaced
TEST_ONLY = ("local_distance", "truncate_neighborhood", "UsageDepthError",
             "InvalidNeighborhood", "parse_edgelist", "sample_gw_limit",
             "tree_neighborhood", "truncation_sweep", "solve_and_sweep", "read_tail_csv",
             "TreeLaw", "sample_polya_limit", "sample_ctbp_limit", "root_pagerank",
             "sample_gw_forest", "gw_root_rank_pool", "LimitForest", "_forest")
TEST_ONLY_METHODS = {"DirectedMultigraph": ("edge_triples", "has_dangling"),
                     "MarkedNeighborhood": ("validate", "max_node_depth"),
                     "BiDegreeLaw": ("star_entries",)}


def test_test_only_api_left_the_library():
    owners = [pagerank_limits, *(importlib.import_module(f"pagerank_limits.{m}")
                                 for m in MODULES)]
    assert [(o.__name__, n) for o in owners for n in TEST_ONLY if hasattr(o, n)] == []
    assert [(c, n) for c, names in TEST_ONLY_METHODS.items() for n in names
            if hasattr(getattr(pagerank_limits, c), n)] == []
    # check_invariants is the one check of the identities: no standalone
    # check, and no carrier of one pass's tolerances
    assert [(o.__name__, n) for o in (pagerank_limits, pagerank_limits.pagerank)
            for n in ("truncation_gap", "generalized_mass_ok", "lower_bound_check",
                      "_CheckedVector", "_tolerances", "_outcome") if hasattr(o, n)] == []
    # every limit law is drawn level by level by one LimitLaw, with no probe
    # of the stream and no per-tree fold
    assert [n for n in ("_gw_tree_starts", "_tree_chain", "_PROBE_CHUNK", "GwLaw",
                        "_fold", "_resolve_depth") if hasattr(pagerank_limits.limits, n)] == []
    model = {"law": pagerank_limits.BiDegreeLaw([(1, 1, 1.0)]), "theta": 1.0, "m": 2,
             "delta": 1.0}
    assert {type(make(model)) for _, make in pagerank_limits.limits.LIMIT_LAWS.values()} \
        == {pagerank_limits.limits.LimitLaw}
    # one pass feeds every truncation check: no sweep, and no R^(N) vectors
    assert not hasattr(pagerank_limits.pagerank._OrderedSystem, "sweep")
    assert list(inspect.signature(pagerank_limits.pagerank.check_invariants).parameters) \
        == ["g", "params", "exact"]
    # the Malthusian rate is the closed form 1 + rate_base: no solver tolerance
    assert list(inspect.signature(pagerank_limits.limits.malthusian).parameters) \
        == ["rate_base"]


def _unused_imports(path):
    """Names ``path`` imports and never reads: no load of the name, no
    ``__all__`` entry, and no ``# noqa: F401`` on the import's line."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    lines = text.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            if name not in read:
                unused.append(f"{path.name}:{alias.lineno} {name}")
    return unused


def test_no_unused_imports():
    # the package's __init__ imports to re-export, so it is left out
    root = Path(__file__).resolve().parents[1]
    paths = [p for p in sorted((root / "src" / "pagerank_limits").glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted((root / "tests").glob("*.py"))
    assert len(paths) > 20
    assert [u for path in paths for u in _unused_imports(path)] == []


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


def _run_python(code, cwd):
    """stdout of ``python -c code`` with this package importable."""
    src = str(Path(pagerank_limits.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_cli_import_loads_no_scipy_and_no_multiprocessing(tmp_path):
    # each command pays its imports: scipy.sparse cost about 0.25 s of start-up,
    # multiprocessing 15-27 ms, numpy.ma 16-21 ms, and none is needed by a
    # default command; census imports its process pool only for workers > 1
    # nor does importing build the argument parser or the float writer's
    # tables: each is built on first use, by the command that needs it
    out = _run_python(
        "import sys, pagerank_limits.cli as cli, pagerank_limits._textio as t\n"
        "print(*(f.cache_info().currsize for f in (cli.build_parser, t._layout_tables,"
        " t._schubfach_tables)), *sys.modules)", tmp_path).split()
    built, loaded = out[:3], out[3:]
    assert built == ["0", "0", "0"]
    assert "pagerank_limits.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] in ("scipy", "multiprocessing")] == []
    assert [m for m in loaded if m.startswith("concurrent.futures")] == []
    assert [m for m in loaded if m == "numpy.ma" or m.startswith("numpy.ma.")] == []


def test_commands_load_no_module_after_import(tmp_path):
    # numpy loads numpy.random on first use and numpy.ma on np.unique's
    # plain path; the package loads numpy.random itself and calls no
    # np.unique that reads np.ma, so no command pays for either inside its
    # own time (the standard library's lazy imports, such as argparse's
    # locale, are small)
    config = {"seed": 3, "model": {"name": "dcm", "law": [[1, 1, 0.5], [2, 2, 0.5]]},
              "sizes": [300], "pagerank": {"c": 0.5, "N": 4},
              "limit": {"sampler": "fixed_point", "M": 300, "depth": 4},
              "comparison": {"census_depths": [1]}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    law = json.dumps(config["model"]["law"])
    commands = [
        ["generate", "--model", "dcm", "--n", "300", "--law", law, "--seed", "1",
         "--output", "g.txt"],
        ["pagerank", "--graph", "g.txt", "--c", "0.5", "--N", "4", "--output", "s.csv"],
        ["verify", "--graph", "g.txt", "--c", "0.5", "--max-order", "4"],
        ["census", "--graph", "g.txt", "--k", "2", "--output", "census.csv"],
        ["limit-sample", "--sampler", "fixed-point", "--depth", "4", "--M", "300",
         "--c", "0.5", "--law", law, "--seed", "1", "--output", "pool.csv"],
        ["compare", "--graph-tails", "s.csv", "--limit-tails", "pool.csv"],
    ]
    code = f"""
import contextlib, io, sys
from pagerank_limits import cli
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in {commands!r}]
    codes.append(cli.run_experiment("config.json", "out", threads=1)[1])
print(codes, *sorted(m for m in set(sys.modules) - before
                    if m.split(".")[0] not in sys.stdlib_module_names))
"""
    out = _run_python(code, tmp_path)
    assert out.split("]", 1) == ["[0, 0, 0, 0, 0, 0, 0", "\n"]


def test_weight_files_load_no_compression_module(tmp_path):
    # np.loadtxt given a path opens it through numpy's DataSource, which
    # imports gzip (and looks for bz2 and lzma) inside the command's time
    (tmp_path / "w.txt").write_text("\n".join(["1.5", "2.0", "0.5"] * 20) + "\n")
    argv = ["generate", "--model", "irg", "--n", "60", "--w-out", "@w.txt",
            "--w-in", "@w.txt", "--seed", "1", "--output", "g.txt"]
    code = f"""
import contextlib, io, sys
from pagerank_limits import cli
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
print(code, *sorted(set(sys.modules) - before))
"""
    code, *loaded = _run_python(code, tmp_path).split()
    assert code == "0"
    assert [m for m in loaded if m in ("gzip", "bz2", "lzma")] == []
