"""Checks on the package source itself."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import resolvdim

SOURCES = sorted(Path(resolvdim.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so internal checks must raise
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_sources_parse_at_the_python_floor():
    # syntax newer than `requires-python` (say, `except*` under 3.10) would
    # fail only on the oldest interpreter the package claims
    if not PYPROJECT.is_file():
        pytest.skip("no pyproject.toml in this checkout")
    floor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
                      PYPROJECT.read_text(), re.MULTILINE)
    assert floor is not None
    version = (int(floor[1]), int(floor[2]))
    for path in SOURCES:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def test_no_environment_reads():
    # the CLI's results follow from its arguments alone: no module reads
    # os.environ or os.getenv, under any import name
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT
             or isinstance(node, ast.ImportFrom) and node.module == "os"
             and any(alias.name in _ENVIRONMENT for alias in node.names)]
    assert SOURCES and found == []


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolves(path):
    """True iff the dotted path (module, attribute...) names an object in
    resolvdim."""
    obj = importlib.import_module(f"resolvdim.{path[0]}")
    for part in path[1:]:
        obj = getattr(obj, part, None)
    return obj is not None


def _attributes_read(tree):
    """(module, attribute) for each attribute read on a resolvdim module
    that the tree imports, by `from resolvdim import m` or `import
    resolvdim.m as m`."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "resolvdim":
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update((alias.asname, alias.name.split(".")[1]) for alias in node.names
                           if alias.name.startswith("resolvdim.") and alias.asname)
    return [(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules]


def test_benchmark_names_exist():
    # a renamed function shows in the benchmark only as a missing wrapper
    # in a traced run or a crashed microbenchmark; catch it here instead
    if not PERFBENCH.is_dir():
        pytest.skip("no perfbench directory in this checkout")
    names = []
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text())
    wrapped = next(node.value for node in ast.walk(tracer) if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets))
    for entry in wrapped.elts:
        module, cls, attr = entry.elts[:3]
        names.append((module.id,) + ((cls.value,) if cls.value else ()) + (attr.value,))
    micro = ast.parse((PERFBENCH / "micro.py").read_text())
    names += _attributes_read(micro)
    names += [(node.module.split(".")[1], alias.name) for node in ast.walk(micro)
              if isinstance(node, ast.ImportFrom)
              and (node.module or "").startswith("resolvdim.") for alias in node.names]
    # the entry points: the traced pass calls cli.main, and the setup probe
    # that times start-up imports cli and builds its parser
    runner = ast.parse((PERFBENCH / "runner.py").read_text())
    probe = next(node.value.value for node in ast.walk(runner) if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "SETUP_PROBE" for t in node.targets))
    entry_points = _attributes_read(tracer) + _attributes_read(ast.parse(probe))
    assert {("cli", "main"), ("cli", "build_parser")} <= set(entry_points)
    names += entry_points
    assert len(names) > len(wrapped.elts)
    assert [".".join(p) for p in names if not _resolves(p)] == []


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_functions_read_no_private_attributes():
    # a class's private state (say, the skeleton format of ComponentGraph)
    # is read by its own methods only; module-level functions use the
    # public queries
    found = [f"{path.name}:{node.lineno} .{node.attr}"
             for path in SOURCES
             for top in ast.parse(path.read_text(), filename=str(path)).body
             if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(top)
             if isinstance(node, ast.Attribute) and _private(node.attr)]
    assert SOURCES and found == []
