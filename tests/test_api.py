"""Every exported name resolves, in the package and in each submodule."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import obstacle_afem

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(
    obstacle_afem.__path__))
PACKAGE_DIR = Path(obstacle_afem.__file__).parent


def test_package_exports_resolve():
    missing = [n for n in obstacle_afem.__all__
               if not hasattr(obstacle_afem, n)]
    assert not missing


def test_package_all_is_the_modules_all_lists():
    # the package republishes the algorithm modules' public names, once
    modules = ("adapt", "boundary", "estimator", "fem", "mesh", "problems",
               "vi")
    names = [n for m in modules
             for n in importlib.import_module(f"obstacle_afem.{m}").__all__]
    assert obstacle_afem.__all__ == names + ["__version__"]
    assert len(set(obstacle_afem.__all__)) == len(obstacle_afem.__all__)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"obstacle_afem.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


def test_import_loads_no_scipy_linear_algebra():
    # the in-repo CG keeps scipy.sparse.linalg, and with it scipy.linalg,
    # out of the import
    src = str(Path(obstacle_afem.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, obstacle_afem; print(sorted(m for m in sys.modules"
            " if m.startswith(('scipy.sparse.linalg', 'scipy.linalg'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_reads_every_import(name):
    # a module-level import whose name the module never reads is dead;
    # the package __init__ is exempt, it imports to re-export
    tree = ast.parse((PACKAGE_DIR / f"{name}.py").read_text())
    imported = {a.asname or a.name.partition(".")[0]
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - read) == []


def test_src_parses_json_in_one_place():
    # the run config and the custom problem file both pass
    # problems.read_json: one parse, one layout check, one rule for a
    # key given twice
    calls = [(path.name, node.lineno)
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("load", "loads")
             and getattr(node.func.value, "id", None) == "json"]
    assert len(calls) == 1 and calls[0][0] == "problems.py", calls
