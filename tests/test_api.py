"""Every exported name resolves, in the package and in each submodule."""

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


def test_package_exports_resolve():
    missing = [n for n in obstacle_afem.__all__
               if not hasattr(obstacle_afem, n)]
    assert not missing


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
