"""Every exported name resolves, in the package and in each submodule."""

import importlib
import pkgutil

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
