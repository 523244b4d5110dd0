"""The public names: every ``__all__`` entry of the package and of each of
its modules resolves, and a star import binds exactly those names."""

import importlib
import pkgutil

import pytest

import fibcubes

# __main__ runs the CLI when imported, and has no names to export.
MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(fibcubes.__path__)
                 if name != "__main__")


def _star(module_name: str) -> dict:
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    del namespace["__builtins__"]
    return namespace


def test_every_module_is_listed():
    assert MODULES == ["cli", "counting", "cube", "enumeration", "graphs", "verify"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"fibcubes.{name}")
    assert len(set(module.__all__)) == len(module.__all__), module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert sorted(_star(module.__name__)) == sorted(module.__all__)


def test_package_all_resolves_and_star_import_binds_it():
    names = fibcubes.__all__
    assert len(set(names)) == len(names), names
    assert [n for n in names if not hasattr(fibcubes, n)] == []
    assert sorted(_star("fibcubes")) == sorted(names)
