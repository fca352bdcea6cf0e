"""Every exported name resolves, in the package and in each module."""

import importlib
import pkgutil

import pytest

import ssem

MODULES = sorted(info.name for info in pkgutil.iter_modules(ssem.__path__))


def test_package_exports_resolve():
    missing = [name for name in ssem.__all__ if not hasattr(ssem, name)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"ssem.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_are_the_module_objects():
    for name in MODULES:
        module = importlib.import_module(f"ssem.{name}")
        for attr in module.__all__:
            if attr in ssem.__all__:
                assert getattr(ssem, attr) is getattr(module, attr), attr
