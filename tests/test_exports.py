import importlib
import pkgutil

import pytest

import hhlab

MODULES = ["hhlab"] + [f"hhlab.{m.name}" for m in pkgutil.iter_modules(hhlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # ``from module import *`` fails on a name in __all__ that the module lacks
    exports = getattr(importlib.import_module(name), "__all__", [])
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exports) <= set(namespace)
