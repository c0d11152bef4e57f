import importlib
import pkgutil

import pytest

import lighttails

MODULES = ["lighttails"] + [f"lighttails.{info.name}"
                            for info in pkgutil.iter_modules(lighttails.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a name left in __all__ after its definition is deleted breaks only
    # `from module import *`, so nothing else would notice
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
