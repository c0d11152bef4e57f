import importlib
import pathlib
import pkgutil
import runpy

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


def test_every_traced_name_exists():
    # bench/tracing.py wraps these module attributes by name: a name that
    # moves away leaves its layer of the benchmark untraced
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    wrapped = runpy.run_path(str(path))["WRAPPED"]
    missing = [(module, attr) for module, attr, _ in wrapped
               if not callable(getattr(importlib.import_module(f"lighttails.{module}"),
                                       attr, None))]
    assert wrapped and missing == []
