import importlib
import pkgutil

import pytest

import dcqdlab

MODULES = ["dcqdlab"] + [f"dcqdlab.{m.name}" for m in pkgutil.iter_modules(dcqdlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a name left in __all__ after its function is deleted breaks `import *`
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []

