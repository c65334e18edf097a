import importlib
import pkgutil

import pytest

import dcqdlab
from dcqdlab import dcqd, inversion

MODULES = ["dcqdlab"] + [f"dcqdlab.{m.name}" for m in pkgutil.iter_modules(dcqdlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a name left in __all__ after its function is deleted breaks `import *`
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []



def test_one_reconstruction_result():
    # every scheme's solve builds it; dcqd and the package name the same class
    assert dcqd.ReconstructionResult is inversion.ReconstructionResult
    assert dcqdlab.ReconstructionResult is inversion.ReconstructionResult
    assert not hasattr(dcqdlab, "SqptResult")
