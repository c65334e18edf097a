import ast
import graphlib
import importlib
import pathlib
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


def package_imports():
    """Per module of src/dcqdlab: the package modules it imports, and the lines
    of the imports that sit inside a function."""
    paths = sorted(pathlib.Path(dcqdlab.__file__).parent.glob("*.py"))
    modules = {path.stem for path in paths}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    edges, nested = {}, {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level == 1 or node.module == "dcqdlab"):
                # `from . import a` and `from dcqdlab import a` name module a, `from .a import f` too
                from_package = node.module is None or node.level == 0
                targets.update([a.name for a in node.names] if from_package else [node.module])
            elif isinstance(node, ast.Import):
                targets.update(a.name.split(".")[1] for a in node.names if a.name.startswith("dcqdlab."))
        edges[path.stem] = {t.split(".")[0] for t in targets} & modules
        nested[path.stem] = sorted(
            {
                n.lineno
                for f in ast.walk(tree) if isinstance(f, functions)
                for n in ast.walk(f) if isinstance(n, (ast.Import, ast.ImportFrom))
            }
        )
    return edges, nested


def test_package_imports_form_no_cycle():
    # inversion imported channels inside two methods while channels imported
    # inversion: the package's one cycle
    edges, _ = package_imports()
    assert edges["inversion"] == {"exceptions", "ops"}
    assert edges["ops"] == {"exceptions"}
    graphlib.TopologicalSorter(edges).prepare()  # raises CycleError on a cycle


def test_no_import_inside_a_function():
    _, nested = package_imports()
    assert {module: lines for module, lines in nested.items() if lines} == {}
