"""Every exported name resolves: each module's __all__, and every name the
package __init__ re-exports."""

import ast
import importlib
import pkgutil

import pytest

import sixvertex

MODULES = sorted(m.name for m in pkgutil.iter_modules(sixvertex.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"sixvertex.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"sixvertex.{name}.__all__ names missing objects: {missing}"


def test_package_reexports_resolve():
    tree = ast.parse(open(sixvertex.__file__).read())
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert names
    missing = [n for n in names if not hasattr(sixvertex, n)]
    assert not missing, f"sixvertex does not resolve {missing}"
