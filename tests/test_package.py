import importlib
import pkgutil

import pytest

import heislab

MODULES = sorted(m.name for m in pkgutil.iter_modules(heislab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"heislab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_the_package_exports_only_its_version():
    public = {n for n in vars(heislab) if not n.startswith("_")}
    assert public <= set(MODULES) and heislab.__version__
