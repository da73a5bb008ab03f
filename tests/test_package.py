import ast
import importlib
import inspect
import pathlib
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


ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "heislab"

# Exported names whose only callers are tests, each listed on purpose: the
# H3 generator the grid oracle is tested against.
TEST_FACING = {"heat.apply_h3_generator"}
PROGRAM = sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _referenced_names(path):
    """Names a file reads: bare names, imported names, and attributes of an
    imported name (``cli.run``, ``heislab.stochastic.sample_endpoints``).  A
    definition (def, class, a field or an assignment), an __all__ entry and
    an attribute of a local value (``c.harnack_coeff``) do not count."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
                names.add(alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                names.add(node.attr)
    return names


def _attributes_read(path):
    """Every attribute name a file reads, of any value (``res.witness``)."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _exports():
    """Every exported name, as ``module.name``, with its object."""
    out = {}
    for name in MODULES:
        module = importlib.import_module(f"heislab.{name}")
        out.update({f"{name}.{n}": getattr(module, n) for n in getattr(module, "__all__", ())})
    return out


def unused_exports():
    """Exported names outside TEST_FACING that no file of src/ or bench/ reads."""
    referenced = set().union(*map(_referenced_names, PROGRAM))
    return sorted(q for q in set(_exports()) - TEST_FACING if q.split(".")[1] not in referenced)


def unused_methods():
    """Public methods and properties of exported classes whose name no file of
    src/ or bench/ reads as an attribute."""
    read = set().union(*map(_attributes_read, PROGRAM))
    return sorted(f"{q}.{attr}" for q, obj in _exports().items() if inspect.isclass(obj)
                  for attr, value in vars(obj).items()
                  if not attr.startswith("_") and attr not in read
                  and (inspect.isfunction(value) or isinstance(value, (property, classmethod,
                                                                       staticmethod))))


def test_every_export_has_a_caller_outside_the_tests():
    assert unused_exports() == []
    assert TEST_FACING <= set(_exports())


def test_every_public_method_has_a_caller_outside_the_tests():
    assert unused_methods() == []


def test_the_audits_reject_a_test_only_name(monkeypatch):
    from heislab import geometry
    monkeypatch.setattr(geometry, "__all__", [*geometry.__all__, "probe_only_tests_call"])
    monkeypatch.setattr(geometry, "probe_only_tests_call", lambda: None, raising=False)
    monkeypatch.setattr(geometry.HorizontalPath, "probe_only_tests_call",
                        lambda self: None, raising=False)
    assert unused_exports() == ["geometry.probe_only_tests_call"]
    assert unused_methods() == ["geometry.HorizontalPath.probe_only_tests_call"]
