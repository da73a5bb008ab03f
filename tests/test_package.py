import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

import numpy as np
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

# Exported names whose only callers are tests, each listed on purpose; there
# are none.
TEST_FACING = set()
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


def _from_heislab(node):
    """Whether an ``import ... from`` statement imports from a heislab module."""
    return bool(node.level) or (node.module or "").startswith("heislab")


def _outside_imports(tree):
    """Names a module binds by importing from outside heislab (``np``, ``copy``)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.asname or alias.name.split(".")[0] for alias in node.names
                    if not alias.name.startswith("heislab")}
        elif isinstance(node, ast.ImportFrom) and not _from_heislab(node):
            out |= {alias.asname or alias.name for alias in node.names}
    return out


# Public names that numpy arrays, dicts, lists or strings also carry
# (``copy``, ``values``, ``sum``): a read of one names a heislab method only
# off an owner that resolves to a heislab class.
SHARED_NAMES = {n for t in (np.ndarray, dict, list, str) for n in dir(t)
                if not n.startswith("_")}


def _names_class(expr, classes):
    """Whether an annotation or a called expression names one of ``classes``:
    ``GridDensity``, ``heat.GridDensity``, ``"GridDensity"`` or a constructor
    ``GridDensity.make``."""
    if isinstance(expr, ast.Constant):
        return expr.value in classes
    if isinstance(expr, ast.Attribute):
        return expr.attr in classes or _names_class(expr.value, classes)
    return isinstance(expr, ast.Name) and expr.id in classes


def _class_owners(tree, classes):
    """Names of a file that resolve to a heislab class: ``self``, the class
    names, and the parameters and variables annotated with one or assigned
    a call of one."""
    owners = {"self"} | classes
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and _names_class(node.annotation, classes):
            owners.add(node.arg)
        elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
              and _names_class(node.annotation, classes)):
            owners.add(node.target.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and _names_class(node.value.func, classes)):
            owners |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return owners


def _attributes_read(path, classes=frozenset()):
    """Every attribute name a file reads, of any value (``res.witness``), but
    those read off a module or name imported from outside heislab, through
    attributes, calls and subscripts (``copy.copy``, ``np.asarray(x).copy``),
    and a name in SHARED_NAMES read off an owner that is not a name resolving
    to one of ``classes`` (``arr.copy``, ``self.values``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    outside = _outside_imports(tree)
    owners = _class_owners(tree, classes)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr in SHARED_NAMES and not (isinstance(node.value, ast.Name)
                                                  and node.value.id in owners):
                continue
            root = node.value
            while isinstance(root, (ast.Attribute, ast.Call, ast.Subscript)):
                root = root.func if isinstance(root, ast.Call) else root.value
            if not (isinstance(root, ast.Name) and root.id in outside):
                read.add(node.attr)
    return read


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
    classes = frozenset(q.split(".")[1] for q, obj in _exports().items() if inspect.isclass(obj))
    read = set().union(*(_attributes_read(path, classes) for path in PROGRAM))
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
    monkeypatch.setattr(geometry.DistanceResult, "probe_only_tests_call",
                        lambda self: None, raising=False)
    assert unused_exports() == ["geometry.probe_only_tests_call"]
    assert unused_methods() == ["geometry.DistanceResult.probe_only_tests_call"]


def test_the_method_audit_ignores_reads_off_outside_modules(monkeypatch):
    # heat.py reads ``copy.copy``, an attribute of the standard library's
    # module, which calls no method of heislab
    from heislab import geometry
    monkeypatch.setattr(geometry.DistanceResult, "copy", lambda self: None, raising=False)
    assert unused_methods() == ["geometry.DistanceResult.copy"]


def test_the_method_audit_ignores_shared_names_off_other_values(monkeypatch, tmp_path):
    # ``arr.copy()`` copies an array: it calls no heislab method named copy
    import test_package
    from heislab import heat
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\n"
                     "def double(x):\n"
                     "    arr = np.asarray(x)\n"
                     "    return arr.copy() * 2\n", encoding="utf-8")
    monkeypatch.setattr(test_package, "PROGRAM", [*PROGRAM, probe])
    monkeypatch.setattr(heat.GridDensity, "copy", lambda self: None, raising=False)
    assert unused_methods() == ["heat.GridDensity.copy"]


def test_the_method_audit_counts_shared_names_off_heislab_classes(tmp_path):
    classes = frozenset({"GridDensity", "SemigroupSampler"})
    probe = tmp_path / "probe.py"
    probe.write_text("from heislab import heat\n"
                     "from heislab.heat import SemigroupSampler\n"
                     "def mean(sampler: SemigroupSampler, f, x):\n"
                     "    return sampler.values(f, x).mean()\n"
                     "def solve(a):\n"
                     "    density = heat.GridDensity(a)\n"
                     "    return density.copy(), a.items()\n"
                     "class Probe:\n"
                     "    def index(self):\n"
                     "        return self.count()\n", encoding="utf-8")
    read = _attributes_read(probe, classes)
    assert {"values", "copy", "count"} <= read
    assert not {"mean", "items"} & read


def _private_imports(path):
    """Underscore names (not dunders) a file imports from a heislab module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and _from_heislab(node)
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


def test_no_module_imports_a_private_name_of_another():
    assert {path.name: _private_imports(path) for path in sorted(SRC.glob("*.py"))
            if _private_imports(path)} == {}


def test_the_private_import_check_fails_on_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import __version__\n"
                     "from .stochastic import _mean_se, sample_endpoints\n"
                     "from heislab.heat import _record\n", encoding="utf-8")
    assert _private_imports(probe) == ["_mean_se", "_record"]


def _constant_reads(path):
    """Fields of ``CurvatureConstants`` a file reads as attributes (``c.rho2``)."""
    from heislab.curvature import CurvatureConstants
    names = {f.name for f in dataclasses.fields(CurvatureConstants)}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted({node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in names})


def test_heat_reads_no_curvature_constant():
    # every right-hand side comes from a method of CurvatureConstants, so a
    # change of constant is a change of curvature.py alone
    assert _constant_reads(SRC / "heat.py") == []


def test_the_constant_audit_fails_on_a_constant_read(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import math\n"
                     "def rhs(constants, d2, T):\n"
                     "    factor = constants.wang_factor(d2, 2.0, T)\n"
                     "    return math.exp(constants.harnack_coeff * d2 / T) * constants.rho2\n",
                     encoding="utf-8")
    assert _constant_reads(probe) == ["harnack_coeff", "rho2"]
