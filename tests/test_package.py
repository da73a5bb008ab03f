import ast
import importlib
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
# Gamma-calculus identities, the group structure and polynomial builders the
# tests are written in, the H3 generator the grid oracle is tested against,
# and the distance monotonicity of the projection groups.
TEST_FACING = {
    "differential.check_bracket_relation",
    "differential.check_commutation",
    "differential.check_gamma2z_sum_of_squares",
    "differential.check_gamma_decomposition",
    "differential.check_generator_decomposition",
    "geometry.projected_distance_convergence",
    "groups.bracket",
    "groups.dilate",
    "heat.apply_h3_generator",
    "polynomials.variable",
}


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


def test_every_export_has_a_caller_outside_the_tests():
    exported = {f"{name}.{n}" for name in MODULES
                for n in getattr(importlib.import_module(f"heislab.{name}"), "__all__", ())}
    referenced = set()
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        referenced |= _referenced_names(path)
    unused = sorted(q for q in exported - TEST_FACING if q.split(".")[1] not in referenced)
    assert unused == []
    assert TEST_FACING <= exported
