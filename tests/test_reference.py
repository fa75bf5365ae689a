"""dotbus.reference stays out of the production path, and its oracles hold at known points."""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dotbus
from dotbus.algebra import DensityMatrix, HilbertSpace, PureState, identity
from dotbus.reference import concurrence

PACKAGE = Path(dotbus.__file__).resolve().parent


def imported_from(node: ast.ImportFrom) -> str:
    """The absolute name of the module that ``node``, in the dotbus package, imports from."""
    return ".".join(filter(None, ["dotbus" if node.level else "", node.module or ""]))


def imports_reference(node: ast.AST) -> bool:
    """Whether ``node``, in a module of the dotbus package, imports dotbus.reference."""
    if isinstance(node, ast.Import):
        return any(alias.name == "dotbus.reference" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        base = imported_from(node)
        return base == "dotbus.reference" or (
            base == "dotbus" and any(alias.name == "reference" for alias in node.names)
        )
    return False


def test_no_production_module_imports_reference():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "reference.py")
    assert {p.stem for p in modules} >= {"algebra", "cli", "dynamics", "protocols"}
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text()))
        if imports_reference(node)
    ]
    assert offenders == []


def test_import_boundary_check_sees_every_form():
    for source in ("from .reference import h_effective", "from . import reference",
                   "import dotbus.reference", "from dotbus import reference",
                   "from dotbus.reference import partial_trace"):
        assert imports_reference(ast.parse(source).body[0]), source
    for source in ("from .dynamics import _rk4", "import reference_data",
                   "from reference import x"):
        assert not imports_reference(ast.parse(source).body[0]), source


def private_names_from_dynamics(tree: ast.AST) -> set[str]:
    """The private names that ``tree`` imports from dotbus.dynamics or reads as ``dynamics._name``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and imported_from(node) == "dotbus.dynamics":
            names.update(alias.name for alias in node.names if alias.name.startswith("_"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "dynamics" and node.attr.startswith("_")):
            names.add(node.attr)
    return names


def test_reference_shares_only_the_snapshot_schedule_with_dynamics():
    # The reference integrators are oracles for dynamics: sharing its step
    # formula would let a fault in it pass both sides of a check.
    tree = ast.parse((PACKAGE / "reference.py").read_text())
    assert private_names_from_dynamics(tree) == {"_snapshot_interval"}


def test_shared_name_check_sees_every_form():
    for source, names in (("from .dynamics import TimeGrid, _rk4", {"_rk4"}),
                          ("from dotbus.dynamics import _scatter", {"_scatter"}),
                          ("from . import dynamics\ndynamics._evolve(1)", {"_evolve"}),
                          ("from .algebra import _x\nfrom .dynamics import TimeGrid", set())):
        assert private_names_from_dynamics(ast.parse(source)) == names, source


def names_eigvalsh(tree: ast.AST) -> bool:
    """Whether ``tree`` names ``eigvalsh``: as an attribute, a bare name or an import."""
    return any(isinstance(node, ast.Attribute) and node.attr == "eigvalsh"
               or isinstance(node, ast.Name) and node.id == "eigvalsh"
               or isinstance(node, ast.alias) and node.name == "eigvalsh"
               for node in ast.walk(tree))


def test_no_production_module_but_algebra_calls_eigvalsh():
    # The least eigenvalue of a density matrix has one reader, `algebra._defects`;
    # a second eigvalsh would be a second validity check.
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "reference.py")
    assert {p.stem for p in modules} >= {"algebra", "dynamics", "protocols"}
    callers = {p.stem for p in modules if names_eigvalsh(ast.parse(p.read_text()))}
    assert callers == {"algebra"}


def test_eigvalsh_check_sees_every_form():
    for source in ("np.linalg.eigvalsh(a)", "linalg.eigvalsh(a)", "eigvalsh(a)",
                   "from numpy.linalg import eigvalsh", "from scipy.linalg import eigvalsh as e"):
        assert names_eigvalsh(ast.parse(source)), source
    for source in ("np.linalg.eigh(a)", "'eigvalsh'", "eigvals(a)"):
        assert not names_eigvalsh(ast.parse(source)), source


def test_import_dotbus_leaves_reference_unloaded():
    code = "import sys, dotbus; print('dotbus.reference' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=PACKAGE.parent, check=True)
    assert run.stdout.strip() == "False"


class TestConcurrence:
    def test_entangled_pair(self):
        psi = PureState(HilbertSpace((2, 2)), np.array([0, 1, -1j, 0]) / np.sqrt(2))
        assert concurrence(psi.density_matrix()) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        psi = PureState(HilbertSpace((2, 2)), [1, 0, 0, 0])
        assert concurrence(psi.density_matrix()) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = DensityMatrix(HilbertSpace((2, 2)), identity(4) / 4)
        assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)

    def test_wrong_dimension_rejected(self):
        rho = DensityMatrix(HilbertSpace((2,)), identity(2) / 2)
        with pytest.raises(ValueError):
            concurrence(rho)
