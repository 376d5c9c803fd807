"""Spatial quadrature stays behind spacefe: outside it no module reads the
geometry or weights of an ElementData, and no element_data call spells out
a rule degree (callers use FESpace.ed_lin, ed_nl, ed_err).  The data a slab
starts from is decided in slab.py alone: no other module constructs a
SlabState.  The layout of the unit-square mesh stays in mesh.py: spacefe.py
never reads the number of cells per side, mesh.n.  The temporal trial basis
stays in timefe.py: no other module reads TrialBasis.lt_start or evaluates
shifted Legendre polynomials, except verify.py, whose suites are independent
oracles."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "westfem"
PRIVATE = {"xy", "wdetj", "detj", "jinv", "grads_ref", "grads_lqd", "gdofs", "gdofs_lt",
           "mass_ref"}
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "spacefe.py")


def _violations(path: Path) -> list:
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE:
            out.append(f"line {node.lineno}: reads .{node.attr}")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "element_data"):
            # only a pass-through variable may name the rule
            if not all(isinstance(a, ast.Name) for a in node.args) or node.keywords:
                out.append(f"line {node.lineno}: element_data with a written-out degree")
    return out


def test_modules_found():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_quadrature_internals_outside_spacefe(path):
    assert _violations(path) == []


def _called(node) -> str | None:
    if isinstance(node, ast.Call):
        f = node.func
        return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
    return None


def _slab_state_calls(path: Path) -> list:
    return [f"line {node.lineno}: constructs SlabState"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if _called(node) == "SlabState"]


def test_slab_state_built_in_slab_py():
    assert _slab_state_calls(SRC / "slab.py")


@pytest.mark.parametrize("path", [p for p in SRC.glob("*.py") if p.name != "slab.py"],
                         ids=lambda p: p.stem)
def test_slab_state_constructed_only_in_slab_py(path):
    assert _slab_state_calls(path) == []


def test_spacefe_reads_no_cells_per_side():
    tree = ast.parse((SRC / "spacefe.py").read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "n"] == []


def _trial_basis_reads(path: Path) -> list:
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "lt_start":
            out.append(f"line {node.lineno}: reads .lt_start")
        if _called(node) == "shifted_legendre_table":
            out.append(f"line {node.lineno}: calls shifted_legendre_table")
    return out


def test_trial_basis_read_in_timefe():
    assert _trial_basis_reads(SRC / "timefe.py")


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name not in ("timefe.py", "verify.py")],
                         ids=lambda p: p.stem)
def test_no_trial_basis_internals_outside_timefe(path):
    assert _trial_basis_reads(path) == []
