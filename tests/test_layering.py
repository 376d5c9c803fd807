"""Spatial quadrature stays behind spacefe: outside it no module reads the
geometry or weights of an ElementData, and no element_data call spells out
a rule degree (callers use FESpace.ed_lin, ed_nl, ed_err)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "westfem"
PRIVATE = {"phys", "wdetj", "detj", "jinv", "grads_ref", "grads_lqd", "gdofs", "gdofs_lt"}
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
