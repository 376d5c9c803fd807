"""The correctness gate accepts the recorded outputs and rejects perturbed ones."""

import copy
import math

import pytest

from westbench import gate

REF = gate.load_reference()
A_SMOOTH = 1e-2


def single_output(name):
    ref = REF[name]
    return {"slab_iterations": list(ref["slab_iterations"]),
            "err_dt": ref.get("err_dt"), "err_grad": ref.get("err_grad"),
            "u_end_norm": ref["u_end_norm"], "finite": True, "coeff_margin": 0.9}


def studies_output():
    return {kind: {"csv": copy.deepcopy(REF["studies"][kind]), "failures": []}
            for kind in ("h", "delta")}


@pytest.mark.parametrize("name", ["smooth-n64", "pulse-reuse", "highp-fast"])
def test_recorded_single_outputs_pass(name):
    amp = 400.0 if name == "pulse-reuse" else A_SMOOTH
    assert gate.check(name, single_output(name), 0, amp, REF) == []


def test_recorded_study_rows_pass_with_any_runtime():
    out = studies_output()
    rt = out["h"]["csv"][0].index("runtime_s")
    for row in out["h"]["csv"][1:]:
        row[rt] = "123.4567"
    assert gate.check("studies", out, 0, A_SMOOTH, REF) == []


@pytest.mark.parametrize("key", ["err_dt", "err_grad", "u_end_norm"])
def test_perturbed_error_value_is_rejected_on_seed_0(key):
    out = single_output("smooth-n64")
    out[key] *= 1 + 1e-6
    problems = gate.check("smooth-n64", out, 0, A_SMOOTH, REF)
    assert gate.failed_operations(problems) == 1
    assert key in problems[0][1]


def test_changed_iteration_count_is_rejected_on_seed_0():
    out = single_output("pulse-reuse")
    out["slab_iterations"][5] += 1
    assert gate.failed_operations(gate.check("pulse-reuse", out, 0, 400.0, REF)) == 1


def test_reference_comparison_applies_only_to_seed_0():
    out = single_output("smooth-n64")
    out["err_dt"] *= 1.01
    out["slab_iterations"][0] += 1
    assert gate.check("smooth-n64", out, 7, A_SMOOTH, REF) == []


def test_accuracy_bound_holds_on_every_seed():
    out = single_output("highp-fast")
    out["err_grad"] = 2 * gate.SINGLE_BOUNDS["highp-fast"]["err_grad"] * A_SMOOTH
    assert gate.failed_operations(gate.check("highp-fast", out, 5, A_SMOOTH, REF)) == 1


@pytest.mark.parametrize("key,value", [("finite", False), ("coeff_margin", -0.01),
                                       ("coeff_margin", math.nan)])
def test_pulse_must_end_finite_above_the_guard(key, value):
    out = single_output("pulse-reuse")
    out[key] = value
    assert gate.failed_operations(gate.check("pulse-reuse", out, 3, 400.0, REF)) == 1


def test_study_row_differing_in_one_digit_is_rejected():
    out = studies_output()
    header = out["delta"]["csv"][0]
    row = out["delta"]["csv"][2]
    col = header.index("err_grad")
    row[col] = repr(float(row[col]) * (1 + 1e-15))
    assert row[col] != REF["studies"]["delta"][2][col]
    problems = gate.check("studies", out, 0, A_SMOOTH, REF)
    assert gate.failed_operations(problems) == 1
    assert problems[0][0] == ("delta", 1)


def test_missing_or_failed_study_entries_are_rejected():
    out = studies_output()
    del out["h"]["csv"][-1]
    out["h"]["failures"] = [3]
    assert gate.failed_operations(gate.check("studies", out, 0, A_SMOOTH, REF)) == 1
    out = studies_output()
    del out["h"]["csv"][-1]
    assert gate.failed_operations(gate.check("studies", out, 9, A_SMOOTH, REF)) == 0


def test_study_accuracy_bounds_on_other_seeds():
    out = studies_output()
    header = out["h"]["csv"][0]
    out["h"]["csv"][1][header.index("err_grad")] = "1.0"
    out["delta"]["csv"][1][header.index("err_dt")] = "0.0"
    problems = gate.check("studies", out, 4, A_SMOOTH, REF)
    assert {op for op, _ in problems} == {("h", 0), ("delta", 0)}
