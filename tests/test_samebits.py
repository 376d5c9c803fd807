"""tools/samebits.py: a dump compares equal to itself, NaN cells included,
and a one-ulp change of one entry is named with its relative size.  The dump
is cut down to one solve, the h and delta studies and one space: `compare` is
under test, not the set of configurations."""

import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "samebits.py"
spec = importlib.util.spec_from_file_location("samebits", TOOL)
samebits = importlib.util.module_from_spec(spec)
spec.loader.exec_module(samebits)


def test_dump_equals_itself_and_flags_one_ulp(tmp_path, monkeypatch):
    monkeypatch.setattr(samebits, "SOLVES", {"smooth": samebits.SOLVES["smooth"]})
    monkeypatch.setattr(samebits, "STUDIES", {k: samebits.STUDIES[k] for k in ("h", "delta")})
    monkeypatch.setattr(samebits, "GEOMETRY", samebits.GEOMETRY[:1])
    monkeypatch.setattr(samebits, "LHS_Q", samebits.LHS_Q[:1])
    path = tmp_path / "a.npz"
    arrays = samebits.dump(path)
    assert np.isnan(arrays["study-h/eoc_dt"][0])      # NaN cells compare equal
    assert samebits.compare(path, path) == []
    assert samebits.main(["compare", str(path), str(path)]) == 0

    changed = dict(arrays)
    modes = changed["smooth/modes"].copy()
    modes.flat[7] = np.nextafter(modes.flat[7], np.inf)
    changed["smooth/modes"] = modes
    del changed["study-delta/n_dof"]
    other = tmp_path / "b.npz"
    np.savez(other, **changed)
    bad = samebits.compare(path, other)
    assert len(bad) == 2
    assert bad[0].startswith("smooth/modes: 1 of ")
    # one ulp of x is between 2^-53 |x| and 2^-52 |x|, printed to 4 digits
    assert 1.110e-16 <= float(bad[0].split("max |A - B|/|A| = ")[1]) <= 2.221e-16
    assert bad[1] == "study-delta/n_dof: only in A"
    assert samebits.main(["compare", str(path), str(other)]) == 1
