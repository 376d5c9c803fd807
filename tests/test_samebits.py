"""tools/samebits.py: a dump compares equal to itself, NaN cells included,
and a one-ulp change of one entry is named."""

import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "samebits.py"
spec = importlib.util.spec_from_file_location("samebits", TOOL)
samebits = importlib.util.module_from_spec(spec)
spec.loader.exec_module(samebits)


def test_dump_equals_itself_and_flags_one_ulp(tmp_path):
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
    assert bad[1] == "study-delta/n_dof: only in A"
    assert samebits.main(["compare", str(path), str(other)]) == 1
