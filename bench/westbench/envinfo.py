"""Environment recorded with every result: program revision, interpreter and
library versions, BLAS library and thread count, CPU model and caches.

Importing this module does not import numpy, so that BLAS_THREAD_ENV can be
applied before numpy loads its BLAS.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

# variables that fix the BLAS pool size; set before numpy is first imported
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# thread-count queries exported by the OpenBLAS builds numpy and scipy ship
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


def git_sha(root: Path) -> str | None:
    """Commit of the checkout, read from its .git directory (None outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads(module) -> dict:
    libs = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
    out = {}
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in _BLAS_THREAD_SYMBOLS:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[lib.name] = fn()
                break
    return out


def _blas_name(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _cpu() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    return {"cpu_model": model or platform.processor() or "unknown", "caches": caches}


def environment(root: Path) -> dict:
    import numpy as np
    import scipy

    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas_name(np), "scipy": _blas_name(scipy)},
        "blas_threads": {**_blas_threads(np), **_blas_threads(scipy)},
        "blas_env": {k: os.environ.get(k) for k in BLAS_THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        **_cpu(),
        "platform": platform.platform(),
    }
