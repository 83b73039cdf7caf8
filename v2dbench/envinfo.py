"""The environment a benchmark result was measured in.

BLAS vendor and thread count change V2D's timings (ranks x BLAS
threads oversubscribe the cores), so every result records them.  The
benchmark reads the BLAS thread variables but never sets them.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it is one."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        # numpy wheels bundle OpenBLAS with prefixed, suffixed symbols.
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha(root: Path) -> str | None:
    """HEAD of ``root`` when ``root`` is itself a git checkout."""
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(top) != 2 or Path(top[0]).resolve() != root.resolve():
        return None
    return top[1]


def environment(root: Path) -> dict:
    """JSON-ready record of the machine, libraries and BLAS setting."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_sha": _git_sha(root),
    }
