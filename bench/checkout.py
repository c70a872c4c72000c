"""Locate the checkout the benchmark runs in and prepare the interpreter.

Call `prepare()` before anything imports numpy: it pins the BLAS and
OpenMP pools to one thread and puts the checkout's `src/` first on the
import path, so the benchmark measures the source tree it sits in and
never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "netepi" / "__init__.py").is_file():
        sys.exit(f"no netepi package under {SRC}; run from a netepi checkout")
    sys.path.insert(0, str(SRC))
    import netepi

    if Path(netepi.__file__).resolve().parent != SRC / "netepi":
        sys.exit(f"imported netepi from {netepi.__file__}, not {SRC}")
