"""Locate the program's source in the checkout and pin the BLAS threads.

Call ``prepare()`` before anything imports numpy: the thread count of
OpenBLAS is read once, at its first import.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# one BLAS thread: the sweep runs in one process with nothing else in
# parallel, and the delta_ss digits depend on the thread count
BLAS_THREADS = "1"


def prepare() -> None:
    if not (SRC / "groupnets" / "__init__.py").is_file():
        raise SystemExit(f"error: the groupnets source is missing: no {SRC / 'groupnets'}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
