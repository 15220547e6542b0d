"""Process set-up shared by every benchmark entry point.

Importing this module pins the BLAS thread pool and puts the checkout's
``src/`` first on ``sys.path``.  It must be imported before numpy: the
OpenBLAS pool size is read once, when numpy loads.  The benchmark always
runs the library from the checkout it sits in, never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread: the load is one closed-loop caller, and on a 2-core VM a
# multithreaded pool turned a 1 ms eigh into occasional 0.2 s stalls.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

for _name in BLAS_ENV:
    os.environ[_name] = str(BLAS_THREADS)


class MissingSource(RuntimeError):
    """The checkout holds no ppxfer sources to benchmark."""


def prepare() -> None:
    """Make ``import ppxfer`` load ``<root>/src/ppxfer`` or raise MissingSource."""
    if not (SRC / "ppxfer" / "__init__.py").is_file():
        raise MissingSource(f"no ppxfer package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ppxfer

    loaded = Path(ppxfer.__file__).resolve()
    if SRC not in loaded.parents:
        raise MissingSource(f"ppxfer was imported from {loaded}, not from {SRC}")
