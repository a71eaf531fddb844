"""Environment pinning and the record of what a run ran on.

:func:`pin` must run before numpy is imported anywhere in the process: the
BLAS thread pools read these variables once, at load.  Import this module
first; it imports nothing heavy.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path
from typing import Dict

#: root of the checkout: the benchmark builds the program from its sources
ROOT = Path(__file__).resolve().parent.parent

#: single-threaded numerical libraries: the program is single-threaded, and
#: idle BLAS worker threads only add scheduling noise on a small shared box
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def pin() -> None:
    """Pin the numerical libraries to one thread (call before importing numpy)."""
    os.environ.update(PINNED)


def use_source_tree() -> None:
    """Make ``import repro`` load the checkout's ``src/`` tree."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def git_commit(root: Path) -> str:
    """Commit of the checkout at ``root``, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def record(seed: int, root: Path = ROOT) -> Dict[str, object]:
    """What this run ran on: cores, versions, seed, commit and pinned variables."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "commit": git_commit(root),
        "pinned": {k: os.environ.get(k) for k in PINNED},
    }
