"""Process set-up shared by the benchmark's two entry points.

`configure` fixes the BLAS thread count and must run before NumPy is first
imported; `import_mico` puts the checkout's own ``src/`` first on the import
path and refuses to run against any other copy of the program.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int:
    """At most two BLAS threads, and never more than the CPUs this process may use."""
    return min(2, nproc())


def configure() -> None:
    threads = str(blas_threads())
    for var in BLAS_VARS:
        os.environ[var] = threads
    # one string-hash layout for every job process, so that jobs differ in
    # nothing but the moment they run
    os.environ["PYTHONHASHSEED"] = "0"


def import_mico():
    package = SRC / "mico"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: program source {package} not found; "
                         "run the benchmark from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import mico
    if Path(mico.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported mico from {mico.__file__}, not from {package}")
    return mico


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        openblas = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    return {
        "workload": workload, "seed": seed, "git_sha": _git_sha(), "nproc": nproc(),
        "python": platform.python_version(), "numpy": np.__version__,
        "openblas": openblas, "blas_threads": int(os.environ[BLAS_VARS[0]]),
    }
