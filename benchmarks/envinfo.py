"""Environment record attached to every benchmark result (read-only probes)."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Run BLAS single-threaded; must run before numpy loads.

    On a shared two-core machine a second BLAS thread competes with other
    tenants for the second core: deep_warm op times then spread 15 % between
    runs, against 4 % with one thread.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def pin_cpu() -> None:
    """Keep this process, and the processes it starts, on one CPU.

    Spares the run the scheduler's migrations between CPUs; in five
    alternating pairs of deep_warm runs the pinned median op times ranged
    3.8 %, the unpinned 6.3 %.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _openblas_threads(numpy) -> int | None:
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _l3_size() -> str:
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            if Path(index, "level").read_text().strip() == "3":
                return Path(index, "size").read_text().strip()
        except OSError:
            continue
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from its .git directory, without running git."""
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
    return "unknown (not a git checkout)"


def environment(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        blas_threads = _openblas_threads(numpy)
    except OSError:
        blas_threads = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "l3": _l3_size(),
        "git_commit": git_commit(root),
    }
