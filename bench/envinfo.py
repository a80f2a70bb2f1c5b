"""Environment block written into every benchmark result file."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "-C", str(root), "status", "--porcelain",
                                "--", "src"],
                               capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if head.returncode != 0:
        return None
    return head.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas():
    """Version string and thread count of the OpenBLAS loaded in this
    process, as found; nothing is changed."""
    info = {"library": None, "config": None, "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                info.update(library=os.path.basename(path),
                            config=get_config().decode("ascii", "replace"),
                            threads=int(get_threads()))
                return info
    return info


def environment(root: Path, seed=None) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(Path(root)),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "env_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SINAILAB_WORKERS")},
    }
