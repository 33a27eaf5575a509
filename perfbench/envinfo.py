"""The environment block recorded with every result."""
from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _git(root: Path) -> tuple[str | None, bool | None]:
    """(HEAD sha, dirty flag) when `root` is the top of a git work tree."""
    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != root.resolve():
        return None, None
    status = git("status", "--porcelain", "--untracked-files=no")
    return git("rev-parse", "HEAD"), None if status is None else bool(status)


def _openblas() -> tuple[str | None, int | None]:
    """(OpenBLAS version numpy was built with, thread cap of the loaded library)."""
    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        version = None
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = int(fn())
                break
    return version, threads


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(root: Path) -> dict:
    sha, dirty = _git(root)
    blas_version, blas_threads = _openblas()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }
