"""Machine information printed with every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess

import numpy as np

_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _numpy_config() -> dict:
    try:
        return np.show_config(mode="dicts") or {}
    except TypeError:          # numpy before 1.26 only prints
        return {}


def _openblas() -> dict:
    """Core name and thread count reported by the loaded OpenBLAS, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return {}
    info = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for key, name, restype in (("core", "get_corename", ctypes.c_char_p),
                                   ("threads", "get_num_threads", ctypes.c_int)):
            for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_",
                           f"openblas_{name}"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = restype
                    value = fn()
                    info[key] = value.decode() if isinstance(value, bytes) else value
                    break
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def platform_key() -> dict:
    """What must match for metrics to be bit-identical to a stored reference."""
    config = _numpy_config()
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_core": _openblas().get("core", "unknown"),
            "simd": sorted(config.get("SIMD Extensions", {}).get("found", []))}


def machine_info(root) -> dict:
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            **platform_key(),
            "blas_threads": _openblas().get("threads"),
            "blas_env": {k: os.environ[k] for k in _BLAS_ENV if k in os.environ},
            "git_commit": _git_commit(root)}
