"""Statistics, digests and machine facts shared by the benchmark scripts."""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile, refused unless 10 samples lie beyond it."""
    n = len(samples)
    rank = max(1, math.ceil(pct / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(f"p{pct:g} of {n} samples has {n - rank} beyond it, "
                         f"needs {MIN_BEYOND}")
    return sorted(samples)[rank - 1]


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_matches(data: bytes, expected: str) -> bool:
    return sha256_hex(data) == expected


def report_bytes_without_timing(raw: bytes) -> bytes:
    """An eval report as canonical JSON with every ``wall_time_ms`` removed."""
    obj = json.loads(raw)
    for report in obj["reports"]:
        report.pop("wall_time_ms", None)
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# machine facts


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _l3_bytes() -> int | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        if _read(str(index / "level")).strip() == "3":
            size = _read(str(index / "size")).strip()
            units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
            if size and size[-1] in units:
                return int(size[:-1]) * units[size[-1]]
            return int(size) if size.isdigit() else None
    return None


def _ram_bytes() -> int | None:
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) * 1024
    return None


def _openblas():
    """(version string, thread count) of the OpenBLAS NumPy loaded."""
    import numpy as np
    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        version = "unknown"
    paths = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
             if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return version, int(fn())
    return version, None


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (no git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_facts(root: Path, src: Path) -> dict:
    import numpy as np
    blas_version, blas_threads = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_bytes": _l3_bytes(),
        "ram_bytes": _ram_bytes(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(src),
    }
