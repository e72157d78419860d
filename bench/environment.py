"""Process environment of the benchmark's children and the environment stamp.

Imports nothing from hemiflow, so the parent process stays light.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The checkout's ``src`` first on the path, BLAS threads capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for var in BLAS_VARS:
        env[var] = str(nproc())
    return env


def git_commit() -> str | None:
    """HEAD of the checkout's own ``.git`` directory, or None outside a repository."""
    git = ROOT / ".git"
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
    return None


def src_digest() -> str:
    """sha256 over the paths and bytes of every ``.py`` file under ``src``."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp(seed: int, versions: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "nproc": nproc(),
        "blas_threads": nproc(),
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }
