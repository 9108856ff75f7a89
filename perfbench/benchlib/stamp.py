"""Provenance stamped on every result: where and on what it was measured."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != root.resolve():
        return None
    return lines[1]


def source_digest(src: Path) -> str:
    """Content digest of the program's sources (a checkout may lack .git)."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp(root: Path, seed: int) -> dict:
    from repro.experiments.thresholds import runner_fingerprint

    return {
        "runner_fingerprint": runner_fingerprint(),
        "git_sha": _git_sha(root),
        "source_digest": source_digest(root / "src"),
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "python": platform.python_version(),
        "seed": seed,
    }
