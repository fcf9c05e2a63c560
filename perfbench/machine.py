"""The machine record printed and stored beside every number."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Dict

import numpy as np

from perfbench import SCHEMA_VERSION
from perfbench.probe import ALLOC_ROUNDS, DOT_ROUNDS, OBJECT_ROUNDS, REF_KERNEL_NS

ROOT = Path(__file__).resolve().parent.parent


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    # The driver's checkout is not a git repository; say so, don't guess.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def envelope(pinned: bool) -> Dict[str, object]:
    """Shared by single runs and ``results/*.json``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "commit": _commit(),
        "cores": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pinned": pinned,
        "ref_kernel_ns": REF_KERNEL_NS,
        "kernel_rounds": [DOT_ROUNDS, OBJECT_ROUNDS, ALLOC_ROUNDS],
        "warm_up": "first warmup_requests of the stream fill the cache during set-up; "
        "nothing in the day phase is warmed",
    }
