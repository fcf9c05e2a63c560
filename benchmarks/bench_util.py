"""Reporting helper shared by all experiment benchmarks.

``emit`` prints the experiment's paper-style rows to the real terminal
(bypassing pytest capture) and appends them to
``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md can quote exact
measured values.
"""

from __future__ import annotations

import os
import pathlib
import platform
from contextlib import ExitStack, contextmanager
from typing import Dict, Iterable
from unittest import mock

import numpy as np

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@contextmanager
def counting(*targets):
    """Count calls to each ``(module or class, name)`` function while
    inside; the counts are keyed by ``name``."""
    counts = dict.fromkeys((name for _, name in targets), 0)

    def wrap(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    with ExitStack() as stack:
        for owner, name in targets:
            stack.enter_context(
                mock.patch.object(owner, name, wrap(name, getattr(owner, name)))
            )
        yield counts


def machine() -> Dict[str, object]:
    """The box a wall-clock number was measured on (ROADMAP aim 1)."""
    return {
        "cores": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": f"{platform.system()}-{platform.machine()}",
    }


def machine_line() -> str:
    """:func:`machine` as the one line a results block carries."""
    box = machine()
    return (
        f"machine: {box['cores']} cores, python {box['python']}, "
        f"numpy {box['numpy']}, {box['platform']}"
    )


def emit(experiment_id: str, title: str, lines: Iterable[str], capsys=None) -> None:
    """Print (uncaptured) and persist one experiment's result block."""
    block = [f"== {experiment_id}: {title} =="]
    block.extend(lines)
    text = "\n".join(block)
    if capsys is not None:
        with capsys.disabled():
            print("\n" + text)
    else:  # pragma: no cover - fallback when no capsys available
        print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{experiment_id.lower()}.txt"
    out.write_text(text + "\n")


def fmt_row(*cells, widths=None) -> str:
    """Fixed-width row formatting for paper-style tables."""
    if widths is None:
        widths = [12] * len(cells)
    parts = []
    for cell, width in zip(cells, widths):
        if isinstance(cell, float):
            parts.append(f"{cell:>{width}.4f}")
        else:
            parts.append(f"{str(cell):>{width}}")
    return "  ".join(parts)
