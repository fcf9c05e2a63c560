"""The fixed reference kernel and the two ways it is sampled.

This box's speed moves under the benchmark: it sits at a base speed and
is hit by slow bursts of about 0.1 s that come more or less often for
seconds at a time, so raw wall-clock of identical work spreads 5-20 %
between the quartiles of ten runs and up to 46 % end to end
(``results/aa_baseline.json``).  Every timed interval is therefore
divided by the time of a *fixed* piece of work measured right beside it.

The kernel was chosen in a scratch study whose recordings are not
committed: eight runs of each workload with five candidate kernels timed
in every probe, each candidate (and every sum of them) scored by the
spread of the normalised day, serve-loop and set-up times it produced.
Dict/tuple churn, the obvious choice, was the worst (it left the day's
spread where raw wall-clock had it); kernels built on numpy *arithmetic*
were unstable inside the workloads.  What was kept is the sum of three
loops, each about a third of the kernel: numpy *dispatch* (``np.dot`` of
two 16-float vectors), object churn (a small ``__slots__`` object rebuilt
through a method call), and allocation (a 40-element list and a 300-byte
buffer).  No RNG, no memory growth.  A burst does not slow all code
alike, so no kernel tracks every phase: README "What the box can resolve".

``REF_KERNEL_NS``, ``reference_kernel`` and its round counts define the
unit of every normalised number in this repo.  They change only in a
``benchmark`` PR, and then every committed baseline is re-measured.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

import numpy as np

#: What one kernel run costs on the reference box in its usual state,
#: probed between pieces of the workloads (so on cold caches).  A
#: normalised second is ``wall * REF_KERNEL_NS / kernel_ns``.
REF_KERNEL_NS = 400_000
DOT_ROUNDS = 260
OBJECT_ROUNDS = 700
ALLOC_ROUNDS = 580
#: Sampler period during set-up and the day phase: the probe costs the
#: timed code ~2 % of its wall time, which normalisation subtracts.
SAMPLE_INTERVAL_S = 0.020

_A = np.arange(16, dtype=np.float64) / 16.0
_B = np.arange(16, dtype=np.float64)[::-1].copy() / 8.0

#: ``(midpoint_ns, kernel_ns)`` on ``perf_counter_ns``.
Sample = Tuple[int, int]


class _Cell:
    __slots__ = ("count", "value")

    def __init__(self, count: int, value: float) -> None:
        self.count = count
        self.value = value

    def step(self, i: int) -> "_Cell":
        return _Cell(self.count + i, self.value * 0.5)


def reference_kernel() -> float:
    """The fixed work.  Returns a value so nothing can be elided."""
    acc = 0.0
    a, b, dot = _A, _B, np.dot
    for _ in range(DOT_ROUNDS):
        acc += dot(a, b)
    cell = _Cell(0, 1.0)
    for i in range(OBJECT_ROUNDS):
        cell = cell.step(i)
    kept = None
    for i in range(ALLOC_ROUNDS):
        kept = ([i] * 40, bytes(300))
    return acc + cell.count + len(kept[0])


def probe() -> Sample:
    """Run the kernel once.

    No warm-up pass: a kernel that starts on the caches the workload left
    behind tracks the workload's slow-down better than a warmed one (with
    the first candidate kernel: 1.29x against 1.25x, where the SGD it
    interrupted slowed 1.32x).
    """
    start = time.perf_counter_ns()
    reference_kernel()
    end = time.perf_counter_ns()
    return ((start + end) // 2, end - start)


class ProbeSampler:
    """Probes every ``interval_s`` while other code runs, on an interval timer.

    Used for set-up and the day phase, where the timed code cannot be
    interrupted from outside.  The ``SIGALRM`` handler runs the kernel
    *in the main thread*, between two bytecodes of whatever is being
    timed.  (A sampler thread, pinned to the same CPU, shares the core
    with GIL-free BLAS code and reads slow on the GEMM-heavy workload.)
    The serve phase calls :func:`probe` inline between request chunks.
    """

    def __init__(self, interval_s: float = SAMPLE_INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples: List[Sample] = []
        self._previous_handler = None

    def _on_alarm(self, signum: int, frame: object) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "ProbeSampler":
        self.samples.append(probe())
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.samples.append(probe())
