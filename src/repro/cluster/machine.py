"""Machine shapes, VM priorities, and VM requests.

Machines mirror the paper's observation that "high-memory instances tend
to be correlated with high CPU" — the stock machine shapes couple the two,
and it is "often more cost-effective to get four CPUs and 32GB rather than
one CPU with 32GB" (section IV-B2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.exceptions import ClusterError


class Priority(enum.Enum):
    """Borg scheduling priority of a VM."""

    REGULAR = "regular"
    PREEMPTIBLE = "preemptible"


@dataclass(frozen=True)
class MachineSpec:
    """Physical machine shape."""

    cpus: int = 16
    memory_gb: float = 128.0

    def __post_init__(self) -> None:
        if self.cpus < 1 or self.memory_gb <= 0:
            raise ClusterError("machine must have positive cpus and memory")


@dataclass(frozen=True)
class VMRequest:
    """A resource ask, as a Borg job specification would state it."""

    cpus: int
    memory_gb: float
    priority: Priority = Priority.PREEMPTIBLE

    def __post_init__(self) -> None:
        if self.cpus < 1 or self.memory_gb <= 0:
            raise ClusterError("VM request must ask for positive resources")
