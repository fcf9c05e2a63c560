"""Discrete-event cluster simulator (the Borg / pre-emptible-VM substrate).

The paper's systems choices — pre-emptible VMs at ~70% discount, time-based
checkpointing, one-retailer-per-machine scheduling, per-data-center job
splitting — all trade cost against fault-tolerance overhead.  This package
simulates exactly enough of Borg [11] to reproduce those trade-offs:
machine shapes with CPU/memory, regular and pre-emptible VM priorities,
Poisson pre-emptions, multi-cell clusters sized per cell, and a cost
ledger that prices CPU-hours at regular and discounted rates.  Nothing
places VMs on machines: a job's VM time is billed, not scheduled onto a
machine.
"""

from repro.cluster.cell import Cell, Cluster
from repro.cluster.clock import SimClock
from repro.cluster.cost import CostLedger, ResourcePricing
from repro.cluster.execution import ExecutionTrace, run_with_preemptions
from repro.cluster.machine import MachineSpec, Priority, VMRequest
from repro.cluster.preemption import PreemptionModel

__all__ = [
    "SimClock",
    "MachineSpec",
    "Priority",
    "VMRequest",
    "Cell",
    "Cluster",
    "PreemptionModel",
    "ResourcePricing",
    "CostLedger",
    "ExecutionTrace",
    "run_with_preemptions",
]
