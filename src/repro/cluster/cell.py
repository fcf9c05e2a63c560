"""Cells (data centers) and multi-cell clusters.

A cell is a pool of machines managed by one scheduler (Borg's unit of
management).  Sigmund "identifies data centers that have unused resources
and breaks down the job into several independent MapReduces so that there
is one for each data center" (section IV-B1) — :class:`Cluster` models
that heterogeneous free capacity.

Nothing places VMs on a cell: the simulated jobs bill VM time against
the cost ledger and size their worker pools from a cell's CPUs, so a
cell is its name, machine shape and machine count, and all of its
capacity is free.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cluster.machine import MachineSpec
from repro.exceptions import ClusterError


class Cell:
    """One data center: ``n_machines`` machines of one shape."""

    def __init__(
        self,
        name: str,
        n_machines: int,
        machine_spec: MachineSpec = MachineSpec(),
    ):
        if n_machines < 1:
            raise ClusterError("a cell needs at least one machine")
        self.name = name
        self.n_machines = n_machines
        self.machine_spec = machine_spec

    @property
    def free_cpus(self) -> int:
        return self.n_machines * self.machine_spec.cpus


class Cluster:
    """Several cells with (typically) different amounts of free capacity."""

    def __init__(self, cells: List[Cell]):
        if not cells:
            raise ClusterError("a cluster needs at least one cell")
        names = [cell.name for cell in cells]
        if len(set(names)) != len(names):
            raise ClusterError("cell names must be unique")
        self.cells: Dict[str, Cell] = {cell.name: cell for cell in cells}

    def cell(self, name: str) -> Cell:
        try:
            return self.cells[name]
        except KeyError:
            raise ClusterError(f"unknown cell {name!r}") from None

    def split_by_capacity(self, total_shards: int) -> Dict[str, int]:
        """Divide ``total_shards`` units of work across cells ∝ free CPUs.

        This is the paper's per-data-center job splitting: each cell gets
        its own independent MapReduce sized to its spare capacity.  Shares
        always sum to exactly ``total_shards`` and are never negative;
        with fewer shards than cells, the most-free cells are served
        first, and when there are enough shards to go around, every cell
        receives at least one.
        """
        if total_shards < 1:
            raise ClusterError("total_shards must be >= 1")
        free = {name: cell.free_cpus for name, cell in self.cells.items()}
        total_free = sum(free.values())
        names = sorted(free, key=lambda n: (-free[n], n))
        quotas = {
            name: total_shards * free[name] / total_free for name in names
        }
        shares = {name: int(quotas[name]) for name in names}
        # Hand the rounding remainder out one shard at a time, largest
        # fractional quota first (most-free cell on ties) — the remainder
        # is always smaller than the number of cells with a fractional
        # quota, so no cell receives more than one extra shard.
        remainder = total_shards - sum(shares.values())
        by_fraction = sorted(
            names, key=lambda n: (shares[n] - quotas[n], -free[n], n)
        )
        for name in by_fraction[:remainder]:
            shares[name] += 1
        # When feasible, guarantee every cell a shard by taking one from
        # the currently largest share (which then still keeps >= 1).
        starved = [n for n in names if shares[n] == 0]
        if total_shards >= len(names):
            for name in starved:
                donor = max(names, key=lambda n: shares[n])
                if shares[donor] <= 1:
                    break
                shares[donor] -= 1
                shares[name] += 1
        return shares
