"""Cells (data centers) and multi-cell clusters.

A cell is a pool of machines managed by one scheduler (Borg's unit of
management).  Sigmund "identifies data centers that have unused resources
and breaks down the job into several independent MapReduces so that there
is one for each data center" (section IV-B1) — :class:`Cluster` models
that heterogeneous free capacity.

Scheduling semantics reproduced here:

* first-fit placement over machines,
* a REGULAR allocation may evict pre-emptible VMs to make room (the very
  mechanism that makes pre-emptible capacity cheap and unreliable).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.clock import SimClock
from repro.cluster.machine import Machine, MachineSpec, Priority, VirtualMachine, VMRequest
from repro.exceptions import CapacityError, ClusterError


class Cell:
    """One data center: machines plus a simple first-fit scheduler."""

    def __init__(
        self,
        name: str,
        n_machines: int,
        machine_spec: MachineSpec = MachineSpec(),
        clock: Optional[SimClock] = None,
    ):
        if n_machines < 1:
            raise ClusterError("a cell needs at least one machine")
        self.name = name
        self.clock = clock or SimClock()
        self.machines = [Machine(m, machine_spec) for m in range(n_machines)]
        #: Called with each VM evicted to make room for a regular VM.
        self.eviction_listeners: List[Callable[[VirtualMachine], None]] = []
        self.evictions = 0

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    @property
    def total_cpus(self) -> int:
        return sum(machine.spec.cpus for machine in self.machines)

    @property
    def free_cpus(self) -> int:
        return sum(machine.free_cpus for machine in self.machines)

    @property
    def utilization(self) -> float:
        total = self.total_cpus
        return (total - self.free_cpus) / total if total else 0.0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, request: VMRequest) -> VirtualMachine:
        """Place a VM, evicting pre-emptibles if a REGULAR ask needs room."""
        for machine in self.machines:
            if machine.fits(request):
                return machine.place(request, self.name, self.clock.now)
        if request.priority is Priority.REGULAR:
            machine = self._make_room(request)
            if machine is not None:
                return machine.place(request, self.name, self.clock.now)
        raise CapacityError(
            f"cell {self.name!r} cannot satisfy {request} "
            f"({self.free_cpus}/{self.total_cpus} cpus free)"
        )

    def _make_room(self, request: VMRequest) -> Optional[Machine]:
        """Evict pre-emptible VMs from the machine where fewest evictions help."""
        best: Optional[Tuple[int, Machine, List[VirtualMachine]]] = None
        for machine in self.machines:
            evicted: List[VirtualMachine] = []
            cpus, memory = machine.free_cpus, machine.free_memory_gb
            for vm in machine.evictable_preemptibles():
                if cpus >= request.cpus and memory >= request.memory_gb:
                    break
                evicted.append(vm)
                cpus += vm.request.cpus
                memory += vm.request.memory_gb
            if cpus >= request.cpus and memory >= request.memory_gb:
                if best is None or len(evicted) < best[0]:
                    best = (len(evicted), machine, evicted)
        if best is None:
            return None
        _, machine, victims = best
        for vm in victims:
            self._evict(machine, vm)
        return machine

    def _evict(self, machine: Machine, vm: VirtualMachine) -> None:
        machine.remove(vm, self.clock.now)
        self.evictions += 1
        for listener in self.eviction_listeners:
            listener(vm)

    def release(self, vm: VirtualMachine) -> None:
        """Return a VM's resources to the pool."""
        for machine in self.machines:
            if machine.machine_id == vm.machine_id and vm in machine.vms:
                machine.remove(vm, self.clock.now)
                return
        raise ClusterError(f"vm {vm.vm_id} not found in cell {self.name!r}")


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

    def cells_by_free_capacity(self) -> List[Cell]:
        """Cells ordered most-free-first — where Sigmund sends work."""
        return sorted(self.cells.values(), key=lambda cell: -cell.free_cpus)

    def split_by_capacity(self, total_shards: int) -> Dict[str, int]:
        """Divide ``total_shards`` units of work across cells ∝ free CPUs.

        This is the paper's per-data-center job splitting: each cell gets
        its own independent MapReduce sized to its spare capacity.  Shares
        always sum to exactly ``total_shards`` and are never negative;
        with fewer shards than cells, the most-free cells are served
        first, and when there are enough shards to go around, every cell
        with free capacity receives at least one.
        """
        if total_shards < 1:
            raise ClusterError("total_shards must be >= 1")
        free = {name: cell.free_cpus for name, cell in self.cells.items()}
        total_free = sum(free.values())
        if total_free == 0:
            raise CapacityError("no free capacity anywhere in the cluster")
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
            (name for name in names if free[name] > 0),
            key=lambda n: (shares[n] - quotas[n], -free[n], n),
        )
        for name in by_fraction[:remainder]:
            shares[name] += 1
        # When feasible, guarantee every free cell a shard by taking one
        # from the currently largest share (which then still keeps >= 1).
        starved = [n for n in names if free[n] > 0 and shares[n] == 0]
        if total_shards >= len([n for n in names if free[n] > 0]):
            for name in starved:
                donor = max(names, key=lambda n: shares[n])
                if shares[donor] <= 1:
                    break
                shares[donor] -= 1
                shares[name] += 1
        return shares
