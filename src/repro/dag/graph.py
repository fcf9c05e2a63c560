"""The day graph: named blocks wired by dependency edges.

:class:`DayGraph` is a plain, order-preserving container of
:class:`~repro.dag.block.Block` declarations with the structural
guarantees the runner relies on:

* names are unique and every ``depends_on`` edge points at a declared
  block (``validate`` raises :class:`~repro.dag.block.DagError`),
* the graph is acyclic (``validate`` raises
  :class:`~repro.dag.block.CycleError` naming the cycle),
* ``topological_order`` is *deterministic*: among blocks whose
  dependencies are all satisfied, declaration order wins.  Declaration
  order is also ``GraphRunner``'s tie-break, which is what lets a
  ``max_parallelism=1`` run be compared block for block against the
  service's serial walk.

Graphs stay mutable because the day's shape is partly data-dependent:
the inference cell assignment exists only after the plan block has run,
so :class:`~repro.dag.runner.GraphRunner` grows the graph mid-run via
``Block.expand`` (re-validating after every growth step).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

from repro.dag.block import Block, CycleError, DagError


class DayGraph:
    """An insertion-ordered DAG of named blocks."""

    def __init__(self, blocks: Iterable[Block] = ()) -> None:
        self._blocks: Dict[str, Block] = {}
        for block in blocks:
            self.add(block)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, block: Block) -> Block:
        if block.name in self._blocks:
            raise DagError(f"duplicate block name {block.name!r}")
        self._blocks[block.name] = block
        return block

    def add_dependencies(self, name: str, deps: Iterable[str]) -> None:
        """Append edges ``name -> dep`` for deps not already present."""
        block = self.block(name)
        extra = tuple(d for d in deps if d not in block.depends_on)
        if any(d == name for d in extra):
            raise DagError(f"block {name!r} depends on itself")
        block.depends_on = block.depends_on + extra

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def block(self, name: str) -> Block:
        try:
            return self._blocks[name]
        except KeyError:
            raise DagError(f"unknown block {name!r}") from None

    def names(self) -> List[str]:
        return list(self._blocks)

    def blocks(self) -> List[Block]:
        return list(self._blocks.values())

    def __contains__(self, name: object) -> bool:
        return name in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks.values())

    def dependents_of(self, name: str) -> List[str]:
        """Names of blocks that directly depend on ``name``, in declaration order."""
        self.block(name)
        return [b.name for b in self._blocks.values() if name in b.depends_on]

    # ------------------------------------------------------------------
    # structure checks
    # ------------------------------------------------------------------
    def validate(self) -> None:
        for block in self._blocks.values():
            for dep in block.depends_on:
                if dep not in self._blocks:
                    raise DagError(f"block {block.name!r} depends on unknown block {dep!r}")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        WHITE, GREY, BLACK = 0, 1, 2
        color = {name: WHITE for name in self._blocks}
        for root in self._blocks:
            if color[root] != WHITE:
                continue
            # Iterative DFS along depends_on edges; a grey node on the
            # stack path means a cycle, reported by name.
            stack: List[Tuple[str, Iterator[str]]] = [(root, iter(self.block(root).depends_on))]
            color[root] = GREY
            path = [root]
            while stack:
                name, deps = stack[-1]
                advanced = False
                for dep in deps:
                    if color[dep] == GREY:
                        start = path.index(dep)
                        cycle = path[start:] + [dep]
                        raise CycleError(f"dependency cycle: {' -> '.join(cycle)}")
                    if color[dep] == WHITE:
                        color[dep] = GREY
                        path.append(dep)
                        stack.append((dep, iter(self.block(dep).depends_on)))
                        advanced = True
                        break
                if not advanced:
                    color[name] = BLACK
                    path.pop()
                    stack.pop()

    # ------------------------------------------------------------------
    # deterministic ordering
    # ------------------------------------------------------------------
    def topological_order(self) -> List[str]:
        """Kahn's algorithm with declaration order as the tie-break.

        Among ready blocks the earliest-declared runs first, so the
        result is a pure function of the declared graph — no set
        iteration order, no hashing.
        """
        self.validate()
        priority = {name: i for i, name in enumerate(self._blocks)}
        remaining_deps = {
            name: set(block.depends_on) for name, block in self._blocks.items()
        }
        dependents: Dict[str, List[str]] = {name: [] for name in self._blocks}
        for name, block in self._blocks.items():
            for dep in block.depends_on:
                dependents[dep].append(name)
        ready = sorted(
            (name for name, deps in remaining_deps.items() if not deps),
            key=priority.__getitem__,
        )
        order: List[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            newly = []
            for dep_name in dependents[name]:
                remaining_deps[dep_name].discard(name)
                if not remaining_deps[dep_name]:
                    newly.append(dep_name)
            if newly:
                ready = sorted(ready + newly, key=priority.__getitem__)
        return order
