"""Stochastic-gradient optimizers: plain SGD and Adagrad.

The paper trains BPR with SGD but sets per-parameter learning rates with
Adagrad [18], which "damps the learning rates of frequently updated items,
and relatively increases the rate for the rare items" and empirically
"converges faster and is more reliable than the basic SGD" (section
III-C1).  Incremental runs reset the accumulated norms to zero before
continuing (section III-C3); :meth:`Adagrad.reset_norms` implements that.

Optimizers here update *rows* of parameter matrices in place, which is the
access pattern of BPR: one training triple touches a handful of embedding
rows.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

import numpy as np


def flat_row_index(rows: np.ndarray, width: int) -> np.ndarray:
    """Element indices of ``rows`` in a C-contiguous ``(n, width)`` table."""
    return (rows[:, None] * width + np.arange(width)).reshape(-1)


def scatter_add_rows(
    target: np.ndarray,
    rows: np.ndarray,
    values: np.ndarray,
    flat: Optional[np.ndarray] = None,
) -> None:
    """``np.add.at(target, rows, values)``: the same sums in the same order.

    numpy scatters into a 2-D target through its generic path; going
    through the target's 1-D view with element indices takes the fast
    one (~3x at mini-batch sizes).  Elements are still visited row by
    row, so every element of ``target`` receives the same additions in
    the same sequence and the result is bit-identical.  ``flat`` is
    ``flat_row_index(rows, width)`` when the caller scatters over the
    same rows more than once.
    """
    if target.ndim == 1 or not target.flags.c_contiguous:
        # reshape(-1) of a non-contiguous table would be a copy.
        np.add.at(target, rows, values)
        return
    if flat is None:
        flat = flat_row_index(rows, target.shape[1])
    np.add.at(target.reshape(-1), flat, values.reshape(-1))


class Optimizer(abc.ABC):
    """Row-wise parameter updater.

    A parameter matrix is registered once under a name; afterwards
    :meth:`step_rows` applies one gradient per listed row.
    """

    def __init__(self, learning_rate: float):
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.learning_rate = learning_rate

    @abc.abstractmethod
    def register(self, name: str, param: np.ndarray) -> None:
        """Declare a parameter array before any step touches it."""

    @abc.abstractmethod
    def step_rows(
        self, name: str, param: np.ndarray, rows: np.ndarray, grads: np.ndarray
    ) -> None:
        """Apply one gradient (ascent direction) per entry of ``rows`` in place.

        ``rows`` may contain duplicates (two triples in a mini-batch can
        touch the same embedding row); duplicate contributions are summed
        in ``rows`` order (:func:`scatter_add_rows`), so the result is
        deterministic.  All gradients are taken as evaluated at the pre-batch
        parameters — standard mini-batch semantics.
        """

    def reset_norms(self) -> None:
        """Forget any accumulated state (no-op unless the optimizer has some)."""

    def state_size_bytes(self) -> int:
        """Approximate memory held by optimizer state."""
        return 0

    # ------------------------------------------------------------------
    # State hand-off (fleet workers)
    # ------------------------------------------------------------------
    def get_state(self) -> Dict[str, np.ndarray]:
        """Deep copies of accumulated state, keyed like the parameters.

        Stateless optimizers return an empty dict; the pair
        ``(model.get_state(), model.optimizer.get_state())`` is exactly
        what a fleet worker ships back so the coordinator can rebuild the
        trained model without pickling live objects.
        """
        return {}

    def set_state(self, state: Dict[str, np.ndarray]) -> None:
        """Restore accumulated state from :meth:`get_state` output in place."""
        if state:
            raise ValueError(
                f"stateless optimizer given state for {sorted(state)!r}"
            )


class Sgd(Optimizer):
    """Plain stochastic gradient descent with a constant learning rate."""

    def register(self, name: str, param: np.ndarray) -> None:
        # SGD is stateless; registration is accepted for interface parity.
        del name, param

    def step_rows(
        self, name: str, param: np.ndarray, rows: np.ndarray, grads: np.ndarray
    ) -> None:
        scatter_add_rows(param, rows, self.learning_rate * grads)


class Adagrad(Optimizer):
    """Adagrad: per-element adaptive learning rates.

    Keeps the running sum of squared gradients for every parameter element
    and scales each step by its inverse square root, so hot (popular) items
    cool down while rare items keep learning.
    """

    def __init__(self, learning_rate: float, epsilon: float = 1e-8):
        super().__init__(learning_rate)
        self.epsilon = epsilon
        self._accumulators: Dict[str, np.ndarray] = {}

    def register(self, name: str, param: np.ndarray) -> None:
        if name not in self._accumulators:
            self._accumulators[name] = np.zeros_like(param, dtype=np.float64)
        elif self._accumulators[name].shape != param.shape:
            raise ValueError(
                f"parameter {name!r} re-registered with shape {param.shape}, "
                f"accumulator has {self._accumulators[name].shape}"
            )

    def step_rows(
        self, name: str, param: np.ndarray, rows: np.ndarray, grads: np.ndarray
    ) -> None:
        acc = self._accumulators[name]
        flat = flat_row_index(rows, param.shape[1]) if param.ndim == 2 else None
        scatter_add_rows(acc, rows, np.square(grads), flat)
        # The adaptive rate reads the accumulator *after* the whole batch's
        # squared mass lands, so a row hit twice in one batch is damped for
        # both contributions — per-row adaptivity survives vectorization.
        scaled = grads / (np.sqrt(acc[rows]) + self.epsilon)
        scatter_add_rows(param, rows, self.learning_rate * scaled, flat)

    def reset_norms(self) -> None:
        """Zero all accumulated squared-gradient norms.

        The paper resets stored norms before each incremental run so that
        warm-started models do not inherit yesterday's damped rates.
        """
        for acc in self._accumulators.values():
            acc.fill(0.0)

    def accumulated_norm(self, name: str) -> float:
        """Total accumulated squared-gradient mass for a parameter (testing)."""
        return float(self._accumulators[name].sum())

    def get_state(self) -> Dict[str, np.ndarray]:
        return {name: acc.copy() for name, acc in self._accumulators.items()}

    def set_state(self, state: Dict[str, np.ndarray]) -> None:
        for name, values in state.items():
            if name not in self._accumulators:
                raise ValueError(f"state for unregistered parameter {name!r}")
            if values.shape != self._accumulators[name].shape:
                raise ValueError(
                    f"state for {name!r} has shape {values.shape}, "
                    f"accumulator has {self._accumulators[name].shape}"
                )
        for name, values in state.items():
            self._accumulators[name][...] = values

    def state_size_bytes(self) -> int:
        return sum(acc.nbytes for acc in self._accumulators.values())


def make_optimizer(kind: str, learning_rate: float) -> Optimizer:
    """Factory used by config records (``kind`` is ``"sgd"`` or ``"adagrad"``)."""
    if kind == "sgd":
        return Sgd(learning_rate)
    if kind == "adagrad":
        return Adagrad(learning_rate)
    raise ValueError(f"unknown optimizer kind {kind!r}")
