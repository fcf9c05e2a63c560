"""Stochastic-gradient optimizers: plain SGD and Adagrad.

The paper trains BPR with SGD but sets per-parameter learning rates with
Adagrad [18], which "damps the learning rates of frequently updated items,
and relatively increases the rate for the rare items" and empirically
"converges faster and is more reliable than the basic SGD" (section
III-C1).  Incremental runs reset the accumulated norms to zero before
continuing (section III-C3); :meth:`Adagrad.reset_norms` implements that.

Optimizers here update parameter elements in place through index arrays,
which is the access pattern of BPR: one training triple touches a handful
of embedding rows.  A model registers its tables as consecutive ranges of
one flat buffer (:func:`carve`), so one update can reach every table a
batch touches.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, Optional, Tuple

import numpy as np

#: ``name -> (offset, shape)``: where each table lives in a flat buffer.
Layout = Dict[str, Tuple[int, Tuple[int, ...]]]


def carve(buffer: np.ndarray, layout: Layout) -> Dict[str, np.ndarray]:
    """Views of ``buffer``, one per table of ``layout``, in ``layout`` order."""
    return {
        name: buffer[offset : offset + math.prod(shape)].reshape(shape)
        for name, (offset, shape) in layout.items()
    }


def flat_row_index(rows: np.ndarray, width: int) -> np.ndarray:
    """Element indices of ``rows`` in a C-contiguous ``(n, width)`` table."""
    return (rows[:, None] * width + np.arange(width)).reshape(-1)


def scatter_add_rows(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(target, rows, values)``: the same sums in the same order.

    numpy scatters into a 2-D target through its generic path; going
    through the target's 1-D view with element indices takes the fast
    one (~3x at mini-batch sizes).  Elements are still visited row by
    row, so every element of ``target`` receives the same additions in
    the same sequence and the result is bit-identical.
    """
    if target.ndim == 1 or not target.flags.c_contiguous:
        # reshape(-1) of a non-contiguous table would be a copy.
        np.add.at(target, rows, values)
        return
    np.add.at(target.reshape(-1), flat_row_index(rows, target.shape[1]), values.reshape(-1))


class Optimizer(abc.ABC):
    """Element-wise parameter updater.

    A model registers its flat parameter buffer's :data:`Layout` once
    (:meth:`register_flat`); afterwards :meth:`step_flat` applies one
    gradient per listed element of that buffer.
    """

    def __init__(self, learning_rate: float):
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.learning_rate = learning_rate

    @abc.abstractmethod
    def register_flat(self, layout: Layout) -> None:
        """Declare a flat parameter buffer's tables before any step touches it."""

    @abc.abstractmethod
    def step_flat(self, params: np.ndarray, index: np.ndarray, grads: np.ndarray) -> None:
        """Apply ``grads[k]`` (ascent direction) to ``params[index[k]]`` in place.

        ``params`` is the flat buffer of :meth:`register_flat`.  Duplicate
        elements sum in ``index`` order, so the result is deterministic;
        all gradients are taken as evaluated before the step.
        """

    def reset_norms(self) -> None:
        """Forget any accumulated state (no-op unless the optimizer has some)."""

    def release_norms(self) -> None:
        """Free any accumulated state; a later step starts from zeros
        (no-op unless the optimizer has some)."""


class Sgd(Optimizer):
    """Plain stochastic gradient descent with a constant learning rate."""

    def register_flat(self, layout: Layout) -> None:
        del layout

    def step_flat(self, params: np.ndarray, index: np.ndarray, grads: np.ndarray) -> None:
        np.add.at(params, index, self.learning_rate * grads)


class Adagrad(Optimizer):
    """Adagrad: per-element adaptive learning rates.

    Keeps the running sum of squared gradients for every parameter element
    and scales each step by its inverse square root, so hot (popular) items
    cool down while rare items keep learning.

    After :meth:`register_flat` the sums live in one flat buffer laid out
    like the model's parameters, and ``_accumulators`` holds a view of it
    per table, so one :meth:`step_flat` serves every table a batch touches.
    :meth:`release_norms` frees that buffer once training is over; a
    released optimizer's norms are all zero, and the next step allocates
    them again as zeros.
    """

    def __init__(self, learning_rate: float, epsilon: float = 1e-8):
        super().__init__(learning_rate)
        self.epsilon = epsilon
        self._accumulators: Dict[str, np.ndarray] = {}
        #: The buffer ``_accumulators`` views, and its layout, once
        #: :meth:`register_flat` has run; ``None`` again once released.
        self._flat: Optional[np.ndarray] = None
        self._layout: Layout = {}

    def register_flat(self, layout: Layout) -> None:
        self._layout = dict(layout)
        self._allocate()

    def _allocate(self) -> np.ndarray:
        """Zeroed sums for every table of the registered layout."""
        size = max(
            (offset + math.prod(shape) for offset, shape in self._layout.values()), default=0
        )
        self._flat = np.zeros(size, dtype=np.float64)
        self._accumulators = carve(self._flat, self._layout)
        return self._flat

    def step_flat(self, params: np.ndarray, index: np.ndarray, grads: np.ndarray) -> None:
        acc = self._flat
        if acc is None:  # released: every norm is zero
            acc = self._allocate()
        np.add.at(acc, index, np.square(grads))
        # The adaptive rate reads the accumulator *after* the whole batch's
        # squared mass lands, so an element hit twice in one batch is damped
        # for both contributions — per-element adaptivity survives batching.
        scaled = grads / (np.sqrt(acc[index]) + self.epsilon)
        np.add.at(params, index, self.learning_rate * scaled)

    def reset_norms(self) -> None:
        """Zero all accumulated squared-gradient norms.

        The paper resets stored norms before each incremental run so that
        warm-started models do not inherit yesterday's damped rates.
        """
        for acc in self._accumulators.values():
            acc.fill(0.0)

    def release_norms(self) -> None:
        """Free the sums: nothing reads a trained model's norms again.

        The paper resets them before any further training (section
        III-C3), so a released optimizer stands for all-zero norms and
        :meth:`step_flat` allocates them afresh.
        """
        self._flat = None
        self._accumulators = {}

    def accumulated_norm(self, name: str) -> float:
        """Total accumulated squared-gradient mass for a parameter (testing)."""
        if self._flat is None:
            return 0.0
        return float(self._accumulators[name].sum())

    # Copies (pickle, ``copy.deepcopy``) carry the flat buffer alone and
    # re-carve the views, which would otherwise each become an array of
    # their own and stop seeing :meth:`step_flat`.
    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        if self._flat is not None:
            del state["_accumulators"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        if self._flat is not None:
            self._accumulators = carve(self._flat, self._layout)


def make_optimizer(kind: str, learning_rate: float) -> Optimizer:
    """Factory used by config records (``kind`` is ``"sgd"`` or ``"adagrad"``)."""
    if kind == "sgd":
        return Sgd(learning_rate)
    if kind == "adagrad":
        return Adagrad(learning_rate)
    raise ValueError(f"unknown optimizer kind {kind!r}")
