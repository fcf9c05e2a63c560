"""The single-machine BPR training loop (paper sections III-B, IV-B).

The trainer materializes training examples from user histories:

* **Implicit-positive triples** — every context window yields a
  ``(context, positive)`` pair whose negative is drawn per-epoch by the
  negative sampler (so each epoch contrasts against fresh negatives).
* **Strength-constraint triples** (section III-B1) — for every item a user
  searched, a triple is added whose negative is an item the same user
  merely viewed; likewise cart > search and conversion > cart.  These
  teach the model the paper's ``view < search < cart < conversion``
  ordering.

The loop supports epoch-level iteration (``iter_epochs``) so the pipeline
layer can checkpoint on a wall-clock schedule, and convergence-based early
stopping, which is what makes warm-started incremental runs cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.data.datasets import RetailerDataset
from repro.data.events import EVENT_STRENGTH_ORDER, EventType
from repro.data.sessions import UserContext, context_windows
from repro.exceptions import ConfigError, DataError
from repro.models.bpr import BPRModel, concat_ranges
from repro.models.negatives import NegativeSampler, UniformNegativeSampler
from repro.obs.metrics import NULL_METRICS
from repro.rng import SeedLike, make_rng

#: Epoch mean-loss distribution buckets (BPR log-loss starts near ln 2).
EPOCH_LOSS_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 2.0)

#: Mini-batch size of every trainer and ``TrainerSettings`` that does not
#: ask for another.  Measured, not guessed: the fastest size that keeps
#: perfbench's ``day_map_at_10`` inside its 3 % bound on all three
#: workloads (64 loses 4.1 % on ``wide_incr_uniform_cold``; README
#: "Vectorized training" has the sweep).
DEFAULT_BATCH_SIZE = 32

#: What assembling the effective vectors of one sampler-sized pool costs,
#: in items of a whole-catalog assembly (26 us against 0.3-0.6 us per item
#: on 400- to 12 000-item catalogs).
POOL_ASSEMBLY_ITEMS = 48


@dataclass(frozen=True)
class TrainingExample:
    """One BPR triple; ``negative`` is ``None`` when sampled per epoch."""

    context: UserContext
    positive: int
    negative: Optional[int] = None


@dataclass(frozen=True)
class CompiledExamples:
    """The example list flattened into numpy arrays, built once per trainer.

    Contexts are CSR: example ``b`` owns ``ctx_rows[indptr[b]:indptr[b+1]]``
    with the matching precomputed context weights (decay and event
    weighting are functions of the context alone, so weights are
    batch-invariant).  ``negatives`` holds fixed strength-constraint
    negatives, ``-1`` where the sampler draws one per epoch.
    """

    indptr: np.ndarray
    ctx_rows: np.ndarray
    ctx_weights: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray

    def gather(
        self, batch: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sub-CSR ``(indptr, rows, weights)`` for the selected examples."""
        starts = self.indptr[batch]
        counts = self.indptr[batch + 1] - starts
        flat = concat_ranges(starts, counts)
        sub_indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
        )
        return sub_indptr, self.ctx_rows[flat], self.ctx_weights[flat]


@dataclass
class TrainingReport:
    """What one training run did — consumed by sweeps and benchmarks."""

    epochs_run: int = 0
    sgd_steps: int = 0
    epoch_losses: List[float] = field(default_factory=list)
    converged: bool = False

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("inf")


class BPRTrainer:
    """Trains one :class:`BPRModel` on one retailer's data."""

    def __init__(
        self,
        model: BPRModel,
        dataset: RetailerDataset,
        sampler: Optional[NegativeSampler] = None,
        max_epochs: int = 20,
        convergence_tol: float = 1e-3,
        patience: int = 2,
        strength_constraints: bool = True,
        batch_size: int = DEFAULT_BATCH_SIZE,
        seed: SeedLike = None,
        metrics=NULL_METRICS,
    ):
        if dataset.retailer_id != model.retailer_id:
            raise DataError(
                f"model for {model.retailer_id!r} cannot train on "
                f"{dataset.retailer_id!r} data"
            )
        if batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        self.model = model
        self.dataset = dataset
        self.sampler = sampler or UniformNegativeSampler(model.n_items)
        self.max_epochs = max_epochs
        self.convergence_tol = convergence_tol
        self.patience = patience
        self.strength_constraints = strength_constraints
        #: Triples per ``sgd_step_batch`` (gradients evaluated at pre-batch
        #: parameters).  A size, not a path: ``1`` is batches of one
        #: through the same loop.
        self.batch_size = batch_size
        #: Per-epoch observability; instruments are fetched per epoch (not
        #: per SGD step) so a live registry costs nothing measurable and
        #: the default null registry costs one no-op call per epoch.
        self.metrics = metrics
        self._rng = make_rng(seed if seed is not None else model.params.seed)
        self._converged = False
        self.examples: List[TrainingExample] = self._build_examples()
        self.compiled: CompiledExamples = self._compile_examples()

    # ------------------------------------------------------------------
    # Example construction
    # ------------------------------------------------------------------
    def _build_examples(self) -> List[TrainingExample]:
        examples: List[TrainingExample] = []
        histories = self.dataset.train_histories()
        max_context = self.dataset.max_context
        for user_id in sorted(histories):
            history = histories[user_id]
            # Track the strongest event each item has received so far, to
            # build the strength-constraint negatives.
            strongest: Dict[int, EventType] = {}
            for context, interaction in context_windows(history, max_context):
                examples.append(TrainingExample(context, interaction.item_index))
                if self.strength_constraints and interaction.event > EventType.VIEW:
                    weaker = self._weaker_item(
                        strongest, interaction.event, interaction.item_index
                    )
                    if weaker is not None:
                        examples.append(
                            TrainingExample(
                                context, interaction.item_index, negative=weaker
                            )
                        )
                previous = strongest.get(interaction.item_index, EventType.VIEW)
                strongest[interaction.item_index] = max(previous, interaction.event)
            # Seed the tracker with the first interaction too (the window
            # generator skips it as a positive but it still carries strength).
            if history:
                first = history[0]
                previous = strongest.get(first.item_index, EventType.VIEW)
                strongest[first.item_index] = max(previous, first.event)
        return examples

    def _weaker_item(
        self,
        strongest: Dict[int, EventType],
        event: EventType,
        positive: int,
    ) -> Optional[int]:
        """Pick an item this user touched strictly more weakly than ``event``.

        Prefers the adjacent level (search pairs with view, cart with
        search, ...) as the paper describes, falling back to any strictly
        weaker level.
        """
        target_level = EVENT_STRENGTH_ORDER[event.strength - 1]
        adjacent = [
            item
            for item, strength in strongest.items()
            if strength == target_level and item != positive
        ]
        pool = adjacent or [
            item
            for item, strength in strongest.items()
            if strength < event and item != positive
        ]
        if not pool:
            return None
        return pool[int(self._rng.integers(len(pool)))]

    def _compile_examples(self) -> CompiledExamples:
        """Flatten the example list into the arrays :meth:`run_epoch` consumes."""
        indptr = np.zeros(len(self.examples) + 1, dtype=np.int64)
        ctx_rows: List[np.ndarray] = []
        ctx_weights: List[np.ndarray] = []
        positives = np.zeros(len(self.examples), dtype=np.int64)
        negatives = np.full(len(self.examples), -1, dtype=np.int64)
        for position, example in enumerate(self.examples):
            context = example.context
            indptr[position + 1] = indptr[position] + len(context)
            if len(context) > 0:
                ctx_rows.append(
                    np.asarray(context.item_indices, dtype=np.int64)
                )
                ctx_weights.append(self.model.context_weights(context))
            positives[position] = example.positive
            if example.negative is not None:
                negatives[position] = example.negative
        return CompiledExamples(
            indptr=indptr,
            ctx_rows=(
                np.concatenate(ctx_rows)
                if ctx_rows
                else np.zeros(0, dtype=np.int64)
            ),
            ctx_weights=(
                np.concatenate(ctx_weights) if ctx_weights else np.zeros(0)
            ),
            positives=positives,
            negatives=negatives,
        )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def run_epoch(self) -> float:
        """One pass over all examples in random order; returns mean loss.

        The only loop over training examples: one ``sgd_step_batch`` per
        ``batch_size`` of them.  The trainer's stream supplies the shuffle
        and every sampled negative, in that order.
        """
        n = len(self.examples)
        if n == 0:
            return 0.0
        compiled = self.compiled
        rng = self._rng
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, len(order), self.batch_size):
            batch = order[start : start + self.batch_size]
            negatives = compiled.negatives[batch]
            sampled = np.flatnonzero(negatives < 0)
            if (
                self.sampler.model is self.model
                and sampled.size * POOL_ASSEMBLY_ITEMS >= self.model.n_items
            ):
                # Every draw scores a small pool, and parameters stay frozen
                # until the step: assemble all items once (the same rows,
                # bit for bit) instead of one pool per draw.
                self.model.effective_item_matrix()
            for offset, position in zip(sampled.tolist(), batch[sampled].tolist()):
                example = self.examples[position]
                negatives[offset] = self.sampler.sample(
                    example.context, example.positive, rng
                )
            losses = self.model.sgd_step_batch(
                compiled.gather(batch), compiled.positives[batch], negatives
            )
            total += float(losses.sum())
        return total / n

    #: The name ``tests/test_batched_sgd_bit_identity.py`` (frozen with the
    #: reference it compares against) drives the epoch under.
    _run_epoch_batched = run_epoch

    def iter_epochs(self) -> Iterator[Tuple[int, float]]:
        """Yield ``(epoch_index, mean_loss)`` after each epoch until done.

        Stops after ``max_epochs`` or once the relative loss improvement
        stays below ``convergence_tol`` for ``patience`` consecutive
        epochs; :attr:`converged` records which happened.  An empty example
        list yields a single zero-loss epoch instead of spinning through
        ``max_epochs``.  The caller may simply stop consuming the iterator
        at any point (e.g. on simulated pre-emption).
        """
        self._converged = False
        if not self.examples:
            self._converged = True
            yield 0, 0.0
            return
        retailer = self.dataset.retailer_id
        stale = 0
        previous = float("inf")
        for epoch in range(self.max_epochs):
            loss = self.run_epoch()
            self.metrics.counter("trainer_epochs_total", retailer=retailer).inc()
            self.metrics.counter(
                "trainer_sgd_steps_total", retailer=retailer
            ).inc(len(self.examples))
            self.metrics.histogram(
                "trainer_epoch_loss", EPOCH_LOSS_BUCKETS, retailer=retailer
            ).observe(loss)
            yield epoch, loss
            if previous != float("inf"):
                # At zero loss there is nothing left to improve: count the
                # epoch as stale rather than spinning to max_epochs.
                improvement = (
                    (previous - loss) / previous if previous > 0 else 0.0
                )
                stale = stale + 1 if improvement < self.convergence_tol else 0
            previous = loss
            if stale >= self.patience:
                self._converged = True
                return

    @property
    def converged(self) -> bool:
        """Whether the last run stopped on the convergence criterion.

        Tracked explicitly by :meth:`iter_epochs` — a run that converges
        exactly on the final epoch is converged, unlike the old
        ``epochs_run < max_epochs`` inference.
        """
        return self._converged

    def train(self) -> TrainingReport:
        """Run to convergence (or ``max_epochs``) and report."""
        report = TrainingReport()
        for epoch, loss in self.iter_epochs():
            report.epochs_run = epoch + 1
            report.sgd_steps += len(self.examples)
            report.epoch_losses.append(loss)
        report.converged = self._converged
        return report

    @property
    def n_examples(self) -> int:
        return len(self.examples)
