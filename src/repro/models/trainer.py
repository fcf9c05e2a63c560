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
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.datasets import RetailerDataset
from repro.data.events import EVENT_STRENGTH_ORDER, EventType
from repro.data.sessions import UserContext, context_windows
from repro.exceptions import ConfigError, DataError
from repro.models.bpr import BPRModel, NegativePlan, PositivePlan, concat_ranges
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

#: Batches one :class:`~repro.models.bpr.PositivePlan` covers.  Sized on
#: perfbench's ``dense_full_zipf_hot``: planning a whole epoch's element
#: indices put ``day_peak_rss_mb`` 7.5 % over the per-batch loop, and row
#: indices over windows of 64 batches keep it level while a window's
#: planning is spread over 64 steps.
PLAN_WINDOW = 64


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


@dataclass(frozen=True, eq=False)
class ExampleSet:
    """One retailer's training examples, as far as they read its data alone.

    The users' context windows, the positives, the contexts as CSR arrays
    (example ``b`` owns ``ctx_rows[indptr[b]:indptr[b + 1]]``, with event
    codes ``ctx_events``) and each strength-constraint example's pool of
    weaker items depend on the dataset and nothing else, so a training run
    builds them once per retailer (:meth:`build`) and hands them to every
    config's :class:`BPRTrainer`.  What a trainer adds is its own: the
    context weights of its model's decay and event weighting, and one draw
    from each pool off its stream.  The arrays are read-only.
    """

    retailer_id: str
    strength_constraints: bool
    #: The examples in training order; a constraint example's ``negative``
    #: is still ``None`` here.
    examples: Tuple[TrainingExample, ...]
    indptr: np.ndarray
    ctx_rows: np.ndarray
    ctx_events: np.ndarray
    positives: np.ndarray
    #: Positions of the strength-constraint examples, ascending, and each
    #: one's pool, in the order a draw indexes it.
    constrained: Tuple[int, ...] = ()
    pools: Tuple[Tuple[int, ...], ...] = ()

    @classmethod
    def build(
        cls, dataset: RetailerDataset, strength_constraints: bool = True
    ) -> "ExampleSet":
        """Walk every user's training history into examples.

        Each context window is an implicit-positive example.  With
        ``strength_constraints``, a search, cart or conversion is followed
        by a constraint example whenever the user touched some other item
        more weakly before it (:func:`_weaker_items`).
        """
        examples: List[TrainingExample] = []
        constrained: List[int] = []
        pools: List[Tuple[int, ...]] = []
        histories = dataset.train_histories()
        max_context = dataset.max_context
        for user_id in sorted(histories):
            history = histories[user_id]
            # Track the strongest event each item has received so far, to
            # build the strength-constraint pools.
            strongest: Dict[int, EventType] = {}
            for context, interaction in context_windows(history, max_context):
                example = TrainingExample(context, interaction.item_index)
                examples.append(example)
                if strength_constraints and interaction.event > EventType.VIEW:
                    pool = _weaker_items(
                        strongest, interaction.event, interaction.item_index
                    )
                    if pool:
                        constrained.append(len(examples))
                        pools.append(pool)
                        examples.append(example)
                previous = strongest.get(interaction.item_index, EventType.VIEW)
                strongest[interaction.item_index] = max(previous, interaction.event)
            # Seed the tracker with the first interaction too (the window
            # generator skips it as a positive but it still carries strength).
            if history:
                first = history[0]
                previous = strongest.get(first.item_index, EventType.VIEW)
                strongest[first.item_index] = max(previous, first.event)
        return cls.of(
            dataset.retailer_id, examples, strength_constraints, constrained, pools
        )

    @classmethod
    def of(
        cls,
        retailer_id: str,
        examples: Sequence[TrainingExample],
        strength_constraints: bool,
        constrained: Sequence[int],
        pools: Sequence[Tuple[int, ...]],
    ) -> "ExampleSet":
        """``examples`` with their contexts and positives flattened once."""
        count = len(examples)
        contexts = [example.context for example in examples]
        lengths = np.fromiter(map(len, contexts), dtype=np.int64, count=count)
        indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        size = int(indptr[-1])
        arrays = (
            indptr,
            np.fromiter(
                chain.from_iterable(context.item_indices for context in contexts),
                dtype=np.int64,
                count=size,
            ),
            np.fromiter(
                chain.from_iterable(context.events for context in contexts),
                dtype=np.int64,
                count=size,
            ),
            np.fromiter(
                (example.positive for example in examples), dtype=np.int64, count=count
            ),
        )
        for array in arrays:
            array.setflags(write=False)
        return cls(
            retailer_id,
            strength_constraints,
            tuple(examples),
            *arrays,
            constrained=tuple(constrained),
            pools=tuple(pools),
        )


def _weaker_items(
    strongest: Dict[int, EventType], event: EventType, positive: int
) -> Tuple[int, ...]:
    """The items this user touched strictly more weakly than ``event``.

    Prefers the adjacent level (search pairs with view, cart with search,
    ...) as the paper describes, falling back to any strictly weaker level.
    """
    target_level = EVENT_STRENGTH_ORDER[event.strength - 1]
    adjacent = tuple(
        item
        for item, strength in strongest.items()
        if strength == target_level and item != positive
    )
    return adjacent or tuple(
        item
        for item, strength in strongest.items()
        if strength < event and item != positive
    )


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
        examples: Optional[ExampleSet] = None,
    ):
        if dataset.retailer_id != model.retailer_id:
            raise DataError(
                f"model for {model.retailer_id!r} cannot train on "
                f"{dataset.retailer_id!r} data"
            )
        if examples is not None and (
            examples.retailer_id != dataset.retailer_id
            or examples.strength_constraints != strength_constraints
        ):
            raise DataError(
                f"examples of {examples.retailer_id!r} (strength constraints "
                f"{examples.strength_constraints}) cannot train {dataset.retailer_id!r} "
                f"(strength constraints {strength_constraints})"
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
        #: Triples per ``step_planned`` (gradients evaluated at pre-batch
        #: parameters).  A size, not a path: ``1`` is batches of one
        #: through the same loop.
        self.batch_size = batch_size
        #: Per-epoch observability; instruments are fetched per epoch (not
        #: per SGD step) so a live registry costs nothing measurable and
        #: the default null registry costs one no-op call per epoch.
        self.metrics = metrics
        self._rng = make_rng(seed if seed is not None else model.params.seed)
        self._converged = False
        if examples is None:
            examples = ExampleSet.build(dataset, strength_constraints)
        self.examples, negatives = self._draw_constraint_negatives(examples)
        self.compiled: CompiledExamples = self._compile(examples, negatives)

    # ------------------------------------------------------------------
    # Example construction
    # ------------------------------------------------------------------
    def _draw_constraint_negatives(
        self, examples: ExampleSet
    ) -> Tuple[List[TrainingExample], np.ndarray]:
        """Each constraint example's negative, one draw from its pool, in
        order, off the trainer's stream (its shuffles come after).  Returns
        the trainer's examples and their negatives, ``-1`` where the
        sampler draws one per epoch."""
        drawn = list(examples.examples)
        negatives = np.full(len(drawn), -1, dtype=np.int64)
        for position, pool in zip(examples.constrained, examples.pools):
            weaker = pool[int(self._rng.integers(len(pool)))]
            negatives[position] = weaker
            example = drawn[position]
            drawn[position] = TrainingExample(example.context, example.positive, weaker)
        return drawn, negatives

    def _compile(self, examples: ExampleSet, negatives: np.ndarray) -> CompiledExamples:
        """The arrays :meth:`run_epoch` consumes: ``examples``' own, the
        context weights of this trainer's model, and ``negatives``.

        The weights come from
        :meth:`~repro.models.bpr.BPRModel.context_weights_csr`, one block
        per context length, equal bit for bit to one
        :meth:`~repro.models.bpr.BPRModel.context_weights` per example.
        """
        return CompiledExamples(
            indptr=examples.indptr,
            ctx_rows=examples.ctx_rows,
            ctx_weights=self.model.context_weights_csr(examples.indptr, examples.ctx_events),
            positives=examples.positives,
            negatives=negatives,
        )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def run_epoch(self) -> float:
        """One pass over all examples in random order; returns mean loss.

        The only loop over training examples.  The trainer's stream
        supplies the shuffle and then every sampled negative, in batch
        order.  The epoch is cut into windows of :data:`PLAN_WINDOW`
        batches; each window's positive side is planned once
        (:class:`~repro.models.bpr.PositivePlan`), and each batch is one
        :meth:`~repro.models.bpr.BPRModel.step_planned`.  Negatives are
        planned where they are drawn (:class:`~repro.models.bpr.NegativePlan`):
        a sampler that ``draws_ahead`` reads no parameter, so the whole
        epoch's are drawn in one ``sample_batch`` right after the shuffle
        and planned a window at a time; any other sampler's are picked,
        and planned, one batch at a time against the live model, from what
        its ``draw_window`` drew for the window.
        """
        n = len(self.examples)
        if n == 0:
            return 0.0
        compiled = self.compiled
        model = self.model
        size = self.batch_size
        rng = self._rng
        order = rng.permutation(n)
        negatives = compiled.negatives[order]
        ahead = self.sampler.draws_ahead
        if ahead:
            sampled = np.flatnonzero(negatives < 0)
            if sampled.size:
                negatives[sampled] = self.sampler.sample_batch(
                    self.examples, compiled, order[sampled], rng
                )
        total = 0.0
        span = size * PLAN_WINDOW
        for start in range(0, n, span):
            window = order[start : start + span]
            plan = PositivePlan(
                model, compiled.gather(window), compiled.positives[window], size
            )
            drawn = negatives[start : start + span]
            if ahead:
                planned = NegativePlan(model, drawn, size)
            else:
                sampled = np.flatnonzero(drawn < 0)
                cuts = np.searchsorted(sampled, plan.bounds).tolist()
                draws = self.sampler.draw_window(
                    self.examples, compiled, window[sampled], cuts, rng
                )
            for k in range(plan.n_batches):
                if ahead:
                    losses = model.step_planned(plan, k, planned, k)
                else:
                    if cuts[k + 1] > cuts[k]:
                        drawn[sampled[cuts[k] : cuts[k + 1]]] = draws.pick(k)
                    batch = drawn[plan.bounds[k] : plan.bounds[k + 1]]
                    losses = model.step_planned(plan, k, NegativePlan(model, batch, size), 0)
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
