"""Leave-last-out holdout split (paper section III-C2).

For every user with more than two interactions, the last item in their
sequence is held out; the model is asked to rank that item given the
context formed by everything before it.  Each retailer gets its own
holdout set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.data.events import Interaction
from repro.data.sessions import (
    DEFAULT_MAX_CONTEXT,
    UserContext,
    build_user_histories,
    final_context,
)

#: Users need strictly more interactions than this to enter the holdout.
MIN_INTERACTIONS_FOR_HOLDOUT = 2


@dataclass(frozen=True)
class HoldoutExample:
    """One evaluation example: rank ``held_out_item`` given ``context``."""

    user_id: int
    context: UserContext
    held_out_item: int


@dataclass
class TrainTestSplit:
    """The result of :func:`leave_last_out_split` for one retailer."""

    train: List[Interaction]
    holdout: List[HoldoutExample]

    @property
    def num_train(self) -> int:
        return len(self.train)

    @property
    def num_holdout(self) -> int:
        return len(self.holdout)


def leave_last_out_split(
    interactions: Sequence[Interaction],
    max_context: int = DEFAULT_MAX_CONTEXT,
    min_interactions: int = MIN_INTERACTIONS_FOR_HOLDOUT,
) -> TrainTestSplit:
    """Split a retailer log into training events and a holdout set.

    Users with ``min_interactions`` or fewer events contribute all of
    their events to training and none to the holdout (there is too little
    context to evaluate them meaningfully, per the paper).
    """
    histories = build_user_histories(interactions)
    train: List[Interaction] = []
    holdout: List[HoldoutExample] = []
    for user_id in sorted(histories):
        history = histories[user_id]
        if len(history) <= min_interactions:
            train.extend(history)
            continue
        head, last = history[:-1], history[-1]
        train.extend(head)
        holdout.append(
            HoldoutExample(
                user_id=user_id,
                context=final_context(head, max_context),
                held_out_item=last.item_index,
            )
        )
    return TrainTestSplit(train=train, holdout=holdout)


def per_user_train_counts(split: TrainTestSplit) -> Dict[int, int]:
    """Number of training interactions per user (for diagnostics)."""
    counts: Dict[int, int] = {}
    for interaction in split.train:
        counts[interaction.user_id] = counts.get(interaction.user_id, 0) + 1
    return counts
