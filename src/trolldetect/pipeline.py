"""Conflict aggregation over a thread and the troll/other partition.

Three levels of aggregation:

* a message against one other user: mean conflict with that user's
  earlier messages (:func:`message_conflict_per_user`, a per-user
  diagnostic);
* a message against everyone else: the per-user means weighted by how
  many earlier messages each user contributed.  With ``n_u`` earlier
  messages of conflict sum ``S_u`` per user and ``N = sum n_u``, that is
  ``sum (n_u / N) (S_u / n_u) = sum S_u / N``: the flat mean of conflict
  over every earlier message by another author (0 when there is none);
* a user: plain mean over all of the user's messages, unopposed first
  posts included in the divisor.

``analyze``, ``message_conflict`` and ``user_conflict`` all score messages
through one vectorised kernel (numpy, imported on first use), so they
agree exactly.  ``analyze`` then clusters the per-user scores into two
groups and labels the higher-centered group as trolls.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from math import fsum
from typing import Any

from .belief import INTERNAL_TOLERANCE
from .clustering import kmeans2
from .conflict import conflict
from .errors import NoPriorMessages, SameUser, UnknownUser
from .thread import Thread

__all__ = [
    "ConflictReport",
    "message_conflict_per_user",
    "message_conflict",
    "user_conflict",
    "analyze",
]


@dataclass(frozen=True)
class ConflictReport:
    """Everything the detection run produced.

    ``per_message`` is indexed by rank minus one; ``per_user`` preserves
    roster order.  ``trolls`` is the cluster with the higher center.
    """

    per_message: tuple[float, ...]
    per_user: dict[str, float]
    trolls: frozenset[str]
    others: frozenset[str]
    troll_center: float
    other_center: float

    def to_dict(self) -> dict[str, Any]:
        roster = list(self.per_user)
        return {
            "per_message": list(self.per_message),
            "per_user": dict(self.per_user),
            "trolls": [u for u in roster if u in self.trolls],
            "others": [u for u in roster if u in self.others],
            "centers": {"trolls": self.troll_center, "others": self.other_center},
        }


def message_conflict_per_user(thread: Thread, rank: int, user: str) -> float:
    """Mean conflict between the message at ``rank`` and the earlier
    messages of one other user."""
    msg = thread.message(rank)
    if user not in thread.users:
        raise UnknownUser(f"{user!r} is not on the roster")
    if user == msg.author:
        raise SameUser(f"message {rank} belongs to {user!r}")
    priors = [m for m in thread.messages[: rank - 1] if m.author == user]
    if not priors:
        raise NoPriorMessages(f"{user!r} has no messages before rank {rank}")
    return fsum(conflict(msg.bba, p.bba) for p in priors) / len(priors)


def message_conflict(thread: Thread, rank: int) -> float:
    """Conflict of the message at ``rank`` against all earlier messages by
    other users: the flat mean over those messages, which equals the
    per-user means weighted by how many of those messages each user posted.

    Returns 0 for a message with no earlier messages from other users.
    """
    thread.message(rank)  # RankOutOfBounds before a bad rank can index
    return _score_rows(thread, (rank,))[0]


def user_conflict(thread: Thread, user: str) -> float:
    """Mean conflict over all of a user's messages."""
    ranks = thread.ranks_by(user)
    return fsum(_score_rows(thread, ranks)) / len(ranks)


def analyze(thread: Thread) -> ConflictReport:
    """Score every message and user, then split users into trolls and others.

    Deterministic: messages are processed in rank order and users in
    roster order.  Propagates :class:`~trolldetect.errors.Degenerate` when
    the per-user scores cannot be split (for example, all identical).
    """
    per_message = tuple(_score_rows(thread, range(1, len(thread.messages) + 1)))
    by_author: dict[str, list[float]] = {user: [] for user in thread.users}
    for msg, score in zip(thread.messages, per_message):
        by_author[msg.author].append(score)
    per_user = {user: fsum(scores) / len(scores) for user, scores in by_author.items()}
    split = kmeans2(per_user)
    return ConflictReport(
        per_message=per_message,
        per_user=per_user,
        trolls=split.high,
        others=split.low,
        troll_center=split.center_high,
        other_center=split.center_low,
    )


# Upper bound on the entries of one (pairs, slots, slots) temporary in
# ``_score_rows``; longer rows are scored in blocks of earlier messages.
_BLOCK_ENTRIES = 1 << 16


def _score_rows(thread: Thread, ranks: Iterable[int]) -> list[float]:
    """Flat-mean conflict of each message at ``ranks`` (see
    :func:`message_conflict`), the one scoring path of this module.

    The thread is packed once into slot arrays: row ``i`` holds message
    ``i``'s focal sets as bitmasks and their masses, padded with mask 0
    and mass 0 up to the largest focal count.  A slot is live when its
    mass is positive, which tells a genuine empty focal set from padding.
    Each row is then scored against the earlier messages by other authors
    with the same arithmetic as :func:`~trolldetect.conflict.conflict`:
    the mass difference is formed on the union of focal sets before the
    Jaccard-weighted quadratic form, so identical bbas give exactly 0.
    Thread validation already guarantees a single frame.
    """
    import numpy as np

    messages = thread.messages
    width = max(len(m.bba) for m in messages)
    masks = np.array(
        [list(m.bba.focal_sets()) + [0] * (width - len(m.bba)) for m in messages],
        dtype=np.int64,
    )
    masses = np.array(
        [[v for _, v in m.bba.items()] + [0.0] * (width - len(m.bba)) for m in messages]
    )
    live = masses > 0.0
    counts = live.sum(axis=1)
    roster = {user: k for k, user in enumerate(thread.users)}
    authors = np.array([roster[m.author] for m in messages])
    block = max(1, _BLOCK_ENTRIES // (4 * width * width))

    scores = []
    for rank in ranks:
        i = rank - 1
        x, a = masks[i], masses[i]
        earlier = np.flatnonzero(authors[:i] != authors[i])
        conflicts = []
        for start in range(0, earlier.size, block):
            rows = earlier[start : start + block]
            y, b = masks[rows], masses[rows]
            pairs = live[i][:, None] & live[rows][:, None, :]
            meet = x[:, None] & y[:, None, :]
            x_in_y = ((meet == x[:, None]) & pairs).sum(axis=(1, 2))
            y_in_x = ((meet == y[:, None, :]) & pairs).sum(axis=(1, 2))
            nested = np.maximum(x_in_y, y_in_x) / (counts[i] * counts[rows])

            # A focal set shared by both bbas keeps one entry, a - b.
            shared = (x[:, None] == y[:, None, :]) & pairs
            delta = np.concatenate(
                [a - (shared * b[:, None, :]).sum(axis=2),
                 np.where(shared.any(axis=1), 0.0, -b)],
                axis=1,
            )
            sets = np.concatenate([np.broadcast_to(x, y.shape), y], axis=1)
            inter = np.bitwise_count(sets[:, :, None] & sets[:, None, :])
            union = np.bitwise_count(sets[:, :, None] | sets[:, None, :])
            similarity = np.divide(inter, union, out=np.ones(union.shape), where=union > 0)
            squared = 0.5 * np.einsum("ps,pst,pt->p", delta, similarity, delta)
            if (squared < -INTERNAL_TOLERANCE).any():
                raise ArithmeticError("quadratic form went negative; inputs are corrupt")
            distance = np.sqrt(np.maximum(squared, 0.0))
            conflicts += ((1.0 - nested) * distance).tolist()
        scores.append(fsum(conflicts) / len(conflicts) if conflicts else 0.0)
    return scores
