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
through one tiled kernel (numpy, imported on first use), so they agree
exactly.  ``analyze`` then clusters the per-user scores into two
groups and labels the higher-centered group as trolls.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import islice
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
    ``scoring`` holds the kernel's counters (messages, users, vocabulary
    size, packing, pairs scored); ``to_dict`` leaves them out.
    """

    per_message: tuple[float, ...]
    per_user: dict[str, float]
    trolls: frozenset[str]
    others: frozenset[str]
    troll_center: float
    other_center: float
    scoring: dict[str, Any] = field(default_factory=dict)

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
    scores, _ = _score_rows(thread, (rank,))
    return scores[0]


def user_conflict(thread: Thread, user: str) -> float:
    """Mean conflict over all of a user's messages."""
    ranks = thread.ranks_by(user)
    scores, _ = _score_rows(thread, ranks)
    return fsum(scores) / len(ranks)


def analyze(thread: Thread) -> ConflictReport:
    """Score every message and user, then split users into trolls and others.

    Deterministic: messages are processed in rank order and users in
    roster order.  Propagates :class:`~trolldetect.errors.Degenerate` when
    the per-user scores cannot be split (for example, all identical).
    """
    scores, scoring = _score_rows(thread, range(1, len(thread.messages) + 1))
    per_message = tuple(scores)
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
        scoring=scoring,
    )


# Upper bound on the entries of a tile's per-pair temporaries in
# ``_score_rows``.  A pair counts (2P)^2 entries under the slot packing (its
# Jaccard matrix) and K + 8 under the vocabulary packing (its K mass
# differences and the eight pair-sized arrays scored alongside them).
_BLOCK_ENTRIES = 1 << 16

# The vocabulary packing runs while (K + T) K <= _VOCABULARY_RATIO P^2, with
# T the non-zeros of the upper Jaccard triangle (the terms of the form) and P
# the largest focal count.  Timed with each packing forced on threads with K
# from 4 to 127 and P from 2 to 20, the vocabulary packing's time per pair
# grew about as (K + T) K and the slot packing's as P^2; the vocabulary
# packing was as fast or faster on every thread up to 788 P^2 and slower on
# every one from 1 120 P^2.
_VOCABULARY_RATIO = 1024


def _score_rows(thread: Thread, ranks: Iterable[int]) -> tuple[list[float], dict[str, Any]]:
    """Flat-mean conflict of each message at ``ranks`` (see
    :func:`message_conflict`), the one scoring path of this module, plus
    counters of the run (messages, users, vocabulary size K, packing, pairs).

    Rows are scored in tiles: a tile holds consecutive requested rows and
    scores them against every message before its last row at once, in
    column blocks, so that its per-pair temporaries stay within
    ``_BLOCK_ENTRIES``.
    Each row is then reduced over exactly its own earlier messages by other
    authors with ``fsum``, which is order-free, so a row's result does not
    depend on which rows share its tile.

    The thread is packed one of two ways, picked from what it holds: its K
    distinct focal sets, the T non-zeros of their Jaccard matrix's upper
    triangle and the largest focal count P.  The vocabulary packing
    (:func:`_vocabulary_packing`) runs while (K + T) K is at most
    ``_VOCABULARY_RATIO`` P^2; a generated thread, with a handful of mostly
    disjoint focal sets, takes it.  A thread of mostly distinct bbas takes
    the slot packing (:func:`_slot_packing`).
    Both take the mass difference before the Jaccard-weighted quadratic
    form, so identical bbas give exactly 0.  Thread validation already
    guarantees a single frame.
    """
    import numpy as np

    messages = thread.messages
    bbas = [m.bba for m in messages]
    vocabulary = sorted({s for bba in bbas for s in bba.focal_sets()})
    width = max(len(bba) for bba in bbas)
    score = _vocabulary_packing(np, bbas, vocabulary, width)
    if score is None:
        score, per_pair, packing = _slot_packing(np, bbas, width), 4 * width * width, "slots"
    else:
        per_pair, packing = len(vocabulary) + 8, "vocabulary"
    budget = max(1, _BLOCK_ENTRIES // per_pair)  # pairs per tile
    roster = {user: k for k, user in enumerate(thread.users)}
    authors = np.array([roster[m.author] for m in messages])

    rows = [rank - 1 for rank in ranks]
    scores: list[float] = []
    pairs = 0
    first = 0
    while first < len(rows):
        last, columns = first + 1, rows[first]
        while last < len(rows) and (last + 1 - first) * max(columns, rows[last]) <= budget:
            columns = max(columns, rows[last])
            last += 1
        tile = np.array(rows[first:last])
        step = max(1, budget // tile.size)
        values = np.empty((tile.size, columns))
        for start in range(0, columns, step):
            stop = min(columns, start + step)
            values[:, start:stop] = score(tile, start, stop)
        # Each row's own entries: earlier messages by other authors.
        opposed = (np.arange(columns) < tile[:, None]) & (authors[:columns] != authors[tile, None])
        counts = opposed.sum(axis=1).tolist()
        conflicts = iter(values[opposed].tolist())  # row after row
        for count in counts:
            scores.append(fsum(islice(conflicts, count)) / count if count else 0.0)
        pairs += sum(counts)
        first = last
    scoring = {
        "messages": len(messages),
        "users": len(thread.users),
        "vocabulary": len(vocabulary),
        "packing": packing,
        "pairs": pairs,
    }
    return scores, scoring


def _conflict(np, nested, squared):
    """Conflict from the nested share and the quadratic form of each pair."""
    if (squared < -INTERNAL_TOLERANCE).any():
        raise ArithmeticError("quadratic form went negative; inputs are corrupt")
    return (1.0 - nested) * np.sqrt(np.maximum(squared, 0.0))


def _jaccard(np, x, y):
    """Element-wise Jaccard similarity of two broadcastable mask arrays."""
    union = np.bitwise_count(x | y)
    return np.divide(np.bitwise_count(x & y), union, out=np.ones(union.shape), where=union > 0)


def _vocabulary_packing(np, bbas, vocabulary, width):
    """Tile scorer over a dense M x K mass matrix on the thread's distinct
    focal sets, or None when the slot packing is cheaper (see
    ``_VOCABULARY_RATIO``).

    The K x K Jaccard matrix S and inclusion matrix N are built once.  For
    a tile, the differences D = A[rows] - A[columns] come first; the form
    Q = 1/2 sum S_kl D_k D_l is then summed term by term in a fixed order
    over the non-zeros of S's upper triangle, so every pair gets the same
    operations whatever its tile.  With F the 0/1 focal indicator, the two
    inclusion counts are the exact integer products (F N) F^T and F (F N)^T.
    """
    size, limit = len(vocabulary), _VOCABULARY_RATIO * width * width
    # T >= K (the diagonal), so the rule can fail before T is counted.
    if 2 * size * size > limit:
        return None
    # T a row at a time, so that a thread sent to the slot packing never
    # builds K x K arrays: sets that meet have a non-zero similarity, and
    # so has the empty set (first when present) with itself.
    sets = np.array(vocabulary, dtype=np.int64)
    count = sum(int(np.count_nonzero(sets[k:] & s)) for k, s in enumerate(vocabulary))
    if (size + count + (vocabulary[0] == 0)) * size > limit:
        return None
    upper = np.triu(_jaccard(np, sets[:, None], sets[None, :]))
    terms = [
        (k, l, 0.5 if k == l else float(upper[k, l]))
        for k, l in np.argwhere(upper).tolist()
    ]

    index = {s: k for k, s in enumerate(vocabulary)}
    masses = np.zeros((size, len(bbas)))  # A^T, one row per focal set
    for i, bba in enumerate(bbas):
        for s, v in bba.items():
            masses[index[s], i] = v
    focal = (masses.T > 0.0).astype(float)
    reach = focal @ ((sets[:, None] & sets[None, :]) == sets[:, None])  # F N: own sets inside each set
    counts = focal.sum(axis=1)

    def score(rows, start, stop):
        delta = masses[:, rows, None] - masses[:, None, start:stop]
        squared = np.zeros(delta.shape[1:])
        term = np.empty(delta.shape[1:])
        for k, l, weight in terms:
            np.multiply(delta[k], delta[l], out=term)
            term *= weight
            squared += term
        x_in_y = reach[rows] @ focal[start:stop].T
        y_in_x = focal[rows] @ reach[start:stop].T
        nested = np.maximum(x_in_y, y_in_x) / (counts[rows, None] * counts[None, start:stop])
        return _conflict(np, nested, squared)

    return score


def _slot_packing(np, bbas, width):
    """Tile scorer over slot arrays: row ``i`` holds message ``i``'s focal
    sets as bitmasks and their masses, padded with mask 0 and mass 0 up to
    the largest focal count P.  A slot is live when its mass is positive,
    which tells a genuine empty focal set from padding.  Each pair is scored
    with the arithmetic of :func:`~trolldetect.conflict.conflict` on the
    union of its focal sets: a 2P x 2P Jaccard matrix and one quadratic form
    per pair."""
    masks = np.array(
        [list(bba.focal_sets()) + [0] * (width - len(bba)) for bba in bbas],
        dtype=np.int64,
    )
    masses = np.array([[v for _, v in bba.items()] + [0.0] * (width - len(bba)) for bba in bbas])
    live = masses > 0.0
    counts = live.sum(axis=1)

    def score(rows, start, stop):
        # Axes: row, column, then a slot of the row's bba, then the column's.
        x, a, lx = masks[rows, None, :, None], masses[rows, None, :], live[rows, None, :, None]
        y, b, ly = masks[None, start:stop, None, :], masses[None, start:stop], live[None, start:stop, None, :]
        pairs = lx & ly
        meet = x & y
        x_in_y = ((meet == x) & pairs).sum(axis=(2, 3))
        y_in_x = ((meet == y) & pairs).sum(axis=(2, 3))
        nested = np.maximum(x_in_y, y_in_x) / (counts[rows, None] * counts[None, start:stop])

        # A focal set shared by both bbas keeps one entry, a - b.
        shared = (x == y) & pairs
        shape = (rows.size, stop - start, width)
        delta = np.concatenate(
            [a - (shared * b[:, :, None, :]).sum(axis=3),
             np.where(shared.any(axis=2), 0.0, -b)],
            axis=2,
        ).reshape(-1, 2 * width)
        sets = np.concatenate(
            [np.broadcast_to(masks[rows, None], shape),
             np.broadcast_to(masks[None, start:stop], shape)],
            axis=2,
        ).reshape(-1, 2 * width)
        similarity = _jaccard(np, sets[:, :, None], sets[:, None, :])
        squared = 0.5 * np.einsum("ps,pst,pt->p", delta, similarity, delta)
        return _conflict(np, nested, squared.reshape(shape[:2]))

    return score
