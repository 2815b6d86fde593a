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
through one tiled numpy kernel that sums each row over its own entries, so
they agree exactly.  ``analyze`` then clusters the per-user scores into two
groups and labels the higher-centered group as trolls.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import fsum
from types import MappingProxyType
from typing import Any

import numpy as np

from .belief import INTERNAL_TOLERANCE, _Frozen
from .clustering import kmeans2
from .conflict import conflict
from .errors import NoPriorMessages, SameUser
from .thread import Thread

__all__ = [
    "ConflictReport",
    "message_conflict_per_user",
    "message_conflict",
    "user_conflict",
    "analyze",
]


class ConflictReport(_Frozen):
    """Everything the detection run produced.

    ``per_message`` is indexed by rank minus one; ``per_user``, read-only
    like ``scoring``, keeps roster order.  ``trolls`` is the higher-centered
    cluster.  ``scoring`` holds the kernel's counters (messages, users,
    vocabulary size, packing, pairs scored); ``to_dict`` leaves them out.
    """

    __slots__ = __match_args__ = ("per_message", "per_user", "trolls", "others",
                                  "troll_center", "other_center", "scoring")

    def __init__(
        self, per_message: tuple[float, ...], per_user: dict[str, float], trolls: frozenset[str],
        others: frozenset[str], troll_center: float, other_center: float, scoring: dict[str, Any],
    ):
        self._set(per_message, MappingProxyType(dict(per_user)), trolls, others,
                  troll_center, other_center, MappingProxyType(dict(scoring)))

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
    messages of one other user; scalar, because the kernel would pack the
    whole thread on every call."""
    msg = thread.message(rank)
    if user == msg.author:  # on the roster, so UnknownUser cannot come first
        raise SameUser(f"message {msg.rank} belongs to {user!r}")
    priors = [thread.messages[r - 1].bba for r in thread.ranks_by(user) if r < msg.rank]
    if not priors:
        raise NoPriorMessages(f"{user!r} has no messages before rank {msg.rank}")
    return fsum(conflict(msg.bba, p) for p in priors) / len(priors)


def message_conflict(thread: Thread, rank: int) -> float:
    """Conflict of the message at ``rank`` against all earlier messages by
    other users: the flat mean over those messages, which equals the
    per-user means weighted by how many of those messages each user posted.

    Returns 0 for a message with no earlier messages from other users.
    Each call packs the thread: for many, read one ``analyze``'s ``per_message``.
    """
    scores, _ = _score_rows(thread, (thread.message(rank).rank,))
    return scores[0]


def user_conflict(thread: Thread, user: str) -> float:
    """Mean conflict over all of a user's messages.  Each call packs the
    thread: for many, read one ``analyze``'s ``per_user`` (the same bits)."""
    scores, _ = _score_rows(thread, thread.ranks_by(user))
    return fsum(scores) / len(scores)


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
# ``_score_rows``; each packing reports what one pair costs.
_BLOCK_ENTRIES = 1 << 16

# The vocabulary packing runs while K^2 <= _VOCABULARY_RATIO P^2, with K the
# distinct focal sets and P the largest focal count.  Forced on K of 8-512, P of
# 1-40 and M of 140-600, it was as fast as the slot packing or faster up to
# K^2 = 1 024 P^2 and slower from 16 384 P^2, but that predates the slots' block
# form (1.5-2x faster): today's crossover is unmeasured.  128 admits every
# generated thread (K <= 17 at P = 2) and keeps the K x K arrays within 32 of
# the slot packing's per-pair cost of (2P)^2 entries, so a thread of 512
# sets in bbas of 40 takes the slots (K x K alone would be 2 MiB).
_VOCABULARY_RATIO = 128


def _score_rows(thread: Thread, ranks: Iterable[int]) -> tuple[list[float], dict[str, Any]]:
    """Flat-mean conflict of each message at ``ranks``, which ascend (see
    :func:`message_conflict`), the one scoring path of this module, plus
    counters of the run (messages, users, vocabulary size K, packing, pairs).

    The thread's focal sets stay flat lists in message order (masks, masses
    and ``sizes``, the focal counts); the masses are listed in the call that
    packs them, so no flat copy is held while the tiles run.  The vocabulary
    packing (:func:`_vocabulary_packing`), on the K sorted distinct focal
    sets, runs while the rule of ``_VOCABULARY_RATIO``, read from K and the
    largest focal count P alone, holds; a generated thread takes it.  A
    thread of mostly distinct bbas takes :func:`_slot_packing`, which pads
    to P.  Per pair, each returns only its two inclusion counts and its half
    quadratic form Q >= 0, taking the mass difference first, so identical
    bbas give exactly 0; each refuses a corrupt input whose form would go
    negative.  Thread validation already guarantees a single frame.

    Rows are scored in tiles: a tile holds consecutive requested rows and
    scores them against every message before its last row at once, in
    column blocks, so that its per-pair temporaries stay within
    ``_BLOCK_ENTRIES``.  Each block's conflict, (1 - nested) sqrt(Q) with
    nested the larger count over |F_r| |F_c|, is assembled here.
    Each row is then reduced by numpy's pairwise sum over exactly its own
    entries (earlier messages by other authors), masked out of its tile: the
    same contiguous array in column order in any tile, so the same bits.
    """
    messages = thread.messages
    sizes = np.array([len(m.bba) for m in messages])
    sets = [s for m in messages for s in m.bba.focal_sets()]
    vocabulary = sorted(set(sets))
    if len(vocabulary) ** 2 <= _VOCABULARY_RATIO * sizes.max() ** 2:
        pack, packing = _vocabulary_packing, "vocabulary"
    else:
        pack, packing = _slot_packing, "slots"
    score, per_pair = pack(vocabulary, sets, [v for m in messages for v in m.bba.masses()], sizes)
    budget = max(1, _BLOCK_ENTRIES // per_pair)  # pairs per tile
    roster = {user: k for k, user in enumerate(thread.users)}
    authors = np.array([roster[m.author] for m in messages])

    rows = [rank - 1 for rank in ranks]
    scores: list[float] = []
    pairs = 0
    first = 0
    while first < len(rows):
        last = first + 1
        while last < len(rows) and (last + 1 - first) * rows[last] <= budget:
            last += 1
        tile, columns = np.array(rows[first:last]), rows[last - 1]
        step = max(1, budget // tile.size)
        values = np.empty((tile.size, columns))
        for start in range(0, columns, step):
            stop = min(columns, start + step)
            x_in_y, y_in_x, squared = score(tile, start, stop)
            nested = np.maximum(x_in_y, y_in_x) / (sizes[tile, None] * sizes[None, start:stop])
            values[:, start:stop] = (1.0 - nested) * np.sqrt(squared)
            del x_in_y, y_in_x, squared, nested  # not held while the next block is scored
        # Each row's own entries: earlier messages by other authors.
        opposed = (np.arange(columns) < tile[:, None]) & (authors[:columns] != authors[tile, None])
        for row, mask in zip(values, opposed):
            own = row[mask]
            scores.append(float(own.sum()) / own.size if own.size else 0.0)
            pairs += own.size
        first = last
    scoring = {
        "messages": len(messages),
        "users": len(thread.users),
        "vocabulary": len(vocabulary),
        "packing": packing,
        "pairs": pairs,
    }
    return scores, scoring


def _jaccard(x, y):
    """Element-wise Jaccard similarity of two broadcastable mask arrays."""
    union = np.bitwise_count(x | y)
    return np.divide(np.bitwise_count(x & y), union, out=np.ones(union.shape), where=union > 0)


def _vocabulary_packing(vocabulary, sets, masses, sizes):
    """Tile scorer over per-message embeddings on the thread's K sorted
    distinct focal sets, with its cost per pair: 8 pair-sized arrays.  The
    flat lists of :func:`_score_rows` go straight into the K x M masses.

    The K x K Jaccard matrix S is positive semi-definite (what makes
    Jousselme's distance a metric): one ``eigh``, eigenvalues clipped at 0,
    gives S/2 = R R^T.  Each message's masses a on the vocabulary are embedded
    once as b = R^T a, and a pair's half form 1/2 D^T S D, D = a_r - a_c, is
    the sum of the squares of b_r - b_c.  Both sums run element-wise over k
    in a fixed order, so equal bbas get equal bits, identical bbas exactly
    0, and a pair the same bits in any tile.  With F the 0/1 focal indicator
    and N the inclusion matrix, the two inclusion counts are the exact
    integer products (F N) F^T and F (F N)^T.
    """
    words = np.array(vocabulary, dtype=np.int64)
    eigenvalues, vectors = np.linalg.eigh(_jaccard(words[:, None], words[None, :]))
    if eigenvalues[0] < -INTERNAL_TOLERANCE:
        raise ArithmeticError("quadratic form went negative; inputs are corrupt")
    root = vectors * np.sqrt(np.maximum(eigenvalues, 0.0) / 2.0)  # R, one row per focal set

    matrix = np.zeros((words.size, sizes.size))  # A^T, one row per focal set
    matrix[np.searchsorted(words, sets), np.repeat(np.arange(sizes.size), sizes)] = masses
    embedded = np.zeros(matrix.shape)  # B = R^T A^T, one row per dimension
    for k, row in enumerate(matrix):
        embedded += root[k, :, None] * row
    focal = (matrix.T > 0.0).astype(float)
    reach = focal @ ((words[:, None] & words[None, :]) == words[:, None])  # F N: own sets inside each set

    def score(rows, start, stop):
        squared = np.zeros((rows.size, stop - start))
        term = np.empty(squared.shape)
        for b in embedded:
            np.subtract(b[rows, None], b[None, start:stop], out=term)
            term *= term
            squared += term
        return reach[rows] @ focal[start:stop].T, focal[rows] @ reach[start:stop].T, squared

    return score, 8


def _slot_packing(vocabulary, sets, masses, sizes):
    """Tile scorer over slot arrays, with its cost per pair, (2P)^2 entries:
    a bound on the pair's P x P temporaries (cross Jaccard block, inclusion
    tests) and its share of the row's and the column's own P x P Jaccard
    blocks.  Row ``i`` holds message ``i``'s masks and masses padded to P; a
    slot is live when its index is below the bba's focal count, which tells
    an empty focal set (mask 0) from padding.  Each pair gets the two
    inclusion counts over its live slot pairs and one half form 1/2 D^T S D,
    with D the row's slots then the column's: half of each own block's form
    plus the cross block's, each an unoptimised einsum, so the same bits in
    any tile; clipped at 0 once none is below -``INTERNAL_TOLERANCE``."""
    live = np.arange(sizes.max()) < sizes[:, None]
    masks, weights = np.zeros(live.shape, dtype=np.int64), np.zeros(live.shape)
    masks[live], weights[live] = sets, masses  # weights: the padded masses

    def score(rows, start, stop):
        # Axes: row, column, then a slot of the row's bba, then the column's.
        x, a, lx = masks[rows, None, :, None], weights[rows, None, :], live[rows, None, :, None]
        y, b, ly = masks[None, start:stop, None, :], weights[None, start:stop], live[None, start:stop, None, :]
        pairs = lx & ly
        meet = x & y
        x_in_y = ((meet == x) & pairs).sum(axis=(2, 3))
        y_in_x = ((meet == y) & pairs).sum(axis=(2, 3))

        # A focal set shared by both bbas keeps one entry, a - b, in the row's slot.
        shared = (x == y) & pairs
        dx = a - (shared * b[:, :, None, :]).sum(axis=3)
        dy = np.where(shared.any(axis=2), 0.0, -b)
        sx, sy = (_jaccard(m[:, :, None], m[:, None]) for m in (masks[rows], masks[start:stop]))
        squared = 0.5 * (
            np.einsum("rcs,rst,rct->rc", dx, sx, dx) + np.einsum("rcs,cst,rct->rc", dy, sy, dy)
        ) + np.einsum("rcs,rcst,rct->rc", dx, _jaccard(x, y), dy)
        if (squared < -INTERNAL_TOLERANCE).any():
            raise ArithmeticError("quadratic form went negative; inputs are corrupt")
        return x_in_y, y_in_x, np.maximum(squared, 0.0)

    return score, 4 * live.shape[1] ** 2
