"""Independent brute-force reference implementations.

Everything here works on dense vectors over the whole power set or on
frozensets of label strings, deliberately avoiding the library's sparse
focal-set paths, so the two routes can be compared within tight
tolerances.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping

import numpy as np

from trolldetect.belief import MASS_SUM_TOLERANCE
from trolldetect.errors import (
    DuplicateSubset,
    NegativeMass,
    NonFiniteMass,
    SumNotOne,
)


def mask_members(mask: int, labels: tuple[str, ...]) -> frozenset[str]:
    return frozenset(lab for i, lab in enumerate(labels) if mask >> i & 1)


def dense_vector(m) -> list[float]:
    """Mass on every subset of the frame, empty set through full set."""
    return [m.mass(s) for s in m.frame.subsets()]


# ---------------------------------------------------------------------------
# the MassFunction constructor on a dict
# ---------------------------------------------------------------------------

def reference_bba(frame, assignments) -> dict[int, float]:
    """The focal sets and masses ``MassFunction(frame, assignments)`` keeps,
    as a dict in ascending subset order, or the error it raises with the
    same text.  Each check runs in the constructor's order, on a plain dict
    that detects duplicates by lookup, with no sorted-input fast path."""
    if type(assignments) is not list and isinstance(assignments, Mapping):
        assignments = assignments.items()
    masses: dict[int, float] = {}
    for subset, mass in assignments:
        frame.check_subset(subset)
        if isinstance(mass, bool) or not isinstance(mass, numbers.Real):
            raise NonFiniteMass(
                f"mass on subset {subset:#b} is a {type(mass).__name__}, not a real number"
            )
        try:
            mass = float(mass)
        except OverflowError:
            raise NonFiniteMass(f"mass on subset {subset:#b} is past the float range") from None
        if not math.isfinite(mass):
            raise NonFiniteMass(f"mass {mass!r} on subset {subset:#b}")
        if mass < 0.0:
            raise NegativeMass(f"mass {mass!r} on subset {subset:#b}")
        if subset in masses:
            raise DuplicateSubset(f"subset {subset:#b} assigned twice")
        masses[subset] = mass
    try:
        total = math.fsum(masses.values())
    except OverflowError:
        raise SumNotOne("masses sum past the float range, expected 1") from None
    if abs(total - 1.0) > MASS_SUM_TOLERANCE:
        raise SumNotOne(f"masses sum to {total!r}, expected 1")
    return {s: m for s, m in sorted(masses.items()) if m > 0.0}


# ---------------------------------------------------------------------------
# combination rules on dense vectors
# ---------------------------------------------------------------------------

def dense_conjunctive(v1: list[float], v2: list[float]) -> list[float]:
    size = len(v1)
    out = [0.0] * size
    for a in range(size):
        for b in range(size):
            out[a & b] += v1[a] * v2[b]
    return out


def dense_disjunctive(v1: list[float], v2: list[float]) -> list[float]:
    size = len(v1)
    out = [0.0] * size
    for a in range(size):
        for b in range(size):
            out[a | b] += v1[a] * v2[b]
    return out


def dense_dempster(v1: list[float], v2: list[float]) -> list[float] | None:
    """None signals total conflict."""
    out = dense_conjunctive(v1, v2)
    k = out[0]
    if 1.0 - k <= 1e-12:
        return None
    out[0] = 0.0
    return [v / (1.0 - k) for v in out]


# ---------------------------------------------------------------------------
# similarity, distance, conflict on frozensets
# ---------------------------------------------------------------------------

def set_jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


_matrix_cache: dict[tuple[str, ...], np.ndarray] = {}


def set_jaccard_matrix(labels: tuple[str, ...]) -> np.ndarray:
    """Dense similarity matrix built from label frozensets."""
    if labels not in _matrix_cache:
        size = 2 ** len(labels)
        sets = [mask_members(mask, labels) for mask in range(size)]
        matrix = np.empty((size, size))
        for a in range(size):
            for b in range(size):
                matrix[a, b] = set_jaccard(sets[a], sets[b])
        _matrix_cache[labels] = matrix
    return _matrix_cache[labels]


def naive_jousselme(m1, m2) -> float:
    labels = m1.frame.labels
    matrix = set_jaccard_matrix(labels)
    delta = np.array(dense_vector(m1)) - np.array(dense_vector(m2))
    squared = 0.5 * float(delta @ matrix @ delta)
    return math.sqrt(max(squared, 0.0))


def naive_inclusion_degree(m1, m2) -> float:
    labels = m1.frame.labels
    f1 = [mask_members(s, labels) for s in m1.focal_sets()]
    f2 = [mask_members(s, labels) for s in m2.focal_sets()]
    hits = sum(1 for x in f1 for y in f2 if x <= y)
    return hits / (len(f1) * len(f2))


def naive_conflict(m1, m2) -> float:
    nested = max(naive_inclusion_degree(m1, m2), naive_inclusion_degree(m2, m1))
    return (1.0 - nested) * naive_jousselme(m1, m2)


# ---------------------------------------------------------------------------
# thread aggregation, transcribed with plain nested loops
# ---------------------------------------------------------------------------

def naive_message_conflict_per_user(thread, rank: int, user: str) -> float:
    target = thread.message(rank).bba
    priors = [m.bba for m in thread.messages if m.rank < rank and m.author == user]
    return sum(naive_conflict(target, p) for p in priors) / len(priors)


def naive_message_conflict(thread, rank: int) -> float:
    author = thread.message(rank).author
    total_prior = sum(
        1 for m in thread.messages if m.rank < rank and m.author != author
    )
    if total_prior == 0:
        return 0.0
    acc = 0.0
    for user in thread.users:
        if user == author:
            continue
        count = sum(
            1 for m in thread.messages if m.rank < rank and m.author == user
        )
        if count == 0:
            continue
        acc += (count / total_prior) * naive_message_conflict_per_user(
            thread, rank, user
        )
    return acc


def naive_user_conflict(thread, user: str) -> float:
    ranks = [m.rank for m in thread.messages if m.author == user]
    return sum(naive_message_conflict(thread, r) for r in ranks) / len(ranks)


# ---------------------------------------------------------------------------
# exhaustive optimum for the 1-D two-way split
# ---------------------------------------------------------------------------

def _wcss(values: list[float]) -> float:
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values)


def best_split(values: dict) -> tuple[frozenset, frozenset, float]:
    """Minimal within-cluster sum of squares over every sorted cut.

    Returns (high ids, low ids, cost).
    """
    items = sorted(values.items(), key=lambda kv: (kv[1], str(kv[0])))
    best = None
    best_cost = math.inf
    for cut in range(1, len(items)):
        low, high = items[:cut], items[cut:]
        cost = _wcss([v for _, v in low]) + _wcss([v for _, v in high])
        if cost < best_cost:
            best_cost = cost
            best = (
                frozenset(k for k, _ in high),
                frozenset(k for k, _ in low),
            )
    assert best is not None
    return best[0], best[1], best_cost
