"""Scalar transcription of the paper's formulas, used to check outputs.

It works on the raw thread document (label lists and masses, as in the
file), with each focal set turned into a bitmask over the labels in the
order it first meets them.  It imports nothing from the package, so a
change to the program's scoring path cannot change these answers.

* distance: sqrt(1/2 * sum over A, B in the union of both bbas' focal
  sets of delta(A) * delta(B) * |A & B| / |A | B|), delta = m1 - m2;
* inclusion degree of m1 in m2: share of focal pairs (A of m1, B of m2)
  with A a subset of B;
* conflict: (1 - max of the two inclusion degrees) * distance;
* message score: flat mean of its conflict with every earlier message by
  another author (0 when there is none);
* user score: mean of the user's message scores;
* trolls: the high side of the minimal within-cluster-sum-of-squares
  split of the user scores, users then assigned to the nearer center
  (ties to the low side).
"""

from __future__ import annotations

import math
from math import fsum


def focal(bba_document: list[dict], bits: dict[str, int]) -> list[tuple[int, float]]:
    """(set mask, mass) pairs; ``bits`` maps labels to bits and grows."""
    out = []
    for entry in bba_document:
        mask = 0
        for label in entry["set"]:
            mask |= 1 << bits.setdefault(label, len(bits))
        out.append((mask, float(entry["mass"])))
    return out


def jaccard(a: int, b: int) -> float:
    if not a and not b:
        return 1.0
    return (a & b).bit_count() / (a | b).bit_count()


def distance(m1, m2) -> float:
    delta: dict[int, float] = {}
    for s, v in m1:
        delta[s] = delta.get(s, 0.0) + v
    for s, v in m2:
        delta[s] = delta.get(s, 0.0) - v
    entries = list(delta.items())
    total = 0.0
    for a, va in entries:
        for b, vb in entries:
            total += va * vb * jaccard(a, b)
    return math.sqrt(max(0.5 * total, 0.0))


def inclusion_degree(m1, m2) -> float:
    hits = sum(1 for a, _ in m1 for b, _ in m2 if a & b == a)
    return hits / (len(m1) * len(m2))


def conflict(m1, m2) -> float:
    nested = max(inclusion_degree(m1, m2), inclusion_degree(m2, m1))
    return (1.0 - nested) * distance(m1, m2)


def pair_values(m1, m2) -> tuple[float, float, float, float, float]:
    """The five numbers ``trolldetect conflict`` prints for one pair."""
    a_in_b = inclusion_degree(m1, m2)
    b_in_a = inclusion_degree(m2, m1)
    d = distance(m1, m2)
    return a_in_b, b_in_a, max(a_in_b, b_in_a), d, (1.0 - max(a_in_b, b_in_a)) * d


def split_users(per_user: dict[str, float]) -> tuple[frozenset, frozenset]:
    """(trolls, others) from the exhaustive best contiguous split."""
    ordered = sorted(per_user.values())

    def sse(values):
        mean = fsum(values) / len(values)
        return fsum((v - mean) ** 2 for v in values)

    best = min(
        range(1, len(ordered)),
        key=lambda cut: (sse(ordered[:cut]) + sse(ordered[cut:]), -cut),
    )
    low = fsum(ordered[:best]) / best
    high = fsum(ordered[best:]) / (len(ordered) - best)
    trolls = frozenset(u for u, v in per_user.items() if abs(v - high) < abs(v - low))
    return trolls, frozenset(per_user) - trolls


def detect(document: dict) -> dict:
    """Expected ``detect`` report for a thread document."""
    messages = sorted(document["messages"], key=lambda m: m["rank"])
    bits: dict[str, int] = {}
    bbas = [focal(m["bba"], bits) for m in messages]
    authors = [m["author"] for m in messages]
    per_message = []
    for i, (mine, author) in enumerate(zip(bbas, authors)):
        scores = [conflict(mine, bbas[j]) for j in range(i) if authors[j] != author]
        per_message.append(fsum(scores) / len(scores) if scores else 0.0)
    per_user = {}
    for user in document["users"]:
        own = [s for s, a in zip(per_message, authors) if a == user]
        per_user[user] = fsum(own) / len(own)
    trolls, others = split_users(per_user)
    return {
        "per_message": per_message,
        "per_user": per_user,
        "trolls": trolls,
        "others": others,
    }


def report_mismatches(report: dict, expected: dict, tol: float = 1e-12) -> list[str]:
    """Differences between a ``detect --json`` report body and ``detect``."""
    problems = []
    got = report["per_message"]
    if len(got) != len(expected["per_message"]):
        return [f"{len(got)} message scores, expected {len(expected['per_message'])}"]
    for rank, (g, e) in enumerate(zip(got, expected["per_message"]), start=1):
        if not abs(g - e) <= tol:
            problems.append(f"message {rank}: {g!r} vs {e!r}")
    if list(report["per_user"]) != list(expected["per_user"]):
        problems.append("per_user roster differs")
    else:
        for user, e in expected["per_user"].items():
            if not abs(report["per_user"][user] - e) <= tol:
                problems.append(f"user {user}: {report['per_user'][user]!r} vs {e!r}")
    if frozenset(report["trolls"]) != expected["trolls"]:
        problems.append("troll set differs")
    if frozenset(report["others"]) != expected["others"]:
        problems.append("other set differs")
    return problems
