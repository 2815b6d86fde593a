"""Seeded input generators for the benchmark's workloads.

Every generator is a pure function of its seed: the same seed gives the
same documents, byte for byte.  The program under test only ever sees
the files written from these documents.
"""

from __future__ import annotations

import random
from math import fsum

# The published example1 script (four users, 16 posts), one role per slot.
# Scaled threads repeat it and hand each slot to a user of that role.
EXAMPLE1_TEMPLATE = (
    ("expert", "relevant"),
    ("victim", "relevant"),
    ("victim", "relevant"),
    ("expert", "relevant"),
    ("troll", "controversy"),
    ("victim", "controversy"),
    ("victim", "controversy"),
    ("expert", "relevant"),
    ("victim", "relevant"),
    ("victim", "relevant"),
    ("troll", "senseless"),
    ("victim", "relevant"),
    ("victim", "relevant"),
    ("troll", "controversy"),
    ("victim", "relevant"),
    ("victim", "relevant"),
)

ROLE_PREFIX = {"troll": "T", "victim": "V", "expert": "E"}


def scaled_example1_spec(
    seed: int, messages: int, trolls: int, victims: int, experts: int
) -> dict:
    """Scenario document (the ``simulate --spec`` format) that repeats the
    example1 script to ``messages`` posts spread over the given roster.

    Each user of a role gets one of that role's slots first, so everyone
    posts; the remaining slots of the role go to users drawn at random.
    """
    rng = random.Random(seed)
    pools = {
        role: [f"{ROLE_PREFIX[role]}{i}" for i in range(1, count + 1)]
        for role, count in (("troll", trolls), ("victim", victims), ("expert", experts))
    }
    slots = [EXAMPLE1_TEMPLATE[i % len(EXAMPLE1_TEMPLATE)] for i in range(messages)]
    authors: list[str | None] = [None] * messages
    for role, pool in pools.items():
        positions = [i for i, (r, _) in enumerate(slots) if r == role]
        if len(positions) < len(pool):
            raise ValueError(f"{len(pool)} {role}s but only {len(positions)} {role} posts")
        rng.shuffle(positions)
        for k, pos in enumerate(positions):
            authors[pos] = pool[k] if k < len(pool) else rng.choice(pool)
    script = []
    for author, (_, category) in zip(authors, slots):
        entry = {"author": author, "category": category}
        if category == "controversy":
            entry["topic"] = 2
        script.append(entry)
    users = [{"id": uid, "role": role} for role, pool in pools.items() for uid in pool]
    return {
        "topic_count": 2,
        "relevant_topic": 1,
        "seed": seed,
        "users": users,
        "script": script,
    }


def wide_thread(
    seed: int,
    messages: int,
    users: int,
    trolls: int,
    topic_count: int = 14,
    focal_range: tuple[int, int] = (4, 10),
) -> dict:
    """Thread document over a large frame with many focal sets per bba.

    Normal users' focal sets all contain ``Topic_1`` (the relevant topic);
    trolls' sets never do.  Other labels join a set with probability 1/2,
    so almost every focal set in the thread is distinct.
    """
    rng = random.Random(seed)
    labels = ["Off-topic", "Senseless"] + [f"Topic_{j}" for j in range(1, topic_count + 1)]
    others = [lab for lab in labels if lab != "Topic_1"]
    roster = [f"T{i}" for i in range(1, trolls + 1)]
    roster += [f"N{i}" for i in range(1, users - trolls + 1)]
    authors = roster + [rng.choice(roster) for _ in range(messages - users)]
    rng.shuffle(authors)

    def focal_set(is_troll: bool) -> tuple[str, ...]:
        while True:
            members = [lab for lab in others if rng.random() < 0.5]
            if not is_troll:
                members.append("Topic_1")
            if members:
                return tuple(lab for lab in labels if lab in members)

    # Every count in the range is used equally often, so the focal-set mean
    # (and with it the cost of a pair) is the same for every seed.
    low, high = focal_range
    counts = [low + i % (high - low + 1) for i in range(messages)]
    rng.shuffle(counts)
    out = []
    for rank, (author, count) in enumerate(zip(authors, counts), start=1):
        is_troll = author.startswith("T")
        sets: list[tuple[str, ...]] = []
        while len(sets) < count:
            candidate = focal_set(is_troll)
            if candidate not in sets:
                sets.append(candidate)
        weights = [rng.uniform(0.05, 1.0) for _ in sets]
        total = fsum(weights)
        bba = [{"set": list(s), "mass": w / total} for s, w in zip(sets, weights)]
        out.append({"rank": rank, "author": author, "bba": bba})
    return {
        "topic_count": topic_count,
        "relevant_topic": 1,
        "users": roster,
        "messages": out,
    }
