"""Shared generators for randomized tests: seeded and hypothesis-based."""

from __future__ import annotations

import math
import random
import string

from hypothesis import strategies as st

from trolldetect import Frame, MassFunction, Message, MessageFrame, Thread


def make_frame(n: int) -> Frame:
    return Frame(tuple(string.ascii_lowercase[:n]))


def random_mass(
    rng: random.Random,
    frame: Frame,
    allow_empty: bool = False,
    max_focal: int = 4,
) -> MassFunction:
    subset_count = 1 << len(frame)
    first = 0 if allow_empty else 1
    population = range(first, subset_count)
    count = rng.randint(1, min(max_focal, len(population)))
    subsets = rng.sample(population, count)
    weights = [rng.uniform(0.05, 1.0) for _ in subsets]
    total = math.fsum(weights)
    return MassFunction(frame, [(s, w / total) for s, w in zip(subsets, weights)])


def random_thread(
    rng: random.Random,
    max_users: int = 5,
    max_messages: int = 8,
    max_topics: int = 3,
    max_focal: int = 3,
    allow_empty: bool = False,
) -> Thread:
    user_count = rng.randint(2, max_users)
    users = tuple(f"U{i}" for i in range(1, user_count + 1))
    message_count = rng.randint(user_count, max_messages)
    authors = list(users) + [
        rng.choice(users) for _ in range(message_count - user_count)
    ]
    rng.shuffle(authors)
    frame = MessageFrame(topic_count=rng.randint(1, max_topics), relevant_topic=1)
    messages = tuple(
        Message(
            author=author,
            rank=rank,
            bba=random_mass(
                rng, frame.frame, allow_empty=allow_empty, max_focal=max_focal
            ),
        )
        for rank, author in enumerate(authors, start=1)
    )
    return Thread(frame=frame, users=users, messages=messages)


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

def frames(min_size: int = 2, max_size: int = 4) -> st.SearchStrategy[Frame]:
    return st.integers(min_size, max_size).map(make_frame)


@st.composite
def masses_on(draw, frame: Frame, allow_empty: bool = False, max_focal: int = 4):
    subset_count = 1 << len(frame)
    first = 0 if allow_empty else 1
    count = draw(st.integers(1, min(max_focal, subset_count - first)))
    subsets = draw(
        st.lists(
            st.integers(first, subset_count - 1),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.floats(0.05, 1.0, allow_nan=False, allow_infinity=False),
            min_size=count,
            max_size=count,
        )
    )
    total = math.fsum(weights)
    return MassFunction(frame, [(s, w / total) for s, w in zip(subsets, weights)])


@st.composite
def mass_pairs(draw, allow_empty: bool = False):
    """Two mass functions over one shared frame."""
    frame = draw(frames())
    m1 = draw(masses_on(frame, allow_empty=allow_empty))
    m2 = draw(masses_on(frame, allow_empty=allow_empty))
    return m1, m2


@st.composite
def mass_triples(draw, allow_empty: bool = False):
    frame = draw(frames())
    return tuple(draw(masses_on(frame, allow_empty=allow_empty)) for _ in range(3))
