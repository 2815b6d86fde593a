"""Shared generators for randomized tests (seeded and hypothesis-based),
the scenario document writer the spec tests use, and fresh-interpreter
runners, and the bench's thread generators."""

from __future__ import annotations

import copy
import importlib.util
import math
import os
import random
import string
import subprocess
import sys
from pathlib import Path

from hypothesis import strategies as st

from trolldetect import (
    Frame,
    MassFunction,
    Message,
    MessageFrame,
    ScenarioSpec,
    Thread,
    example1,
    example2,
)


def spec_to_dict(spec: ScenarioSpec) -> dict:
    """The JSON object form of a scenario, as ``spec_from_dict`` reads it."""
    return {
        "topic_count": spec.topic_count,
        "relevant_topic": spec.relevant_topic,
        "seed": spec.seed,
        "concentration": list(spec.concentration),
        "users": [{"id": uid, "role": role} for uid, role in spec.users],
        "script": [
            {"author": e.author, "category": e.category}
            | ({"topic": e.topic} if e.topic is not None else {})
            for e in spec.script
        ],
        "pins": [{"rank": r, "mass": m} for r, m in sorted(spec.pins.items())],
    }


# Every name the CLI commands look up on ``trolldetect.cli`` when they run,
# and bench/tracing.py rebinds there: the first nine are package exports,
# the last four the unexported helpers cli resolves through its own table.
CLI_NAMES = (
    "BUILTIN_SCENARIOS", "generate", "thread_to_json", "load_thread", "analyze",
    "conflict", "inclusion_degree", "symmetric_inclusion", "jousselme_distance",
    "write_json_atomic", "_dumps", "GENERATOR_ID", "load_spec",
)


def bench_workloads():
    """The bench's seeded thread generators, loaded from their file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_python(script, *args):
    """Run ``script`` in a fresh interpreter that imports this checkout's
    ``trolldetect``."""
    return run_interpreter(["-c", script, *args], capture_output=True, text=True)


def run_interpreter(args, env=None, **kwargs):
    """Run ``python ARGS`` (``subprocess.run`` keywords in ``kwargs``) with
    this checkout's ``trolldetect`` importable; ``env`` adds to the current
    environment, and a ``None`` value removes a variable."""
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = [str(src)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    child = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath), **(env or {})}
    return subprocess.run(
        [sys.executable, *args],
        env={k: v for k, v in child.items() if v is not None},
        timeout=60,
        **kwargs,
    )


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

# Masses whose repr is long, subnormal or near the float floor.
EXTREME_MASSES = (5e-324, 1e-300, 2.0**-1074 * 3, 0.1, 1 / 3, 1 - 2.0**-53)


# Text a user id may hold: the roster check's rule, one or more characters
# that print, none of them a space (categories C and Z are what
# ``str.isprintable`` refuses, and U+0020 is category Zs).
ID_TEXT = st.text(st.characters(exclude_categories=("C", "Z")), min_size=1)


class Mask(int):
    """A subset mask of an ``int`` subclass, which ``MassFunction`` accepts."""


@st.composite
def file_threads(draw):
    """``random_thread`` with ``ID_TEXT`` user ids (quotes, backslashes,
    combining marks, symbols and non-ASCII letters), some bbas swapped for an
    extreme or repr-heavy mass beside its remainder, and rank 1's first
    focal set given as a ``Mask``."""
    thread = random_thread(draw(st.randoms(use_true_random=False)), max_users=4)
    ids = draw(
        st.lists(ID_TEXT, min_size=len(thread.users), max_size=len(thread.users), unique=True)
    )
    rename = dict(zip(thread.users, ids))
    frame = thread.frame.frame
    messages = []
    for msg in thread.messages:
        bba = msg.bba
        small = draw(st.none() | st.sampled_from(EXTREME_MASSES) | st.floats(1e-300, 0.5))
        if small is not None:
            subsets = st.lists(st.integers(1, frame.full_set), min_size=2, max_size=2, unique=True)
            a, b = draw(subsets)
            bba = MassFunction(frame, [(a, small), (b, 1.0 - small)])
        if msg.rank == 1:
            (first, mass), *rest = bba.items()
            bba = MassFunction(frame, [(Mask(first), mass), *rest])
        messages.append(Message(author=rename[msg.author], rank=msg.rank, bba=bba))
    return Thread(frame=thread.frame, users=tuple(ids), messages=tuple(messages))


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


# Thread documents for the parser: arbitrary JSON values, and thread
# documents with one item swapped out or removed, which reach the checks on
# messages and bba entries that arbitrary JSON almost never gets past.

JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
)
json_values = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

_LABELS = st.sampled_from(["Off-topic", "Senseless", "Topic_1", "Topic_2"])
_USERS = st.sampled_from(["U1", "U2", "U3", "U4", "U5", "U6"])
_PAIRED = st.sampled_from([0.25, 0.75, 1e308])  # two masses of 1e308 overflow a sum
_MASSES = st.sampled_from([0.0, -0.5, 1e308, 10**400]) | st.floats()
_BBAS = st.one_of(
    st.lists(_LABELS, max_size=2).map(lambda labels: [{"set": labels, "mass": 1.0}]),
    st.tuples(_LABELS, _LABELS, _PAIRED, _PAIRED).map(
        lambda t: [{"set": [t[0]], "mass": t[2]}, {"set": [t[1]], "mass": t[3]}]
    ),
    st.lists(
        st.fixed_dictionaries({"set": st.lists(_LABELS, max_size=3), "mass": _MASSES}),
        min_size=1,
        max_size=3,
    ),
)


@st.composite
def _threads(draw):
    """A thread document with ranks 1..M and every user posting, whose
    masses, labels and frame need not agree: from 2 messages by 2 users up
    to 12 by 6.  Each message posts a copy of one of a few drawn bbas, so a
    long thread is about as likely to be valid as a short one.  Two of them
    are certain on distinct labels, which disagree, and authors after each
    user's first post are drawn, so most valid threads have users' scores
    to split and reach a report."""
    users = draw(st.lists(_USERS, min_size=2, max_size=6, unique=True))
    authors = users + draw(st.lists(st.sampled_from(users), max_size=12 - len(users)))
    labels = draw(st.lists(_LABELS, min_size=2, max_size=2, unique=True))
    bbas = [[{"set": [label], "mass": 1.0}] for label in labels] + draw(st.lists(_BBAS, max_size=2))
    return {
        "topic_count": draw(st.integers(2, 3)),
        "relevant_topic": draw(st.integers(1, 2)),
        "users": users,
        "messages": [
            {"rank": rank, "author": author, "bba": copy.deepcopy(draw(st.sampled_from(bbas)))}
            for rank, author in enumerate(authors, start=1)
        ],
    }


def _slots(node):
    """Every (container, key) pair of a JSON tree, outermost first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


def _swap_or_drop(draw, doc):
    """``doc`` with at most one item swapped for any JSON value or removed."""
    slots = list(_slots(doc))
    pick = draw(st.integers(-1, len(slots) - 1))
    if pick >= 0:
        container, key = slots[pick]
        if draw(st.booleans()):
            container[key] = draw(json_values)
        else:
            del container[key]
    return doc


@st.composite
def _near_threads(draw):
    return _swap_or_drop(draw, draw(_threads()))


@st.composite
def _specs(draw):
    """A built-in scenario's document with a drawn seed."""
    spec = draw(st.sampled_from([example1(), example2()]))
    return spec_to_dict(spec._replace(seed=draw(st.integers(0, 2**32))))


@st.composite
def _near_specs(draw):
    return _swap_or_drop(draw, draw(_specs()))


# The unmutated documents keep a share of the draws valid, so the tests
# that take these also reach the paths a valid document takes.
json_documents = json_values | _near_threads() | _threads()
# Scenario documents for ``spec_from_dict``, built the same way.
spec_documents = json_values | _near_specs() | _specs()
