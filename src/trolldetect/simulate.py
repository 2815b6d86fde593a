"""Synthetic discussion threads with scripted user behavior.

A scenario lists the users (with descriptive roles), a message script
(who posts, and whether the post is relevant, off-topic, senseless or
about a controversy topic) and a seed.  Each generated message carries a
two-focal bba: a dominant mass on the scripted category's singleton,
drawn uniformly from the concentration range, and the remainder on the
whole frame as residual ignorance.  Specific ranks can have their
dominant mass pinned to exact values, which is how the published example
threads are reproduced.
"""

from __future__ import annotations

import json
import numbers
import random
from collections.abc import Iterable, Mapping
from pathlib import Path
from types import MappingProxyType
from typing import Any

from .belief import MassFunction, _Frozen
from .errors import InvalidSpec, InvalidThread, MassOutOfRange, RankOutOfBounds
from .thread import Message, MessageFrame, Thread, _check_roster

__all__ = [
    "GENERATOR_ID",
    "ROLES",
    "CATEGORIES",
    "ScriptEntry",
    "ScenarioSpec",
    "pin_masses",
    "generate",
    "spec_from_dict",
    "load_spec",
    "example1",
    "example2",
    "BUILTIN_SCENARIOS",
]

# Recorded in emitted thread files; dominant masses are only reproducible
# from (seed, spec) when drawn with the same generator.
GENERATOR_ID = "python-random-mt19937"

ROLES = frozenset({"expert", "troll", "victim", "learner"})
CATEGORIES = frozenset({"relevant", "off_topic", "senseless", "controversy"})

DEFAULT_CONCENTRATION = (0.75, 0.98)


class ScriptEntry(_Frozen):
    """One scripted post.  ``topic`` is required for (and only for) the
    controversy category."""

    __slots__ = __match_args__ = ("author", "category", "topic")

    def __init__(self, author: str, category: str, topic: int | None = None):
        object.__setattr__(self, "author", author)
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "topic", topic)


class ScenarioSpec(_Frozen):
    """A complete recipe for one synthetic thread.

    Checked at construction: an invalid recipe raises ``InvalidSpec``
    (``RankOutOfBounds`` or ``MassOutOfRange`` for a bad pin), so
    ``generate`` checks nothing itself.  The frame and roster rules are
    the ones ``Thread`` applies (``MessageFrame``, ``_check_roster``), so a
    valid spec always generates a valid thread.  ``pins`` is a mapping or
    (rank, mass) pairs, no rank twice, stored read-only, and ``users``,
    ``script`` and ``concentration`` are stored as tuples, so the caller's
    containers cannot change a checked spec.
    """

    __slots__ = __match_args__ = ("topic_count", "relevant_topic", "users", "script",
                                  "seed", "concentration", "pins")

    def __init__(
        self, topic_count: int, relevant_topic: int, users: Iterable[tuple[str, str]],  # (id, role)
        script: Iterable[ScriptEntry], seed: int = 0,
        concentration: tuple[float, float] = DEFAULT_CONCENTRATION,
        pins: Mapping[int, float] | Iterable[tuple[int, float]] = (),  # rank -> dominant mass
    ):
        try:
            users = tuple((uid, role) for uid, role in users)
        except (TypeError, ValueError):  # not iterable, or an entry not a pair
            raise InvalidSpec("users must be (id, role) pairs") from None
        script = tuple(script)
        if not script:
            raise InvalidSpec("empty script")
        try:
            frame = MessageFrame(topic_count=topic_count, relevant_topic=relevant_topic)
            _check_roster([uid for uid, _ in users], [entry.author for entry in script])
        except InvalidThread as exc:
            raise InvalidSpec(str(exc)) from None
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise InvalidSpec(f"seed must be an integer, got {seed!r}")
        if seed < 0:  # random.Random(-n) draws as random.Random(n) does
            raise InvalidSpec(f"seed must be >= 0, got {seed}")
        for uid, role in users:
            if not isinstance(role, str) or role not in ROLES:  # ["x"] is unhashable
                raise InvalidSpec(f"unknown role {role!r} for {uid!r}")
        controversy = frame.controversy_topics()
        for i, entry in enumerate(script):
            if not isinstance(entry.category, str) or entry.category not in CATEGORIES:
                raise InvalidSpec(f"script entry {i}: unknown category {entry.category!r}")
            if entry.category == "controversy":
                if entry.topic is None:
                    raise InvalidSpec(f"script entry {i}: controversy needs a topic")
                if not isinstance(entry.topic, int) or isinstance(entry.topic, bool):
                    raise InvalidSpec(
                        f"script entry {i}: topic must be an integer, got {entry.topic!r}"
                    )
                if entry.topic not in controversy:
                    raise InvalidSpec(
                        f"script entry {i}: topic {entry.topic} is not one of the "
                        f"controversy topics {list(controversy)}"
                    )
            elif entry.topic is not None:
                raise InvalidSpec(
                    f"script entry {i}: topic only applies to controversy entries"
                )
        try:
            lo, hi = concentration = tuple(concentration)
        except (TypeError, ValueError):  # not iterable, or not two items
            raise InvalidSpec("concentration must be a (lo, hi) pair") from None
        # A Decimal compares with floats, but ``generate`` cannot draw between them.
        if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in concentration):
            raise InvalidSpec(f"concentration must be real numbers, got {concentration!r}")
        if not (0.5 < lo < hi < 1.0):
            raise InvalidSpec(
                f"concentration must satisfy 0.5 < lo < hi < 1, got ({lo}, {hi})"
            )
        items = pins.items() if isinstance(pins, Mapping) else pins
        try:
            items = [(rank, mass) for rank, mass in items]
        except (TypeError, ValueError):  # not a mapping or (rank, mass) pairs
            raise InvalidSpec("pins must map ranks to masses") from None
        pins = {}
        for rank, mass in items:
            _check_pin(rank, mass, len(script))  # before it is a key: True == 1
            if rank in pins:
                raise InvalidSpec(f"pinned rank {rank} appears more than once")
            pins[rank] = mass
        pins = MappingProxyType(pins)
        self._set(topic_count, relevant_topic, users, script, seed, concentration, pins)

    def user_ids(self) -> tuple[str, ...]:
        return tuple(uid for uid, _ in self.users)


def _check_pin(rank: int, mass: float, script_length: int) -> None:
    # A float rank never matches a message, and True would count as rank 1.
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise InvalidSpec(f"pinned rank must be an integer, got {rank!r}")
    if not 1 <= rank <= script_length:
        raise RankOutOfBounds(f"pinned rank {rank} outside 1..{script_length}")
    # A Decimal compares with floats but cannot be subtracted from one.
    if not isinstance(mass, numbers.Real):
        raise InvalidSpec(f"pinned mass must be a real number, got {mass!r}")
    # 1.0 is rejected on purpose: every generated bba keeps two focal
    # elements, so the ignorance remainder must stay positive.
    if not 0.0 < mass < 1.0:
        raise MassOutOfRange(f"pinned mass {mass!r} outside (0, 1)")


def pin_masses(
    spec: ScenarioSpec, overrides: Iterable[tuple[int, float]]
) -> ScenarioSpec:
    """A copy of the scenario with given ranks' dominant masses fixed.  The
    overrides pass ``ScenarioSpec``'s pin rules on their own (no rank
    twice), then replace the spec's pins for their ranks."""
    overrides = spec._replace(pins=overrides).pins
    return spec._replace(pins={**spec.pins, **overrides})


def generate(spec: ScenarioSpec) -> Thread:
    """Deterministically expand a scenario into a thread.

    Dominant masses are drawn for every rank in script order, so pinning
    one rank never shifts the values sampled for the others.
    """
    frame = MessageFrame(topic_count=spec.topic_count, relevant_topic=spec.relevant_topic)
    full = frame.frame.full_set
    lo, hi = spec.concentration
    rng = random.Random(spec.seed)
    focal_sets = {  # (category, topic) -> mask, for every pair ScenarioSpec allows
        ("relevant", None): frame.relevant_set(),
        ("off_topic", None): frame.off_topic_set(),
        ("senseless", None): frame.senseless_set(),
        **{("controversy", j): frame.topic_set(j) for j in frame.controversy_topics()},
    }
    messages = []
    for rank, entry in enumerate(spec.script, start=1):
        dominant = rng.uniform(lo, hi)
        dominant = spec.pins.get(rank, dominant)
        focal = focal_sets[entry.category, entry.topic]
        bba = MassFunction(frame.frame, [(focal, dominant), (full, 1.0 - dominant)])
        messages.append(Message(author=entry.author, rank=rank, bba=bba))
    return Thread(frame=frame, users=spec.user_ids(), messages=tuple(messages))


def spec_from_dict(data: Mapping[str, Any]) -> ScenarioSpec:
    """Build a scenario from its JSON object form.  Only the shape read here
    is checked (objects, their keys, lists); ``ScenarioSpec`` judges each value."""
    _require(data, "scenario document", "topic_count", "relevant_topic", "users", "script")
    lists = {}
    for key, *fields in (
        ("users", "id", "role"), ("script", "author", "category"), ("pins", "rank", "mass")
    ):
        items = lists[key] = data.get(key, [])
        if not isinstance(items, list):
            raise InvalidSpec(f"{key} must be a list")
        required = set(fields)
        for i, item in enumerate(items):  # a dict with every key passes at once
            if type(item) is not dict or not item.keys() >= required:
                _require(item, f"{key} entry {i}", *fields)
    return ScenarioSpec(
        topic_count=data["topic_count"],
        relevant_topic=data["relevant_topic"],
        users=[(u["id"], u["role"]) for u in lists["users"]],
        script=[ScriptEntry(e["author"], e["category"], e.get("topic")) for e in lists["script"]],
        seed=data.get("seed", 0),
        concentration=data.get("concentration", DEFAULT_CONCENTRATION),
        pins=[(p["rank"], p["mass"]) for p in lists["pins"]],
    )


def _require(item: Any, where: str, *keys: str) -> None:
    if not isinstance(item, Mapping):
        raise InvalidSpec(f"{where} must be an object")
    for key in keys:
        if key not in item:
            raise InvalidSpec(f"{where} missing key {key!r}")


def load_spec(path: str | Path) -> ScenarioSpec:
    with open(path, encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


def _script(*entries: tuple[str, str] | tuple[str, str, int]) -> tuple[ScriptEntry, ...]:
    return tuple(ScriptEntry(e[0], e[1], e[2] if len(e) == 3 else None) for e in entries)


def example1() -> ScenarioSpec:
    """Four users, 16 messages, one troll.

    The troll U4 drops a controversy post, a senseless one and another
    controversy post into an otherwise on-topic discussion; U1 and U2 each
    answer the first troll post with one controversy message of their own;
    U3 only ever posts on topic.  The six pinned dominant masses are the
    published ones for U3's and U4's messages.
    """
    users = (("U1", "victim"), ("U2", "victim"), ("U3", "expert"), ("U4", "troll"))
    script = _script(
        ("U3", "relevant"),
        ("U1", "relevant"),
        ("U2", "relevant"),
        ("U3", "relevant"),
        ("U4", "controversy", 2),
        ("U1", "controversy", 2),
        ("U2", "controversy", 2),
        ("U3", "relevant"),
        ("U1", "relevant"),
        ("U2", "relevant"),
        ("U4", "senseless"),
        ("U1", "relevant"),
        ("U2", "relevant"),
        ("U4", "controversy", 2),
        ("U1", "relevant"),
        ("U2", "relevant"),
    )
    pins = {1: 0.9732, 4: 0.7782, 5: 0.9210, 8: 0.9632, 11: 0.9716, 14: 0.8387}
    return ScenarioSpec(
        topic_count=2,
        relevant_topic=1,
        users=users,
        script=script,
        seed=1,
        pins=pins,
    )


def example2() -> ScenarioSpec:
    """Eight users, 31 messages, two trolls.

    U8 trolls early (two off-topic posts, then a late controversy one) and
    U3 answers it with an off-topic message; U4 posts two controversy
    messages only after a long run of on-topic traffic, and U1 and U2 each
    answer with two controversy messages.  The published per-user counts
    total 30, so U2 carries one extra relevant message to reach 31.
    """
    users = (
        ("U1", "victim"),
        ("U2", "victim"),
        ("U3", "victim"),
        ("U4", "troll"),
        ("U5", "learner"),
        ("U6", "expert"),
        ("U7", "learner"),
        ("U8", "troll"),
    )
    script = _script(
        ("U2", "relevant"),
        ("U6", "relevant"),
        ("U8", "off_topic"),
        ("U3", "off_topic"),
        ("U2", "relevant"),
        ("U7", "relevant"),
        ("U8", "off_topic"),
        ("U3", "relevant"),
        ("U5", "relevant"),
        ("U2", "relevant"),
        ("U6", "relevant"),
        ("U3", "relevant"),
        ("U2", "relevant"),
        ("U7", "relevant"),
        ("U1", "relevant"),
        ("U2", "relevant"),
        ("U1", "relevant"),
        ("U6", "relevant"),
        ("U4", "controversy", 2),
        ("U1", "controversy", 2),
        ("U2", "controversy", 2),
        ("U3", "relevant"),
        ("U4", "controversy", 2),
        ("U1", "controversy", 2),
        ("U2", "controversy", 2),
        ("U2", "relevant"),
        ("U8", "controversy", 2),
        ("U1", "relevant"),
        ("U2", "relevant"),
        ("U3", "relevant"),
        ("U2", "relevant"),
    )
    return ScenarioSpec(
        topic_count=2,
        relevant_topic=1,
        users=users,
        script=script,
        seed=2,
    )


BUILTIN_SCENARIOS = {"example1": example1, "example2": example2}
