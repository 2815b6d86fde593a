"""Discussion-thread data model and its JSON file format.

A thread is a rank-ordered sequence of messages over a message frame whose
hypotheses are the ways a post can relate to the discussion: off-topic,
senseless, or about one of N named topics (one of which is the relevant
one; the others are controversy bait).
"""

from __future__ import annotations

import json
import operator
import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Any

from .belief import MAX_FRAME_SIZE, Frame, MassFunction
from .errors import BeliefError, InvalidThread, RankOutOfBounds, UnknownUser

__all__ = [
    "OFF_TOPIC",
    "SENSELESS",
    "topic_label",
    "MessageFrame",
    "Message",
    "Thread",
    "thread_from_dict",
    "thread_to_json",
    "thread_to_dict",
    "load_thread",
]

OFF_TOPIC = "Off-topic"
SENSELESS = "Senseless"
_MAX_TOPICS = MAX_FRAME_SIZE - 2  # the frame also holds OFF_TOPIC and SENSELESS


def topic_label(index: int) -> str:
    return f"Topic_{index}"


def _check_roster(users: tuple, authors: list) -> None:
    """The roster rules a thread and a scenario share: each id is a non-empty
    string that holds no space and prints (``str.isprintable``: no control,
    format such as a bidi override or zero-width space, surrogate,
    separator, private-use or unassigned character), so every table line
    shows it as one visible token; at least two users (conflict is measured
    against *other* users), no duplicate ids, every author on the roster,
    and every user posts.  ``authors`` lists each post's author in order.
    Raises ``InvalidThread``."""
    for uid in users:
        if not isinstance(uid, str):
            raise InvalidThread(f"user ids must be strings, got {uid!r}")
        if not uid or " " in uid or not uid.isprintable():
            raise InvalidThread(
                f"user id {uid!r} is empty or holds a space or a character that"
                " does not print, so no table line could show it as one id"
            )
    if len(users) < 2:
        raise InvalidThread("the roster needs at least two users")
    roster = set(users)
    if len(roster) != len(users):
        raise InvalidThread("duplicate user ids in roster")
    try:
        posted = set(authors)
        stray = not posted <= roster
    except TypeError:  # an unhashable author, which no string id equals
        stray = True
    if stray:
        author = next(a for a in authors if not isinstance(a, str) or a not in roster)
        raise InvalidThread(f"author {author!r} is not on the roster")
    if len(posted) != len(roster):
        silent = [uid for uid in users if uid not in posted]
        raise InvalidThread(f"{len(silent)} users never post, first {silent[0]!r}")


@dataclass(frozen=True)
class MessageFrame:
    """Frame for message evidence: Off-topic, Senseless, and N topics.

    ``relevant_topic`` names the topic the thread is actually about; every
    other topic counts as a controversy topic.
    """

    topic_count: int
    relevant_topic: int
    frame: Frame = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for key in ("topic_count", "relevant_topic"):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidThread(f"{key} must be an integer")
        if self.topic_count < 1:
            raise InvalidThread(f"topic_count must be >= 1, got {self.topic_count}")
        if self.topic_count > _MAX_TOPICS:
            raise InvalidThread(
                f"topic_count {self.topic_count} exceeds {_MAX_TOPICS} "
                f"(frame capped at {MAX_FRAME_SIZE})"
            )
        if not 1 <= self.relevant_topic <= self.topic_count:
            raise InvalidThread(
                f"relevant_topic {self.relevant_topic} outside 1..{self.topic_count}"
            )
        labels = [OFF_TOPIC, SENSELESS]
        labels += [topic_label(j) for j in range(1, self.topic_count + 1)]
        object.__setattr__(self, "frame", Frame(labels))

    def off_topic_set(self) -> int:
        return self.frame.singleton(OFF_TOPIC)

    def senseless_set(self) -> int:
        return self.frame.singleton(SENSELESS)

    def topic_set(self, index: int) -> int:
        if not 1 <= index <= self.topic_count:
            raise InvalidThread(f"topic {index} outside 1..{self.topic_count}")
        return self.frame.singleton(topic_label(index))

    def relevant_set(self) -> int:
        return self.topic_set(self.relevant_topic)

    def controversy_topics(self) -> tuple[int, ...]:
        return tuple(
            j for j in range(1, self.topic_count + 1) if j != self.relevant_topic
        )


@dataclass(frozen=True, slots=True)
class Message:
    """One post: author, 1-based thread position, and its evidence."""

    author: str
    rank: int
    bba: MassFunction


@dataclass(frozen=True)
class Thread:
    """A validated discussion thread.

    The roster passes ``_check_roster``, ranks must be exactly the ints
    1..M, and every message uses the thread's frame.  Its bbas' equal
    ``focal_sets()`` tuples are then one shared tuple per distinct pattern.
    """

    frame: MessageFrame
    users: tuple[str, ...]
    messages: tuple[Message, ...]

    def __post_init__(self):
        users, messages = tuple(self.users), tuple(self.messages)
        try:
            messages = tuple(sorted(messages, key=attrgetter("rank")))
        except TypeError:  # ranks that do not compare, such as "1" and 2
            pass  # the rank check below reports them
        _check_roster(users, [msg.author for msg in messages])
        misplaced = [
            (p, m.rank)
            for p, m in enumerate(messages, start=1)
            if m.rank != p or type(m.rank) is not int  # 1.0 and True equal 1
        ]
        if misplaced:
            position, rank = misplaced[0]
            raise InvalidThread(
                f"ranks must be exactly 1..{len(messages)} with no gaps: "
                f"{len(misplaced)} out of place, first rank {rank!r} at position {position}"
            )
        frame = self.frame.frame
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # focal sets -> the one kept
        for msg in messages:
            if msg.bba.frame is not frame and msg.bba.frame != frame:
                raise InvalidThread(f"message {msg.rank} uses a different frame than the thread")
            msg.bba._share_sets(shared)
        object.__setattr__(self, "users", users)
        object.__setattr__(self, "messages", messages)

    def message(self, rank: int) -> Message:
        try:  # any integer but a bool, numpy's included
            index = 0 if isinstance(rank, bool) else operator.index(rank)
        except TypeError:  # 2.0, "3" or None
            index = 0
        if not 1 <= index <= len(self.messages):
            raise RankOutOfBounds(f"rank {rank!r} outside 1..{len(self.messages)}")
        return self.messages[index - 1]

    def ranks_by(self, user: str) -> tuple[int, ...]:
        if user not in self.users:
            raise UnknownUser(f"{user!r} is not on the roster")
        return tuple(m.rank for m in self.messages if m.author == user)


def thread_from_dict(data: Mapping[str, Any]) -> Thread:
    """Build a thread from its JSON object form.

    Unknown top-level keys (such as simulator metadata) are ignored.  Each
    value is judged by the type that owns its rule: labels by
    ``Frame.subset``, masses by ``MassFunction``, user ids by the
    ``Thread`` roster check.  An error inside a message keeps its type and
    gains a ``message <i>: `` prefix.
    """
    # Each check builds its message only when it fails: a large thread
    # passes several checks per message.  A plain ``isinstance`` is as fast
    # as an exact-type test; only the ``Mapping`` checks (an ABC lookup) and
    # the rank check (``bool`` excluded) test ``json.load``'s type first.
    if type(data) is not dict and not isinstance(data, Mapping):
        raise InvalidThread("thread document must be a JSON object")
    for key in ("topic_count", "relevant_topic", "users", "messages"):
        if key not in data:
            raise InvalidThread(f"missing key {key!r}")
    frame = MessageFrame(
        topic_count=data["topic_count"], relevant_topic=data["relevant_topic"]
    )
    users = data["users"]
    if not isinstance(users, list):
        raise InvalidThread("users must be a list of strings")
    raw_messages = data["messages"]
    if not isinstance(raw_messages, list):
        raise InvalidThread("messages must be a list")
    subsets: dict[tuple[str, ...], int] = {}  # label tuple -> mask, accepted labels only
    messages = []
    for i, raw in enumerate(raw_messages):
        if type(raw) is not dict and not isinstance(raw, Mapping):
            raise InvalidThread(f"message {i} must be an object")
        if not ("rank" in raw and "author" in raw and "bba" in raw):
            key = next(k for k in ("rank", "author", "bba") if k not in raw)
            raise InvalidThread(f"message {i} missing key {key!r}")
        try:
            rank, author, bba = raw["rank"], raw["author"], raw["bba"]
            if type(rank) is not int and (not isinstance(rank, int) or isinstance(rank, bool)):
                raise InvalidThread("rank must be an integer")
            if not isinstance(author, str):
                raise InvalidThread("author must be a string")
            if not isinstance(bba, list):
                raise InvalidThread("bba must be a list")
            assignments = []
            for j, entry in enumerate(bba):
                if not (
                    (type(entry) is dict or isinstance(entry, Mapping))
                    and "set" in entry
                    and "mass" in entry
                ):
                    raise InvalidThread(f"bba entry {j} must have 'set' and 'mass'")
                labels = entry["set"]
                if not isinstance(labels, list):
                    raise InvalidThread(f"bba entry {j}: 'set' must be a list of strings")
                key = tuple(labels)
                try:
                    subset = subsets[key]
                except (KeyError, TypeError):  # new labels, or an unhashable one
                    subset = subsets[key] = frame.frame.subset(labels)
                assignments.append((subset, entry["mass"]))
            messages.append(
                Message(author=author, rank=rank, bba=MassFunction(frame.frame, assignments))
            )
        except BeliefError as exc:  # same type, naming the message
            raise type(exc)(f"message {i}: {exc}") from None
    return Thread(frame=frame, users=tuple(users), messages=tuple(messages))


def thread_to_json(thread: Thread, meta: Any = None) -> str:
    """A thread file's text: the layout ``_dumps`` gives the thread's JSON
    object form, with a ``meta`` key last when ``meta`` is not None.

    Each message's line is formatted straight from the thread, through a
    ``%``-template per tuple of focal sets that holds their label lists.
    Ranks are ``int`` and masses finite ``float``, whose ``repr`` is what
    ``json`` writes for them, so masses read back bit for bit.  Each
    author's JSON and each template are built once per call.
    """
    frame = thread.frame.frame
    authors: dict[str, str] = {}  # author -> its JSON string
    templates: dict[tuple[int, ...], str] = {}  # focal sets -> message template
    lines = []
    for msg in thread.messages:
        author = authors.get(msg.author)
        if author is None:
            author = authors[msg.author] = json.dumps(msg.author)
        focal = msg.bba.focal_sets()
        template = templates.get(focal)
        if template is None:
            sets = [json.dumps(list(frame.members(s))).replace("%", "%%") for s in focal]
            bba = ", ".join([f'{{"set": {labels}, "mass": %r}}' for labels in sets])
            template = templates[focal] = f'{{"rank": %d, "author": %s, "bba": [{bba}]}}'
        lines.append(template % (msg.rank, author, *msg.bba.masses()))
    fields = [
        _field("topic_count", thread.frame.topic_count),
        _field("relevant_topic", thread.frame.relevant_topic),
        _list_field("users", [authors[uid] for uid in thread.users]),  # all post
        _list_field("messages", lines),
    ]
    if meta is not None:
        fields.append(_field("meta", meta))
    return "{\n  " + ",\n  ".join(fields) + "\n}"


def thread_to_dict(thread: Thread) -> dict[str, Any]:
    """JSON object form of a thread, transcribed plainly: the reference the
    tests hold ``thread_to_json``'s decoded text to.  Built directly, it
    shares label strings and masses with the thread; through ``json.loads``
    a bulk document takes half again as much memory."""
    frame = thread.frame.frame
    return {
        "topic_count": thread.frame.topic_count,
        "relevant_topic": thread.frame.relevant_topic,
        "users": list(thread.users),
        "messages": [
            {
                "rank": msg.rank,
                "author": msg.author,
                "bba": [{"set": list(frame.members(s)), "mass": m} for s, m in msg.bba.items()],
            }
            for msg in thread.messages
        ],
    }


def load_thread(path: str | Path) -> Thread:
    with open(path, encoding="utf-8") as fh:
        return thread_from_dict(json.load(fh))


def write_json_atomic(text: str, path: str | Path) -> None:
    """Write ``text`` and a final newline through a temp file and a
    rename, so a reader never sees a partial file.  The text is JSON from
    ``thread_to_json`` or ``_dumps``.

    The temp file gets a random name, ``.<16 hex digits>.tmp``, in the
    target directory, so writers to the same path never share one, a
    failed write removes only its own temp file, and any name the
    directory accepts for the target is also writable.  It is created
    with mode 0o666 less the umask in force at the call, the mode
    ``open()`` gives a new file.
    """
    path = Path(path)
    tmp = path.parent / f".{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _dumps(document: Any) -> str:
    """JSON text with one top-level key per line and each item of a
    top-level list on a line of its own.  It lays out the CLI's reports and
    any other document; ``thread_to_json`` writes thread files the same
    way, one line per message.

    Every piece goes through plain ``json.dumps``: only without ``indent``
    does it use the C encoder.  Floats keep their ``repr``, so masses read
    back bit for bit.
    """
    if not isinstance(document, dict) or not document:
        return json.dumps(document)
    fields = [_field(key, value) for key, value in document.items()]
    return "{\n  " + ",\n  ".join(fields) + "\n}"


def _field(key: Any, value: Any) -> str:
    """One top-level ``key: value`` of ``_dumps``'s layout."""
    if isinstance(value, list) and value:
        return _list_field(key, [json.dumps(item) for item in value])
    return json.dumps({key: value})[1:-1]


def _list_field(key: Any, items: list[str]) -> str:
    """A non-empty top-level list from its items' JSON, one item a line."""
    head = json.dumps({key: []})[1:-2]  # the encoded key, then ': ['
    return f"{head}\n    " + ",\n    ".join(items) + "\n  ]"
