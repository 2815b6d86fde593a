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
from operator import attrgetter
from pathlib import Path
from typing import Any

from .belief import MAX_FRAME_SIZE, Frame, MassFunction, _Frozen
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


class MessageFrame(_Frozen):
    """Frame for message evidence: Off-topic, Senseless, and N topics.

    ``relevant_topic`` names the topic the thread is actually about; every
    other topic counts as a controversy topic.  ``frame`` is the ``Frame``
    over those labels, outside ``repr``, ``==`` and ``hash``.
    """

    __slots__ = ("topic_count", "relevant_topic", "frame")
    __match_args__ = ("topic_count", "relevant_topic")

    def __init__(self, topic_count: int, relevant_topic: int):
        for key, value in (("topic_count", topic_count), ("relevant_topic", relevant_topic)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidThread(f"{key} must be an integer")
        if topic_count < 1:
            raise InvalidThread(f"topic_count must be >= 1, got {topic_count}")
        if topic_count > _MAX_TOPICS:
            raise InvalidThread(
                f"topic_count {topic_count} exceeds {_MAX_TOPICS} "
                f"(frame capped at {MAX_FRAME_SIZE})"
            )
        if not 1 <= relevant_topic <= topic_count:
            raise InvalidThread(f"relevant_topic {relevant_topic} outside 1..{topic_count}")
        labels = [OFF_TOPIC, SENSELESS]
        labels += [topic_label(j) for j in range(1, topic_count + 1)]
        object.__setattr__(self, "topic_count", topic_count)
        object.__setattr__(self, "relevant_topic", relevant_topic)
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


class Message(_Frozen):
    """One post: author, 1-based thread position, and its evidence."""

    __slots__ = __match_args__ = ("author", "rank", "bba")

    def __init__(self, author: str, rank: int, bba: MassFunction):
        object.__setattr__(self, "author", author)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "bba", bba)


class Thread(_Frozen):
    """A validated discussion thread.

    ``frame`` must be a ``MessageFrame``, ``users`` and ``messages``
    iterables, and every message a ``Message`` whose bba is a
    ``MassFunction`` over the thread's frame.  The roster then passes
    ``_check_roster`` and ranks must be exactly the ints 1..M.  Its bbas'
    equal ``focal_sets()`` tuples are one shared tuple per distinct pattern.
    """

    __slots__ = __match_args__ = ("frame", "users", "messages")

    def __init__(self, frame: MessageFrame, users: tuple[str, ...], messages: tuple[Message, ...]):
        if not isinstance(frame, MessageFrame):
            raise InvalidThread(f"frame must be a MessageFrame, got {frame!r:.80}")
        try:
            users, messages = tuple(users), tuple(messages)
        except TypeError:
            raise InvalidThread("users and messages must each be an iterable") from None
        try:
            messages = tuple(sorted(messages, key=attrgetter("rank")))
        except (TypeError, AttributeError):  # ranks that do not compare, or no rank
            pass  # the checks below report them
        labels = frame.frame
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # focal sets -> the one kept
        for msg in messages:
            if not (isinstance(msg, Message) and isinstance(bba := msg.bba, MassFunction)):
                raise InvalidThread(f"messages must be Messages holding a MassFunction, got {msg!r:.80}")
            if bba.frame is not labels and bba.frame != labels:
                raise InvalidThread(f"message {msg.rank} uses a different frame than the thread")
            bba._share_sets(shared)
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
        self._set(frame, users, messages)

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
