"""Thread data model and its JSON file format."""

import enum
import gc
import json
import os
import random
import stat
import sys
import threading
from types import MappingProxyType

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from trolldetect import (
    analyze,
    example1,
    generate,
    MassFunction,
    Message,
    MessageFrame,
    Thread,
    load_thread,
    thread_from_dict,
    thread_to_dict,
    thread_to_json,
)
from trolldetect.cli import main
from trolldetect.simulate import load_spec
from trolldetect.thread import _dumps, write_json_atomic
from trolldetect.errors import (
    BeliefError,
    InvalidSpec,
    InvalidSubset,
    InvalidThread,
    NonFiniteMass,
    RankOutOfBounds,
    SumNotOne,
    UnknownUser,
)

from helpers import (
    Mask,
    file_threads,
    json_documents,
    json_values,
    random_thread,
    spec_to_dict,
)

MF = MessageFrame(topic_count=2, relevant_topic=1)


def certain(subset):
    return MassFunction(MF.frame, {subset: 1.0})


def msg(author, rank, subset=None):
    return Message(author=author, rank=rank, bba=certain(subset or MF.relevant_set()))


class TestMessageFrame:
    def test_labels(self):
        assert MF.frame.labels == ("Off-topic", "Senseless", "Topic_1", "Topic_2")
        assert len(MF.frame) == MF.topic_count + 2

    def test_category_sets_are_singletons(self):
        assert MF.off_topic_set() == 0b0001
        assert MF.senseless_set() == 0b0010
        assert MF.relevant_set() == 0b0100
        assert MF.topic_set(2) == 0b1000

    def test_controversy_topics_exclude_relevant(self):
        assert MF.controversy_topics() == (2,)
        wide = MessageFrame(topic_count=4, relevant_topic=3)
        assert wide.controversy_topics() == (1, 2, 4)

    def test_bounds(self):
        with pytest.raises(InvalidThread):
            MessageFrame(topic_count=0, relevant_topic=1)
        with pytest.raises(InvalidThread):
            MessageFrame(topic_count=2, relevant_topic=3)
        with pytest.raises(InvalidThread):
            MessageFrame(topic_count=15, relevant_topic=1)

    @pytest.mark.parametrize("value", [True, 2.0, "2"], ids=["bool", "float", "str"])
    def test_fields_must_be_integers(self, value):
        with pytest.raises(InvalidThread, match="^topic_count must be an integer$"):
            MessageFrame(topic_count=value, relevant_topic=1)
        with pytest.raises(InvalidThread, match="^relevant_topic must be an integer$"):
            MessageFrame(topic_count=2, relevant_topic=value)

    def test_topic_set_out_of_range(self):
        with pytest.raises(InvalidThread) as err:
            MF.topic_set(0)
        assert str(err.value) == "topic 0 outside 1..2"

    def test_types_are_checked_before_ranges(self):
        with pytest.raises(InvalidThread, match="^relevant_topic must be an integer$"):
            MessageFrame(topic_count=0, relevant_topic=1.0)


class TestThreadValidation:
    def test_valid_thread(self):
        t = Thread(
            frame=MF,
            users=("U1", "U2"),
            messages=(msg("U1", 1), msg("U2", 2)),
        )
        assert t.ranks_by("U1") == (1,)
        assert t.message(2).author == "U2"

    def test_messages_sorted_by_rank(self):
        t = Thread(
            frame=MF,
            users=("U1", "U2"),
            messages=(msg("U2", 2), msg("U1", 1)),
        )
        assert [m.rank for m in t.messages] == [1, 2]

    def test_rank_gap_rejected(self):
        with pytest.raises(InvalidThread):
            Thread(frame=MF, users=("U1", "U2"), messages=(msg("U1", 1), msg("U2", 3)))

    def test_duplicate_rank_rejected(self):
        with pytest.raises(InvalidThread):
            Thread(frame=MF, users=("U1", "U2"), messages=(msg("U1", 1), msg("U2", 1)))

    def test_unknown_author_rejected(self):
        with pytest.raises(InvalidThread):
            Thread(frame=MF, users=("U1", "U2"), messages=(msg("U1", 1), msg("U3", 2)))

    def test_silent_user_rejected(self):
        with pytest.raises(InvalidThread):
            Thread(
                frame=MF,
                users=("U1", "U2", "U3"),
                messages=(msg("U1", 1), msg("U2", 2)),
            )

    @pytest.mark.parametrize("flaw", ["one-bad-rank", "silent-users"])
    def test_error_message_stays_short_on_large_threads(self, flaw):
        users = tuple(f"U{i}" for i in range(10_000 if flaw == "silent-users" else 2))
        messages = [msg(users[rank % 2], rank) for rank in range(1, 10_001)]
        if flaw == "one-bad-rank":
            messages[4_999] = msg(users[1], 10_001)
        with pytest.raises(InvalidThread) as err:
            Thread(frame=MF, users=users, messages=tuple(messages))
        assert len(str(err.value)) < 200

    @pytest.mark.parametrize(
        "ranks, text",
        [
            ((1.0, 2.0), "2 out of place, first rank 1.0 at position 1"),
            ((True, 2), "1 out of place, first rank True at position 1"),
            (("1", 2), "1 out of place, first rank '1' at position 1"),
        ],
        ids=["float-ranks", "bool-rank", "mixed-type-ranks"],
    )
    def test_rank_that_is_not_an_int_rejected(self, ranks, text):
        # Also from a generator: ranks that do not sort ("1" beside 2) must
        # not use it up before the rank check reads the messages.
        for wrap in (tuple, iter):
            with pytest.raises(InvalidThread) as err:
                Thread(frame=MF, users=("U1", "U2"), messages=wrap([msg("U1", ranks[0]), msg("U2", ranks[1])]))
            assert str(err.value) == "ranks must be exactly 1..2 with no gaps: " + text

    def test_single_user_rejected(self):
        with pytest.raises(InvalidThread):
            Thread(frame=MF, users=("U1",), messages=(msg("U1", 1),))

    def test_foreign_frame_rejected(self):
        other = MessageFrame(topic_count=3, relevant_topic=1)
        bad = Message(author="U2", rank=2, bba=MassFunction.vacuous(other.frame))
        with pytest.raises(InvalidThread):
            Thread(frame=MF, users=("U1", "U2"), messages=(msg("U1", 1), bad))

    def test_rank_out_of_bounds(self):
        t = Thread(frame=MF, users=("U1", "U2"), messages=(msg("U1", 1), msg("U2", 2)))
        with pytest.raises(RankOutOfBounds):
            t.message(3)
        with pytest.raises(RankOutOfBounds):
            t.message(0)

    @pytest.mark.parametrize("rank", [True, 2.0, "3", None], ids=repr)
    def test_rank_that_is_not_an_int_rejected_by_message(self, rank):
        # The thread's own rank rule rejects these; message() must too, not
        # read True as rank 1 or fail in tuple indexing.
        t = Thread(frame=MF, users=("U1", "U2"), messages=(msg("U1", 1), msg("U2", 2)))
        with pytest.raises(RankOutOfBounds) as err:
            t.message(rank)
        assert str(err.value) == f"rank {rank!r} outside 1..2"

    def test_numpy_integer_rank_answers_like_the_int(self):
        t = Thread(frame=MF, users=("U1", "U2"), messages=(msg("U1", 1), msg("U2", 2)))
        assert t.message(np.int64(2)) is t.message(2) is t.messages[1]
        assert t.message(_Rank.TWO) is t.messages[1]
        for rank in (np.int64(0), np.int64(3)):
            with pytest.raises(RankOutOfBounds) as err:
                t.message(rank)
            assert str(err.value) == f"rank {rank!r} outside 1..2"

    def test_unknown_user(self):
        t = Thread(frame=MF, users=("U1", "U2"), messages=(msg("U1", 1), msg("U2", 2)))
        with pytest.raises(UnknownUser):
            t.ranks_by("U9")


def _values(messages):
    """Each message's focal-set and mass tuples, by rank."""
    return sorted((m.rank, m.bba.focal_sets(), m.bba.masses()) for m in messages)


def _fresh_bba(subset, mass):
    """A bba built from new lists, so its focal-set tuple is its own."""
    return MassFunction(MF.frame, [(subset, mass), (MF.frame.full_set, 1.0 - mass)])


def _generated():
    return generate(example1())


def _loaded():
    return thread_from_dict(thread_to_dict(generate(example1())))


def _constructed():
    subsets = [MF.relevant_set(), MF.topic_set(2), MF.off_topic_set()] * 4
    messages = [
        Message(f"U{rank % 3}", rank, _fresh_bba(subset, 0.5 + rank / 100))
        for rank, subset in enumerate(subsets, start=1)
    ]
    return Thread(frame=MF, users=("U0", "U1", "U2"), messages=tuple(messages))


class TestSharedFocalSets:
    @pytest.mark.parametrize("build", [_generated, _loaded, _constructed])
    def test_one_tuple_per_pattern_holding_the_built_values(self, monkeypatch, build):
        built = []  # the messages' values when the Thread was called

        def recording(real=Thread, **fields):
            built.append(_values(fields["messages"]))
            return real(**fields)

        for module in ("trolldetect.simulate", "trolldetect.thread"):
            monkeypatch.setattr(f"{module}.Thread", recording)
        monkeypatch.setitem(globals(), "Thread", recording)
        thread = build()
        tuples = [m.bba.focal_sets() for m in thread.messages]
        assert len(set(tuples)) < len(tuples)
        assert len({id(t) for t in tuples}) == len(set(tuples))
        assert _values(thread.messages) == built[-1]

    def test_a_bba_in_two_threads_keeps_its_value(self):
        bba, twin = _fresh_bba(MF.relevant_set(), 0.7), _fresh_bba(MF.relevant_set(), 0.7)
        assert bba == twin and bba.focal_sets() is not twin.focal_sets()
        first = Thread(
            frame=MF,
            users=("U1", "U2"),
            messages=(Message("U1", 1, bba), Message("U2", 2, _fresh_bba(MF.relevant_set(), 0.6))),
        )
        second = Thread(frame=MF, users=("U1", "U2"), messages=(Message("U1", 1, twin), Message("U2", 2, bba)))
        assert bba == twin
        assert first.message(1).bba is bba and second.message(2).bba is bba
        assert bba.focal_sets() is twin.focal_sets()  # twin comes first in the second thread
        assert repr(bba) == repr(twin)


SAMPLE = {
    "topic_count": 2,
    "relevant_topic": 1,
    "users": ["U1", "U2"],
    "messages": [
        {
            "rank": 1,
            "author": "U1",
            "bba": [
                {"set": ["Topic_1"], "mass": 0.9732},
                {
                    "set": ["Off-topic", "Senseless", "Topic_1", "Topic_2"],
                    "mass": 0.0268,
                },
            ],
        },
        {
            "rank": 2,
            "author": "U2",
            "bba": [{"set": ["Topic_2"], "mass": 1.0}],
        },
    ],
}


class TestJsonFormat:
    def test_parse_sample(self):
        t = thread_from_dict(SAMPLE)
        assert t.users == ("U1", "U2")
        first = t.message(1)
        assert first.bba.mass(MF.relevant_set()) == 0.9732
        assert first.bba.mass(MF.frame.full_set) == 0.0268

    def test_round_trip(self):
        t = thread_from_dict(SAMPLE)
        again = thread_from_dict(thread_to_dict(t))
        assert again == t

    def test_unknown_top_level_keys_ignored(self):
        doc = dict(SAMPLE, meta={"generator": "whatever", "seed": 3})
        t = thread_from_dict(doc)
        assert len(t.messages) == 2

    def test_missing_key_rejected(self):
        doc = dict(SAMPLE)
        del doc["users"]
        with pytest.raises(InvalidThread):
            thread_from_dict(doc)

    def test_bad_mass_sum_rejected(self):
        doc = json.loads(json.dumps(SAMPLE))
        doc["messages"][1]["bba"][0]["mass"] = 0.9
        with pytest.raises(SumNotOne):
            thread_from_dict(doc)

    def test_huge_integer_mass_rejected(self):
        doc = json.loads(json.dumps(SAMPLE))
        doc["messages"][1]["bba"][0]["mass"] = 10**400
        with pytest.raises(NonFiniteMass):
            thread_from_dict(doc)

    def test_nan_only_bba_rejected(self):
        doc = json.loads(json.dumps(SAMPLE))
        doc["messages"][1]["bba"] = [{"set": ["Topic_2"], "mass": float("nan")}]
        with pytest.raises(NonFiniteMass):
            thread_from_dict(doc)

    def test_unknown_label_rejected(self):
        doc = json.loads(json.dumps(SAMPLE))
        doc["messages"][1]["bba"][0]["set"] = ["Topic_9"]
        with pytest.raises(Exception) as excinfo:
            thread_from_dict(doc)
        assert "Topic_9" in str(excinfo.value)

    def test_structural_garbage_rejected(self):
        with pytest.raises(InvalidThread):
            thread_from_dict({"topic_count": "two"})
        doc = json.loads(json.dumps(SAMPLE))
        doc["messages"][0]["bba"] = "not a list"
        with pytest.raises(InvalidThread):
            thread_from_dict(doc)

    def test_file_round_trip(self, tmp_path):
        t = thread_from_dict(SAMPLE)
        path = tmp_path / "thread.json"
        write_json_atomic(_dumps(thread_to_dict(t) | {"meta": {"generator": "test"}}), path)
        loaded = load_thread(path)
        assert loaded == t
        raw = json.loads(path.read_text())
        assert raw["meta"]["generator"] == "test"

    def test_masses_survive_round_trip_exactly(self, tmp_path):
        t = thread_from_dict(SAMPLE)
        path = tmp_path / "thread.json"
        write_json_atomic(_dumps(thread_to_dict(t)), path)
        loaded = load_thread(path)
        for original, reread in zip(t.messages, loaded.messages):
            assert original.bba.to_dict() == reread.bba.to_dict()


def _thread_with_meta():
    thread = random_thread(random.Random(5), max_users=6, max_messages=40, max_focal=4)
    document = thread_to_dict(thread)
    document["meta"] = {"tool": "trolldetect", "seed": 5, "nested": {"a": {"b": [1, {}]}}}
    return thread, document


def _detect_report():
    report = analyze(generate(example1()))
    return {"meta": {"tool": "trolldetect", "input": "t.json"}, "report": report.to_dict()}


def _encoded_thread():
    thread, document = _thread_with_meta()
    return thread_to_json(thread, document["meta"])


WRITER_DOCUMENTS = {
    "thread-with-meta": lambda: _thread_with_meta()[1],
    "encoded-thread-text": _encoded_thread,
    "detect-report": _detect_report,
    "empty-list-and-nested-dict": lambda: {
        "empty": [],
        "nested": {"a": {"b": [], "c": {"d": [0.1, -0.0, 1e-300]}}},
        "items": [[], {}, "x\u00e9\n", None, True],
    },
    "not-an-object": lambda: [1.5, {"a": []}],
    "empty-object": dict,
}


class TestWriterContract:
    @pytest.mark.parametrize("make", WRITER_DOCUMENTS.values(), ids=WRITER_DOCUMENTS)
    def test_reads_back_equal_and_writes_are_byte_identical(self, tmp_path, make):
        document = make()
        if isinstance(document, str):  # thread_to_json's text of this document
            text, document = document, _thread_with_meta()[1]
        else:
            text = _dumps(document)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        write_json_atomic(text, first)
        write_json_atomic(text, second)
        assert first.read_bytes() == (text + "\n").encode("utf-8")
        assert json.loads(first.read_text(encoding="utf-8")) == document
        assert first.read_bytes() == second.read_bytes()

    def test_thread_file_has_one_line_per_message(self, tmp_path):
        thread, document = _thread_with_meta()
        path = tmp_path / "thread.json"
        write_json_atomic(_dumps(document), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        first = lines.index('  "messages": [') + 1
        last = next(k for k in range(first, len(lines)) if lines[k].startswith("  ]"))
        assert last - first == len(thread.messages)
        for line, message in zip(lines[first:last], document["messages"]):
            assert json.loads(line.strip().rstrip(",")) == message

    def test_masses_read_back_bit_for_bit(self, tmp_path):
        thread, document = _thread_with_meta()
        path = tmp_path / "thread.json"
        write_json_atomic(_dumps(document), path)
        again = load_thread(path)
        for original, reread in zip(thread.messages, again.messages):
            assert [(s, m.hex()) for s, m in original.bba.items()] == [
                (s, m.hex()) for s, m in reread.bba.items()
            ]


class TestThreadText:
    @settings(max_examples=150, deadline=None)
    @given(file_threads(), st.none() | json_values)
    def test_is_the_dumps_layout_of_the_object_form(self, thread, meta):
        text = thread_to_json(thread, meta)
        extra = {} if meta is None else {"meta": meta}
        assert text == _dumps(thread_to_dict(thread) | extra)
        document = json.loads(text)
        assert thread_from_dict(document) == thread
        for original, entry in zip(thread.messages, document["messages"]):
            assert [m.hex() for _, m in original.bba.items()] == [
                e["mass"].hex() for e in entry["bba"]
            ]

    def test_mask_subclass_and_escapes_are_written_like_json(self):
        frame = MF.frame
        bba = MassFunction(frame, [(Mask(MF.relevant_set()), 5e-324), (frame.full_set, 1.0)])
        users = ('say"hi"\\', "\u00e9\U0001f469\U0001f4bb%s")
        thread = Thread(
            frame=MF,
            users=users,
            messages=(Message(users[0], 1, bba), Message(users[1], 2, certain(3))),
        )
        text = thread_to_json(thread, {"seed": 1})
        assert text == _dumps(thread_to_dict(thread) | {"meta": {"seed": 1}})
        assert thread_from_dict(json.loads(text)) == thread


class TestWriteJsonAtomic:
    def test_output_gets_the_mode_of_a_new_file(self, tmp_path):
        reference = tmp_path / "reference"
        reference.write_text("")
        path = tmp_path / "out.json"
        write_json_atomic('{"a": 1}', path)
        assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)

    def test_mode_follows_the_umask_at_write_time(self, tmp_path):
        reference, path = tmp_path / "reference", tmp_path / "out.json"
        saved = os.umask(0o077)
        try:
            reference.write_text("")
            write_json_atomic('{"a": 1}', path)
        finally:
            os.umask(saved)
        assert stat.S_IMODE(reference.stat().st_mode) == 0o600
        assert stat.S_IMODE(path.stat().st_mode) == 0o600

    def test_failed_write_leaves_no_files(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):  # a lone surrogate, which UTF-8 cannot encode
            write_json_atomic('{"a": "\ud800"}', tmp_path / "out.json")
        assert list(tmp_path.iterdir()) == []

    def test_longest_legal_name_is_writable(self, tmp_path):
        if os.pathconf(tmp_path, "PC_NAME_MAX") < 255:
            pytest.skip("the file system takes names shorter than 255 bytes")
        path = tmp_path / ("a" * 245 + ".json")  # 250 bytes
        write_json_atomic('{"a": 1}', path)
        assert path.read_text(encoding="utf-8") == '{"a": 1}\n'
        assert list(tmp_path.iterdir()) == [path]

    def test_concurrent_writers_to_one_path(self, tmp_path):
        path = tmp_path / "out.json"
        errors = []

        def writer(k):
            try:
                for i in range(40):
                    write_json_atomic(_dumps({"writer": k, "pass": i, "pad": list(range(200))}), path)
            except OSError as exc:
                errors.append(exc)

        workers = [threading.Thread(target=writer, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        # whichever writer replaced the file last did so with its last pass
        assert json.loads(path.read_text())["pass"] == 39
        assert list(tmp_path.iterdir()) == [path]


def _malformed(edit):
    """A deep copy of SAMPLE with ``edit`` applied to it."""
    doc = json.loads(json.dumps(SAMPLE))
    edit(doc)
    return doc


def _set_first_entry(key, value):
    return lambda d: d["messages"][1]["bba"][0].__setitem__(key, value)


FRAME_REPR = "Frame(['Off-topic', 'Senseless', 'Topic_1', 'Topic_2'])"

# One malformed document per check a thread file passes, with the exact
# type and text it must raise: thread_from_dict's own checks, and the label,
# mass and user-id rules it leaves to Frame.subset, MassFunction and the
# roster check.  Cases with two faults pin which check runs first.
MALFORMED = [
    ("non-object", ["not", "an", "object"], InvalidThread,
     "thread document must be a JSON object"),
    ("missing-key", _malformed(lambda d: d.pop("users")), InvalidThread,
     "missing key 'users'"),
    ("missing-two-keys", _malformed(lambda d: (d.pop("messages"), d.pop("topic_count"))),
     InvalidThread, "missing key 'topic_count'"),
    ("bool-topic-count", _malformed(lambda d: d.__setitem__("topic_count", True)),
     InvalidThread, "topic_count must be an integer"),
    ("float-relevant-topic", _malformed(lambda d: d.__setitem__("relevant_topic", 1.0)),
     InvalidThread, "relevant_topic must be an integer"),
    ("non-string-user", _malformed(lambda d: d["users"].append(3)), InvalidThread,
     "user ids must be strings, got 3"),
    ("users-not-list", _malformed(lambda d: d.__setitem__("users", "U1")), InvalidThread,
     "users must be a list of strings"),
    ("messages-not-list", _malformed(lambda d: d.__setitem__("messages", {})),
     InvalidThread, "messages must be a list"),
    ("message-not-object", _malformed(lambda d: d["messages"].__setitem__(1, [])),
     InvalidThread, "message 1 must be an object"),
    ("message-missing-key", _malformed(lambda d: d["messages"][1].pop("author")),
     InvalidThread, "message 1 missing key 'author'"),
    ("bool-rank", _malformed(lambda d: d["messages"][1].__setitem__("rank", True)),
     InvalidThread, "message 1: rank must be an integer"),
    ("bool-rank-and-bad-author",
     _malformed(lambda d: d["messages"][1].update(rank=False, author=None)),
     InvalidThread, "message 1: rank must be an integer"),
    ("non-string-author", _malformed(lambda d: d["messages"][1].__setitem__("author", 2)),
     InvalidThread, "message 1: author must be a string"),
    ("bba-not-list", _malformed(lambda d: d["messages"][0].__setitem__("bba", {})),
     InvalidThread, "message 0: bba must be a list"),
    ("entry-not-object", _malformed(lambda d: d["messages"][0]["bba"].__setitem__(1, 0.5)),
     InvalidThread, "message 0: bba entry 1 must have 'set' and 'mass'"),
    ("entry-missing-mass", _malformed(lambda d: d["messages"][1]["bba"][0].pop("mass")),
     InvalidThread, "message 1: bba entry 0 must have 'set' and 'mass'"),
    ("non-string-label", _malformed(_set_first_entry("set", ["Topic_2", 1])),
     InvalidSubset, f"message 1: 1 is not a hypothesis of {FRAME_REPR}"),
    ("set-not-list", _malformed(_set_first_entry("set", "Topic_2")),
     InvalidThread, "message 1: bba entry 0: 'set' must be a list of strings"),
    ("bad-label-and-bool-mass",
     _malformed(lambda d: d["messages"][1]["bba"][0].update(set=[None], mass=True)),
     InvalidSubset, f"message 1: None is not a hypothesis of {FRAME_REPR}"),
    ("bool-mass-then-unknown-label",
     _malformed(lambda d: (d["messages"][0]["bba"][0].update(mass=True),
                           d["messages"][0]["bba"][1].update(set=["Topic_9"]))),
     InvalidSubset, f"message 0: 'Topic_9' is not a hypothesis of {FRAME_REPR}"),
    ("bool-mass", _malformed(_set_first_entry("mass", True)),
     NonFiniteMass, "message 1: mass on subset 0b1000 is a bool, not a real number"),
    ("string-mass", _malformed(_set_first_entry("mass", "1.0")),
     NonFiniteMass, "message 1: mass on subset 0b1000 is a str, not a real number"),
    ("400-digit-mass", _malformed(_set_first_entry("mass", 10**400)),
     NonFiniteMass, "message 1: mass on subset 0b1000 is past the float range"),
    ("unknown-label", _malformed(_set_first_entry("set", ["Topic_2", "Topic_9"])),
     InvalidSubset, f"message 1: 'Topic_9' is not a hypothesis of {FRAME_REPR}"),
    ("duplicate-user", _malformed(lambda d: d["users"].append("U1")), InvalidThread,
     "duplicate user ids in roster"),
    ("bad-sum", _malformed(_set_first_entry("mass", 0.5)), SumNotOne,
     "message 1: masses sum to 0.5, expected 1"),
]


@pytest.mark.parametrize(
    "doc, error, text", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
)
def test_malformed_document_message(doc, error, text):
    with pytest.raises(error) as err:
        thread_from_dict(doc)
    assert type(err.value) is error
    assert str(err.value) == text


BAD_MASSES = {
    "bool": True,
    "str": "1.0",
    "none": None,
    "400-digits": 10**400,
    "nan": float("nan"),
    "minus-inf": float("-inf"),
    "negative": -0.5,
}


@pytest.mark.parametrize("mass", BAD_MASSES.values(), ids=BAD_MASSES)
def test_bad_mass_raises_mass_functions_own_error(mass):
    with pytest.raises(BeliefError) as own:
        MassFunction(MF.frame, [(MF.topic_set(2), mass)])
    with pytest.raises(BeliefError) as err:
        thread_from_dict(_malformed(_set_first_entry("mass", mass)))
    assert type(err.value) is type(own.value)
    assert str(err.value) == f"message 1: {own.value}"


class _Rank(enum.IntEnum):
    TWO = 2


class _List(list):
    pass


class _Str(str):
    pass


def _second_message(key, make):
    return lambda d: d["messages"][1].__setitem__(key, make(d["messages"][1][key]))


def _append_entry(labels, mass):
    return lambda d: d["messages"][1]["bba"].append({"set": labels, "mass": mass})


# Documents whose values are not the exact types json.load returns, or
# whose masses sit at the edges of the float checks: each is accepted as
# the plain SAMPLE thread, or rejected with the given type and text, just
# as the isinstance checks behind the exact-type shortcuts judge it.  (A
# bool rank is MALFORMED's "bool-rank".)
SHORTCUT_CASES = [
    ("mapping-proxy-message",
     _malformed(lambda d: d["messages"].__setitem__(1, MappingProxyType(d["messages"][1]))),
     None, None),
    ("mapping-proxy-entry", _malformed(_second_message("bba", lambda b: [MappingProxyType(b[0])])),
     None, None),
    ("list-subclass-bba", _malformed(_second_message("bba", _List)), None, None),
    ("list-subclass-set", _malformed(lambda d: d["messages"][1]["bba"][0].update(set=_List(["Topic_2"]))),
     None, None),
    ("str-subclass-author", _malformed(_second_message("author", _Str)), None, None),
    ("str-subclass-label", _malformed(lambda d: d["messages"][1]["bba"][0].update(set=[_Str("Topic_2")])),
     None, None),
    ("int-enum-rank", _malformed(_second_message("rank", _Rank)), InvalidThread,
     "ranks must be exactly 1..2 with no gaps: 1 out of place, first rank <_Rank.TWO: 2> at position 2"),
    ("seen-labels-then-list-label",
     _malformed(lambda d: (_append_entry(["Topic_1"], 0.0)(d), _append_entry([["Topic_1"]], 0.0)(d))),
     InvalidSubset, f"message 1: ['Topic_1'] is not a hypothesis of {FRAME_REPR}"),
    ("negative-zero-mass", _malformed(_append_entry(["Topic_1"], -0.0)), None, None),
    ("nan-mass", _malformed(_append_entry(["Topic_1"], float("nan"))), NonFiniteMass,
     "message 1: mass nan on subset 0b100"),
    ("minus-inf-mass", _malformed(_append_entry(["Topic_1"], float("-inf"))), NonFiniteMass,
     "message 1: mass -inf on subset 0b100"),
]


@pytest.mark.parametrize(
    "doc, error, text", [case[1:] for case in SHORTCUT_CASES], ids=[case[0] for case in SHORTCUT_CASES]
)
def test_exact_type_shortcuts_judge_like_the_full_checks(doc, error, text):
    if error is None:
        assert thread_from_dict(doc) == thread_from_dict(SAMPLE)
        return
    with pytest.raises(error) as err:
        thread_from_dict(doc)
    assert type(err.value) is error
    assert str(err.value) == text


MALFORMED_DOCUMENT = '{"users": []}'


def _detect_in_process(path):
    return CliRunner().invoke(main, ["detect", "--thread", str(path)])


# Each library entry point that decodes or builds a document, and the CLI
# run in-process by CliRunner: the text of the file it reads (None: it
# reads none), the call, and what the call must end in (see _outcome).
COLLECTOR_CASES = {
    "valid": (lambda: json.dumps(SAMPLE), load_thread, 0),
    "malformed": (lambda: MALFORMED_DOCUMENT, load_thread, InvalidThread),
    "load_spec-valid": (lambda: json.dumps(spec_to_dict(example1())), load_spec, 0),
    "load_spec-malformed": (lambda: MALFORMED_DOCUMENT, load_spec, InvalidSpec),
    "generate": (None, lambda path: generate(example1()), 0),
    "thread_to_dict": (None, lambda path: thread_to_dict(generate(example1())), 0),
    "cli.main-valid": (lambda: thread_to_json(generate(example1())), _detect_in_process, 0),
    "cli.main-malformed": (lambda: MALFORMED_DOCUMENT, _detect_in_process, 2),
}


def _outcome(run, path):
    """What ``run(path)`` ends in: the class of the ``BeliefError`` it
    raises, else the exit code of the click ``Result`` it returns, else 0."""
    try:
        result = run(path)
    except BeliefError as err:
        return type(err)
    return getattr(result, "exit_code", 0)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("case", list(COLLECTOR_CASES))
def test_loading_leaves_the_collector_as_it_found_it(tmp_path, enabled, case):
    text, run, expected = COLLECTOR_CASES[case]
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text(), encoding="utf-8")
    was = gc.isenabled()
    try:
        if enabled:
            gc.enable()
        else:
            gc.disable()
        assert _outcome(run, path) == expected
        assert gc.isenabled() is enabled
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()


@settings(max_examples=400, deadline=None)
@given(json_documents)
def test_any_json_document_is_a_thread_or_a_belief_error(doc):
    try:
        thread = thread_from_dict(doc)
    except BeliefError:
        return
    assert isinstance(thread, Thread)


@st.composite
def constructed_thread_parts(draw):
    """(topic_count, users, [[author, rank, {subset: mass}]]) for the public
    constructors: a valid thread, or one with a single value swapped for
    one a thread file cannot hold as given (a float or bool rank, an int,
    bool, string or 400-digit mass, a non-string user id)."""
    topic_count = draw(st.integers(1, 3))
    full = (1 << (topic_count + 2)) - 1
    users = draw(st.lists(st.text(max_size=3), min_size=2, max_size=4, unique=True))
    authors = draw(st.permutations(users + draw(st.lists(st.sampled_from(users), max_size=3))))
    posts = []
    for rank, author in enumerate(authors, start=1):
        dominant = draw(st.floats(0.01, 0.99))
        posts.append([author, rank, {draw(st.integers(1, full - 1)): dominant, full: 1.0 - dominant}])
    post = draw(st.sampled_from(posts))
    swap = draw(st.sampled_from([None, None, "rank", "mass", "user"]))
    if swap == "rank":
        post[1] = draw(st.sampled_from([float(post[1]), True]))
    elif swap == "mass":
        post[2] = {full: draw(st.sampled_from([1, True, "1", 10**400]))}
    elif swap == "user":
        name, odd = post[0], draw(st.sampled_from([7, None]))
        users = [odd if uid == name else uid for uid in users]
        for other in posts:
            if other[0] == name:
                other[0] = odd
    return topic_count, users, posts


@settings(max_examples=300, deadline=None)
@given(constructed_thread_parts())
def test_constructed_thread_round_trips_through_its_document(parts):
    topic_count, users, posts = parts
    frame = MessageFrame(topic_count=topic_count, relevant_topic=1)
    try:
        thread = Thread(
            frame=frame,
            users=tuple(users),
            messages=tuple(
                Message(author=author, rank=rank, bba=MassFunction(frame.frame, masses))
                for author, rank, masses in posts
            ),
        )
    except BeliefError:
        return
    assert thread_from_dict(thread_to_dict(thread)) == thread
