"""Thread data model and its JSON file format."""

import json
import stat
import sys
import threading

import pytest

from trolldetect import (
    MassFunction,
    Message,
    MessageFrame,
    Thread,
    load_thread,
    save_thread,
    thread_from_dict,
    thread_to_dict,
)
from trolldetect.thread import write_json_atomic
from trolldetect.errors import (
    InvalidThread,
    NonFiniteMass,
    RankOutOfBounds,
    SumNotOne,
    UnknownUser,
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

    def test_unknown_user(self):
        t = Thread(frame=MF, users=("U1", "U2"), messages=(msg("U1", 1), msg("U2", 2)))
        with pytest.raises(UnknownUser):
            t.ranks_by("U9")


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
        with pytest.raises(InvalidThread):
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
        save_thread(t, path, meta={"generator": "test"})
        loaded = load_thread(path)
        assert loaded == t
        raw = json.loads(path.read_text())
        assert raw["meta"]["generator"] == "test"

    def test_masses_survive_round_trip_exactly(self, tmp_path):
        t = thread_from_dict(SAMPLE)
        path = tmp_path / "thread.json"
        save_thread(t, path)
        loaded = load_thread(path)
        for original, reread in zip(t.messages, loaded.messages):
            assert original.bba.to_dict() == reread.bba.to_dict()


class TestWriteJsonAtomic:
    def test_output_gets_the_mode_of_a_new_file(self, tmp_path):
        reference = tmp_path / "reference"
        reference.write_text("")
        path = tmp_path / "out.json"
        write_json_atomic({"a": 1}, path)
        assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)

    def test_failed_write_leaves_no_files(self, tmp_path):
        with pytest.raises(TypeError):
            write_json_atomic({"a": object()}, tmp_path / "out.json")
        assert list(tmp_path.iterdir()) == []

    def test_concurrent_writers_to_one_path(self, tmp_path):
        path = tmp_path / "out.json"
        errors = []

        def writer(k):
            try:
                for i in range(40):
                    write_json_atomic({"writer": k, "pass": i, "pad": list(range(200))}, path)
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
