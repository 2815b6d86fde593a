"""Scenario validation, deterministic generation, and the built-in examples."""

import math
from decimal import Decimal

import pytest
from hypothesis import given, settings

from trolldetect import (
    MassFunction,
    Message,
    MessageFrame,
    ScenarioSpec,
    ScriptEntry,
    Thread,
    analyze,
    example1,
    example2,
    generate,
    pin_masses,
    thread_to_dict,
)
from trolldetect.errors import (
    BeliefError,
    InvalidSpec,
    InvalidThread,
    MassOutOfRange,
    RankOutOfBounds,
)
from trolldetect.simulate import spec_from_dict

from helpers import spec_documents, spec_to_dict


def tiny_spec(**overrides):
    base = dict(
        topic_count=2,
        relevant_topic=1,
        users=(("A", "expert"), ("B", "troll")),
        script=(
            ScriptEntry("A", "relevant"),
            ScriptEntry("B", "controversy", 2),
            ScriptEntry("A", "relevant"),
        ),
        seed=7,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestValidation:
    @pytest.mark.parametrize(
        "overrides, text",
        [
            ({"script": ()}, "empty script"),
            ({"topic_count": True}, "topic_count must be an integer"),
            ({"seed": "x"}, "seed must be an integer, got 'x'"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            (
                {"users": (("A", "expert"),), "script": (ScriptEntry("A", "relevant"),)},
                "the roster needs at least two users",
            ),
            (
                {"users": (("A", "expert"), ("B", "troll"), ("A", "learner"))},
                "duplicate user ids in roster",
            ),
            (
                {"script": (ScriptEntry("A", "relevant"), ScriptEntry("B", "rant"))},
                "script entry 1: unknown category 'rant'",
            ),
            (
                {"script": (ScriptEntry("A", "relevant"), ScriptEntry("B", ["rant"]))},
                "script entry 1: unknown category ['rant']",
            ),
            (
                {"users": (("A", ["expert"]), ("B", "troll"))},
                "unknown role ['expert'] for 'A'",
            ),
            (
                {"script": (ScriptEntry("A", "relevant"), ScriptEntry("B", "controversy", 3))},
                "script entry 1: topic 3 is not one of the controversy topics [2]",
            ),
            (
                {"script": (ScriptEntry("A", "relevant"), ScriptEntry("B", "controversy", 1))},
                "script entry 1: topic 1 is not one of the controversy topics [2]",
            ),
            ({"concentration": 0.7}, "concentration must be a (lo, hi) pair"),
            (
                {"concentration": ("a", "b")},
                "concentration must be real numbers, got ('a', 'b')",
            ),
            (
                {"concentration": (0.6, Decimal("0.9"))},
                "concentration must be real numbers, got (0.6, Decimal('0.9'))",
            ),
            ({"pins": [1, 2]}, "pins must map ranks to masses"),
            ({"pins": "x"}, "pins must map ranks to masses"),
            (
                {"users": (("A", "expert", "extra"), ("B", "troll"))},
                "users must be (id, role) pairs",
            ),
        ],
        ids=[
            "empty-script",
            "bool-topic-count",
            "string-seed",
            "negative-seed",
            "one-user",
            "duplicate-ids",
            "unknown-category",
            "unhashable-category",
            "unhashable-role",
            "topic-outside-range",
            "relevant-topic-as-controversy",
            "number-concentration",
            "string-concentration",
            "decimal-concentration",
            "pins-of-numbers",
            "pins-of-a-string",
            "three-item-user",
        ],
    )
    def test_checked_at_construction(self, overrides, text):
        with pytest.raises(InvalidSpec) as err:
            tiny_spec(**overrides)
        assert str(err.value) == text

    @pytest.mark.parametrize(
        "users, authors, text",
        [
            (("A", 1), ["A", 1], "user ids must be strings, got 1"),
            (("A",), ["A"], "the roster needs at least two users"),
            (("A", "B", "A"), ["A", "B"], "duplicate user ids in roster"),
            (("A", "B"), ["A", "B", "C"], "author 'C' is not on the roster"),
            (("A", "B"), ["A", ["B"]], "author ['B'] is not on the roster"),
            (("A", "B", "C"), ["A", "B"], "1 users never post, first 'C'"),
            (
                ("A", "\ud800"),
                ["A", "\ud800"],
                "user id '\\ud800' is empty or holds a space or a character that does not print, so no table line could show it as one id",
            ),
            (
                ("A", "B\u2029"),
                ["A", "B\u2029"],
                "user id 'B\\u2029' is empty or holds a space or a character that does not print, so no table line could show it as one id",
            ),
            (
                ("A", "B\u202e"),
                ["A", "B\u202e"],
                "user id 'B\\u202e' is empty or holds a space or a character that does not print, so no table line could show it as one id",
            ),
        ],
        ids=[
            "non-string-id",
            "one-user",
            "duplicate-id",
            "unknown-author",
            "unhashable-author",
            "silent-user",
            "lone-surrogate-id",
            "paragraph-separator-id",
            "right-to-left-override-id",
        ],
    )
    def test_spec_and_thread_share_roster_texts(self, users, authors, text):
        frame = MessageFrame(topic_count=2, relevant_topic=1)
        bba = MassFunction.vacuous(frame.frame)
        with pytest.raises(InvalidSpec) as spec_err:
            tiny_spec(
                users=tuple((uid, "expert") for uid in users),
                script=tuple(ScriptEntry(author, "relevant") for author in authors),
            )
        with pytest.raises(InvalidThread) as thread_err:
            Thread(
                frame=frame,
                users=users,
                messages=tuple(
                    Message(author=author, rank=rank, bba=bba)
                    for rank, author in enumerate(authors, start=1)
                ),
            )
        assert str(spec_err.value) == str(thread_err.value) == text

    def test_empty_script_rejected(self):
        with pytest.raises(InvalidSpec):
            generate(tiny_spec(script=()))

    def test_unknown_author_rejected(self):
        with pytest.raises(InvalidSpec):
            generate(tiny_spec(script=(ScriptEntry("Z", "relevant"),)))

    def test_unknown_role_rejected(self):
        with pytest.raises(InvalidSpec):
            generate(tiny_spec(users=(("A", "expert"), ("B", "lurker"))))

    def test_controversy_needs_controversy_topic(self):
        with pytest.raises(InvalidSpec):
            generate(
                tiny_spec(script=(ScriptEntry("A", "controversy", 1), ScriptEntry("B", "relevant")))
            )
        with pytest.raises(InvalidSpec):
            generate(
                tiny_spec(script=(ScriptEntry("A", "controversy"), ScriptEntry("B", "relevant")))
            )

    def test_topic_forbidden_outside_controversy(self):
        with pytest.raises(InvalidSpec):
            generate(
                tiny_spec(script=(ScriptEntry("A", "relevant", 1), ScriptEntry("B", "relevant")))
            )

    def test_silent_user_rejected(self):
        with pytest.raises(InvalidSpec):
            generate(
                tiny_spec(script=(ScriptEntry("A", "relevant"), ScriptEntry("A", "senseless")))
            )

    def test_error_message_stays_short_with_many_silent_users(self):
        users = (("A", "expert"), ("B", "troll")) + tuple(
            (f"S{i}", "learner") for i in range(10_000)
        )
        with pytest.raises(InvalidSpec) as err:
            generate(tiny_spec(users=users))
        assert str(err.value) == "10000 users never post, first 'S0'"
        assert len(str(err.value)) < 200

    def test_concentration_bounds(self):
        with pytest.raises(InvalidSpec):
            generate(tiny_spec(concentration=(0.4, 0.9)))
        with pytest.raises(InvalidSpec):
            generate(tiny_spec(concentration=(0.9, 0.8)))
        with pytest.raises(InvalidSpec):
            generate(tiny_spec(concentration=(0.8, 1.0)))


class TestPinning:
    def test_pin_changes_only_that_rank(self):
        spec = tiny_spec()
        plain = generate(spec)
        pinned = generate(pin_masses(spec, [(2, 0.9210)]))
        frame = pinned.frame
        assert pinned.message(2).bba.mass(frame.topic_set(2)) == 0.9210
        assert pinned.message(2).bba.mass(frame.frame.full_set) == pytest.approx(
            0.0790, abs=1e-15
        )
        for rank in (1, 3):
            assert pinned.message(rank).bba == plain.message(rank).bba

    def test_pin_rank_out_of_bounds(self):
        with pytest.raises(RankOutOfBounds):
            pin_masses(tiny_spec(), [(4, 0.9)])

    def test_pin_mass_out_of_range(self):
        with pytest.raises(MassOutOfRange):
            pin_masses(tiny_spec(), [(1, 1.0)])
        with pytest.raises(MassOutOfRange):
            pin_masses(tiny_spec(), [(1, 0.0)])

    @pytest.mark.parametrize("rank", [1.5, True, 1.0, "1"])
    def test_pin_rank_must_be_an_integer(self, rank):
        with pytest.raises(InvalidSpec, match="pinned rank must be an integer"):
            pin_masses(tiny_spec(), [(rank, 0.9)])
        document = spec_to_dict(tiny_spec())
        document["pins"] = [{"rank": rank, "mass": 0.9}]
        with pytest.raises(InvalidSpec, match="pinned rank must be an integer"):
            spec_from_dict(document)

    @pytest.mark.parametrize(
        "mass, error, text",
        [
            (Decimal("0.9"), InvalidSpec, "pinned mass must be a real number, got Decimal('0.9')"),
            ("0.9", InvalidSpec, "pinned mass must be a real number, got '0.9'"),
            (None, InvalidSpec, "pinned mass must be a real number, got None"),
            (True, MassOutOfRange, "pinned mass True outside (0, 1)"),
            (0.0, MassOutOfRange, "pinned mass 0.0 outside (0, 1)"),
            (1.0, MassOutOfRange, "pinned mass 1.0 outside (0, 1)"),
        ],
        ids=["decimal", "str", "none", "bool", "zero", "one"],
    )
    @pytest.mark.parametrize("through", ["pin_masses", "spec_from_dict"])
    def test_pin_mass_must_be_a_real_number_in_range(self, mass, error, text, through):
        with pytest.raises(error) as err:
            if through == "pin_masses":
                pin_masses(example1(), [(1, mass)])
            else:
                document = spec_to_dict(example1())
                document["pins"][0]["mass"] = mass
                spec_from_dict(document)
        assert type(err.value) is error
        assert str(err.value) == text

    def test_bool_pin_beside_integer_pin_rejected(self):
        # True == 1, so as a dict key it would silently merge with rank 1
        document = spec_to_dict(tiny_spec())
        document["pins"] = [{"rank": 1, "mass": 0.9}, {"rank": True, "mass": 0.8}]
        with pytest.raises(InvalidSpec):
            spec_from_dict(document)

    def test_duplicate_pin_rank_rejected(self):
        document = spec_to_dict(tiny_spec())
        document["pins"] = [{"rank": 1, "mass": 0.9}, {"rank": 1, "mass": 0.8}]
        with pytest.raises(InvalidSpec, match="^pinned rank 1 appears more than once$"):
            spec_from_dict(document)

    def test_pins_given_as_pairs(self):
        assert tiny_spec(pins=[(1, 0.9)]) == tiny_spec(pins={1: 0.9})
        with pytest.raises(InvalidSpec, match="^pinned rank 1 appears more than once$"):
            tiny_spec(pins=[(1, 0.9), (1, 0.8)])
        # True == 1, so as a dict key it would silently replace rank 1's pin
        with pytest.raises(InvalidSpec, match="^pinned rank must be an integer, got True$"):
            tiny_spec(pins=[(1, 0.9), (True, 0.8)])

    def test_pins_are_read_only(self):
        pins = {1: 0.9}
        spec = tiny_spec(pins=pins)
        pins[1] = 1.0
        assert spec.pins == {1: 0.9}
        with pytest.raises(TypeError):
            spec.pins[1] = 1.0

    def test_users_and_script_are_copied(self):
        users = [("A", "expert"), ("B", "troll")]
        script = [
            ScriptEntry("A", "relevant"),
            ScriptEntry("B", "controversy", 2),
            ScriptEntry("A", "relevant"),
        ]
        spec = tiny_spec(users=users, script=script)
        users.append(("C", "learner"))
        script.append(ScriptEntry("C", "relevant"))
        assert spec.users == (("A", "expert"), ("B", "troll"))
        assert len(spec.script) == 3
        assert len(generate(spec).messages) == 3

    def test_pin_does_not_mutate_original(self):
        spec = tiny_spec()
        pin_masses(spec, [(1, 0.8)])
        assert spec.pins == {}

    def test_pin_masses_replaces_an_existing_pin(self):
        spec = pin_masses(example1(), [(1, 0.5), (2, 0.6)])
        assert spec.pins == {**example1().pins, 1: 0.5, 2: 0.6}

    def test_pin_masses_rejects_a_rank_given_twice(self):
        with pytest.raises(InvalidSpec, match="^pinned rank 2 appears more than once$"):
            pin_masses(example1(), [(2, 0.9), (2, 0.8)])

    @pytest.mark.parametrize("overrides", [[1], [(1, 0.5, 3)], 5], ids=["int", "triple", "scalar"])
    def test_pin_masses_rejects_overrides_that_are_not_pairs(self, overrides):
        with pytest.raises(InvalidSpec, match="^pins must map ranks to masses$"):
            pin_masses(example1(), overrides)


class TestGeneration:
    def test_same_seed_same_thread(self):
        spec = tiny_spec()
        assert generate(spec) == generate(spec)
        assert thread_to_dict(generate(spec)) == thread_to_dict(generate(spec))

    def test_different_seed_different_masses(self):
        spec = tiny_spec()
        other = generate(spec._replace(seed=8))
        assert generate(spec) != other

    def test_every_bba_is_two_focal_and_exactly_normalized(self):
        thread = generate(tiny_spec())
        for msg in thread.messages:
            masses = list(msg.bba.items())
            assert len(masses) == 2
            assert math.fsum(m for _, m in masses) == 1.0

    def test_dominant_masses_stay_in_range(self):
        spec = tiny_spec(concentration=(0.6, 0.7))
        for msg in generate(spec).messages:
            dominant = max(m for _, m in msg.bba.items())
            assert 0.6 <= dominant <= 0.7

    @pytest.mark.parametrize(
        "topic_count, relevant_topic", [(1, 1), (3, 2), (14, 1), (14, 7), (14, 14)]
    )
    def test_categories_map_to_expected_singletons(self, topic_count, relevant_topic):
        controversy = [j for j in range(1, topic_count + 1) if j != relevant_topic]
        spec = ScenarioSpec(
            topic_count=topic_count,
            relevant_topic=relevant_topic,
            users=(("A", "expert"), ("B", "troll")),
            script=(
                ScriptEntry("A", "relevant"),
                ScriptEntry("B", "off_topic"),
                ScriptEntry("B", "senseless"),
                *(ScriptEntry("B", "controversy", j) for j in controversy),
            ),
            seed=1,
        )
        t = generate(spec)
        frame = t.frame
        dominant_sets = [
            max(m.bba.items(), key=lambda kv: kv[1])[0] for m in t.messages
        ]
        assert dominant_sets == [
            frame.topic_set(relevant_topic),
            frame.off_topic_set(),
            frame.senseless_set(),
            *(frame.topic_set(j) for j in controversy),
        ]


def example1_document(drop=(), **changes):
    """example1's scenario document without the keys in ``drop`` and with
    ``changes`` applied."""
    document = spec_to_dict(example1()) | changes
    for key in drop:
        del document[key]
    return document


_USERS, _SCRIPT = (example1_document()[key] for key in ("users", "script"))

# One document per shape check of spec_from_dict, and per value it leaves to
# ScenarioSpec that it used to judge with Python's own text first.
MALFORMED = {
    "not-an-object": ([], "scenario document must be an object"),
    "null": (None, "scenario document must be an object"),
    "missing-topic-count": (
        example1_document(drop=["topic_count"]),
        "scenario document missing key 'topic_count'",
    ),
    "missing-users": (
        example1_document(drop=["users"]),
        "scenario document missing key 'users'",
    ),
    "users-not-a-list": (example1_document(users={"U1": "victim"}), "users must be a list"),
    "user-not-an-object": (
        example1_document(users=["U1", *_USERS[1:]]),
        "users entry 0 must be an object",
    ),
    "user-without-role": (
        example1_document(users=[{"id": "U1"}, *_USERS[1:]]),
        "users entry 0 missing key 'role'",
    ),
    "script-not-a-list": (example1_document(script=None), "script must be a list"),
    "script-entry-without-category": (
        example1_document(script=[{"author": "U3"}, *_SCRIPT[1:]]),
        "script entry 0 missing key 'category'",
    ),
    "pins-not-a-list": (example1_document(pins="x"), "pins must be a list"),
    "pin-not-an-object": (example1_document(pins=[1, 2]), "pins entry 0 must be an object"),
    "pin-without-mass": (
        example1_document(pins=[{"rank": 1}]),
        "pins entry 0 missing key 'mass'",
    ),
    "concentration-not-a-pair": (
        example1_document(concentration=0.7),
        "concentration must be a (lo, hi) pair",
    ),
    "concentration-null": (
        example1_document(concentration=None),
        "concentration must be a (lo, hi) pair",
    ),
    # ScenarioSpec's order decides: its role check runs before its pin checks
    "bad-role-and-bad-pin": (
        example1_document(
            users=[{"id": "U1", "role": "x"}, *_USERS[1:]], pins=[{"rank": 1.5, "mass": 0.9}]
        ),
        "unknown role 'x' for 'U1'",
    ),
}


class TestSpecJson:
    def test_round_trip(self):
        spec = pin_masses(tiny_spec(), [(1, 0.9)])
        again = spec_from_dict(spec_to_dict(spec))
        assert again == spec

    def test_malformed_document_rejected(self):
        with pytest.raises(InvalidSpec):
            spec_from_dict({"topic_count": 2})

    def test_garbage_fields_rejected(self):
        base = spec_to_dict(tiny_spec())
        for patch in (
            {"concentration": [0.7, 0.8, 0.9]},
            {"concentration": ["lo", "hi"]},
            {"seed": "not-a-seed"},
            {"script": [{"author": "A", "category": "controversy", "topic": "x"}]},
        ):
            with pytest.raises(InvalidSpec):
                spec_from_dict({**base, **patch})

    @pytest.mark.parametrize("topic", [1.0, True], ids=["float", "bool"])
    def test_controversy_topic_must_be_an_integer(self, topic):
        document = spec_to_dict(tiny_spec())
        document["relevant_topic"] = 2
        document["script"][1]["topic"] = topic
        with pytest.raises(InvalidSpec) as err:
            spec_from_dict(document)
        assert str(err.value) == f"script entry 1: topic must be an integer, got {topic!r}"

    def test_builtin_specs_round_trip(self):
        for factory in (example1, example2):
            spec = factory()
            assert spec_from_dict(spec_to_dict(spec)) == spec

    @pytest.mark.parametrize("document, text", MALFORMED.values(), ids=MALFORMED)
    def test_malformed_document_message(self, document, text):
        with pytest.raises(InvalidSpec) as err:
            spec_from_dict(document)
        assert type(err.value) is InvalidSpec
        assert str(err.value) == text


@settings(max_examples=400, deadline=None)
@given(spec_documents)
def test_any_json_document_is_a_spec_or_a_belief_error(doc):
    try:
        spec = spec_from_dict(doc)
    except BeliefError:
        return
    assert isinstance(spec, ScenarioSpec)


class TestBuiltinScenarios:
    def test_example1_shape(self):
        spec = example1()
        t = generate(spec)
        assert len(t.messages) == 16
        assert len(t.users) == 4
        # troll posts controversy, senseless, controversy, in that order
        troll_ranks = t.ranks_by("U4")
        assert len(troll_ranks) == 3
        frame = t.frame
        dominant = [
            max(t.message(r).bba.items(), key=lambda kv: kv[1])[0]
            for r in troll_ranks
        ]
        assert dominant == [
            frame.topic_set(2),
            frame.senseless_set(),
            frame.topic_set(2),
        ]

    def test_example1_published_masses_pinned(self):
        t = generate(example1())
        frame = t.frame
        troll_ranks = t.ranks_by("U4")
        assert [round(max(m for _, m in t.message(r).bba.items()), 4) for r in troll_ranks] == [
            0.9210,
            0.9716,
            0.8387,
        ]
        expert_ranks = t.ranks_by("U3")
        assert [round(t.message(r).bba.mass(frame.relevant_set()), 4) for r in expert_ranks] == [
            0.9732,
            0.7782,
            0.9632,
        ]

    def test_example2_shape(self):
        t = generate(example2())
        assert len(t.messages) == 31
        assert len(t.users) == 8
        frame = t.frame

        def category_of(rank):
            focal = max(t.message(rank).bba.items(), key=lambda kv: kv[1])[0]
            return {
                frame.relevant_set(): "relevant",
                frame.off_topic_set(): "off_topic",
                frame.senseless_set(): "senseless",
                frame.topic_set(2): "controversy",
            }[focal]

        per_user = {
            u: [category_of(r) for r in t.ranks_by(u)] for u in t.users
        }
        assert per_user["U4"] == ["controversy", "controversy"]
        assert per_user["U8"] == ["off_topic", "off_topic", "controversy"]
        assert sorted(per_user["U1"]) == ["controversy", "controversy"] + ["relevant"] * 3
        assert per_user["U2"].count("controversy") == 2
        assert per_user["U3"].count("off_topic") == 1
        assert per_user["U5"] == ["relevant"]
        assert len(per_user["U6"]) == 3
        assert len(per_user["U7"]) == 2

    def test_example_partitions(self):
        assert analyze(generate(example1())).trolls == frozenset({"U4"})
        assert analyze(generate(example2())).trolls == frozenset({"U4", "U8"})
