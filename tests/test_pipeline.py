"""Per-message and per-user conflict aggregation, and the full analysis."""

import math
import random
from math import fsum
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trolldetect import pipeline
from trolldetect import (
    MassFunction,
    Message,
    MessageFrame,
    Thread,
    analyze,
    conflict,
    message_conflict,
    message_conflict_per_user,
    user_conflict,
)
from trolldetect.errors import (
    Degenerate,
    NoPriorMessages,
    RankOutOfBounds,
    SameUser,
    UnknownUser,
)
from trolldetect.simulate import example1, generate, spec_from_dict
from trolldetect.thread import OFF_TOPIC, SENSELESS, thread_from_dict, topic_label

from helpers import bench_workloads, random_mass, random_thread
from oracles import (
    naive_message_conflict,
    naive_message_conflict_per_user,
    naive_user_conflict,
)

MF = MessageFrame(topic_count=2, relevant_topic=1)
T1 = MF.relevant_set()
T2 = MF.topic_set(2)


def certain(subset):
    return MassFunction(MF.frame, {subset: 1.0})


def two_focal(subset, dominant):
    return MassFunction(
        MF.frame, {subset: dominant, MF.frame.full_set: 1.0 - dominant}
    )


def build(*entries):
    """entries: (author, bba); ranks assigned in order."""
    users = tuple(dict.fromkeys(author for author, _ in entries))
    messages = tuple(
        Message(author=author, rank=i, bba=bba)
        for i, (author, bba) in enumerate(entries, start=1)
    )
    return Thread(frame=MF, users=users, messages=messages)


class TestMessageConflictPerUser:
    def test_identical_prior_gives_zero(self):
        t = build(("B", certain(T1)), ("A", certain(T1)))
        assert message_conflict_per_user(t, 2, "B") == 0.0

    def test_disjoint_certain_prior_gives_one(self):
        t = build(("B", certain(T1)), ("A", certain(T2)))
        assert message_conflict_per_user(t, 2, "B") == pytest.approx(1.0, abs=1e-12)

    def test_mean_of_identical_and_conflicting(self):
        t = build(("B", certain(T1)), ("B", certain(T2)), ("A", certain(T1)))
        assert message_conflict_per_user(t, 3, "B") == pytest.approx(0.5, abs=1e-12)

    def test_same_user_rejected(self):
        t = build(("B", certain(T1)), ("A", certain(T1)), ("B", certain(T1)))
        with pytest.raises(SameUser):
            message_conflict_per_user(t, 3, "B")

    def test_no_prior_messages_rejected(self):
        t = build(("B", certain(T1)), ("A", certain(T1)))
        with pytest.raises(NoPriorMessages):
            message_conflict_per_user(t, 1, "A")

    def test_unknown_user_rejected(self):
        t = build(("B", certain(T1)), ("A", certain(T1)))
        with pytest.raises(UnknownUser):
            message_conflict_per_user(t, 2, "Z")

    @pytest.mark.parametrize(
        "rank, user, error, text",
        [
            (9, "Z", RankOutOfBounds, "rank {!r} outside 1..3"),
            (3, "Z", UnknownUser, "'Z' is not on the roster"),
            (3, "B", SameUser, "message 3 belongs to 'B'"),
            (1, "A", NoPriorMessages, "'A' has no messages before rank 1"),
        ],
        ids=["rank", "unknown", "same", "no-prior"],
    )
    def test_checks_run_in_order_with_plain_int_texts(self, rank, user, error, text):
        # A numpy integer rank gets the int's texts, bar its own repr.
        t = build(("B", certain(T1)), ("A", certain(T1)), ("B", certain(T1)))
        for given in (rank, np.int64(rank)):
            with pytest.raises(error) as err:
                message_conflict_per_user(t, given, user)
            assert str(err.value) == text.format(given)


class TestMessageConflict:
    def test_first_message_is_zero(self):
        t = build(("B", certain(T1)), ("A", certain(T1)))
        assert message_conflict(t, 1) == 0.0

    def test_own_priors_do_not_count(self):
        # A's only predecessors are A's own: still no opposition
        t = build(("A", certain(T1)), ("A", certain(T2)), ("B", certain(T1)))
        assert message_conflict(t, 2) == 0.0

    def test_weighted_mean_with_exact_components(self):
        # B contributed 3 identical priors (conflict 0), C one certain
        # disjoint prior (conflict 1): 0.75 * 0 + 0.25 * 1
        t = build(
            ("B", certain(T1)),
            ("B", certain(T1)),
            ("B", certain(T1)),
            ("C", certain(T2)),
            ("A", certain(T1)),
        )
        assert message_conflict(t, 5) == pytest.approx(0.25, abs=1e-12)

    def test_matches_manual_weighting(self):
        rng = random.Random(5)
        for _ in range(20):
            t = random_thread(rng)
            for rank in range(1, len(t.messages) + 1):
                author = t.message(rank).author
                counts = {
                    u: sum(
                        1
                        for m in t.messages[: rank - 1]
                        if m.author == u
                    )
                    for u in t.users
                    if u != author
                }
                total = sum(counts.values())
                if total == 0:
                    assert message_conflict(t, rank) == 0.0
                    continue
                weights = [c / total for c in counts.values() if c]
                assert sum(weights) == pytest.approx(1.0, abs=1e-12)
                expected = sum(
                    (c / total) * message_conflict_per_user(t, rank, u)
                    for u, c in counts.items()
                    if c
                )
                assert message_conflict(t, rank) == pytest.approx(expected, abs=1e-12)

    def test_identical_priors_everywhere_give_zero(self):
        t = build(("B", certain(T1)), ("C", certain(T1)), ("A", certain(T1)))
        assert message_conflict(t, 3) == 0.0

    def test_rank_out_of_bounds(self):
        t = build(("B", certain(T1)), ("A", certain(T1)))
        with pytest.raises(RankOutOfBounds):
            message_conflict(t, 9)

    @pytest.mark.parametrize("rank", [True, 2.0, "3", None], ids=repr)
    def test_rank_that_is_not_an_int_rejected(self, rank):
        t = build(("B", certain(T1)), ("A", certain(T2)), ("C", certain(T1)))
        for score in (lambda: message_conflict(t, rank), lambda: message_conflict_per_user(t, rank, "C")):
            with pytest.raises(RankOutOfBounds) as err:
                score()
            assert str(err.value) == f"rank {rank!r} outside 1..3"

    def test_numpy_integer_rank_answers_like_the_int(self):
        t = build(("B", certain(T1)), ("A", certain(T2)), ("C", certain(T1)))
        for rank in (1, 2, 3):
            assert message_conflict(t, np.int64(rank)) == message_conflict(t, rank)
        assert message_conflict(t, np.int64(2)) == 1.0
        assert message_conflict_per_user(t, np.int64(3), "A") == message_conflict_per_user(t, 3, "A")


class TestUserConflict:
    def test_always_agreeing_user_scores_zero(self):
        t = build(
            ("B", certain(T1)),
            ("A", certain(T1)),
            ("B", certain(T1)),
            ("A", certain(T1)),
        )
        assert user_conflict(t, "A") == 0.0

    def test_unopposed_first_post_counts_in_divisor(self):
        # A's first post scores 0 but still divides the total
        t = build(("A", certain(T1)), ("B", certain(T2)), ("A", certain(T1)))
        third = message_conflict(t, 3)
        assert third > 0.0
        assert user_conflict(t, "A") == pytest.approx(third / 2, abs=1e-15)

    def test_unknown_user(self):
        t = build(("B", certain(T1)), ("A", certain(T1)))
        with pytest.raises(UnknownUser):
            user_conflict(t, "Z")


class TestOracleAgreement:
    def test_random_threads_match_naive_transcription(self):
        rng = random.Random(99)
        for _ in range(30):
            t = random_thread(rng)
            for rank in range(1, len(t.messages) + 1):
                assert message_conflict(t, rank) == pytest.approx(
                    naive_message_conflict(t, rank), abs=1e-12
                )
                author = t.message(rank).author
                for user in t.users:
                    if user == author:
                        continue
                    if any(
                        m.author == user for m in t.messages[: rank - 1]
                    ):
                        assert message_conflict_per_user(
                            t, rank, user
                        ) == pytest.approx(
                            naive_message_conflict_per_user(t, rank, user),
                            abs=1e-12,
                        )
            for user in t.users:
                assert user_conflict(t, user) == pytest.approx(
                    naive_user_conflict(t, user), abs=1e-12
                )


class TestAnalyze:
    def test_report_is_consistent(self):
        rng = random.Random(4)
        t = random_thread(rng)
        report = analyze(t)
        assert len(report.per_message) == len(t.messages)
        assert set(report.per_user) == set(t.users)
        assert report.trolls | report.others == set(t.users)
        assert not (report.trolls & report.others)
        assert report.troll_center >= report.other_center
        for user, value in report.per_user.items():
            assert value == pytest.approx(user_conflict(t, user), abs=0.0)
            assert 0.0 <= value <= 1.0

    def test_troll_cluster_sits_above_the_center_midpoint(self):
        rng = random.Random(21)
        for _ in range(20):
            t = random_thread(rng)
            try:
                report = analyze(t)
            except Degenerate:
                continue
            midpoint = (report.troll_center + report.other_center) / 2
            assert min(report.per_user[u] for u in report.trolls) >= midpoint

    def test_deterministic(self):
        rng = random.Random(8)
        t = random_thread(rng)
        first = analyze(t)
        second = analyze(t)
        assert first.per_message == second.per_message
        assert first.per_user == second.per_user
        assert first.trolls == second.trolls
        assert (first.troll_center, first.other_center) == (
            second.troll_center,
            second.other_center,
        )

    def test_report_mappings_are_read_only_copies(self):
        report = analyze(generate(example1()))
        summary, scoring = report.to_dict(), dict(report.scoring)
        for mapping, key in ((report.per_user, "U4"), (report.scoring, "pairs")):
            with pytest.raises(TypeError, match="does not support item assignment"):
                mapping[key] = 0.0
        given_per_user, given_scoring = dict(report.per_user), dict(report.scoring)
        built = pipeline.ConflictReport(
            report.per_message, given_per_user, report.trolls, report.others,
            report.troll_center, report.other_center, given_scoring,
        )
        given_per_user["U4"] = 0.0
        given_scoring.clear()
        assert built == report
        assert built.to_dict() == report.to_dict() == summary
        assert dict(built.scoring) == dict(report.scoring) == scoring

    def test_identical_messages_degenerate(self):
        t = build(
            ("A", certain(T1)),
            ("B", certain(T1)),
            ("C", certain(T1)),
        )
        with pytest.raises(Degenerate):
            analyze(t)


def scalar_flat_mean(thread, rank):
    """Mean scalar conflict against every earlier message by another author."""
    msg = thread.message(rank)
    priors = [m for m in thread.messages[: rank - 1] if m.author != msg.author]
    if not priors:
        return 0.0
    return fsum(conflict(msg.bba, p.bba) for p in priors) / len(priors)


class TestScoringKernel:
    """Shapes the seeded threads above never reach: frames up to 16
    hypotheses, ragged focal counts (padding slots) and the empty set as a
    genuine focal element (mask 0, like padding)."""

    def test_wide_frames_match_scalar_conflict(self):
        rng = random.Random(2024)
        seen_topics, seen_counts, seen_empty = set(), set(), False
        for _ in range(30):
            t = random_thread(
                rng, max_users=6, max_messages=14, max_topics=14,
                max_focal=10, allow_empty=True,
            )
            seen_topics.add(t.frame.topic_count)
            seen_counts.update(len(m.bba) for m in t.messages)
            seen_empty |= any(0 in m.bba.focal_sets() for m in t.messages)
            report = analyze(t)
            for rank, got in enumerate(report.per_message, start=1):
                assert got == pytest.approx(scalar_flat_mean(t, rank), abs=1e-12)
        assert 14 in seen_topics
        assert seen_counts == set(range(1, 11))
        assert seen_empty

    def test_blocked_rows_match_unblocked(self, monkeypatch):
        # A default tile scores every pair of these threads at once, so only
        # a one-entry bound splits their rows and columns across tiles.
        rng = random.Random(2026)
        threads = [
            random_thread(
                rng, max_users=6, max_messages=14, max_topics=14,
                max_focal=10, allow_empty=True,
            )
            for _ in range(40)
        ]
        unblocked = [analyze(t).per_message for t in threads]
        monkeypatch.setattr(pipeline, "_BLOCK_ENTRIES", 1)
        for t, expected in zip(threads, unblocked):
            blocked = analyze(t).per_message
            assert blocked == expected
            for rank, got in enumerate(blocked, start=1):
                assert got == pytest.approx(scalar_flat_mean(t, rank), abs=1e-12)

    def test_small_frames_match_oracle(self):
        rng = random.Random(2025)
        for _ in range(30):
            t = random_thread(
                rng, max_users=4, max_messages=10, max_topics=2,
                max_focal=8, allow_empty=True,
            )
            report = analyze(t)
            for rank, got in enumerate(report.per_message, start=1):
                assert got == pytest.approx(naive_message_conflict(t, rank), abs=1e-12)

    def test_repeated_bba_scores_exactly_zero(self):
        # Self-distance must come out exactly 0 on the kernel's path, for
        # any bba: a Gram-style a.a - 2a.b + b.b leaves rounding residue.
        wide = MessageFrame(topic_count=14, relevant_topic=1)
        rng = random.Random(7)
        authors = ["A", "B", "C", "A", "B", "B", "C", "A"]
        for k in range(20):
            bba = random_mass(rng, wide.frame, max_focal=10)
            if k % 2:  # the empty set as a genuine focal element
                bba = MassFunction(
                    wide.frame, [(s, 0.5 * v) for s, v in bba.items()] + [(0, 0.5)]
                )
            t = Thread(
                frame=wide,
                users=("A", "B", "C"),
                messages=tuple(
                    Message(author=a, rank=r, bba=bba)
                    for r, a in enumerate(authors, start=1)
                ),
            )
            scores = [message_conflict(t, r) for r in range(1, len(authors) + 1)]
            assert scores == [0.0] * len(authors)
            assert [user_conflict(t, u) for u in t.users] == [0.0] * 3
            with pytest.raises(Degenerate):
                analyze(t)

    def test_wide_bbas_score_in_bounded_memory(self, monkeypatch):
        # 40 focal sets per bba over a 9-hypothesis frame: K is 512, so
        # a K x K array takes 2 MiB and an M x P x P array of this thread
        # 1.1 MiB, while one pair's 2P x 2P Jaccard matrix holds 6 400
        # entries.  The rule sends the thread to the slot packing; with one
        # pair per tile, picking the packing and scoring must peak under
        # 1 MiB.
        import tracemalloc

        frame = MessageFrame(topic_count=7, relevant_topic=1)
        rng = random.Random(8)
        messages = []
        for rank in range(1, 91):
            subsets = rng.sample(range(1 << 9), 40)
            weights = [rng.uniform(0.05, 1.0) for _ in subsets]
            total = fsum(weights)
            bba = MassFunction(frame.frame, [(s, w / total) for s, w in zip(subsets, weights)])
            messages.append(Message(author=f"U{rank % 4}", rank=rank, bba=bba))
        t = Thread(frame=frame, users=("U1", "U2", "U3", "U0"), messages=tuple(messages))
        default, _ = pipeline._score_rows(t, range(1, 91))
        monkeypatch.setattr(pipeline, "_BLOCK_ENTRIES", 4 * 40 * 40)
        tracemalloc.start()
        try:
            tiled, scoring = pipeline._score_rows(t, range(1, 91))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scoring["packing"] == "slots"
        assert scoring["vocabulary"] > 500
        assert tiled == default
        assert peak < 1 << 20

    def test_wide_bbas_match_scalar_conflict_on_the_slot_packing(self, monkeypatch):
        # Ragged counts of up to 40 focal sets over the 2^9 subsets of a
        # 9-hypothesis frame, every third bba holding the empty set: slot
        # pairs far past the 10 the random threads above reach.
        monkeypatch.setattr(pipeline, "_VOCABULARY_RATIO", 0)
        frame = MessageFrame(topic_count=7, relevant_topic=1)
        rng = random.Random(9)
        messages = []
        for rank in range(1, 31):
            subsets = rng.sample(range(1, 1 << 9), rng.randint(1, 40) - (rank % 3 == 0))
            subsets += [0] * (rank % 3 == 0)
            weights = [rng.uniform(0.05, 1.0) for _ in subsets]
            total = fsum(weights)
            bba = MassFunction(frame.frame, [(s, w / total) for s, w in zip(subsets, weights)])
            messages.append(Message(author=f"U{rank % 4}", rank=rank, bba=bba))
        t = Thread(frame=frame, users=("U1", "U2", "U3", "U0"), messages=tuple(messages))
        assert max(len(m.bba) for m in messages) > 30
        scores, scoring = pipeline._score_rows(t, range(1, 31))
        assert scoring["packing"] == "slots"
        for rank, got in enumerate(scores, start=1):
            assert got == pytest.approx(scalar_flat_mean(t, rank), abs=1e-12)


# Each packing forced by the constant that picks it: at 0 every thread takes
# the slot packing, at infinity every thread takes the vocabulary packing.
PACKINGS = {"vocabulary": math.inf, "slots": 0}


@pytest.fixture(params=sorted(PACKINGS))
def packing(request, monkeypatch):
    monkeypatch.setattr(pipeline, "_VOCABULARY_RATIO", PACKINGS[request.param])
    return request.param


def kernel_threads(seed, count=25):
    """Ragged focal counts, the empty set as a focal element, frames small
    enough for the dense oracle."""
    rng = random.Random(seed)
    return [
        random_thread(
            rng, max_users=5, max_messages=12, max_topics=4,
            max_focal=6, allow_empty=True,
        )
        for _ in range(count)
    ]


class TestForcedPacking:
    def test_one_pair_tiles_match_default_tiles(self, packing, monkeypatch):
        threads = kernel_threads(31)
        default = [analyze(t) for t in threads]
        assert {r.scoring["packing"] for r in default} == {packing}
        monkeypatch.setattr(pipeline, "_BLOCK_ENTRIES", 1)
        for t, report in zip(threads, default):
            tiled = analyze(t)
            assert tiled.per_message == report.per_message
            assert tiled.per_user == report.per_user

    def test_matches_scalar_conflict_and_oracle(self, packing):
        for t in kernel_threads(32):
            report = analyze(t)
            assert report.scoring["packing"] == packing
            for rank, got in enumerate(report.per_message, start=1):
                assert got == pytest.approx(scalar_flat_mean(t, rank), abs=1e-12)
                assert got == pytest.approx(naive_message_conflict(t, rank), abs=1e-12)

    def test_message_conflict_is_the_analyze_row(self, packing):
        for t in kernel_threads(33, count=10):
            report = analyze(t)
            for rank in range(1, len(t.messages) + 1):
                assert message_conflict(t, rank) == report.per_message[rank - 1]
            for user in t.users:
                assert user_conflict(t, user) == report.per_user[user]

    def test_repeated_bbas_score_exactly_zero(self, packing):
        frame = MF.frame
        bbas = [
            MassFunction(frame, {0: 1.0}),  # all mass on the empty set
            MassFunction(frame, {0: 0.25, T1: 0.5, frame.full_set: 0.25}),
            two_focal(T2, 0.7),
        ]
        rng = random.Random(11)
        bbas += [random_mass(rng, frame, allow_empty=True, max_focal=6) for _ in range(10)]
        for bba in bbas:
            t = build(("A", bba), ("B", bba), ("A", bba), ("C", bba), ("B", bba))
            assert [message_conflict(t, r) for r in range(1, 6)] == [0.0] * 5
            assert [user_conflict(t, u) for u in t.users] == [0.0] * 3

    def test_negative_quadratic_form_is_refused(self, packing, monkeypatch):
        # Off-diagonal similarities scaled by 10 leave the Jaccard matrix no
        # longer positive semi-definite, so some pair's form goes negative.
        jaccard_matrix = pipeline._jaccard

        def scaled(x, y):
            return np.where(x == y, 1.0, 10.0) * jaccard_matrix(x, y)

        monkeypatch.setattr(pipeline, "_jaccard", scaled)
        with pytest.raises(ArithmeticError, match="^quadratic form went negative; inputs are corrupt$"):
            analyze(generate(example1()))

    def test_partial_column_blocks_match_default_tiles(self, packing, monkeypatch):
        # Budgets from 2 pairs up to the thread's length: a later row's
        # columns then split into blocks whose last one is cut short.
        threads = kernel_threads(34)
        default = [pipeline._score_rows(t, range(1, len(t.messages) + 1)) for t in threads]
        for t, (per_message, scoring) in zip(threads, default):
            assert scoring["packing"] == packing
            for pairs in range(2, len(t.messages) + 1):
                monkeypatch.setattr(pipeline, "_BLOCK_ENTRIES", pairs * pair_cost(t, scoring))
                tiled, _ = pipeline._score_rows(t, range(1, len(t.messages) + 1))
                assert tiled == per_message

    def test_long_rows_match_scalar_conflict_and_any_tiling(self, packing, monkeypatch):
        # Rows of about 200 own entries: past 128, numpy's pairwise sum
        # halves recursively instead of running eight accumulators.
        rng = random.Random(35)
        frame = MessageFrame(topic_count=3, relevant_topic=1)
        users = ("A", "B", "C")
        authors = users + tuple(rng.choice(users) for _ in range(297))
        t = Thread(frame=frame, users=users, messages=tuple(
            Message(author=author, rank=rank,
                    bba=random_mass(rng, frame.frame, allow_empty=True, max_focal=6))
            for rank, author in enumerate(authors, start=1)
        ))
        longest = max(sum(m.author != msg.author for m in t.messages[: msg.rank - 1]) for msg in t.messages)
        assert longest > 128
        report = analyze(t)
        assert report.scoring["packing"] == packing
        for rank, got in enumerate(report.per_message, start=1):
            assert got == pytest.approx(scalar_flat_mean(t, rank), abs=1e-12)
        for user in users:
            assert user_conflict(t, user) == report.per_user[user]
        ranks = range(1, len(t.messages) + 1)
        default, scoring = pipeline._score_rows(t, ranks)
        monkeypatch.setattr(pipeline, "_BLOCK_ENTRIES", 64 * pair_cost(t, scoring))
        assert pipeline._score_rows(t, ranks)[0] == default


def test_nearly_singular_jaccard_matrix_on_the_vocabulary_packing(monkeypatch):
    # The 256 focal sets of a 16-hypothesis frame that hold its top 8
    # hypotheses differ in few hypotheses each: their Jaccard matrix has a
    # condition number near 1e9, the hardest case for the eigendecomposition
    # that embeds each message.  Rank 1 spreads its mass over all of them,
    # and every third bba repeats an earlier one.
    monkeypatch.setattr(pipeline, "_VOCABULARY_RATIO", math.inf)
    frame = MessageFrame(topic_count=14, relevant_topic=1)
    sets = [0xFF00 | free for free in range(256)]
    spread = MassFunction(frame.frame, [(s, 1 / 256) for s in sets])
    rng = random.Random(36)
    bbas = [spread]
    for rank in range(2, 25):
        if rank % 3 == 0:
            bbas.append(rng.choice(bbas))
            continue
        subsets = rng.sample(sets, 12)
        weights = [rng.uniform(0.05, 1.0) for _ in subsets]
        total = fsum(weights)
        bbas.append(MassFunction(frame.frame, [(s, w / total) for s, w in zip(subsets, weights)]))
    users = ("A", "B", "C", "D")
    masks = np.array(sets)
    assert np.linalg.eigvalsh(pipeline._jaccard(masks[:, None], masks[None, :]))[0] < 1e-6

    for posted in (bbas, [spread] * 6):
        t = Thread(frame=frame, users=users, messages=tuple(
            Message(author=users[k % 4], rank=k + 1, bba=bba) for k, bba in enumerate(posted)
        ))
        ranks = range(1, len(posted) + 1)
        default, scoring = pipeline._score_rows(t, ranks)
        assert (scoring["vocabulary"], scoring["packing"]) == (256, "vocabulary")
        for rank, got in enumerate(default, start=1):
            assert got == pytest.approx(scalar_flat_mean(t, rank), abs=1e-12)
        with monkeypatch.context() as tiny:
            tiny.setattr(pipeline, "_BLOCK_ENTRIES", 1)
            assert pipeline._score_rows(t, ranks)[0] == default
    assert default == [0.0] * 6  # the repeated bba against itself


def pair_cost(thread, scoring):
    """Entries one pair's temporaries take under the packing that scored
    ``thread``, as each packer reports it."""
    if scoring["packing"] == "vocabulary":
        return 8
    width = max(len(m.bba) for m in thread.messages)
    return 4 * width * width


class TestPackingRule:
    @pytest.mark.parametrize("empty", [True, False], ids=["empty-set", "no-empty-set"])
    def test_rule_holds_at_its_boundary(self, empty, monkeypatch):
        # Certain bbas make P = 1, so the limit is _VOCABULARY_RATIO itself:
        # the vocabulary packing runs at ratio K^2 and not one below.  The
        # empty set counts in K like any other focal set.
        subsets = [T1, T2, T1 | T2, MF.frame.full_set, T2] + ([0] if empty else [])
        t = build(*((f"U{k % 3}", certain(s)) for k, s in enumerate(subsets)))
        size = len(set(subsets))
        for ratio, expected in ((size * size, "vocabulary"), (size * size - 1, "slots")):
            monkeypatch.setattr(pipeline, "_VOCABULARY_RATIO", ratio)
            _, scoring = pipeline._score_rows(t, range(1, len(subsets) + 1))
            assert (scoring["vocabulary"], scoring["packing"]) == (size, expected)


class TestVictimEffect:
    def test_more_controversy_replies_raise_the_score(self):
        # E posts on topic, T posts one controversy message, V replies with
        # a growing number of controversy messages appended at the end
        expert = two_focal(T1, 0.9)
        troll = two_focal(T2, 0.9)
        victim_relevant = two_focal(T1, 0.88)
        victim_reply = two_focal(T2, 0.88)
        scores = []
        for reply_count in range(4):
            entries = [
                ("E", expert),
                ("T", troll),
                ("V", victim_relevant),
                ("E", expert),
            ]
            entries += [("V", victim_reply)] * reply_count
            scores.append(user_conflict(build(*entries), "V"))
        assert scores == sorted(scores)
        assert all(b > a for a, b in zip(scores, scores[1:]))

    def test_identical_message_never_raises_the_score(self):
        shared = two_focal(T1, 0.9)
        base = build(("A", shared), ("B", shared), ("A", shared))
        grown = build(("A", shared), ("B", shared), ("A", shared), ("A", shared))
        assert user_conflict(grown, "A") <= user_conflict(base, "A")


workloads = bench_workloads()


@st.composite
def metamorphic_cases(draw):
    """A thread of a shape the tests or the bench generate, up to 48
    messages, with a budget of pairs per tile, up to 24 (most rows span
    several tiles) or up to 2 500 (most tiles hold several rows), a renaming
    that reverses the roster, a hypothesis relabeling and a prefix length
    that leaves at least two users."""
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["random", "wide", "forum"]))
    if kind == "random":
        t = random_thread(
            random.Random(seed), max_users=8, max_messages=48, max_topics=6,
            max_focal=6, allow_empty=True,
        )
    elif kind == "wide":  # the bench's `wide`: mostly distinct focal sets
        m = draw(st.integers(12, 32))
        t = thread_from_dict(workloads.wide_thread(
            seed, m, m // 3, 2, topic_count=draw(st.integers(3, 8)), focal_range=(1, 5)
        ))
    else:  # the bench's `forum`: example1 scaled, many users who post once
        k = draw(st.integers(1, 3))
        t = generate(spec_from_dict(workloads.scaled_example1_spec(seed, 16 * k, k, 6 * k, k + 1)))
    users = t.users
    rename = {u: f"user_{len(users) - k:03d}" for k, u in enumerate(users)}
    topics = [j for j in range(1, t.frame.topic_count + 1) if j != t.frame.relevant_topic]
    labels = dict(zip(map(topic_label, topics), map(topic_label, draw(st.permutations(topics)))))
    labels |= {OFF_TOPIC: SENSELESS, SENSELESS: OFF_TOPIC}
    seen = [len(set(m.author for m in t.messages[:k])) for k in range(1, len(t.messages) + 1)]
    prefix = draw(st.integers(seen.index(2) + 1, len(t.messages)))
    return t, draw(st.integers(1, 24) | st.integers(25, 2500)), rename, labels, prefix


def _outcome(thread):
    """Per-message scores and the troll set, None when the split is degenerate."""
    try:
        report = analyze(thread)
    except Degenerate:
        return pipeline._score_rows(thread, range(1, len(thread.messages) + 1))[0], None
    return list(report.per_message), report.trolls


@pytest.mark.parametrize("packing", sorted(PACKINGS))
@settings(max_examples=15, deadline=None)
@given(metamorphic_cases())
def test_scores_keep_the_thread_symmetries(packing, case):
    """Renaming users and reversing the roster changes no bit; relabeling
    hypotheses (Off-topic with Senseless, the controversy topics among
    themselves) changes only rounding, since Jaccard and inclusion read only
    set sizes; and a message's score reads only earlier messages."""
    t, pairs, rename, labels, prefix = case
    frame = t.frame.frame
    renamed = Thread(frame=t.frame, users=tuple(rename[u] for u in reversed(t.users)), messages=tuple(
        Message(author=rename[m.author], rank=m.rank, bba=m.bba) for m in t.messages
    ))
    relabeled = Thread(frame=t.frame, users=t.users, messages=tuple(
        Message(author=m.author, rank=m.rank, bba=MassFunction(frame, [
            (frame.subset(labels.get(x, x) for x in frame.members(s)), v) for s, v in m.bba.items()
        ]))
        for m in t.messages
    ))
    head = t.messages[:prefix]
    cut = Thread(frame=t.frame, users=tuple(u for u in t.users if any(m.author == u for m in head)), messages=head)
    with mock.patch.object(pipeline, "_VOCABULARY_RATIO", PACKINGS[packing]), \
            mock.patch.object(pipeline, "_BLOCK_ENTRIES", pairs * pair_cost(t, {"packing": packing})):
        scores, trolls = _outcome(t)
        assert pipeline._score_rows(t, [1])[1]["packing"] == packing

        renamed_scores, renamed_trolls = _outcome(renamed)
        assert renamed_scores == scores
        assert renamed_trolls == (None if trolls is None else {rename[u] for u in trolls})

        relabeled_scores, relabeled_trolls = _outcome(relabeled)
        assert relabeled_scores == pytest.approx(scores, rel=0.0, abs=1e-12)
        assert relabeled_trolls == trolls

        head_scores, _ = pipeline._score_rows(cut, range(1, prefix + 1))
        assert head_scores == pytest.approx(scores[:prefix], rel=0.0, abs=1e-12)
