"""Per-message and per-user conflict aggregation, and the full analysis."""

import math
import random
from math import fsum

import pytest

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

from helpers import random_mass, random_thread
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
            if reply_count == 0:
                t = build(*entries)
            else:
                t = build(*entries)
            scores.append(user_conflict(t, "V"))
        assert scores == sorted(scores)
        assert all(b > a for a, b in zip(scores, scores[1:]))

    def test_identical_message_never_raises_the_score(self):
        shared = two_focal(T1, 0.9)
        base = build(("A", shared), ("B", shared), ("A", shared))
        grown = build(("A", shared), ("B", shared), ("A", shared), ("A", shared))
        assert user_conflict(grown, "A") <= user_conflict(base, "A")
