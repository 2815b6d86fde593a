"""Inclusion index, inclusion degrees and the conflict measure."""

import random

import pytest
from hypothesis import given

from trolldetect import (
    Frame,
    MassFunction,
    conflict,
    inclusion_degree,
    inclusion_index,
    jousselme_distance,
    symmetric_inclusion,
)
from trolldetect.errors import FrameMismatch

from helpers import make_frame, mass_pairs, random_mass
from oracles import naive_conflict

ABC = Frame(["a", "b", "c"])
A = ABC.subset(["a"])
B = ABC.subset(["b"])
AB = ABC.subset(["a", "b"])


def certain(frame, subset):
    return MassFunction(frame, {subset: 1.0})


class TestInclusionIndex:
    def test_subset(self):
        assert inclusion_index(A, AB) == 1

    def test_superset(self):
        assert inclusion_index(AB, A) == 0

    def test_empty_included_everywhere(self):
        assert inclusion_index(0, A) == 1
        assert inclusion_index(0, 0) == 1

    def test_equal_sets(self):
        assert inclusion_index(AB, AB) == 1


class TestInclusionDegree:
    def test_asymmetric_example(self):
        m1 = MassFunction(ABC, {A: 0.5, AB: 0.5})
        m2 = MassFunction(ABC, {AB: 1.0})
        assert inclusion_degree(m1, m2) == 1.0
        assert inclusion_degree(m2, m1) == 0.5

    def test_identical_single_focal(self):
        m = certain(ABC, A)
        assert inclusion_degree(m, m) == 1.0

    def test_disjoint_singletons(self):
        assert inclusion_degree(certain(ABC, A), certain(ABC, B)) == 0.0
        assert inclusion_degree(certain(ABC, B), certain(ABC, A)) == 0.0

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatch):
            inclusion_degree(certain(ABC, A), MassFunction.vacuous(Frame(["a"])))


class TestSymmetricInclusion:
    def test_takes_the_larger_direction(self):
        m1 = MassFunction(ABC, {A: 0.5, AB: 0.5})
        m2 = MassFunction(ABC, {AB: 1.0})
        assert symmetric_inclusion(m1, m2) == 1.0
        assert symmetric_inclusion(m2, m1) == 1.0

    def test_disjoint_singletons(self):
        assert symmetric_inclusion(certain(ABC, A), certain(ABC, B)) == 0.0

    def test_single_focal_self(self):
        m = certain(ABC, A)
        assert symmetric_inclusion(m, m) == 1.0


class TestConflict:
    def test_self_conflict_is_zero(self):
        m = MassFunction(ABC, {A: 0.4, B: 0.6})
        assert conflict(m, m) == 0.0

    def test_certain_disjoint_is_one(self):
        f = Frame(["a", "b"])
        one = conflict(certain(f, 1), certain(f, 2))
        assert one == pytest.approx(1.0, abs=1e-12)

    def test_equal_frames_score_as_one_frame(self):
        twin = Frame(["a", "b", "c"])
        assert twin == ABC and twin is not ABC
        m1, m2 = MassFunction(ABC, {A: 0.5, AB: 0.5}), {B: 0.7, ABC.full_set: 0.3}
        assert conflict(m1, MassFunction(twin, m2)) == conflict(m1, MassFunction(ABC, m2)) > 0.0
        for other in (Frame(["a", "b", "d"]), Frame(["c", "b", "a"])):
            with pytest.raises(FrameMismatch):
                conflict(m1, MassFunction(other, m2))

    def test_nested_focal_sets_give_zero(self):
        m1 = MassFunction(ABC, {A: 0.5, AB: 0.5})
        m2 = MassFunction(ABC, {AB: 1.0})
        assert conflict(m1, m2) == 0.0
        assert conflict(m2, m1) == 0.0


class TestConflictProperties:
    @given(mass_pairs())
    def test_symmetric_and_bounded(self, pair):
        m1, m2 = pair
        c = conflict(m1, m2)
        assert c == conflict(m2, m1)
        assert 0.0 <= c <= 1.0

    @given(mass_pairs())
    def test_never_above_distance(self, pair):
        m1, m2 = pair
        assert conflict(m1, m2) <= jousselme_distance(m1, m2) + 1e-15

    @given(mass_pairs())
    def test_matches_naive_oracle(self, pair):
        m1, m2 = pair
        assert conflict(m1, m2) == pytest.approx(naive_conflict(m1, m2), abs=1e-12)

    def test_full_nesting_kills_any_distance(self):
        # every focal of one inside every focal of the other => conflict 0
        rng = random.Random(3)
        for _ in range(50):
            frame = make_frame(rng.randint(2, 4))
            m1 = random_mass(rng, frame, max_focal=3)
            envelope = 0
            for s in m1.focal_sets():
                envelope |= s
            m2 = MassFunction(frame, {envelope | frame.full_set: 1.0})
            assert symmetric_inclusion(m1, m2) == 1.0
            assert conflict(m1, m2) == 0.0
