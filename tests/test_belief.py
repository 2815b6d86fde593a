"""Frames, mass functions, combination rules and the distance."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trolldetect import (
    Frame,
    MassFunction,
    belief,
    combine_conjunctive,
    combine_dempster,
    combine_disjunctive,
    global_conflict,
    jaccard,
    jousselme_distance,
)
from trolldetect.errors import (
    DuplicateSubset,
    FrameMismatch,
    InvalidSubset,
    NegativeMass,
    NonFiniteMass,
    SumNotOne,
    TotalConflict,
)

from helpers import Mask, make_frame, mass_pairs, mass_triples, random_mass
from oracles import (
    dense_conjunctive,
    dense_dempster,
    dense_disjunctive,
    dense_vector,
    mask_members,
    reference_bba,
    set_jaccard,
)

AB = Frame(["a", "b"])
A = AB.subset(["a"])
B = AB.subset(["b"])
OMEGA = AB.full_set


def certain(frame, subset):
    return MassFunction(frame, {subset: 1.0})


class TestFrame:
    def test_labels_and_masks(self):
        frame = Frame(["x", "y", "z"])
        assert len(frame) == 3
        assert frame.full_set == 0b111
        assert frame.subset(["x", "z"]) == 0b101
        assert frame.members(0b101) == ("x", "z")
        assert frame.members(0) == ()

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Frame([])
        with pytest.raises(ValueError):
            Frame(["a", "a"])
        with pytest.raises(ValueError):
            Frame(["a", ""])
        with pytest.raises(ValueError):
            Frame([f"h{i}" for i in range(17)])

    def test_equality_is_by_labels(self):
        assert Frame(["a", "b"]) == Frame(["a", "b"])
        assert Frame(["a", "b"]) != Frame(["b", "a"])

    def test_equal_frames_hash_equal_and_differ_from_their_labels(self):
        one, other = Frame(["a", "b"]), Frame(["a", "b"])
        assert hash(one) == hash(other)
        assert {one: "x"}[other] == "x" and {other: "x"}[one] == "x"
        assert other in {one} and one in {other}
        assert one != ("a", "b") and ("a", "b") != one

    def test_unknown_label_rejected(self):
        with pytest.raises(InvalidSubset):
            AB.subset(["nope"])

    def test_unhashable_label_rejected(self):
        with pytest.raises(InvalidSubset) as err:
            AB.subset(["a", ["b"]])
        assert str(err.value) == f"['b'] is not a hypothesis of {AB!r}"

    def test_bad_mask_rejected(self):
        with pytest.raises(InvalidSubset):
            AB.check_subset(4)
        with pytest.raises(InvalidSubset):
            AB.check_subset(-1)


class TestMassFunction:
    def test_two_focal_bba(self):
        m = MassFunction(AB, [(A, 0.6), (OMEGA, 0.4)])
        assert len(m) == 2
        assert m.mass(A) == 0.6
        assert m.mass(B) == 0.0

    def test_unequal_to_its_dict(self):
        m = MassFunction(AB, [(A, 0.6), (OMEGA, 0.4)])
        assert m != m.to_dict() and m.to_dict() != m

    def test_sum_above_one_rejected(self):
        with pytest.raises(SumNotOne):
            MassFunction(AB, [(A, 0.6), (B, 0.6)])

    def test_sum_past_float_range_rejected(self):
        with pytest.raises(SumNotOne):
            MassFunction(AB, [(A, 1e308), (B, 1e308)])

    def test_message_style_bba(self):
        # dominant mass on one category, remainder on the whole frame
        frame = Frame(["Off-topic", "Senseless", "Topic_1", "Topic_2"])
        t2 = frame.subset(["Topic_2"])
        m = MassFunction(frame, {t2: 0.9210, frame.full_set: 0.0790})
        assert m.mass(t2) == 0.9210
        assert len(m) == 2

    def test_invalid_subset_rejected(self):
        with pytest.raises(InvalidSubset):
            MassFunction(AB, {4: 1.0})

    def test_negative_mass_rejected(self):
        with pytest.raises(NegativeMass):
            MassFunction(AB, [(A, -0.1), (OMEGA, 1.1)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mass_rejected(self, bad):
        with pytest.raises(NonFiniteMass):
            MassFunction(AB, [(A, bad)])
        with pytest.raises(NonFiniteMass):
            MassFunction(AB, [(A, 1.0), (B, bad)])

    @pytest.mark.parametrize(
        "bad, text",
        [
            (True, "mass on subset 0b1 is a bool, not a real number"),
            ("1", "mass on subset 0b1 is a str, not a real number"),
            (10**400, "mass on subset 0b1 is past the float range"),
        ],
        ids=["bool", "str", "400-digit-int"],
    )
    def test_mass_that_is_not_a_real_float_rejected(self, bad, text):
        with pytest.raises(NonFiniteMass) as err:
            MassFunction(AB, [(A, bad)])
        assert str(err.value) == text

    def test_integer_mass_stored_as_float(self):
        m = MassFunction(AB, {A: 1})
        assert type(m.mass(A)) is float

    def test_empty_assignment_rejected(self):
        with pytest.raises(SumNotOne):
            MassFunction(AB, [])
        with pytest.raises(SumNotOne):
            MassFunction(AB, {A: 0.0})

    def test_duplicate_subset_rejected(self):
        with pytest.raises(DuplicateSubset):
            MassFunction(AB, [(A, 0.5), (A, 0.5)])

    @pytest.mark.parametrize(
        "pairs",
        [
            [(OMEGA, 0.4), (B, 0.35), (A, 0.25)],
            [(A, 0.25), (OMEGA, 0.4), (B, 0.35)],
            {B: 0.35, OMEGA: 0.4, A: 0.25},
        ],
        ids=["descending", "mixed", "mapping"],
    )
    def test_subsets_stored_ascending_whatever_their_order(self, pairs):
        m = MassFunction(AB, pairs)
        assert m.focal_sets() == (A, B, OMEGA)
        assert list(m.items()) == [(A, 0.25), (B, 0.35), (OMEGA, 0.4)]

    @pytest.mark.parametrize(
        "pairs",
        [[(A, 0.5), (OMEGA, 0.25), (OMEGA, 0.25)], [(OMEGA, 0.5), (A, 0.25), (A, 0.25)]],
        ids=["largest-repeated", "after-a-descent"],
    )
    def test_duplicate_subset_rejected_in_any_order(self, pairs):
        with pytest.raises(DuplicateSubset, match=r"^subset 0b\d+ assigned twice$"):
            MassFunction(AB, pairs)

    def test_zero_masses_dropped(self):
        m = MassFunction(AB, [(A, 0.0), (OMEGA, 1.0)])
        assert m.focal_sets() == (OMEGA,)

    def test_empty_set_mass_allowed(self):
        m = MassFunction(AB, {0: 0.3, OMEGA: 0.7})
        assert m.mass(0) == 0.3

    def test_vacuous(self):
        m = MassFunction.vacuous(AB)
        assert m.to_dict() == {OMEGA: 1.0}
        single = Frame(["a"])
        assert MassFunction.vacuous(single).to_dict() == {1: 1.0}


class Count(int):
    """A mass of an ``int`` subclass."""


# Masks of AB: each valid one, as an int, an int subclass or a bool; and
# masks out of range or not an int.
_RAW_MASKS = st.sampled_from([0, A, B, OMEGA, Mask(B), Mask(OMEGA), True, False])
_BAD_MASKS = st.sampled_from([-1, 4, 2**70, 1.0])
_PART_MASSES = st.sampled_from([0.0, -0.0, 0.125, 0.25, 0.5])
_ODD_MASSES = st.sampled_from(
    [math.nan, math.inf, -math.inf, True, False, 0, 1, Count(1), -0.5, 10**400, "0.5",
     Fraction(1, 2), 1e308]
)
# Offsets from a sum of one, each side of MASS_SUM_TOLERANCE.
_SUM_OFFSETS = st.sampled_from([0.0, 5e-10, -5e-10, 1e-9, -1e-9, 1.1e-9, -1.1e-9, 2e-9])


@st.composite
def raw_assignments(draw):
    """Pairs for ``MassFunction(AB, ...)`` near a valid bba, in any order
    and with repeated subsets, or a dict of them: part masses, often topped
    up to a sum of one within an offset, sometimes with one mass swapped
    for a non-float or non-finite value and one mask for a bad one."""
    masks = draw(st.lists(_RAW_MASKS, max_size=4))
    masses = [draw(_PART_MASSES) for _ in masks]
    if draw(st.integers(0, 3)):
        masks.append(draw(_RAW_MASKS))
        masses.append(1.0 - math.fsum(masses) + draw(_SUM_OFFSETS))
    if masses and not draw(st.integers(0, 3)):
        masses[draw(st.integers(0, len(masses) - 1))] = draw(_ODD_MASSES)
    if masks and not draw(st.integers(0, 3)):
        masks[draw(st.integers(0, len(masks) - 1))] = draw(_BAD_MASKS)
    pairs = list(zip(masks, masses))
    return dict(pairs) if draw(st.booleans()) else pairs


def _outcome(build):
    """``(focal sets, masses)`` of what ``build()`` returns, or the type and
    text of what it raises."""
    try:
        stored = build()
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(stored, dict):
        return tuple(stored), tuple(stored.values())
    return stored.focal_sets(), stored.masses()


@settings(max_examples=600, deadline=None)
@given(raw_assignments())
def test_constructor_matches_the_dict_reference(assignments):
    expected = _outcome(lambda: reference_bba(AB, assignments))
    assert _outcome(lambda: MassFunction(AB, assignments)) == expected
    if isinstance(expected[0], tuple):  # built: every read agrees with the dict
        m = MassFunction(AB, assignments)
        reference = dict(zip(*expected))
        assert m.to_dict() == reference
        assert list(m.items()) == list(reference.items())
        assert [m.mass(s) for s in AB.subsets()] == [reference.get(s, 0.0) for s in AB.subsets()]


# the worked two-source example used throughout: four focal pairs,
# one of them ({a} x {b}) disjoint
M1 = MassFunction(AB, {A: 0.6, OMEGA: 0.4})
M2 = MassFunction(AB, {B: 0.7, OMEGA: 0.3})


class TestCombination:
    def test_global_conflict_of_worked_example(self):
        assert global_conflict(M1, M2) == pytest.approx(0.6 * 0.7, abs=1e-15)

    def test_global_conflict_extremes(self):
        assert global_conflict(certain(AB, A), certain(AB, B)) == 1.0
        assert global_conflict(M1, MassFunction.vacuous(AB)) == 0.0

    def test_dempster_worked_example(self):
        m = combine_dempster(M1, M2)
        # hand enumeration: {a}: 0.6*0.3, {b}: 0.4*0.7, omega: 0.4*0.3,
        # each rescaled by 1/(1 - 0.42)
        assert m.mass(A) == pytest.approx(0.18 / 0.58, abs=1e-12)
        assert m.mass(B) == pytest.approx(0.28 / 0.58, abs=1e-12)
        assert m.mass(OMEGA) == pytest.approx(0.12 / 0.58, abs=1e-12)
        assert m.mass(A) == pytest.approx(0.310345, abs=1e-6)
        assert m.mass(B) == pytest.approx(0.482759, abs=1e-6)
        assert m.mass(OMEGA) == pytest.approx(0.206897, abs=1e-6)
        assert m.mass(0) == 0.0

    def test_dempster_vacuous_neutral(self):
        m = combine_dempster(M1, MassFunction.vacuous(AB))
        assert m.mass(A) == pytest.approx(0.6, abs=1e-12)
        assert m.mass(OMEGA) == pytest.approx(0.4, abs=1e-12)

    def test_dempster_total_conflict(self):
        with pytest.raises(TotalConflict):
            combine_dempster(certain(AB, A), certain(AB, B))

    def test_conjunctive_worked_example(self):
        m = combine_conjunctive(M1, M2)
        assert m.mass(0) == pytest.approx(0.42, abs=1e-12)
        assert m.mass(A) == pytest.approx(0.18, abs=1e-12)
        assert m.mass(B) == pytest.approx(0.28, abs=1e-12)
        assert m.mass(OMEGA) == pytest.approx(0.12, abs=1e-12)

    def test_conjunctive_disjoint_certain(self):
        m = combine_conjunctive(certain(AB, A), certain(AB, B))
        assert m.to_dict() == {0: 1.0}

    def test_conjunctive_vacuous_neutral(self):
        m = combine_conjunctive(M1, MassFunction.vacuous(AB))
        assert m.mass(A) == pytest.approx(0.6, abs=1e-12)

    def test_disjunctive_certain_singletons(self):
        m = combine_disjunctive(certain(AB, A), certain(AB, B))
        assert m.to_dict() == {OMEGA: 1.0}

    def test_disjunctive_worked_example(self):
        # every focal union on the two-hypothesis frame is the full set
        m = combine_disjunctive(M1, M2)
        assert m.focal_sets() == (OMEGA,)
        assert m.mass(OMEGA) == pytest.approx(1.0, abs=1e-12)

    def test_disjunctive_absorbs_certain_singleton(self):
        frame = make_frame(3)
        m = MassFunction(frame, {frame.subset(["b"]): 0.5, frame.subset(["c"]): 0.5})
        grown = combine_disjunctive(m, certain(frame, frame.subset(["a"])))
        assert all(s & frame.subset(["a"]) for s in grown.focal_sets())

    def test_frame_mismatch(self):
        other = Frame(["a", "c"])
        with pytest.raises(FrameMismatch):
            combine_dempster(M1, MassFunction.vacuous(other))
        with pytest.raises(FrameMismatch):
            global_conflict(M1, MassFunction.vacuous(other))


class TestJaccard:
    def test_partial_overlap(self):
        assert jaccard(A, OMEGA) == 0.5

    def test_both_empty(self):
        assert jaccard(0, 0) == 1.0

    def test_disjoint(self):
        assert jaccard(A, B) == 0.0

    def test_one_side_empty(self):
        assert jaccard(0, A) == 0.0
        assert jaccard(A, 0) == 0.0

    def test_scalar_matches_set_oracle(self):
        frame = make_frame(3)
        for a in frame.subsets():
            for b in frame.subsets():
                expected = set_jaccard(
                    mask_members(a, frame.labels), mask_members(b, frame.labels)
                )
                assert jaccard(a, b) == expected


class TestJousselmeDistance:
    def test_identical_is_zero(self):
        assert jousselme_distance(M1, M1) == 0.0

    def test_certain_disjoint_is_one(self):
        assert jousselme_distance(certain(AB, A), certain(AB, B)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_singleton_vs_full_frame(self):
        d = jousselme_distance(certain(AB, A), MassFunction.vacuous(AB))
        assert d == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert d == pytest.approx(0.70711, abs=1e-5)

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatch):
            jousselme_distance(M1, MassFunction.vacuous(Frame(["a", "c"])))

    # {a: 1} against {b: 1} has the half form 1 - J(a, b): a similarity
    # above 1, which no true Jaccard gives, drives it negative.
    def test_negative_form_is_refused(self, monkeypatch):
        monkeypatch.setattr(belief, "jaccard", lambda x, y: 10.0)
        with pytest.raises(ArithmeticError, match=r"^quadratic form produced -9\.0; inputs are corrupt$"):
            jousselme_distance(certain(AB, A), certain(AB, B))

    def test_negative_form_within_tolerance_is_zero(self, monkeypatch):
        monkeypatch.setattr(belief, "jaccard", lambda x, y: 1.0 + 1e-13)
        assert jousselme_distance(certain(AB, A), certain(AB, B)) == 0.0


class TestCombinationProperties:
    @given(mass_pairs(allow_empty=True))
    def test_outputs_are_normalized(self, pair):
        m1, m2 = pair
        for rule in (combine_conjunctive, combine_disjunctive):
            total = math.fsum(m for _, m in rule(m1, m2).items())
            assert total == pytest.approx(1.0, abs=1e-9)

    @given(mass_pairs())
    def test_dempster_output_normalized_and_empty_free(self, pair):
        m1, m2 = pair
        try:
            m = combine_dempster(m1, m2)
        except TotalConflict:
            assert global_conflict(m1, m2) == pytest.approx(1.0, abs=1e-9)
            return
        assert m.mass(0) == 0.0
        assert math.fsum(v for _, v in m.items()) == pytest.approx(1.0, abs=1e-9)

    @given(mass_pairs(allow_empty=True))
    def test_commutativity(self, pair):
        m1, m2 = pair
        for rule in (combine_conjunctive, combine_disjunctive):
            left = rule(m1, m2).to_dict()
            right = rule(m2, m1).to_dict()
            assert left.keys() == right.keys()
            for s in left:
                assert left[s] == pytest.approx(right[s], abs=1e-12)

    @given(mass_pairs())
    def test_dempster_commutativity(self, pair):
        m1, m2 = pair
        try:
            left = combine_dempster(m1, m2).to_dict()
        except TotalConflict:
            with pytest.raises(TotalConflict):
                combine_dempster(m2, m1)
            return
        right = combine_dempster(m2, m1).to_dict()
        assert left.keys() == right.keys()
        for s in left:
            assert left[s] == pytest.approx(right[s], abs=1e-12)

    @settings(deadline=None)
    @given(mass_triples(allow_empty=True))
    def test_associativity(self, triple):
        m1, m2, m3 = triple
        for rule in (combine_conjunctive, combine_disjunctive):
            left = rule(rule(m1, m2), m3)
            right = rule(m1, rule(m2, m3))
            for s in set(left.focal_sets()) | set(right.focal_sets()):
                assert left.mass(s) == pytest.approx(right.mass(s), abs=1e-9)

    @given(mass_pairs())
    def test_vacuous_is_neutral(self, pair):
        m1, _ = pair
        vac = MassFunction.vacuous(m1.frame)
        for rule in (combine_conjunctive, combine_dempster):
            out = rule(m1, vac)
            assert out.focal_sets() == m1.focal_sets()
            for s, v in m1.items():
                assert out.mass(s) == pytest.approx(v, abs=1e-12)

    @given(mass_pairs())
    def test_dempster_is_normalized_conjunction(self, pair):
        m1, m2 = pair
        conj = combine_conjunctive(m1, m2)
        k = conj.mass(0)
        try:
            demp = combine_dempster(m1, m2)
        except TotalConflict:
            assert 1.0 - k <= 1e-9
            return
        for s in conj.focal_sets():
            if s == 0:
                continue
            assert demp.mass(s) == pytest.approx(conj.mass(s) / (1.0 - k), abs=1e-12)

    @given(mass_pairs(allow_empty=True))
    def test_matches_dense_oracle(self, pair):
        m1, m2 = pair
        v1, v2 = dense_vector(m1), dense_vector(m2)
        cases = [
            (combine_conjunctive(m1, m2), dense_conjunctive(v1, v2)),
            (combine_disjunctive(m1, m2), dense_disjunctive(v1, v2)),
        ]
        for computed, expected in cases:
            for s in m1.frame.subsets():
                assert computed.mass(s) == pytest.approx(expected[s], abs=1e-12)


class TestDistanceProperties:
    @given(mass_pairs(allow_empty=True))
    def test_symmetry_and_range(self, pair):
        m1, m2 = pair
        d = jousselme_distance(m1, m2)
        assert d == jousselme_distance(m2, m1)
        assert 0.0 <= d <= 1.0 + 1e-12

    @given(mass_pairs())
    def test_identity_of_indiscernibles(self, pair):
        m1, _ = pair
        assert jousselme_distance(m1, m1) <= 1e-12

    @settings(deadline=None)
    @given(mass_triples())
    def test_triangle_inequality(self, triple):
        m1, m2, m3 = triple
        d12 = jousselme_distance(m1, m2)
        d23 = jousselme_distance(m2, m3)
        d13 = jousselme_distance(m1, m3)
        assert d13 <= d12 + d23 + 1e-9

    @given(mass_pairs(allow_empty=True))
    def test_matches_dense_quadratic_form(self, pair):
        from oracles import naive_jousselme

        m1, m2 = pair
        assert jousselme_distance(m1, m2) == pytest.approx(
            naive_jousselme(m1, m2), abs=1e-12
        )


def test_combination_oracle_sweep_small_frames():
    # seeded sweep over every frame size the dense oracle covers cheaply
    rng = random.Random(7)
    for _ in range(100):
        frame = make_frame(rng.randint(2, 4))
        m1 = random_mass(rng, frame, allow_empty=True)
        m2 = random_mass(rng, frame, allow_empty=True)
        v1, v2 = dense_vector(m1), dense_vector(m2)
        conj = combine_conjunctive(m1, m2)
        expected_conj = dense_conjunctive(v1, v2)
        disj = combine_disjunctive(m1, m2)
        expected_disj = dense_disjunctive(v1, v2)
        for s in frame.subsets():
            assert conj.mass(s) == pytest.approx(expected_conj[s], abs=1e-12)
            assert disj.mass(s) == pytest.approx(expected_disj[s], abs=1e-12)
        expected_demp = dense_dempster(v1, v2)
        if expected_demp is None:
            with pytest.raises(TotalConflict):
                combine_dempster(m1, m2)
        else:
            demp = combine_dempster(m1, m2)
            for s in frame.subsets():
                assert demp.mass(s) == pytest.approx(expected_demp[s], abs=1e-12)
