"""Exact two-way split of 1-D score maps."""

import random

import pytest

from trolldetect import kmeans2
from trolldetect.errors import Degenerate

from oracles import best_split


class TestKmeans2:
    def test_published_score_set(self):
        values = {"U1": 0.0610, "U2": 0.0639, "U3": 0.0489, "U4": 0.2030}
        part = kmeans2(values)
        assert part.high == frozenset({"U4"})
        assert part.low == frozenset({"U1", "U2", "U3"})
        assert part.center_high == pytest.approx(0.2030, abs=1e-12)
        assert part.center_low == pytest.approx((0.0610 + 0.0639 + 0.0489) / 3, abs=1e-12)
        assert part.center_low == pytest.approx(0.05793, abs=1e-5)

    def test_two_points(self):
        part = kmeans2({"A": 0.0, "B": 1.0})
        assert part.high == frozenset({"B"})
        assert part.low == frozenset({"A"})

    def test_identical_values_degenerate(self):
        with pytest.raises(Degenerate):
            kmeans2({"A": 0.1, "B": 0.1})

    def test_single_item_degenerate(self):
        with pytest.raises(Degenerate):
            kmeans2({"A": 0.5})

    def test_near_identical_values_degenerate(self):
        with pytest.raises(Degenerate):
            kmeans2({"A": 0.1, "B": 0.1 + 1e-13})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=repr)
    def test_value_that_is_not_finite_degenerate(self, value):
        with pytest.raises(Degenerate, match=f"^item 'a' has the value {value!r}, which is not finite$"):
            kmeans2({"a": value, "b": 1.0, "c": 2.0})

    def test_centers_ordered_and_partition_covers(self):
        rng = random.Random(11)
        for _ in range(100):
            values = {f"id{i}": rng.random() for i in range(rng.randint(2, 15))}
            if max(values.values()) - min(values.values()) <= 1e-12:
                continue
            part = kmeans2(values)
            assert part.center_high >= part.center_low
            assert part.high | part.low == set(values)
            assert not (part.high & part.low)
            assert part.high and part.low

    def test_result_is_a_fixed_point(self):
        # re-assigning every value to its nearest center reproduces the
        # partition, ties going low
        rng = random.Random(12)
        for _ in range(100):
            values = {f"id{i}": rng.random() for i in range(rng.randint(2, 15))}
            part = kmeans2(values)
            for key, v in values.items():
                nearest_high = abs(v - part.center_high) < abs(v - part.center_low)
                assert (key in part.high) == nearest_high

    def test_scale_invariance(self):
        rng = random.Random(13)
        for _ in range(50):
            values = {f"id{i}": rng.random() for i in range(rng.randint(2, 12))}
            base = kmeans2(values)
            for factor in (0.5, 2.0, 10.0, 1000.0):
                scaled = kmeans2({k: v * factor for k, v in values.items()})
                assert scaled.high == base.high
                assert scaled.low == base.low

    def test_matches_exhaustive_split(self):
        # narrow-spread maps: the spread is tiny next to the magnitude, so a
        # prefix-sum cost on the raw values would cancel
        rng = random.Random(14)
        draws = (
            rng.random,
            lambda: 0.05 + 1e-9 * rng.random(),
            lambda: 0.05 + 1e-6 * rng.random(),
            lambda: 0.5 + 1e-11 * rng.random(),
        )
        for draw in draws:
            for _ in range(200):
                values = {f"id{i}": draw() for i in range(rng.randint(2, 20))}
                if max(values.values()) - min(values.values()) <= 1e-12:
                    continue
                part = kmeans2(values)
                high, low, _ = best_split(values)
                assert part.high == high
                assert part.low == low
