"""Tests for the deterministic RNG helpers."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.rng import choose_distinct_pair, make_rng, spawn_rngs


class TestMakeRng:
    def test_same_seed_same_stream(self):
        assert make_rng(42).random() == make_rng(42).random()

    def test_passthrough_instance(self):
        rng = random.Random(1)
        assert make_rng(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), random.Random)


class TestSpawn:
    def test_children_are_reproducible(self):
        first = [rng.random() for rng in spawn_rngs(7, 3)]
        second = [rng.random() for rng in spawn_rngs(7, 3)]
        assert first == second

    def test_children_differ_from_each_other(self):
        children = spawn_rngs(7, 5)
        draws = {rng.random() for rng in children}
        assert len(draws) == 5

    def test_count_validation(self):
        assert spawn_rngs(1, 0) == []
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)


class TestChooseDistinctPair:
    def test_requires_two_agents(self):
        with pytest.raises(ValueError):
            choose_distinct_pair(make_rng(0), 1)

    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=1000))
    def test_pairs_are_distinct_and_in_range(self, n, seed):
        rng = make_rng(seed)
        for _ in range(20):
            a, b = choose_distinct_pair(rng, n)
            assert a != b
            assert 0 <= a < n
            assert 0 <= b < n

    def test_covers_all_ordered_pairs_eventually(self):
        rng = make_rng(3)
        seen = {choose_distinct_pair(rng, 3) for _ in range(500)}
        assert seen == {(a, b) for a in range(3) for b in range(3) if a != b}
