"""Tests for the input workload generators."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.greedy_sets import has_unique_majority, predicted_majority
from repro.utils.rng import make_rng
from repro.workloads.distributions import (
    adversarial_two_block,
    exact_tie,
    near_tie,
    planted_majority,
    uniform_random_colors,
    zipf_colors,
)


def planted_majority_loop(num_agents, num_colors, majority_color, margin, seed):
    """The per-agent reference: hand out the rest one agent at a time."""
    others = [color for color in range(num_colors) if color != majority_color]
    majority_count = max(margin, -(-(num_agents + margin * (num_colors - 1)) // num_colors))
    majority_count = min(majority_count, num_agents)
    rest = num_agents - majority_count
    cap = majority_count - margin
    if cap * len(others) < rest:
        return None
    colors = [majority_color] * majority_count
    index = 0
    counts = {color: 0 for color in others}
    while rest > 0:
        color = others[index % len(others)]
        if counts[color] < cap:
            colors.append(color)
            counts[color] += 1
            rest -= 1
        index += 1
    make_rng(seed).shuffle(colors)
    return colors


class TestPlantedMajority:
    def test_matches_per_agent_loop(self):
        """Same colors in the same shuffled order as the one-at-a-time loop."""
        checked = 0
        for n in (2, 3, 7, 16, 33, 100, 1001):
            for k in range(2, 7):
                for majority_color in (0, k // 2, k - 1):
                    for margin in (1, 2, 5, n // 2, n):
                        expected = planted_majority_loop(n, k, majority_color, margin, seed=n + k)
                        if expected is None:
                            with pytest.raises(ValueError, match="cannot plant"):
                                planted_majority(n, k, majority_color, margin, seed=n + k)
                            continue
                        colors = planted_majority(n, k, majority_color, margin, seed=n + k)
                        assert colors == expected, (n, k, majority_color, margin)
                        checked += 1
        assert checked > 200

    def test_planted_color_wins(self):
        colors = planted_majority(20, 4, majority_color=2, seed=1)
        assert len(colors) == 20
        assert predicted_majority(colors) == 2

    def test_margin_is_respected(self):
        colors = planted_majority(30, 3, margin=5, seed=2)
        counts = Counter(colors)
        runner_up = max(count for color, count in counts.items() if color != 0)
        assert counts[0] - runner_up >= 5

    def test_all_colors_in_range(self):
        colors = planted_majority(15, 5, seed=3)
        assert all(0 <= color < 5 for color in colors)

    def test_single_color_universe(self):
        assert planted_majority(6, 1) == [0] * 6

    def test_validation(self):
        with pytest.raises(ValueError):
            planted_majority(1, 2)
        with pytest.raises(ValueError):
            planted_majority(10, 2, majority_color=5)
        with pytest.raises(ValueError):
            planted_majority(10, 2, margin=0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_always_produces_unique_majority(self, n, k, seed):
        colors = planted_majority(n, k, seed=seed)
        assert len(colors) == n
        assert has_unique_majority(colors)
        assert predicted_majority(colors) == 0


class TestUniformAndZipf:
    def test_uniform_length_and_range(self):
        colors = uniform_random_colors(50, 6, seed=4)
        assert len(colors) == 50
        assert set(colors) <= set(range(6))

    def test_uniform_with_required_majority(self):
        colors = uniform_random_colors(12, 3, seed=5, require_unique_majority=True)
        assert has_unique_majority(colors)

    def test_uniform_is_reproducible(self):
        assert uniform_random_colors(20, 4, seed=6) == uniform_random_colors(20, 4, seed=6)

    def test_zipf_is_skewed_toward_low_colors(self):
        colors = zipf_colors(2000, 5, exponent=1.5, seed=7)
        counts = Counter(colors)
        assert counts[0] > counts[4]

    def test_zipf_validation(self):
        with pytest.raises(ValueError):
            zipf_colors(10, 3, exponent=0)


class TestNearTieAndExactTie:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=4, max_value=50),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_near_tie_has_unique_majority_with_margin_one(self, n, k, seed):
        colors = near_tie(n, k, seed=seed)
        assert len(colors) == n
        counts = Counter(colors)
        top_two = sorted(counts.values(), reverse=True)[:2]
        assert has_unique_majority(colors)
        if len(top_two) == 2:
            assert top_two[0] - top_two[1] >= 1

    def test_exact_tie_is_tied(self):
        colors = exact_tie(12, 4, seed=8)
        counts = Counter(colors)
        top = max(counts.values())
        assert sum(1 for value in counts.values() if value == top) == 2
        assert not has_unique_majority(colors)

    def test_exact_tie_uses_requested_colors(self):
        colors = exact_tie(10, 4, tied_colors=(1, 3), seed=9)
        counts = Counter(colors)
        assert counts[1] == counts[3] == max(counts.values())

    def test_exact_tie_validation(self):
        with pytest.raises(ValueError):
            exact_tie(3, 2)
        with pytest.raises(ValueError):
            exact_tie(10, 3, tied_colors=(1, 1))
        with pytest.raises(ValueError):
            exact_tie(10, 2, tied_colors=(0, 5))
        with pytest.raises(ValueError):
            exact_tie(5, 2)  # odd split between exactly two colors is impossible


class TestAdversarial:
    def test_color_zero_is_the_plurality(self):
        colors = adversarial_two_block(21, 4, seed=10)
        assert len(colors) == 21
        assert predicted_majority(colors) == 0

    def test_spoilers_jointly_outnumber_the_plurality(self):
        colors = adversarial_two_block(30, 5, seed=11)
        counts = Counter(colors)
        spoilers = sum(count for color, count in counts.items() if color != 0)
        assert spoilers >= counts[0] - 1

    def test_needs_three_colors(self):
        with pytest.raises(ValueError):
            adversarial_two_block(10, 2)
