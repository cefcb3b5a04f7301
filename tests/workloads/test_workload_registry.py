"""Tests for the workload registry."""

import pytest

from repro.workloads.distributions import decisive_isolation, decisive_isolation_set
from repro.workloads.registry import (
    DEFAULT_WORKLOADS,
    WorkloadRegistry,
    get_workload,
    register_workload,
    workload_names,
)


class TestDefaultRegistry:
    def test_builtins_are_registered(self):
        names = workload_names()
        for name in (
            "planted-majority",
            "uniform",
            "zipf",
            "near-tie",
            "exact-tie",
            "adversarial-two-block",
            "decisive-isolation",
        ):
            assert name in names
            assert name in DEFAULT_WORKLOADS

    def test_underscore_names_normalize(self):
        assert get_workload("planted_majority") is get_workload("planted-majority")
        assert "adversarial_two_block" in DEFAULT_WORKLOADS

    def test_generate_forwards_params(self):
        colors = DEFAULT_WORKLOADS.generate("planted-majority", 12, 3, seed=1, majority_color=2)
        assert len(colors) == 12
        assert colors.count(2) == max(colors.count(c) for c in range(3))

    @pytest.mark.parametrize("name", workload_names())
    def test_generate_by_name_is_reproducible(self, name):
        colors = DEFAULT_WORKLOADS.generate(name, 20, 3, seed=3)
        assert len(colors) == 20
        assert set(colors) <= {0, 1, 2}
        assert DEFAULT_WORKLOADS.generate(name, 20, 3, seed=3) == colors

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="available"):
            get_workload("nope")


class TestRegistration:
    def test_register_and_duplicate_protection(self):
        registry = WorkloadRegistry()
        generator = lambda n, k, seed=None: [0] * n  # noqa: E731
        registry.register("all-zero", generator)
        assert registry.get("all-zero") is generator
        assert registry.names() == ["all-zero"]
        with pytest.raises(ValueError, match="already registered"):
            registry.register("all_zero", generator)  # normalized collision
        registry.register("all-zero", generator, overwrite=True)

    def test_custom_workload_reaches_sweeps(self):
        from repro.api.executor import execute_run
        from repro.api.spec import RunSpec

        if "all-majority" not in DEFAULT_WORKLOADS:
            register_workload("all-majority", lambda n, k, seed=None: [0] * (n - 1) + [1])
        record = execute_run(
            RunSpec(protocol="circles", n=8, k=2, workload="all-majority",
                    engine="batch", seed=1, max_steps=10_000)
        )
        assert record.correct
        assert record.majority == 0


class TestDecisiveIsolation:
    def test_isolation_flips_the_visible_majority(self):
        n = 15
        colors = decisive_isolation(n, 2)
        isolated = set(decisive_isolation_set(n))
        assert colors.count(0) == n // 2 + 1  # true majority
        visible = [color for index, color in enumerate(colors) if index not in isolated]
        assert visible.count(1) > visible.count(0)  # flipped for the interacting rest

    def test_deterministic_regardless_of_seed(self):
        assert decisive_isolation(9, 2, seed=1) == decisive_isolation(9, 2, seed=99)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            decisive_isolation(6, 2)
        with pytest.raises(ValueError):
            decisive_isolation_set(6)
