"""Smoke-level integration tests: every experiment runs end-to-end on tiny parameters.

The benchmarks exercise the experiments at their reporting scale; these tests
only assert that each experiment produces a well-formed result and that the
headline qualitative claims hold at toy scale.
"""

import hashlib

from repro.api.executor import run_sweep
from repro.api.spec import canonical_json
from repro.experiments import e1_state_complexity, e2_stabilization, e3_correctness
from repro.experiments import e4_stable_structure, e5_energy, e6_convergence
from repro.experiments import e7_extensions, e8_scheduler_sensitivity
from repro.simulation.engine import AgentSimulation


class TestE1:
    def test_table_shape_and_cubic_column(self):
        result = e1_state_complexity.run(ks=(2, 3), reachable_num_agents=8, reachable_steps=200)
        assert result.experiment_id == "E1"
        assert result.column("k") == [2, 3]
        assert result.column("circles (declared)") == [8, 27]
        assert result.column("lower bound k^2") == [4, 9]
        assert result.column("prior upper bound k^7") == [128, 2187]
        touched = result.column("circles (touched)")
        assert all(value <= declared for value, declared in zip(touched, [8, 27]))


class TestE2:
    def test_exchanges_finite_and_potential_decreasing(self):
        result = e2_stabilization.run(populations=(6, 10), ks=(3,), seed=5)
        assert all(result.column("g(C) strictly decreasing"))
        assert all(value is not None for value in result.column("interactions to stability"))
        assert all(value < 10_000 for value in result.column("ket exchanges"))

    def test_batched_engine_measures_the_same_claims(self):
        result = e2_stabilization.run(populations=(20, 30), ks=(3,), seed=5, engine="batch")
        assert all(result.column("g(C) strictly decreasing"))
        assert all(value is not None for value in result.column("interactions to stability"))

    def test_sweep_is_a_plain_spec(self):
        """E2 is a plain spec: the Circles stability criterion and the
        potential observer; the uniform random scheduler is named on the
        agent engine only."""
        for engine in ("agent", "batch"):
            specs = e2_stabilization.sweep_spec(
                populations=(6,), ks=(3,), seed=5, engine=engine, trials=1
            ).expand()
            assert specs
            for spec in specs:
                assert spec.criterion == "stable-circles"
                assert spec.observers == (("potential", {}),)
                assert spec.scheduler == ("uniform-random" if engine == "agent" else None)
        records = run_sweep(
            e2_stabilization.sweep_spec(populations=(6,), ks=(3,), seed=5, trials=2)
        ).records
        assert {record.scheduler_name for record in records} == {"uniform-random"}
        for record in records:
            assert "potential_strictly_decreased" in record.extras["observers"]["potential"]


class TestE3:
    def test_all_checks_pass(self):
        result = e3_correctness.run(
            small_inputs=((0, 0, 1), (0, 1, 1, 2)),
            schedulers=("uniform-random", "round-robin"),
            num_agents=8,
            num_colors=3,
            trials=2,
            seed=3,
        )
        assert all(result.column("correct"))

    def test_default_table_is_pinned(self):
        """The greedy-stall adversary memoizes its predicate per state pair;
        the scan order and the draws are the same, so the table is too."""
        text = e3_correctness.run().to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "05b04ed93c51d53e10b165ec7239f439980b1a0badadbf8600dfba07c3a566f2"
        )

    def test_greedy_stall_records_are_pinned(self):
        """Re-pinned at record epoch 6 to the earlier records with the spec's
        dropped ``compiled`` key popped, and at epoch 8 without the spec's
        ``runner`` key and the record's copies of spec fields; no draw moved."""
        records = run_sweep(e3_correctness.empirical_sweep(("greedy-stall",), 18, 4, 2, 11))
        payload = canonical_json([record.to_dict() for record in records.records])
        assert hashlib.sha256(payload.encode()).hexdigest() == (
            "50b39e2d466ac59033a0312e0849fdb3458ce68a6a63f78b43a3f15dddf7c8e8"
        )

    def test_exact_correctness_column_is_one_on_model_checked_inputs(self):
        result = e3_correctness.run(
            small_inputs=((0, 0, 1), (0, 1, 1, 2)),
            schedulers=(),
            num_agents=8,
            num_colors=3,
            trials=2,
            seed=3,
        )
        # Theorem 3.7: the analytical correctness probability is exactly 1.
        assert result.column("exact P(correct)") == ["1.000000", "1.000000"]

    def test_exact_column_degrades_on_inputs_too_large_for_the_chain(self, monkeypatch):
        """The model checker tolerates larger inputs than the exact solve;
        E3 must keep its verdict and render '—' instead of crashing."""
        from repro.exact import ChainTooLarge

        def too_large(*args, **kwargs):
            raise ChainTooLarge("simulated: configuration chain over the cap")

        monkeypatch.setattr(
            e3_correctness, "exact_correctness_probability", too_large
        )
        result = e3_correctness.run(
            small_inputs=((0, 0, 1),), schedulers=(), num_agents=8, num_colors=3,
            trials=1, seed=3,
        )
        assert result.column("exact P(correct)") == ["—"]
        assert result.column("correct") == [True]


class TestE4:
    def test_structure_matches_prediction(self):
        result = e4_stable_structure.run(populations=(8,), ks=(3,), trials=2, seed=1)
        assert result.column("bra/ket invariant held") == ["2/2"]
        assert result.column("stable multiset = union of f(G_p)") == ["2/2"]


class TestE5:
    def test_energy_reaches_minimum_monotonically(self):
        result = e5_energy.run(populations=(8,), ks=(4,), seed=2)
        finals = result.column("final (paper rule)")
        minima = result.column("predicted minimum")
        assert finals == minima
        assert all(result.column("monotone"))
        assert result.column("final (Gillespie SSA)") == minima

    def test_batch_engine_runs_every_discrete_column(self, monkeypatch):
        """The ablation structure column follows ``engine`` like the other runs."""
        constructed = []
        agent_init = AgentSimulation.__init__

        def counted_init(self, *args, **kwargs):
            constructed.append(self)
            agent_init(self, *args, **kwargs)

        monkeypatch.setattr(AgentSimulation, "__init__", counted_init)
        result = e5_energy.run(populations=(8,), ks=(4,), engine="batch")
        assert len(result.rows) == 1
        assert constructed == []


class TestE6:
    def test_circles_always_correct_in_comparison(self):
        result = e6_convergence.run(populations=(10,), ks=(2,), trials=2, seed=4, adversarial=False)
        rows = {row[0]: row for row in result.rows}
        assert rows["circles"][-1] == "2/2"
        assert rows["exact-majority"][-1] == "2/2"

    def test_agent_engine_path_still_supported(self):
        result = e6_convergence.run(
            populations=(10,), ks=(2,), trials=2, seed=4, adversarial=False, engine="agent"
        )
        rows = {row[0]: row for row in result.rows}
        assert rows["circles"][-1] == "2/2"

    def test_exact_expected_interactions_column_at_small_n(self):
        result = e6_convergence.run(
            populations=(6,), ks=(2,), trials=2, seed=4, adversarial=False
        )
        exact_column = dict(zip(result.column("protocol"), result.column("exact E[interactions]")))
        # Every k=2 protocol at n=6 is exactly analyzable: numeric cells only.
        for protocol, cell in exact_column.items():
            assert cell not in ("—", "∞"), protocol
            assert float(cell) > 0
        # The analytical value sits in the same ballpark as the empirical
        # mean (they estimate the same quantity; trials are few, so loose).
        means = dict(zip(result.column("protocol"), result.column("mean interactions")))
        circles_exact = float(exact_column["circles"])
        assert 0.2 * circles_exact <= means["circles"] <= 5 * circles_exact

    def test_exact_column_degrades_above_the_size_threshold(self):
        result = e6_convergence.run(
            populations=(16,), ks=(2,), trials=2, seed=4, adversarial=False
        )
        assert set(result.column("exact E[interactions]")) == {"—"}


class TestE7:
    def test_extension_state_counts(self):
        result = e7_extensions.run(ks=(3,), num_agents=10, trials=1, seed=6)
        assert result.column("tie-report states (2k^3)") == [54]
        assert result.column("ordering states (2k^2)") == [18]
        assert result.column("unordered states (2k^4)") == [162]
        assert result.column("tie-report correct (unique majority)") == [1.0]

    def test_table_is_pinned(self):
        """The four rate estimators share one run helper; each trial still
        draws its colors first and its scheduler seed second."""
        text = e7_extensions.run(ks=(3,), num_agents=8, trials=2).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "05de1a8f53ddb52be4634dcb0f80d50931c8c6a752a28a56a19725979db96b52"
        )


class TestE8:
    def test_fair_schedulers_correct_unfair_not(self):
        result = e8_scheduler_sensitivity.run(num_agents=9, trials=2, seed=7)
        rows = {row[0]: row for row in result.rows}
        assert rows["uniform-random"][-1] == "2/2"
        assert rows["round-robin"][-1] == "2/2"
        assert rows["greedy-stall"][-1] == "2/2"
        assert rows["isolation"][-1] == "0/2"

    def test_batched_engine_runs_the_fair_baseline(self):
        result = e8_scheduler_sensitivity.run(num_agents=9, trials=2, seed=7, engine="batch")
        rows = {row[0]: row for row in result.rows}
        assert rows["uniform-random"][-1] == "2/2"
        assert rows["isolation"][-1] == "0/2"
