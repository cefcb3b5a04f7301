"""Tests for RunSpec/SweepSpec: expansion, seed derivation, JSON round trips."""

import dataclasses
import json
import pickle

import pytest

from repro.api.spec import RunSpec, SweepSpec, derive_seed, sha_of


class TestDeriveSeed:
    def test_deterministic_and_process_stable(self):
        # SHA-based, so the exact value is part of the persistence contract.
        assert derive_seed(7, "run:0") == derive_seed(7, "run:0")
        assert derive_seed(7, "run:0") != derive_seed(7, "run:1")
        assert derive_seed(7, "run:0") != derive_seed(8, "run:0")

    def test_values_are_plain_ints(self):
        assert isinstance(derive_seed(0, "x"), int)


class TestRunSpec:
    def test_defaults(self):
        spec = RunSpec(protocol="circles", n=10, k=3)
        assert spec.workload == "planted-majority"
        assert spec.engine == "agent"
        assert spec.scheduler is None
        assert spec.runner == "protocol"

    def test_validation(self):
        with pytest.raises(ValueError):
            RunSpec(protocol="circles", n=1, k=3)
        with pytest.raises(ValueError):
            RunSpec(protocol="circles", n=10, k=0)

    def test_negative_max_steps_rejected_up_front(self):
        """Regression: a negative budget used to pass spec validation and
        only blow up (or silently no-op) deep inside engine dispatch."""
        with pytest.raises(ValueError, match="max_steps must be a non-negative"):
            RunSpec(protocol="circles", n=10, k=3, max_steps=-1)
        assert RunSpec(protocol="circles", n=10, k=3, max_steps=0).max_steps == 0
        assert RunSpec(protocol="circles", n=10, k=3, max_steps=None).max_steps is None

    def test_workload_seed_defaults_to_run_seed(self):
        spec = RunSpec(protocol="circles", n=10, k=3, seed=42)
        assert spec.effective_workload_seed == 42
        assert spec.with_seed(5).seed == 5
        pinned = RunSpec(protocol="circles", n=10, k=3, seed=42, workload_seed=9)
        assert pinned.effective_workload_seed == 9

    def test_json_round_trip(self):
        spec = RunSpec(
            protocol="circles",
            n=12,
            k=3,
            workload="near-tie",
            workload_params={"majority_color": 1},
            engine="batch",
            max_steps=500,
            seed=7,
            workload_seed=11,
        )
        assert RunSpec.from_json(spec.to_json()) == spec


class TestSweepSpecExpansion:
    def test_grid_size(self):
        sweep = SweepSpec(
            protocols=("circles", "exact-majority"),
            populations=(8, 16),
            ks=(2,),
            workloads=("planted-majority", "near-tie"),
            engines=("agent", "batch"),
            trials=3,
            seed=1,
        )
        assert len(sweep) == 2 * 2 * 1 * 2 * 2 * 3
        assert len(sweep.expand()) == len(sweep)

    def test_expansion_is_deterministic(self):
        sweep = SweepSpec(protocols=("circles",), populations=(8,), ks=(2, 3), trials=2, seed=5)
        assert sweep.expand() == sweep.expand()

    def test_every_run_gets_a_distinct_seed(self):
        sweep = SweepSpec(protocols=("circles",), populations=(8, 10), ks=(2,), trials=4, seed=5)
        seeds = [run.seed for run in sweep.expand()]
        assert len(set(seeds)) == len(seeds)

    def test_workload_seed_shared_per_sweep_point(self):
        # All protocols and trials at one (k, n, workload) point see the same
        # input colors; different points see different ones.
        sweep = SweepSpec(
            protocols=("circles", "exact-majority"),
            populations=(8, 10),
            ks=(2,),
            trials=2,
            seed=5,
        )
        runs = sweep.expand()
        by_point = {}
        for run in runs:
            by_point.setdefault((run.k, run.n, run.workload), set()).add(run.workload_seed)
        assert all(len(seeds) == 1 for seeds in by_point.values())
        assert len({next(iter(s)) for s in by_point.values()}) == len(by_point)

    def test_axis_entries_accept_params(self):
        sweep = SweepSpec(
            protocols=(("circles", {}),),
            populations=(8,),
            ks=(3,),
            workloads=(("planted-majority", {"margin": 2}),),
            schedulers=(None, ("round-robin", {"shuffle_once": True})),
            seed=0,
        )
        runs = sweep.expand()
        assert {run.scheduler for run in runs} == {None, "round-robin"}
        assert all(run.workload_params == {"margin": 2} for run in runs)

    def test_quadratic_budget(self):
        sweep = SweepSpec(
            protocols=("circles",), populations=(10,), ks=(2,), max_steps_quadratic=80, seed=0
        )
        assert sweep.expand()[0].max_steps == 80 * 10 * 10

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(protocols=(), populations=(8,), ks=(2,))
        with pytest.raises(ValueError):
            SweepSpec(protocols=("circles",), populations=(8,), ks=(2,), trials=0)

    def test_negative_budgets_rejected_up_front(self):
        with pytest.raises(ValueError, match="max_steps must be a non-negative"):
            SweepSpec(protocols=("circles",), populations=(8,), ks=(2,), max_steps=-5)
        with pytest.raises(ValueError, match="max_steps_quadratic must be a non-negative"):
            SweepSpec(
                protocols=("circles",), populations=(8,), ks=(2,), max_steps_quadratic=-1
            )

    def test_json_round_trip_preserves_expansion(self):
        sweep = SweepSpec(
            name="round-trip",
            protocols=("circles", ("cancellation-plurality", {})),
            populations=(8, 16),
            ks=(3,),
            workloads=(("zipf", {"exponent": 1.4}),),
            engines=("batch",),
            schedulers=(None,),
            max_steps_quadratic=200,
            trials=2,
            seed=59,
            workers=2,
        )
        restored = SweepSpec.from_json(sweep.to_json())
        assert restored == sweep
        assert restored.expand() == sweep.expand()


class TestObserversKnob:
    def test_observers_normalize_and_roundtrip(self):
        spec = RunSpec(
            protocol="circles", n=12, k=3, engine="batch", seed=5,
            observers=("energy", ("potential", {}), ["ket-exchanges", {}]),
        )
        assert spec.observers == (
            ("energy", {}), ("potential", {}), ("ket-exchanges", {}),
        )
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_observer_params_survive_roundtrip(self):
        spec = RunSpec(
            protocol="circles", n=12, k=3, observers=(("energy", {"record": "check"}),)
        )
        restored = RunSpec.from_json(spec.to_json())
        assert restored.observers == (("energy", {"record": "check"}),)

    def test_legacy_specs_without_the_field_load(self):
        legacy = RunSpec.from_json('{"protocol": "circles", "n": 12, "k": 3}')
        assert legacy.observers == ()

    def test_sweep_copies_observers_onto_every_run(self):
        sweep = SweepSpec(
            protocols=("circles",), populations=(8, 12), ks=(3,),
            observers=("energy",), seed=1,
        )
        runs = sweep.expand()
        assert len(runs) == 2
        assert all(run.observers == (("energy", {}),) for run in runs)
        assert SweepSpec.from_json(sweep.to_json()).to_dict() == sweep.to_dict()


#: Specs whose content addresses are pinned below.  The literal SHAs are the
#: ones every existing result store is keyed by: if one changes, stored
#: records stop hitting.
GOLDEN_SPECS = {
    "defaults": RunSpec(protocol="circles", n=8, k=2),
    "params": RunSpec(
        protocol="circles-tie-report",
        n=12,
        k=3,
        workload="zipf",
        protocol_params={"report": "min"},
        workload_params={"exponent": 1.5, "weights": [3, 2, 1]},
        seed=11,
        workload_seed=5,
        observers=("energy", ("trace", {"every": 4})),
    ),
    "scheduler": RunSpec(
        protocol="circles",
        n=10,
        k=2,
        scheduler="greedy-stall",
        scheduler_params={"patience": 3},
        criterion="stable-circles",
        seed=7,
    ),
}

#: Re-pinned at record epoch 6 to the earlier SHAs with the dropped
#: ``compiled`` key popped.
GOLDEN_SHAS = {
    "defaults": "406b75ebc97bc116c55cb2db461d389f0f3f3070ac9ec394888b4544e18908e4",
    "params": "331cc47d0f1619de5deb4a94f1ce371956e6aba8178fb473469eba873166a253",
    "scheduler": "913c2ebcbb83ff75417842f3e6396623185c3ce977881d9eb1036c3e4a611597",
}

GOLDEN_SWEEP = SweepSpec(
    name="golden",
    protocols=("circles", ("cancellation-plurality", {})),
    populations=(8, 12),
    ks=(2, 3),
    engines=("batch",),
    trials=2,
    seed=97,
    max_steps_quadratic=200,
    observers=("energy",),
)
GOLDEN_SWEEP_SHA = "eb2fdef5990d537f70fb1598e79dbdc43fb7d51b61376d87ad63357087682610"


class TestContentAddressGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
    def test_run_spec_sha_is_pinned(self, name):
        assert GOLDEN_SPECS[name].sha() == GOLDEN_SHAS[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
    def test_fresh_and_json_loaded_specs_hash_the_same(self, name):
        spec = GOLDEN_SPECS[name]
        assert RunSpec.from_json(spec.to_json()).sha() == GOLDEN_SHAS[name]
        assert RunSpec.from_dict(spec.to_dict()).sha() == GOLDEN_SHAS[name]

    def test_sweep_spec_sha_is_pinned(self):
        assert GOLDEN_SWEEP.sha() == GOLDEN_SWEEP_SHA

    @pytest.mark.parametrize("compiled", [None, False, True])
    def test_a_compiled_key_is_rejected(self, compiled):
        """Specs have no ``compiled`` field: the compile cap alone picks the
        path.  A stored spec that carries the key, ``null`` included (such as
        the one that pinned SHA ``920cbd5e…`` with ``compiled=False``), no
        longer loads."""
        data = RunSpec(
            protocol="tournament-plurality", n=16, k=3, engine="batch", seed=3, max_steps=2000
        ).to_dict()
        assert "compiled" not in data
        data["compiled"] = compiled
        if compiled is False:
            assert sha_of(data) == (
                "920cbd5e4c326f34b5f9c88ebfca0af2e7dc8420d9e8b41a9f3c876c05fee6bd"
            )
        with pytest.raises(TypeError, match="compiled"):
            RunSpec.from_dict(data)

    @pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
    def test_to_dict_equals_asdict(self, name):
        spec = GOLDEN_SPECS[name]
        expected = dataclasses.asdict(spec)
        data = spec.to_dict()
        assert data == expected
        assert list(data) == list(expected)
        assert type(data["observers"]) is tuple
        assert all(type(pair) is tuple for pair in data["observers"])

    def test_mutating_to_dict_reaches_neither_the_spec_nor_its_sha(self):
        spec = dataclasses.replace(GOLDEN_SPECS["params"])
        before = spec.sha()
        data = spec.to_dict()
        data["protocol_params"]["report"] = "max"
        data["workload_params"]["weights"].append(4)
        data["observers"][1][1]["every"] = 99
        data["seed"] = 0
        assert spec == GOLDEN_SPECS["params"]
        assert spec.workload_params["weights"] == [3, 2, 1]
        assert spec.observers[1][1] == {"every": 4}
        assert spec.sha() == before == GOLDEN_SHAS["params"]
        assert sha_of(spec.to_dict()) == before


class TestEmptyParams:
    """Empty param dicts are one shared dict that refuses every mutation."""

    def test_empty_params_are_shared_and_read_only(self):
        first = RunSpec(protocol="circles", n=8, k=2, seed=3)
        second = RunSpec(protocol="circles", n=16, k=3, seed=4, protocol_params={})
        empty = first.protocol_params
        assert empty == {} and not empty
        assert {id(first.workload_params), id(second.protocol_params)} == {id(empty)}
        for mutate in (
            lambda: empty.__setitem__("report", "max"),
            lambda: empty.update(report="max"),
            lambda: empty.setdefault("report", "max"),
            lambda: empty.pop("report"),
            lambda: empty.clear(),
        ):
            with pytest.raises(TypeError):
                mutate()
        assert empty == {}

    def test_non_empty_params_are_the_specs_own_copy(self):
        params = {"report": "max"}
        spec = RunSpec(protocol="circles", n=8, k=2, protocol_params=params)
        params["report"] = "min"
        assert spec.protocol_params == {"report": "max"}
        assert spec.protocol_params is not params

    def test_shared_empty_params_survive_pickle_and_to_dict(self):
        spec = RunSpec(protocol="circles", n=8, k=2, seed=3)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and clone.sha() == spec.sha()
        data = spec.to_dict()
        assert type(data["protocol_params"]) is dict
        data["protocol_params"]["report"] = "max"
        assert spec.protocol_params == {}
        assert json.loads(spec.to_json())["scheduler_params"] == {}


class TestStoredSha:
    """The SHA is stored on first use; it must never go stale."""

    def test_replace_and_with_seed_get_their_own_sha(self):
        spec = RunSpec(protocol="circles", n=8, k=2, seed=3)
        spec.sha()
        for other in (dataclasses.replace(spec, seed=4), spec.with_seed(4)):
            assert other.sha() != spec.sha()
            assert other.sha() == sha_of(other.to_dict())
            assert other.sha() == RunSpec(protocol="circles", n=8, k=2, seed=4).sha()

    def test_pickle_round_trip_keeps_the_correct_sha(self):
        spec = GOLDEN_SPECS["params"]
        spec.sha()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.sha() == GOLDEN_SHAS["params"]
        fresh = pickle.loads(pickle.dumps(RunSpec(protocol="circles", n=8, k=2)))
        assert fresh.sha() == GOLDEN_SHAS["defaults"]

    def test_equality_and_repr_ignore_the_stored_value(self):
        hashed = RunSpec(protocol="circles", n=8, k=2, seed=3)
        unhashed = RunSpec(protocol="circles", n=8, k=2, seed=3)
        hashed.sha()
        assert hashed == unhashed
        assert repr(hashed) == repr(unhashed)
        assert "_sha" not in repr(hashed)
        assert hashed.to_dict() == unhashed.to_dict()
        assert "_sha" not in [f.name for f in dataclasses.fields(hashed)]

    @pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
    def test_sha_always_matches_the_canonical_form(self, name):
        spec = GOLDEN_SPECS[name]
        for _ in range(2):
            assert spec.sha() == sha_of(spec.to_dict())
