"""Pinned trajectories of runs past the compile cap.

Protocols whose δ-closure exceeds the compile cap run on lazily interned
codes (:class:`~repro.compile.LazyInterner`).  These digests were computed
on the engines that kept such runs as a multiset of states with a per-pair
transition memo; the interned codes must reproduce every draw.

Each engine case runs the batch and the vector engine (one row) from the
same seed to the protocol's default criterion and then through a
criterion-free budget.  Its digest covers the verdict, ``steps_taken``,
``interactions_changed``, the order of ``states()``, every delta and check a
recording observer saw (plus the ket-exchange count and the energy series
on Circles-shaped states), ``_rng.getstate()``, the output counts and the
configuration.  Record cases digest ``execute_run`` records (with the
energy observer on Circles-shaped protocols), group cases the outcomes of a
three-row replicate group and its records, and chain cases the exact
chain's states, counts and weights.  Tournament-plurality at k = 4 (a
2 916-state closure) and unordered Circles at k = 5 (1 250 states) are past
the cap; the k = 3 cases are forced there through ``force_uncompiled``.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import repro  # noqa: F401  (populates the protocol registry)
from repro.api.executor import execute_replicate_group, execute_run
from repro.api.spec import RunSpec
from repro.exact.chain import ConfigurationChain
from repro.protocols.registry import get_protocol
from repro.simulation.batch_engine import BatchConfigurationSimulation
from repro.simulation.observers import EnergyObserver, KetExchangeObserver, Observer
from repro.simulation.vector_engine import VectorReplicateSimulation

#: Protocols past the compile cap at these color counts.
PAST_CAP = (("tournament-plurality", 4), ("circles-unordered", 5))
#: Protocols run past the cap only through ``force_uncompiled``.
FORCED = (("circles", 3), ("tournament-plurality", 3))
POPULATIONS = (8, 16)

ENGINE_PINS = {
    ('circles', 3, 8, 1): '21368abb76bba407',
    ('circles', 3, 8, 7): 'a3a3d432246783e1',
    ('circles', 3, 8, 8): 'da69062a1a76f8cf',
    ('circles', 3, 16, 1): '6773a5123bdc1dd7',
    ('circles', 3, 16, 7): '667d4550a4a0cdd2',
    ('circles', 3, 16, 16): '916b94717c4b2947',
    ('circles-unordered', 5, 8, 1): '3468d7a8e3531d20',
    ('circles-unordered', 5, 8, 7): 'fb788dc213ae5c7d',
    ('circles-unordered', 5, 8, 8): '5ac54c95ded9fef4',
    ('circles-unordered', 5, 16, 1): 'b36f0df8c305849b',
    ('circles-unordered', 5, 16, 7): 'a833e7b08ff5fc9b',
    ('circles-unordered', 5, 16, 16): 'a5a06d320e3b1447',
    ('tournament-plurality', 3, 8, 1): '6a164265cd35aea1',
    ('tournament-plurality', 3, 8, 7): '8db3be012e1906bc',
    ('tournament-plurality', 3, 8, 8): '60d901bf659c6b07',
    ('tournament-plurality', 3, 16, 1): 'b0cf02a9b3e94db6',
    ('tournament-plurality', 3, 16, 7): '6cabff1a4668891e',
    ('tournament-plurality', 3, 16, 16): '2727224816791863',
    ('tournament-plurality', 4, 8, 1): 'b2db8886d8609d4d',
    ('tournament-plurality', 4, 8, 7): '8183990a398223b0',
    ('tournament-plurality', 4, 8, 8): '67ea5b84b997a18d',
    ('tournament-plurality', 4, 16, 1): 'c3aeed48d43f0482',
    ('tournament-plurality', 4, 16, 7): '0aee08191bb3c8e1',
    ('tournament-plurality', 4, 16, 16): 'fb797623457932d0',
}

RECORD_PINS = {
    ('circles', 3, 8, 'batch'): '4fcc54cd358e40be',
    ('circles', 3, 8, 'vector'): 'e06b1072f655010d',
    ('circles', 3, 16, 'batch'): 'e03b3a3dfcbe9e56',
    ('circles', 3, 16, 'vector'): 'ba9e0d9e108be648',
    ('circles-unordered', 5, 8, 'batch'): '440e941bd9a70f60',
    ('circles-unordered', 5, 8, 'vector'): 'f3152cb310aec39a',
    ('circles-unordered', 5, 16, 'batch'): '2322b413b801a989',
    ('circles-unordered', 5, 16, 'vector'): 'd93d448b99b0d97c',
    ('tournament-plurality', 3, 8, 'batch'): '504836e6eaff76e5',
    ('tournament-plurality', 3, 8, 'vector'): 'bf8a19dd43b5a553',
    ('tournament-plurality', 3, 16, 'batch'): 'cd71a55775587480',
    ('tournament-plurality', 3, 16, 'vector'): 'ba23e469373e1fff',
    ('tournament-plurality', 4, 8, 'batch'): 'a4cfa7727416cfe9',
    ('tournament-plurality', 4, 8, 'vector'): '4b51ce404b7526ea',
    ('tournament-plurality', 4, 16, 'batch'): '4c02acb7c30118d0',
    ('tournament-plurality', 4, 16, 'vector'): 'a48dd4c8a5728ff8',
}

GROUP_PINS = {
    ('circles', 3, 8): '8fd8472613af1969',
    ('circles', 3, 16): 'add403d7f2e8eb13',
    ('circles-unordered', 5, 8): 'deec9042c7903593',
    ('circles-unordered', 5, 16): '798858bdae210133',
    ('tournament-plurality', 3, 8): '41c313f89dad35f0',
    ('tournament-plurality', 3, 16): '6b32cf58694b85b1',
    ('tournament-plurality', 4, 8): '749ccd56ed4ed7d2',
    ('tournament-plurality', 4, 16): '7f0b4c55c093793d',
}

CHAIN_PINS = {
    ('circles', 3): '4a58b9996c12ddc1',
    ('tournament-plurality', 3): '004c652713038653',
}


class DeltaRecorder(Observer):
    """Every delta as decoded states, and ``(steps, changed)`` at every check."""

    name = "delta-recorder"

    def __init__(self):
        self.events = []

    def on_delta(self, delta):
        result = delta.result
        self.events.append(
            (
                delta.step,
                repr(delta.initiator),
                repr(delta.responder),
                repr(result.initiator),
                repr(result.responder),
                result.changed,
                delta.count,
            )
        )

    def on_check(self, engine):
        self.events.append(("check", engine.steps_taken, engine.interactions_changed))


def colors_for(k: int, n: int) -> list[int]:
    """Every color present, color 0 one agent ahead."""
    colors = [c % k for c in range(n)]
    colors[-1] = 0
    return colors


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def engine_digest(engine_cls, name, k, n, interval, seed) -> str:
    protocol = get_protocol(name, k)
    engine = engine_cls.from_colors(protocol, colors_for(k, n), seed=seed)
    assert engine.compiled_protocol is None
    recorder = engine.add_observer(DeltaRecorder())
    extra = []
    if hasattr(protocol.initial_state(0), "braket"):
        extra = [
            engine.add_observer(KetExchangeObserver()),
            engine.add_observer(EnergyObserver(record="check")),
        ]
    converged = engine.run(
        60 * n * n, criterion=protocol.default_criterion(), check_interval=interval
    )
    more = engine.run(3 * n)
    return digest(
        (
            converged,
            more,
            engine.steps_taken,
            engine.interactions_changed,
            [repr(state) for state in engine.states()],
            recorder.events,
            [observer.summary() for observer in extra],
            engine._rng.getstate(),
            sorted(engine.output_counts().items()),
            sorted((repr(state), count) for state, count in engine.configuration().items()),
        )
    )


def run_spec(name, k, n, engine, seed) -> RunSpec:
    return RunSpec(
        protocol=name,
        n=n,
        k=k,
        engine=engine,
        seed=seed,
        workload_seed=5,
        max_steps=40 * n * n,
        observers=("energy",) if "circles" in name else (),
    )


def record_json(spec: RunSpec) -> str:
    return json.dumps(execute_run(spec).to_dict(), sort_keys=True)


def group_digest(name, k, n, seeds) -> str:
    protocol = get_protocol(name, k)
    group = VectorReplicateSimulation.replicate_group_from_colors(
        protocol, colors_for(k, n), seeds
    )
    outcomes = group.run(60 * n * n, criterion=protocol.default_criterion())
    specs = [
        RunSpec(protocol=name, n=n, k=k, engine="vector", seed=seed, workload_seed=5,
                max_steps=40 * n * n)
        for seed in seeds
    ]
    records = [record.to_dict() for record in execute_replicate_group(specs)]
    rows = [
        (
            outcome.converged,
            outcome.steps,
            outcome.interactions_changed,
            outcome.ket_exchanges,
            sorted((repr(state), count) for state, count in outcome.configuration.items()),
        )
        for outcome in outcomes
    ]
    return digest((rows, json.dumps(records, sort_keys=True)))


def cases(protocols):
    return [(name, k, n) for name, k in protocols for n in POPULATIONS]


def intervals(n: int) -> tuple[int, ...]:
    return (1, 7, n)


@pytest.mark.parametrize("name, k, n", cases(PAST_CAP) + cases(FORCED))
def test_engine_trajectories(name, k, n, request):
    forced = (name, k) in FORCED
    if forced:
        request.getfixturevalue("force_uncompiled")
    for interval in intervals(n):
        seed = (200 if forced else 100) + n + interval
        for engine_cls in (BatchConfigurationSimulation, VectorReplicateSimulation):
            got = engine_digest(engine_cls, name, k, n, interval, seed)
            assert got == ENGINE_PINS[(name, k, n, interval)], (engine_cls.engine_name, interval)


@pytest.mark.parametrize("name, k, n", cases(PAST_CAP) + cases(FORCED))
def test_records_and_replicate_groups(name, k, n, request):
    forced = (name, k) in FORCED
    if forced:
        request.getfixturevalue("force_uncompiled")
    for engine in ("batch", "vector"):
        got = digest(record_json(run_spec(name, k, n, engine, 4 if forced else 3)))
        assert got == RECORD_PINS[(name, k, n, engine)], engine
    seeds = [4, 5, 6] if forced else [1, 2, 3]
    assert group_digest(name, k, n, seeds) == GROUP_PINS[(name, k, n)]


@pytest.mark.parametrize("name, k", FORCED)
def test_interned_chain(name, k, force_uncompiled):
    chain = ConfigurationChain.from_colors(get_protocol(name, k), [0, 0, 1, 2, 1])
    assert chain.compiled is None
    got = digest(
        ([repr(state) for state in chain.states], chain.counts, chain.weights, chain.change_weights)
    )
    assert got == CHAIN_PINS[(name, k)]


def test_record_does_not_depend_on_earlier_runs():
    """Interned codes are per run: a record is the same in a fresh process and
    after other past-cap runs of the same protocol."""
    spec = run_spec("tournament-plurality", 4, 12, "batch", 9)
    for seed in (1, 2):
        execute_run(run_spec("tournament-plurality", 4, 16, "batch", seed))
    warm = record_json(spec)
    fresh = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from repro.api.executor import execute_run; "
            "from repro.api.spec import RunSpec; import json; "
            "spec = RunSpec.from_json(sys.stdin.read()); "
            "print(json.dumps(execute_run(spec).to_dict(), sort_keys=True))",
        ],
        input=spec.to_json(),
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout.strip()
    assert fresh == warm
