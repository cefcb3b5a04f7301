"""Declarative run and sweep descriptions.

A :class:`RunSpec` names one simulation run with plain data only — protocol
by registry name, workload by registry name, engine, scheduler and criterion
by name, integer seeds — so a run can be stored in JSON, shipped to a worker
process, and re-executed in isolation.  A :class:`SweepSpec` expands grids
over those axes (protocols × workloads × populations × color counts ×
engines × schedulers × trials) into a deterministic list of ``RunSpec``s.

Seed discipline
---------------

A sweep has one root ``seed``.  Expansion derives

* one **run seed** per expanded run (hash of the root seed, the run's grid
  *cell* and its trial index within the cell) — it drives the engine and,
  for the agent engine, the scheduler; and
* one **workload seed** per (k, n, workload) sweep point, shared by every
  protocol, engine, scheduler and trial at that point — so competing
  protocols are compared on *identical* inputs, and a single ``RunSpec``
  regenerates its exact input colors without the rest of the sweep.

Both are plain integers stored on the expanded ``RunSpec``, so any single
record from a sweep is reproducible from its spec alone.  Because the run
seed is derived from ``(cell, trial)`` rather than the run's flat position,
a cell's trial seeds do not depend on the sweep's trial count: the first
``B`` trials of any cell are spec-identical across ``trials=B``,
``trials=B+1`` and ``trials="auto"`` variants of the same grid — the
property adaptive sweeps (:mod:`repro.api.stopping`) rely on to grow a
cell's sample incrementally while staying bit-compatible with (and
cache-shareable against) fixed-trial sweeps.
"""

from __future__ import annotations

import copy
import hashlib
import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from typing import Any

from repro.api.stopping import StoppingRule

def canonical_json(data: Any) -> str:
    """The one canonical JSON spelling of a JSON-native value.

    Sorted keys, compact separators, no NaN: two structurally equal values
    always serialize to the same byte string, across processes and
    platforms.  This is the serialization under every content hash in the
    sweep layer (:meth:`RunSpec.sha`, the result store's record checksums),
    so cache keys computed today still match files written yesterday.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)


def sha_of(data: Any) -> str:
    """Hex SHA-256 of a JSON-native value's canonical serialization."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def derive_seed(root_seed: int, tag: str) -> int:
    """Derive a child seed deterministically from a root seed and a label.

    Uses SHA-256 (not Python's salted ``hash``) so the derivation is stable
    across processes, platforms and interpreter restarts — the property that
    makes persisted specs re-runnable.
    """
    digest = hashlib.sha256(f"{root_seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _copy_params(params: Mapping[str, Any]) -> dict[str, Any]:
    """A deep copy of a params dict; most are empty, which skips ``deepcopy``."""
    return copy.deepcopy(params) if params else {}


class _ReadOnlyEmpty(dict):
    """An empty dict that refuses every mutation."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("an empty spec params or record extras dict is shared and read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse


_EMPTY = _ReadOnlyEmpty()


def own_params(params: Mapping[str, Any]) -> dict[str, Any]:
    """An immutable value's own copy of ``params`` (spec params, record extras).

    Every empty one is the same read-only dict, so the records a result
    store holds do not each keep four empty dicts.
    """
    return dict(params) if params else _EMPTY


def _normalize_axis(
    entries: Sequence[object], *, allow_none: bool = False
) -> tuple[tuple[str | None, dict[str, Any]], ...]:
    """Normalize axis entries to ``(name, params)`` pairs.

    Accepts bare names, ``(name, params)`` tuples/lists (the JSON spelling)
    and — on the scheduler axis — ``None`` for "engine default".
    """
    normalized: list[tuple[str | None, dict[str, Any]]] = []
    for entry in entries:
        if entry is None:
            if not allow_none:
                raise ValueError("None is only a valid entry on the scheduler axis")
            normalized.append((None, {}))
        elif isinstance(entry, str):
            normalized.append((entry, {}))
        else:
            name, params = entry
            normalized.append((name, dict(params)))
    return tuple(normalized)


@dataclass(frozen=True)
class RunSpec:
    """One run, described declaratively.

    Every field is plain data: names resolve through the protocol, workload,
    engine, scheduler and criterion registries at execution time (see
    :mod:`repro.api.executor`), never at construction time, so specs can be
    built, persisted and shipped without importing any simulation code.
    """

    protocol: str
    n: int
    k: int
    workload: str = "planted-majority"
    protocol_params: Mapping[str, Any] = field(default_factory=dict)
    workload_params: Mapping[str, Any] = field(default_factory=dict)
    #: Engine registry name (``"agent"``, ``"batch"``, ``"vector"``, or the
    #: analytical ``"exact"`` engine — small n only; its
    #: DistributionResult lands in the record's ``extras["exact"]``).
    engine: str = "agent"
    scheduler: str | None = None
    scheduler_params: Mapping[str, Any] = field(default_factory=dict)
    criterion: str | None = None
    max_steps: int | None = None
    #: Named run strategy (see ``repro.api.executor.register_runner``).  The
    #: default, which every experiment uses, resolves the protocol registry
    #: and calls ``run_protocol``, which stops on the protocol's
    #: ``default_criterion()`` when ``criterion`` is unset.
    runner: str = "protocol"
    #: Seed for the engine (and the scheduler, on the agent engine).
    seed: int | None = None
    #: Seed for the input workload; defaults to ``seed`` when unset.
    workload_seed: int | None = None
    #: Observers to attach to the run, by registry name
    #: (:mod:`repro.simulation.observers`): bare names or ``(name, params)``
    #: pairs.  Each observer's ``summary()`` lands in the resulting record's
    #: ``extras["observers"]``, so sweeps collect metric summaries
    #: declaratively.  Old specs without the field load unchanged.
    observers: Sequence[object] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocol_params", own_params(self.protocol_params))
        object.__setattr__(self, "workload_params", own_params(self.workload_params))
        object.__setattr__(self, "scheduler_params", own_params(self.scheduler_params))
        object.__setattr__(self, "observers", _normalize_axis(self.observers))
        if self.n < 2:
            raise ValueError(f"a population needs at least two agents, got n={self.n}")
        if self.k < 1:
            raise ValueError(f"need at least one color, got k={self.k}")
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError(
                f"max_steps must be a non-negative interaction budget, got "
                f"{self.max_steps}; omit it (or pass None) for the default budget"
            )

    @property
    def effective_workload_seed(self) -> int | None:
        """The seed the workload generator actually receives."""
        return self.workload_seed if self.workload_seed is not None else self.seed

    def with_seed(self, seed: int) -> RunSpec:
        """A copy of this spec with a different run seed."""
        return replace(self, seed=seed)

    def sha(self) -> str:
        """The spec's content address: SHA-256 of its canonical JSON form.

        Covers *every* field — protocol, workload, engine, seeds, observers
        — so two specs share a SHA exactly when they
        describe the same deterministic run.  Execution is a pure function of
        the spec, so this is a sound cache key: the sweep service's
        :class:`~repro.service.store.ResultStore` serves a stored
        :class:`~repro.api.records.RunRecord` for a SHA instead of
        re-simulating, and any field change (a different seed, an extra
        observer) changes the SHA and misses the cache.

        The value is computed on the first call and stored on the instance
        (as a plain attribute, not a dataclass field, so equality, ``repr``
        and :meth:`to_dict` never see it; set and read without touching
        ``__dict__``, which would materialize a dict per instance); a warm
        sweep hashes each spec once.
        That is sound because specs are immutable values: the dataclass is
        frozen, :func:`dataclasses.replace` and :meth:`with_seed` build a new
        instance with its own SHA, and the param dicts must not be mutated
        after construction.
        """
        stored = getattr(self, "_sha", None)
        if stored is None:
            stored = sha_of(self.to_dict())
            object.__setattr__(self, "_sha", stored)
        return stored

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dictionary (inverse of :meth:`from_dict`).

        Equal to ``dataclasses.asdict(self)`` — the same keys in field order,
        deep copies of the param dicts, observers as a tuple of
        ``(name, params)`` pairs — but built directly, because ``asdict``'s
        generic recursion dominated the cost of a warm sweep request.
        Mutating the result never reaches the spec.
        """
        return {
            "protocol": self.protocol,
            "n": self.n,
            "k": self.k,
            "workload": self.workload,
            "protocol_params": _copy_params(self.protocol_params),
            "workload_params": _copy_params(self.workload_params),
            "engine": self.engine,
            "scheduler": self.scheduler,
            "scheduler_params": _copy_params(self.scheduler_params),
            "criterion": self.criterion,
            "max_steps": self.max_steps,
            "runner": self.runner,
            "seed": self.seed,
            "workload_seed": self.workload_seed,
            "observers": tuple((name, _copy_params(params)) for name, params in self.observers),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> RunSpec:
        """Rebuild a spec from :meth:`to_dict` output (or hand-written JSON).

        Raises:
            TypeError: for a key that is not a field, such as the
                ``compiled`` switch of earlier versions.
        """
        return cls(**data)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> RunSpec:
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class SweepCell:
    """One grid cell of a sweep: every axis fixed, only the trial index free.

    The unit adaptive sweeps grow: :meth:`spec` materializes the cell's
    ``trial``-th run with the deterministic ``(cell, trial)`` seed
    derivation, so a cell's trial sequence is independent of how many trials
    the sweep ultimately runs.
    """

    sweep_seed: int
    #: The cell's position in the trial-free expansion order.
    index: int
    protocol: str
    protocol_params: Mapping[str, Any]
    n: int
    k: int
    workload: str
    workload_params: Mapping[str, Any]
    engine: str
    scheduler: str | None
    scheduler_params: Mapping[str, Any]
    criterion: str | None
    max_steps: int | None
    runner: str
    workload_seed: int
    observers: Sequence[object]

    def trial_seed(self, trial: int) -> int:
        """The run seed of this cell's ``trial``-th run (trial-count independent)."""
        if trial < 0:
            raise ValueError(f"trial index must be non-negative, got {trial}")
        return derive_seed(self.sweep_seed, f"run:{self.index}:{trial}")

    def spec(self, trial: int) -> RunSpec:
        """The ``trial``-th run of this cell, as a plain :class:`RunSpec`."""
        return RunSpec(
            protocol=self.protocol,
            n=self.n,
            k=self.k,
            workload=self.workload,
            protocol_params=self.protocol_params,
            workload_params=self.workload_params,
            engine=self.engine,
            scheduler=self.scheduler,
            scheduler_params=self.scheduler_params,
            criterion=self.criterion,
            max_steps=self.max_steps,
            runner=self.runner,
            seed=self.trial_seed(trial),
            workload_seed=self.workload_seed,
            observers=self.observers,
        )

    def describe(self) -> dict[str, Any]:
        """The cell's grid coordinates (the key of per-cell diagnostics)."""
        return {
            "protocol": self.protocol,
            "workload": self.workload,
            "n": self.n,
            "k": self.k,
            "engine": self.engine,
            "scheduler": self.scheduler,
        }


@dataclass(frozen=True)
class SweepSpec:
    """A grid of runs over the experiment axes.

    :meth:`expand` takes the cross product of ``ks`` × ``populations`` ×
    ``workloads`` × ``engines`` × ``schedulers`` × ``protocols`` × ``trials``
    (nested in that order, so tables grouped per protocol vary fastest) and
    derives per-run and per-point seeds from the root ``seed`` — see the
    module docstring for the seed discipline.

    ``trials`` is either a fixed integer or ``"auto"``: an adaptive sweep
    has no fixed expansion — each cell (:meth:`expand_cells`) runs in
    incremental batches until its ``stopping`` rule
    (:class:`~repro.api.stopping.StoppingRule`) is satisfied, with the first
    ``B`` trials of every cell spec-identical to a fixed ``trials=B`` sweep.
    """

    protocols: Sequence[object]
    populations: Sequence[int]
    ks: Sequence[int]
    workloads: Sequence[object] = ("planted-majority",)
    engines: Sequence[str] = ("agent",)
    schedulers: Sequence[object] = (None,)
    criterion: str | None = None
    #: Absolute interaction budget per run; ``None`` defers to
    #: ``max_steps_quadratic`` and then to the runner default.
    max_steps: int | None = None
    #: Quadratic budget coefficient ``c``: each run gets ``c · n²`` steps.
    max_steps_quadratic: int | None = None
    #: Trials per grid cell: a fixed integer, or ``"auto"`` for sequential
    #: sampling governed by ``stopping``.
    trials: int | str = 1
    #: Stopping rule for ``trials="auto"`` (a :class:`StoppingRule`, or its
    #: ``to_dict`` form when loaded from JSON); ``None`` means the default
    #: rule.  Only meaningful on adaptive sweeps.
    stopping: StoppingRule | Mapping[str, Any] | None = None
    seed: int = 0
    runner: str = "protocol"
    #: Default worker-process count for executors (``None``/1 = serial).
    workers: int | None = None
    #: Observers attached to every run of the sweep (not an expansion axis):
    #: names or ``(name, params)`` pairs, copied onto each expanded
    #: :class:`RunSpec`.
    observers: Sequence[object] = ()
    #: Optional human-readable label carried into results.
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocols", _normalize_axis(self.protocols))
        object.__setattr__(self, "workloads", _normalize_axis(self.workloads))
        object.__setattr__(self, "schedulers", _normalize_axis(self.schedulers, allow_none=True))
        object.__setattr__(self, "observers", _normalize_axis(self.observers))
        object.__setattr__(self, "populations", tuple(self.populations))
        object.__setattr__(self, "ks", tuple(self.ks))
        object.__setattr__(self, "engines", tuple(self.engines))
        if not self.protocols:
            raise ValueError("a sweep needs at least one protocol")
        if not self.populations:
            raise ValueError("a sweep needs at least one population size")
        if not self.ks:
            raise ValueError("a sweep needs at least one color count")
        if isinstance(self.trials, str):
            if self.trials != "auto":
                raise ValueError(
                    f"trials must be a positive integer or the string 'auto', "
                    f"got {self.trials!r}"
                )
        elif self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.stopping is not None and not isinstance(self.stopping, StoppingRule):
            object.__setattr__(self, "stopping", StoppingRule.from_dict(self.stopping))
        if self.stopping is not None and not self.is_adaptive:
            raise ValueError(
                "a stopping rule only applies to adaptive sweeps; set "
                "trials='auto' (or drop the stopping field)"
            )
        if self.is_adaptive and self.stopping is None:
            object.__setattr__(self, "stopping", StoppingRule())
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError(
                f"max_steps must be a non-negative interaction budget, got "
                f"{self.max_steps}; omit it (or pass None) for the default budget"
            )
        if self.max_steps_quadratic is not None and self.max_steps_quadratic < 0:
            raise ValueError(
                f"max_steps_quadratic must be a non-negative multiple of n², got "
                f"{self.max_steps_quadratic}; omit it (or pass None) for the default budget"
            )

    def _budget(self, n: int) -> int | None:
        if self.max_steps is not None:
            return self.max_steps
        if self.max_steps_quadratic is not None:
            return self.max_steps_quadratic * n * n
        return None

    @property
    def is_adaptive(self) -> bool:
        """Whether this sweep samples sequentially (``trials="auto"``)."""
        return self.trials == "auto"

    @property
    def stopping_rule(self) -> StoppingRule | None:
        """The normalized :class:`StoppingRule` (``None`` on fixed sweeps)."""
        rule = self.stopping
        assert rule is None or isinstance(rule, StoppingRule)  # normalized in __post_init__
        return rule

    def expand_cells(self) -> list[SweepCell]:
        """The sweep's grid cells in expansion order (the trial axis free)."""
        cells: list[SweepCell] = []
        index = 0
        for k in self.ks:
            for n in self.populations:
                for workload_name, workload_params in self.workloads:
                    point_seed = derive_seed(
                        self.seed, f"workload:{k}:{n}:{workload_name}:{sorted(workload_params.items())}"
                    )
                    for engine in self.engines:
                        for scheduler_name, scheduler_params in self.schedulers:
                            for protocol_name, protocol_params in self.protocols:
                                cells.append(
                                    SweepCell(
                                        sweep_seed=self.seed,
                                        index=index,
                                        protocol=protocol_name,
                                        protocol_params=protocol_params,
                                        n=n,
                                        k=k,
                                        workload=workload_name,
                                        workload_params=workload_params,
                                        engine=engine,
                                        scheduler=scheduler_name,
                                        scheduler_params=scheduler_params,
                                        criterion=self.criterion,
                                        max_steps=self._budget(n),
                                        runner=self.runner,
                                        workload_seed=point_seed,
                                        observers=self.observers,
                                    )
                                )
                                index += 1
        return cells

    def expand(self) -> list[RunSpec]:
        """The deterministic list of runs this sweep describes.

        Raises:
            ValueError: for adaptive sweeps, which have no fixed expansion —
                execute them with :class:`~repro.api.executor.SweepRunner`
                (or enumerate :meth:`expand_cells` and grow trials manually).
        """
        if self.is_adaptive:
            raise ValueError(
                "an adaptive sweep (trials='auto') has no fixed expansion; "
                "execute it with run_sweep/SweepRunner, or enumerate "
                "expand_cells() and call cell.spec(trial) per grown trial"
            )
        return [cell.spec(trial) for cell in self.expand_cells() for trial in range(self.trials)]

    def num_cells(self) -> int:
        """How many grid cells the sweep has (the trial-free expansion size)."""
        return (
            len(self.ks)
            * len(self.populations)
            * len(self.workloads)
            * len(self.engines)
            * len(self.schedulers)
            * len(self.protocols)
        )

    def __len__(self) -> int:
        """Total runs: exact for fixed sweeps, the ``max_trials`` upper bound
        for adaptive ones (cells stop early when their rule is satisfied)."""
        if self.is_adaptive:
            rule = self.stopping_rule
            assert rule is not None
            return self.num_cells() * rule.max_trials
        assert isinstance(self.trials, int)
        return self.num_cells() * self.trials

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dictionary (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "protocols": [[name, params] for name, params in self.protocols],
            "populations": list(self.populations),
            "ks": list(self.ks),
            "workloads": [[name, params] for name, params in self.workloads],
            "engines": list(self.engines),
            "schedulers": [[name, params] for name, params in self.schedulers],
            "criterion": self.criterion,
            "max_steps": self.max_steps,
            "max_steps_quadratic": self.max_steps_quadratic,
            "trials": self.trials,
            "stopping": None if self.stopping_rule is None else self.stopping_rule.to_dict(),
            "seed": self.seed,
            "runner": self.runner,
            "workers": self.workers,
            "observers": [[name, params] for name, params in self.observers],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> SweepSpec:
        """Rebuild a sweep from :meth:`to_dict` output (or hand-written JSON)."""
        return cls(**dict(data))

    def sha(self) -> str:
        """The sweep's content address (canonical-JSON SHA-256, all fields).

        Names the sweep's manifest in the result store; a restarted
        half-finished sweep finds its own manifest by recomputing this.
        Kept on the instance after the first call, like :meth:`RunSpec.sha`.
        """
        stored = getattr(self, "_sha", None)
        if stored is None:
            stored = sha_of(self.to_dict())
            object.__setattr__(self, "_sha", stored)
        return stored

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> SweepSpec:
        return cls.from_dict(json.loads(text))
