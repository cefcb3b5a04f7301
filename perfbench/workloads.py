"""The benchmark's workloads, each driven through repro's public API.

A workload is set up once (imports, registries, protocol compilation, and
for the service a result store and a bound server), then repeats *passes*.
Each pass times only the public-API calls a user would wait on, then checks
every output it produced.  Pass ``i`` draws its inputs from
``derive_seed(seed, "perfbench-pass:i")``, so one seed fixes every input of a
run, and a run averages over several input sets instead of one.

``"full"`` is the measured size; ``"smoke"`` finishes in seconds for the
benchmark's own tests.  Why each workload exists is recorded beside its name
in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import random
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
K = 3


@dataclass
class PassResult:
    """What one pass did and how long its timed calls took."""

    #: Seconds inside the pass's cold unit of work (the throughput base).
    wall_s: float
    #: Runs computed: simulated runs, or exact analyses on exact-analysis.
    runs: int
    #: δ applications: simulated interactions, or the ordered state pairs
    #: the exact chain evaluates while enumerating configurations.
    interactions: int
    #: Outputs checked, and how many of them raised, arrived as in-band
    #: errors or failed their check.
    attempted: int
    failed: int
    #: Round trips of the pass's repeated request: the warm sweep POSTs on
    #: service-cache, the pass itself elsewhere.
    latencies_s: list[float]
    #: Seconds inside every timed call of the pass (the tracing base).
    timed_s: float
    #: Per-layer values only the workload can observe.
    counts: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def pass_seed(seed: int, index: int) -> int:
    from repro.api.spec import derive_seed

    return derive_seed(seed, f"perfbench-pass:{index}")


def _compile(names: list[tuple[str, int]]) -> None:
    from repro.compile import compile_protocol
    from repro.protocols.registry import get_protocol

    for name, k in names:
        compile_protocol(get_protocol(name, k))


class GridSmallN:
    """E3/E6-style grid: circles and tournament-plurality, k=3, small n."""

    name = "grid-small-n"
    sizes = {
        "full": {"populations": (16, 32, 64), "trials": 32},
        "smoke": {"populations": (16,), "trials": 4},
    }
    protocols = ("circles", "tournament-plurality")
    warm_up_passes = 1

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.params = self.sizes[size]

    def setup(self) -> None:
        import repro  # noqa: F401  (populates the registries)
        from repro.api import run_sweep  # noqa: F401

        _compile([(name, K) for name in self.protocols])

    def run_pass(self, index: int, tracer=None) -> PassResult:
        from repro.api import SweepSpec, run_sweep

        sweep = SweepSpec(
            protocols=self.protocols,
            populations=self.params["populations"],
            ks=(K,),
            engines=("vector",),
            trials=self.params["trials"],
            seed=pass_seed(self.seed, index),
        )
        start = time.perf_counter()
        result = run_sweep(sweep)
        wall = time.perf_counter() - start
        problems = [
            f"{r.protocol_name} n={r.num_agents} seed={r.seed}: "
            f"converged={r.converged} correct={r.correct}"
            for r in result.records
            if not (r.converged and r.correct)
        ]
        return PassResult(
            wall_s=wall,
            runs=len(result.records),
            interactions=sum(r.steps for r in result.records),
            attempted=len(result.records),
            failed=len(problems),
            latencies_s=[wall],
            timed_s=wall,
            problems=problems,
        )

    def final_check(self) -> PassResult | None:
        return None

    def close(self) -> None:
        pass


class ReplicatesLargeN:
    """One circles cell at n=10⁵, R replicates under a fixed per-row budget."""

    name = "replicates-large-n"
    sizes = {
        "full": {"n": 100_000, "replicates": 64, "budget": 200_000},
        "smoke": {"n": 5_000, "replicates": 4, "budget": 20_000},
    }
    warm_up_passes = 1

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.params = self.sizes[size]
        self._last = None

    def setup(self) -> None:
        import repro  # noqa: F401
        from repro.api import run_sweep  # noqa: F401

        _compile([("circles", K)])

    def run_pass(self, index: int, tracer=None) -> PassResult:
        from repro.api import SweepSpec, run_sweep

        budget = self.params["budget"]
        sweep = SweepSpec(
            protocols=("circles",),
            populations=(self.params["n"],),
            ks=(K,),
            engines=("vector",),
            trials=self.params["replicates"],
            max_steps=budget,
            seed=pass_seed(self.seed, index),
        )
        start = time.perf_counter()
        result = run_sweep(sweep)
        wall = time.perf_counter() - start
        self._last = result.records
        problems = []
        for r in result.records:
            if r.steps != budget:
                problems.append(f"seed={r.seed}: steps {r.steps} != budget {budget}")
            elif r.initial_energy is None or r.final_energy is None:
                problems.append(f"seed={r.seed}: no energy bookkeeping")
            elif r.final_energy > r.initial_energy:
                # Theorem 3.4: the energy never increases.
                problems.append(
                    f"seed={r.seed}: energy rose {r.initial_energy} -> {r.final_energy}"
                )
        return PassResult(
            wall_s=wall,
            runs=len(result.records),
            interactions=sum(r.steps for r in result.records),
            attempted=len(result.records),
            failed=len(problems),
            latencies_s=[wall],
            timed_s=wall,
            problems=problems,
        )

    def final_check(self) -> PassResult | None:
        """Re-run one row serially; the lockstep record must be identical."""
        from repro.api.executor import execute_run

        if not self._last:
            return None
        row = self._last[0]
        same = execute_run(row.spec) == row
        return PassResult(
            wall_s=0.0,
            runs=0,
            interactions=0,
            attempted=1,
            failed=0 if same else 1,
            latencies_s=[],
            timed_s=0.0,
            problems=[] if same else [f"serial re-run of seed={row.seed} differs"],
        )

    def close(self) -> None:
        pass


_RECORD_KEY = b', "record": '


def _envelope(line: bytes) -> tuple[dict, bytes]:
    """A streamed envelope and the exact bytes of its record."""
    return json.loads(line), line[line.index(_RECORD_KEY) + len(_RECORD_KEY) : -1]


class ServiceCache:
    """An in-process sweep service: one cold POST, then identical warm POSTs.

    One closed-loop client on one connection at a time; the service runs two
    executor workers, so at most two runs execute concurrently.
    """

    name = "service-cache"
    sizes = {
        "full": {"populations": (16, 32), "trials": 32, "warm_posts": 40},
        "smoke": {"populations": (16,), "trials": 3, "warm_posts": 3},
    }
    warm_up_passes = 1

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.params = self.sizes[size]
        self.workdir = workdir
        self.store = None
        self._server = None
        self._thread = None
        self._root: Path | None = None
        self._stderr = io.StringIO()
        self._exit = contextlib.ExitStack()

    def setup(self) -> None:
        import repro  # noqa: F401
        from repro.service import ResultStore, SweepService
        from repro.service.serve import serve

        _compile([("circles", K)])
        # The handler logs one line per request to stderr; keep it off the
        # benchmark's stderr and forward anything else at close.
        self._exit.enter_context(contextlib.redirect_stderr(self._stderr))
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._root = Path(tempfile.mkdtemp(prefix="store-", dir=self.workdir))
        self.store = ResultStore(self._root)
        service = SweepService(self.store, workers=2)
        self._server = serve(service, "127.0.0.1", 0)
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        self._thread.start()

    def post(self, body: bytes) -> bytes:
        """One POST /sweep round trip on a fresh connection; the whole body."""
        host, port = self._server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=120)
        try:
            connection.request(
                "POST", "/sweep", body=body, headers={"Content-Type": "application/json"}
            )
            return connection.getresponse().read()
        finally:
            connection.close()

    def _timed_post(self, body: bytes, tracer) -> tuple[bytes, float]:
        start = time.perf_counter()
        span = None
        if tracer is not None:
            span = tracer.begin("service.serve")
            tracer.adopt = span
        try:
            data = self.post(body)
        finally:
            if span is not None:
                tracer.adopt = None
                tracer.end(span)
            elapsed = time.perf_counter() - start
        return data, elapsed

    def _shard_bytes(self) -> int:
        return sum(path.stat().st_size for path in (self._root / "shards").glob("*.jsonl"))

    def run_pass(self, index: int, tracer=None) -> PassResult:
        from repro.api import SweepSpec

        sweep = SweepSpec(
            protocols=("circles",),
            populations=self.params["populations"],
            ks=(K,),
            engines=("vector",),
            trials=self.params["trials"],
            seed=pass_seed(self.seed, index),
        )
        body = sweep.to_json().encode("utf-8")
        expected = len(sweep)
        store = self.store
        hits, misses, corrupt = store.hits, store.misses, store.corrupt
        shard_bytes = self._shard_bytes()
        problems: list[str] = []

        data, cold_s = self._timed_post(body, tracer)
        streamed = len(data)
        cold: dict[int, bytes] = {}
        interactions = 0
        for line in data.splitlines():
            try:
                envelope, record = _envelope(line)
                if envelope["cached"] is not False:
                    raise ValueError("served from cache")
                cold[envelope["index"]] = record
                interactions += envelope["record"]["steps"]
            except (ValueError, KeyError, TypeError):
                problems.append(f"cold pass: unexpected line {line[:120]!r}")
        attempted = expected
        failed = expected - len(cold)

        latencies: list[float] = []
        for _ in range(self.params["warm_posts"]):
            data, elapsed = self._timed_post(body, tracer)
            latencies.append(elapsed)
            streamed += len(data)
            matched = set()
            for line in data.splitlines():
                try:
                    envelope, record = _envelope(line)
                    if envelope["cached"] is not True or cold.get(envelope["index"]) != record:
                        raise ValueError("not the cold record")
                    matched.add(envelope["index"])
                except (ValueError, KeyError, TypeError):
                    problems.append(f"warm pass: unexpected line {line[:120]!r}")
            attempted += expected
            failed += expected - len(matched)
        if store.corrupt != corrupt:
            failed += store.corrupt - corrupt
            problems.append(f"store counted {store.corrupt - corrupt} corrupt lines")
        lookups = (store.hits - hits) + (store.misses - misses)
        return PassResult(
            wall_s=cold_s,
            runs=expected,
            interactions=interactions,
            attempted=attempted,
            failed=failed,
            latencies_s=latencies,
            timed_s=cold_s + sum(latencies),
            counts={
                "service.store.hit_rate": (store.hits - hits) / lookups if lookups else 0.0,
                "service.store.corrupt": store.corrupt - corrupt,
                "service.store.shard_bytes": self._shard_bytes() - shard_bytes,
                "service.serve.bytes_streamed": streamed,
            },
            problems=problems,
        )

    def final_check(self) -> PassResult | None:
        return None

    def close(self) -> None:
        try:
            if self._server is not None:
                self._server.shutdown()
                self._server.server_close()
            if self._thread is not None:
                self._thread.join(timeout=30)
        finally:
            self._exit.close()
            if self._root is not None:
                shutil.rmtree(self._root, ignore_errors=True)
            for line in self._stderr.getvalue().splitlines():
                if '"POST /sweep HTTP/1.1"' not in line:
                    print(line, file=sys.stderr)


#: The tied circles k=3 input: 560 configurations in 192 symmetry orbits.
TIED_CASE = ("circles", 3, (0, 0, 1, 1, 2, 2))
TIED_EXPECTED_INTERACTIONS = "335/14"


class ExactAnalysis:
    """Rational exact analysis of every golden case plus the tied k=3 input."""

    name = "exact-analysis"
    #: The smoke size keeps the golden cases that solve in milliseconds.
    sizes = {"full": {"max_agents": None}, "smoke": {"max_agents": 5, "max_colors": 2}}
    #: A pass takes seconds and compiles in set-up; nothing lazy is left to warm.
    warm_up_passes = 0

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.params = self.sizes[size]
        self.seed = seed
        self.cases: list[tuple[str, int, tuple[int, ...]]] = []
        self.golden: dict[tuple, dict] = {}
        self._pairs: dict[tuple, int] = {}

    def setup(self) -> None:
        import repro  # noqa: F401
        from repro.exact.golden import GOLDEN_CASES, case_filename

        cases = list(GOLDEN_CASES)
        if self.params["max_agents"] is None:
            cases.append(TIED_CASE)
        else:
            cases = [
                case
                for case in cases
                if len(case[2]) <= self.params["max_agents"] and case[1] <= self.params["max_colors"]
            ]
        # The inputs are fixed; the seed only orders them.
        random.Random(self.seed).shuffle(cases)
        self.cases = cases
        for case in cases:
            if case != TIED_CASE:
                path = ROOT / "tests" / "golden" / case_filename(*case)
                self.golden[case] = json.loads(path.read_text(encoding="utf-8"))
        _compile(sorted({(name, k) for name, k, _ in cases}))

    def run_pass(self, index: int, tracer=None) -> PassResult:
        from repro.exact.engine import ExactMarkovEngine
        from repro.exact.golden import REGENERATE, case_criterion
        from repro.protocols.registry import get_protocol

        wall = 0.0
        problems: list[str] = []
        interactions = 0
        counts = {"exact.configurations": 0, "exact.orbits": 0, "exact.transient_states": 0}
        for case in self.cases:
            name, k, colors = case
            start = time.perf_counter()
            engine = ExactMarkovEngine.from_colors(
                get_protocol(name, k), colors, arithmetic="exact"
            )
            engine.run(0, criterion=case_criterion(name))
            wall += time.perf_counter() - start
            result = engine.distribution_result
            counts["exact.configurations"] += result.num_configurations
            counts["exact.orbits"] += (
                result.num_orbits if result.num_orbits is not None else result.num_configurations
            )
            counts["exact.transient_states"] += result.num_transient
            interactions += self._pair_evaluations(case, engine.chain)
            payload = json.loads(
                json.dumps(
                    {
                        "regenerate": REGENERATE,
                        "protocol": name,
                        "k": k,
                        "colors": list(colors),
                        **result.to_dict(),
                    }
                )
            )
            if case == TIED_CASE:
                ok = (
                    payload["expected_interactions_exact"] == TIED_EXPECTED_INTERACTIONS
                    and (payload["num_configurations"], payload["num_orbits"]) == (560, 192)
                )
            else:
                ok = payload == self.golden[case]
            if not ok:
                problems.append(f"{name} k={k} colors={colors}: differs from its reference")
        return PassResult(
            wall_s=wall,
            runs=len(self.cases),
            interactions=interactions,
            attempted=len(self.cases),
            failed=len(problems),
            latencies_s=[wall],
            timed_s=wall,
            counts=counts,
            problems=problems,
        )

    def _pair_evaluations(self, case, chain) -> int:
        """Ordered present-state pairs the chain's BFS evaluates δ on."""
        if case not in self._pairs:
            self._pairs[case] = sum(
                len(key) ** 2 - sum(1 for _, count in key if count == 1) for key in chain.keys
            )
        return self._pairs[case]

    def final_check(self) -> PassResult | None:
        return None

    def close(self) -> None:
        pass


WORKLOADS = {
    workload.name: workload
    for workload in (GridSmallN, ReplicatesLargeN, ServiceCache, ExactAnalysis)
}
