#!/usr/bin/env python3
"""The sweep service: simulate once, serve forever.

Every run is a pure function of its :class:`~repro.api.spec.RunSpec`, so a
completed record can be cached under the spec's content address (SHA-256 of
the canonical spec JSON) and served to every later request — across
processes, across restarts.  This demo exercises the whole service stack
in-process:

1. run a sweep through a :class:`~repro.service.ResultStore` (cold: every
   run simulates; the store persists records and a resume manifest),
2. re-run the identical sweep (warm: pure cache, zero simulations),
3. simulate a crash mid-sweep and resume from the manifest,
4. submit the same sweep to a real HTTP service (``repro.service.serve``)
   and stream the records back over the wire.

Run with:  python examples/service_demo.py
"""

import json
import tempfile
import threading
import urllib.request
from pathlib import Path

from repro import ResultStore, SweepSpec
from repro.api.executor import SerialExecutor, SweepRunner
from repro.service.serve import SweepService, serve

POPULATIONS = (16, 24)  # sweep axes — small enough to finish in seconds
TRIALS = 3


def demo_sweep() -> SweepSpec:
    return SweepSpec(
        name="service-demo",
        protocols=("circles", "cancellation-plurality"),
        populations=POPULATIONS,
        ks=(3,),
        engines=("batch",),
        trials=TRIALS,
        seed=42,
        max_steps_quadratic=200,
    )


class CountingExecutor:
    """Serial execution that counts actual simulations (to show cache hits)."""

    def __init__(self) -> None:
        self.executed = 0

    def map_groups(self, groups):
        self.executed += sum(len(group) for group in groups)
        return SerialExecutor().map_groups(groups)


def main() -> None:
    sweep = demo_sweep()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "results"

        # --- 1. cold run: everything simulates, everything persists ----------
        store = ResultStore(root)
        counting = CountingExecutor()
        cold = SweepRunner(store=store, executor=counting).run(sweep)
        print(f"cold run   : {counting.executed} of {len(sweep)} runs simulated")

        # --- 2. warm run: pure cache, bit-identical records -------------------
        store = ResultStore(root)  # a fresh process would see exactly this
        counting = CountingExecutor()
        warm = SweepRunner(store=store, executor=counting).run(sweep)
        print(f"warm run   : {counting.executed} simulated, "
              f"{store.hits} served from cache")
        print(f"identical  : {warm.records == cold.records}")

        # --- 3. kill and resume ----------------------------------------------
        crash_sweep = SweepSpec(**{**sweep.to_dict(), "name": "crashy", "seed": 77})

        class DieAfter:
            """Crashes after ``survive`` checkpointed units (replicate groups)."""

            def __init__(self, survive):
                self.survive, self.calls, self.runs = survive, 0, 0

            def map_groups(self, groups):
                if self.calls >= self.survive:
                    raise KeyboardInterrupt("simulated kill")
                self.calls += 1
                self.runs += sum(len(group) for group in groups)
                return SerialExecutor().map_groups(groups)

        crashing = DieAfter(2)
        try:
            SweepRunner(store=ResultStore(root), executor=crashing).run(crash_sweep)
        except KeyboardInterrupt:
            pass
        resumed_store = ResultStore(root)
        counting = CountingExecutor()
        SweepRunner(store=resumed_store, executor=counting).run(crash_sweep)
        print(f"resume     : crash after {crashing.runs} runs; restart "
              f"simulated only {counting.executed} of {len(crash_sweep)}")

        # --- 4. the same thing over HTTP --------------------------------------
        service = SweepService(ResultStore(root), executor="serial")
        httpd = serve(service, "127.0.0.1", 0)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            request = urllib.request.Request(
                f"{url}/sweep", data=sweep.to_json().encode(), method="POST",
                headers={"Content-Type": "application/json"},
            )
            cached = 0
            with urllib.request.urlopen(request) as response:
                for line in response:  # NDJSON, one record as each run finishes
                    cached += json.loads(line)["cached"]
            with urllib.request.urlopen(f"{url}/status") as response:
                status = json.loads(response.read())
            print(f"HTTP sweep : {cached}/{len(sweep)} envelopes served from cache")
            print(f"/status    : hit rate {status['cache']['hit_rate']:.0%}, "
                  f"{status['cache']['loaded']} records loaded")
        finally:
            httpd.shutdown()
            httpd.server_close()


if __name__ == "__main__":
    main()
