"""The HTTP sweep service end to end: stream, cache, status, submit CLI.

Each test class boots a real ``ThreadingHTTPServer`` on an ephemeral port in
a daemon thread and talks to it with ``urllib`` — the same stack the submit
CLI uses — so the close-delimited streaming behavior is exercised for real.
"""

import dataclasses
import json
import socket
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.api.executor import execute_run
from repro.api.records import RunRecord
from repro.api.spec import RunSpec, SweepSpec
from repro.api.stopping import StoppingRule
from repro.service import serve as serve_module
from repro.service.serve import SweepService, envelope_line, serve
from repro.service.store import ResultStore
from repro.service.submit import main as submit_main


def small_sweep() -> SweepSpec:
    return SweepSpec(
        name="serve-demo",
        protocols=("circles",),
        populations=(8, 10),
        ks=(2,),
        engines=("batch",),
        trials=2,
        seed=23,
        max_steps_quadratic=200,
    )


@pytest.fixture()
def service(tmp_path):
    return SweepService(ResultStore(tmp_path / "store"), workers=2, retries=1)


@pytest.fixture()
def server(service):
    httpd = serve(service, "127.0.0.1", 0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


def post_lines(url: str, route: str, payload: dict) -> list[dict]:
    request = urllib.request.Request(
        url + route,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return [json.loads(line) for line in response if line.strip()]


def get_json(url: str, route: str) -> dict:
    with urllib.request.urlopen(url + route) as response:
        return json.loads(response.read().decode("utf-8"))


class TestSweepStreaming:
    def test_submit_then_resubmit_is_pure_cache(self, server, service):
        sweep = small_sweep()
        first = post_lines(server, "/sweep", sweep.to_dict())
        assert len(first) == len(sweep)
        assert all(not envelope["cached"] for envelope in first)
        assert sorted(envelope["index"] for envelope in first) == list(range(len(sweep)))

        second = post_lines(server, "/sweep", sweep.to_dict())
        assert len(second) == len(sweep)
        assert all(envelope["cached"] for envelope in second)

        # Record payloads are identical between the computed and cached pass.
        by_index = lambda envs: {e["index"]: e["record"] for e in envs}  # noqa: E731
        assert by_index(first) == by_index(second)

        # Envelopes decode to real records whose spec SHA matches the envelope.
        record = RunRecord.from_dict(first[0]["record"])
        assert record.spec.sha() == first[0]["sha"]

    def test_status_reflects_cache_and_manifests(self, server, service):
        sweep = small_sweep()
        post_lines(server, "/sweep", sweep.to_dict())
        status = get_json(server, "/status")
        assert status["queue_depth"] == 0
        assert status["active_sweeps"] == {}
        assert status["completed_sweeps"] == 1
        assert status["completed_runs"] == len(sweep)
        assert status["cache"]["loaded"] == len(sweep)
        [progress] = status["sweeps"]
        assert progress["done"] == progress["total"] == len(sweep)

        post_lines(server, "/sweep", sweep.to_dict())
        status = get_json(server, "/status")
        assert status["cache"]["hits"] >= len(sweep)

    def test_single_run_route(self, server, service):
        spec = RunSpec(protocol="circles", n=8, k=2, engine="batch", seed=3,
                       max_steps=2_000)
        [envelope] = post_lines(server, "/run", spec.to_dict())
        assert not envelope["cached"]
        assert RunRecord.from_dict(envelope["record"]) == execute_run(spec)

        [again] = post_lines(server, "/run", spec.to_dict())
        assert again["cached"]
        assert again["record"] == envelope["record"]


    def test_warm_post_counts_every_hit(self, server, service):
        sweep = small_sweep()
        post_lines(server, "/sweep", sweep.to_dict())
        store = service.store
        assert (store.hits, store.misses) == (0, len(sweep))
        post_lines(server, "/sweep", sweep.to_dict())
        assert (store.hits, store.misses) == (len(sweep), len(sweep))
        assert get_json(server, "/status")["cache"]["hit_rate"] == 0.5

    def test_warm_sweep_streams_in_one_batch(self, service):
        """A fully cached sweep is one batch of envelopes (one write, one
        flush); a cold one arrives chunk by chunk."""
        sweep = small_sweep()
        cold = list(service.stream_batches(sweep))
        assert sum(len(batch) for batch in cold) == len(sweep)
        [warm] = list(service.stream_batches(sweep))
        assert sorted(index for index, _record, _cached in warm) == list(range(len(sweep)))
        assert all(cached for _index, _record, cached in warm)

    def test_partially_warm_sweep_streams_correct_cached_flags(self, server, service):
        # The first two trials of each cell are spec-identical to a
        # trials=2 sweep, so they are stored; the other two are not.
        post_lines(server, "/sweep", small_sweep().to_dict())
        wider = SweepSpec(**{**small_sweep().to_dict(), "trials": 4})
        lines = post_lines(server, "/sweep", wider.to_dict())
        assert sorted(envelope["index"] for envelope in lines) == list(range(len(wider)))
        stored = {spec.sha() for spec in small_sweep().expand()}
        for envelope in lines:
            assert envelope["cached"] is (envelope["sha"] in stored)
        assert sum(envelope["cached"] for envelope in lines) == len(small_sweep())
        specs = wider.expand()
        for envelope in lines:
            assert envelope["sha"] == specs[envelope["index"]].sha()
            assert RunRecord.from_dict(envelope["record"]) == execute_run(specs[envelope["index"]])

    def test_envelope_is_json_dumps_of_the_envelope_dict(self):
        spec = RunSpec(protocol="circles", n=8, k=2, engine="batch", seed=3, max_steps=2_000)
        record = execute_run(spec)
        for index, cached in ((0, False), (17, True)):
            envelope = {"index": index, "cached": cached, "sha": spec.sha(),
                        "record": record.to_dict()}
            line = envelope_line(index, cached, spec.sha(), record.to_json())
            assert line == json.dumps(envelope) + "\n"


class TestConcurrentSubmissions:
    def test_overlapping_identical_streams_keep_their_own_progress(self):
        """Two submissions of one sweep in flight at once: the first to
        finish must not take the other's progress with it."""
        service = SweepService(None, workers=1, executor="serial")
        sweep = small_sweep()
        first = service.stream_batches(sweep)
        second = service.stream_batches(sweep)
        events = [*next(first), *next(second)]
        status = service.status()
        [(sha, active)] = status["active_sweeps"].items()
        assert sha == sweep.sha() and active["name"] == sweep.name
        assert (active["total"], active["submissions"], active["cached"]) == (
            2 * len(sweep), 2, 0
        )
        # Without a store each submission streams all its runs in one batch;
        # both generators are still open, so both submissions stay active.
        assert active["done"] == 2 * len(sweep)
        assert status["queue_depth"] == active["total"] - active["done"]
        events += [event for batch in first for event in batch]
        remaining = service.status()["active_sweeps"][sweep.sha()]
        assert (remaining["submissions"], remaining["done"]) == (1, len(sweep))
        events += [event for batch in second for event in batch]
        assert len(events) == 2 * len(sweep)
        status = service.status()
        assert status["active_sweeps"] == {} and status["queue_depth"] == 0
        assert status["completed_sweeps"] == 2
        assert status["completed_runs"] == 2 * len(sweep)


    def test_one_executor_serves_concurrent_submissions(self):
        """More submitting threads than cores share the service's executor;
        each stream must still carry exactly its sweep's records."""
        service = SweepService(None, workers=2)
        sweeps = [dataclasses.replace(small_sweep(), seed=seed) for seed in range(4)]
        streamed: dict[int, dict[int, RunRecord]] = {}

        def submit(number: int) -> None:
            streamed[number] = {
                index: record
                for batch in service.stream_batches(sweeps[number])
                for index, record, _cached in batch
            }

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=submit, args=(n,)) for n in range(len(sweeps))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for number, sweep in enumerate(sweeps):
            expected = [execute_run(spec) for spec in sweep.expand()]
            assert [streamed[number][i] for i in range(len(sweep))] == expected
        assert service.status()["completed_runs"] == 4 * len(small_sweep())


class TestRecordTexts:
    """A warm POST serves the body the cold POST kept: no record is encoded."""

    def test_warm_post_encodes_no_record(self, server, service, monkeypatch):
        sweep = small_sweep()
        cold = post_lines(server, "/sweep", sweep.to_dict())
        encoded = []
        to_json = RunRecord.to_json
        monkeypatch.setattr(
            RunRecord, "to_json", lambda self, indent=None: encoded.append(1) or to_json(self, indent)
        )
        warm = post_lines(server, "/sweep", sweep.to_dict())
        assert encoded == []
        assert sorted((e["index"], e["record"]) for e in warm) == sorted(
            (e["index"], e["record"]) for e in cold
        )


def post_raw(url: str, route: str, payload: dict) -> tuple[str | None, bytes]:
    """One POST round trip: ``(Content-Length header or None, body bytes)``."""
    request = urllib.request.Request(
        url + route,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return response.headers.get("Content-Length"), response.read()


def seeded_sweep(seed: int) -> SweepSpec:
    return dataclasses.replace(small_sweep(), seed=seed)


class TestKeptBodies:
    """A POST that leaves a fixed sweep complete keeps its all-cached body;
    later POSTs of the sweep get those bytes in one write."""

    def test_kept_body_is_the_streamed_warm_body_byte_for_byte(self, server, service):
        sweep = small_sweep()
        length, cold = post_raw(server, "/sweep", sweep.to_dict())
        assert length is None
        length, kept = post_raw(server, "/sweep", sweep.to_dict())
        assert length == str(len(kept))
        streamed = b"".join(service.sweep_body(sweep))
        assert kept == streamed
        by_index = sorted(cold.splitlines(keepends=True), key=lambda line: json.loads(line)["index"])
        flipped = b"".join(
            line.replace(b'"cached": false', b'"cached": true', 1) for line in by_index
        )
        assert kept == flipped

    def test_counters_read_as_on_the_streaming_path(self, server, service, tmp_path, monkeypatch):
        """Cold + 3 warm POSTs count the same hits, misses and completions
        whether the warm POSTs are kept bodies or streams."""
        sweep = small_sweep()

        def counters(target: SweepService) -> tuple:
            status = target.status()
            return (target.store.hits, target.store.misses,
                    status["completed_runs"], status["completed_sweeps"])

        lengths = [post_raw(server, "/sweep", sweep.to_dict())[0] for _ in range(4)]
        assert lengths[0] is None and None not in lengths[1:]
        kept = counters(service)

        monkeypatch.setattr(serve_module, "KEPT_RUNS", 0)
        streaming = SweepService(ResultStore(tmp_path / "streaming"), workers=2, retries=1)
        for _ in range(4):
            assert sum(len(chunk) for chunk in streaming.sweep_body(sweep))
        assert kept == counters(streaming) == (3 * len(sweep), len(sweep), 4 * len(sweep), 4)
        assert get_json(server, "/status")["cache"]["hit_rate"] == 0.75

    def test_a_response_that_leaves_the_sweep_incomplete_keeps_nothing(self, server, service):
        """Three replicate groups run in two executor rounds on two workers.
        The second round fails: the first round's four runs are stored,
        nothing is kept, and the next POST finishes the sweep and keeps it."""
        sweep = dataclasses.replace(small_sweep(), populations=(8, 10, 12))
        map_groups = service.executor.map_groups
        rounds = []

        def failing_second_round(groups):
            rounds.append(groups)
            if len(rounds) == 2:
                raise RuntimeError("lost worker")
            return map_groups(groups)

        service.executor.map_groups = failing_second_round
        lines = post_lines(server, "/sweep", sweep.to_dict())
        assert "lost worker" in lines[-1]["error"]
        assert not service.store.held_manifest(sweep).complete
        assert service.kept_body(sweep) is None

        service.executor.map_groups = map_groups
        length, body = post_raw(server, "/sweep", sweep.to_dict())
        assert length is None
        assert sorted(json.loads(line)["cached"] for line in body.splitlines()) == [
            False, False, True, True, True, True
        ]
        length, kept = post_raw(server, "/sweep", sweep.to_dict())
        assert length == str(len(kept))

    def test_a_closed_stream_keeps_nothing(self, service):
        sweep = small_sweep()
        chunks = service.sweep_body(sweep)
        next(chunks)
        chunks.close()
        assert service.kept_body(sweep) is None

    def test_a_sweep_over_the_budget_is_never_kept(self, server, service, monkeypatch):
        sweep = small_sweep()
        monkeypatch.setattr(serve_module, "KEPT_RUNS", len(sweep) - 1)
        for cached in (False, True, True):
            length, body = post_raw(server, "/sweep", sweep.to_dict())
            assert length is None
            assert {json.loads(line)["cached"] for line in body.splitlines()} == {cached}
        assert service.kept_body(sweep) is None

    def test_kept_bodies_go_least_recently_served_first(self, server, service, monkeypatch):
        first, second, third = (seeded_sweep(seed) for seed in (1, 2, 3))
        monkeypatch.setattr(serve_module, "KEPT_RUNS", 2 * len(first))

        def kept(sweep: SweepSpec) -> bool:
            return post_raw(server, "/sweep", sweep.to_dict())[0] is not None

        assert not kept(first) and not kept(second)
        assert kept(first)  # first is now the most recently served
        assert not kept(third)  # keeps third, evicts second
        assert kept(first) and kept(third)
        assert not kept(second)  # keeps second, evicts first
        assert kept(third) and kept(second)
        assert not kept(first)

    def test_adaptive_sweeps_still_stream(self, server, service):
        sweep = SweepSpec(
            protocols=("circles",),
            populations=(8,),
            ks=(2,),
            engines=("batch",),
            trials="auto",
            stopping=StoppingRule(
                metric="correct", proportion=True, target_half_width=0.3,
                min_trials=2, batch_size=2, max_trials=8,
            ),
            seed=23,
            max_steps_quadratic=200,
        )
        for cached in (False, True):
            length, body = post_raw(server, "/sweep", sweep.to_dict())
            assert length is None
            *records, stopping = [json.loads(line) for line in body.splitlines()]
            assert records and all(e["cached"] is cached for e in records)
            assert "stopping" in stopping
        assert service.kept_body(sweep) is None

    def test_single_runs_still_stream(self, server):
        spec = RunSpec(protocol="circles", n=8, k=2, engine="batch", seed=3, max_steps=2_000)
        for cached in (False, True):
            length, body = post_raw(server, "/run", spec.to_dict())
            assert length is None
            assert json.loads(body)["cached"] is cached


class TestErrorHandling:
    def test_bad_spec_is_a_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_lines(server, "/sweep", {"definitely": "not a sweep"})
        assert excinfo.value.code == 400
        assert "bad spec" in json.loads(excinfo.value.read().decode("utf-8"))["error"]

    @pytest.mark.parametrize("engine", ["configuration", "nope"])
    @pytest.mark.parametrize("route", ["/sweep", "/run"])
    def test_unknown_engine_is_a_400_before_the_stream(self, server, service, route, engine):
        """An unknown engine name is a bad spec, not a run that fails after retries."""
        if route == "/sweep":
            payload = dataclasses.replace(small_sweep(), engines=("batch", engine)).to_dict()
        else:
            payload = RunSpec(protocol="circles", n=8, k=2, engine=engine, seed=3).to_dict()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_lines(server, route, payload)
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read().decode("utf-8"))["error"]
        assert error.startswith("bad spec") and repr(engine) in error and "batch" in error
        status = service.status()
        assert status["cache"]["misses"] == 0 and status["sweeps"] == []

    @pytest.mark.parametrize(
        "field, name",
        [
            ("protocol", "no-such-protocol"),
            ("workload", "no-such-workload"),
            ("scheduler", "no-such-scheduler"),
            ("criterion", "no-such-criterion"),
            ("observers", "no-such-observer"),
        ],
    )
    @pytest.mark.parametrize("route", ["/sweep", "/run"])
    def test_unknown_names_are_a_400_before_the_stream(
        self, server, service, route, field, name
    ):
        """Every registry name a submission carries resolves before the stream."""
        if route == "/sweep":
            payload = small_sweep().to_dict()
            axis = field if field in ("criterion", "observers") else field + "s"
        else:
            payload = RunSpec(protocol="circles", n=8, k=2, engine="batch", seed=3).to_dict()
            axis = field
        payload[axis] = [name] if axis.endswith("s") else name
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_lines(server, route, payload)
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read().decode("utf-8"))["error"]
        assert error.startswith("bad spec") and repr(name) in error
        status = service.status()
        assert status["cache"]["misses"] == 0 and status["sweeps"] == []

    @pytest.mark.parametrize("compiled", [None, True, False])
    def test_a_compiled_key_is_a_400(self, server, service, compiled):
        """Specs have no ``compiled`` field; a body carrying one, ``null``
        included, is an unknown-field 400."""
        payload = RunSpec(protocol="circles", n=8, k=2, engine="batch", seed=3).to_dict()
        payload["compiled"] = compiled
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_lines(server, "/run", payload)
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read().decode("utf-8"))["error"]
        assert error.startswith("bad spec") and "'compiled'" in error
        assert service.status()["cache"]["misses"] == 0

    @pytest.mark.parametrize("route", ["/sweep", "/run"])
    def test_a_runner_key_is_a_400(self, server, service, route):
        """Every run goes one way, so no submission names a runner; a body
        carrying ``runner``, the old default value included, is an
        unknown-field 400."""
        if route == "/sweep":
            payload = small_sweep().to_dict()
        else:
            payload = RunSpec(protocol="circles", n=8, k=2, engine="batch", seed=3).to_dict()
        payload["runner"] = "protocol"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_lines(server, route, payload)
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read().decode("utf-8"))["error"]
        assert error.startswith("bad spec") and "'runner'" in error
        assert service.status()["cache"]["misses"] == 0

    def test_unknown_routes_are_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(server, "/nope")
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_lines(server, "/nope", {})
        assert excinfo.value.code == 404

    def test_negative_content_length_is_a_400_before_reading(self, server):
        """``rfile.read(-1)`` would block until the client hangs up."""
        host, port = server.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=3) as connection:
            connection.sendall(b"POST /run HTTP/1.0\r\nContent-Length: -1\r\n\r\n{}")
            with connection.makefile("rb") as stream:
                response = stream.read()
        status_line, _, body = response.partition(b"\r\n")
        assert status_line.split()[1] == b"400"
        assert b"Content-Length must be non-negative" in body

    def test_runtime_failure_is_reported_in_band(self, server):
        """Protocol parameters the factory rejects pass spec parsing and name
        resolution but fail at execution; the error arrives as a JSON line
        inside the 200 stream."""
        spec = RunSpec(protocol="circles", n=8, k=2, seed=3, protocol_params={"no_such": 1})
        lines = post_lines(server, "/run", spec.to_dict())
        assert any("error" in line for line in lines)


class TestBadSettings:
    """The executor is built with the service: bad settings fail at once."""

    @pytest.mark.parametrize(
        "settings, error",
        [
            ({"workers": 0}, ValueError),
            ({"workers": 0, "executor": "serial"}, ValueError),
            ({"executor": "nope"}, KeyError),
            ({"timeout": -1.0}, ValueError),
            ({"retries": -1}, ValueError),
        ],
    )
    def test_construction_raises(self, settings, error):
        with pytest.raises(error):
            SweepService(None, **settings)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--workers", "0"], "workers must be a positive"),
            (["--executor", "nope"], "unknown executor 'nope'"),
            (["--timeout", "-1"], "timeout must be positive"),
        ],
    )
    def test_serve_reports_a_usage_error(self, monkeypatch, capsys, argv, message):
        monkeypatch.setattr(
            serve_module, "serve", lambda *args: pytest.fail("the server must not start")
        )
        with pytest.raises(SystemExit) as excinfo:
            serve_module.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and message in err

    def test_one_executor_serves_every_submission(self, monkeypatch):
        service = SweepService(None, workers=2)
        calls = []
        map_groups = service.executor.map_groups
        monkeypatch.setattr(
            service.executor, "map_groups", lambda groups: calls.append(1) or map_groups(groups)
        )
        sweep = small_sweep()
        assert [e for batch in service.stream_batches(sweep) for e in batch]
        spec = sweep.expand()[0]
        assert service.execute_single(spec) == (execute_run(spec), False)
        assert len(calls) == 2


class TestSubmitCLI:
    def test_sweep_round_trip_and_output_file(self, server, tmp_path, capsys):
        sweep = small_sweep()
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(sweep.to_json())
        out_path = tmp_path / "records.jsonl"

        code = submit_main([str(spec_path), "--url", server, "-o", str(out_path)])
        assert code == 0
        captured = capsys.readouterr()
        stdout_lines = [json.loads(l) for l in captured.out.splitlines() if l.strip()]
        assert len(stdout_lines) == len(sweep)
        assert f"{len(sweep)} record(s)" in captured.err
        saved = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert saved == stdout_lines

        # Resubmit quietly: everything cached, summary only.
        code = submit_main([str(spec_path), "--url", server, "-q"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"({len(sweep)} cached, 0 computed)" in captured.err

    def test_run_spec_autodetected(self, server, tmp_path, capsys):
        spec = RunSpec(protocol="circles", n=8, k=2, engine="batch", seed=3,
                       max_steps=2_000)
        spec_path = tmp_path / "run.json"
        spec_path.write_text(spec.to_json())
        assert submit_main([str(spec_path), "--url", server]) == 0
        captured = capsys.readouterr()
        [envelope] = [json.loads(l) for l in captured.out.splitlines() if l.strip()]
        assert envelope["sha"] == spec.sha()

    def test_in_stream_error_exits_nonzero(self, server, tmp_path, capsys):
        spec = RunSpec(protocol="circles", n=8, k=2, seed=3, protocol_params={"no_such": 1})
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(spec.to_json())
        assert submit_main([str(spec_path), "--run", "--url", server]) == 1
        assert "server error" in capsys.readouterr().err


class TestServiceWithoutStore:
    def test_storeless_service_recomputes(self):
        service = SweepService(None, workers=1, executor="serial")
        sweep = small_sweep()
        events = [event for batch in service.stream_batches(sweep) for event in batch]
        assert len(events) == len(sweep)
        assert all(not cached for _i, _r, cached in events)
        status = service.status()
        assert status["cache"] is None
        assert status["completed_runs"] == len(sweep)

    def test_storeless_service_keeps_no_body(self):
        service = SweepService(None, workers=1, executor="serial")
        sweep = small_sweep()
        assert len(b"".join(service.sweep_body(sweep)).splitlines()) == len(sweep)
        assert service.kept_body(sweep) is None
