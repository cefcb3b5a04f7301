"""Re-pin evidence: every pinned payload computed in two trees, compared pin by pin.

A change that moves a pinned digest re-pins it with a reason.  This script
produces the evidence for that reason: it computes the payload behind every
pin (the records, spec, trajectory or table text the pinned digest is taken
of) once under a parent checkout and once under this one, and reports per
pin one of

* ``same`` — the payloads are equal;
* ``differs only by keys K`` — the payloads are equal once the dictionary
  keys ``K``, present in one tree and absent in the other, are dropped at
  every depth;
* ``differs`` — anything else.

Structured payloads (records, specs) travel as JSON and are compared by
:func:`classify`.  Trajectory payloads are ``repr`` texts that can run to
megabytes; they travel as their SHA-256 and byte count, so they can only be
``same`` or ``differs``.  Each tree computes its payloads with its own
``src/`` and its own pin-test helpers, imported from its ``tests/``; the
report also says whether each tree's own pin still holds there.  The script
writes no pin.  Where two trees' draws part is not reported: a change that
moves a draw brings its own first-divergence argument.

Usage, from this checkout, with the parent checked out in a scratch
directory (``git worktree add --detach /tmp/parent HEAD~1``, or a
``git archive`` copy)::

    python tests/pin_evidence.py /tmp/parent
    python tests/pin_evidence.py /tmp/parent --tables PINNED PINNED_ROUND_TRIPS
    python tests/pin_evidence.py /tmp/old /tmp/new --tables PINNED

``KERNEL_DIGESTS`` is collected twice per tree, once with numpy and once
with ``numpy`` blocked from import, for its two pins.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# --------------------------------------------------------------------------- #
# classification
# --------------------------------------------------------------------------- #


class _Differs(Exception):
    """The payloads differ beyond dictionary keys one side lacks."""


def _extra_keys(first, second, keys: set[str]) -> None:
    if isinstance(first, dict) and isinstance(second, dict):
        keys.update(str(key) for key in first.keys() ^ second.keys())
        for key in first.keys() & second.keys():
            _extra_keys(first[key], second[key], keys)
    elif isinstance(first, list) and isinstance(second, list):
        if len(first) != len(second):
            raise _Differs
        for left, right in zip(first, second):
            _extra_keys(left, right, keys)
    elif type(first) is not type(second) or first != second:
        raise _Differs


def classify(parent, child) -> str:
    """``"same"``, ``"differs only by keys a, b"`` or ``"differs"`` for two JSON values."""
    keys: set[str] = set()
    try:
        _extra_keys(parent, child, keys)
    except _Differs:
        return "differs"
    return f"differs only by keys {', '.join(sorted(keys))}" if keys else "same"


# --------------------------------------------------------------------------- #
# collection (runs inside one tree, with that tree's src/ on the path)
# --------------------------------------------------------------------------- #


class _CapturingHashlib:
    """Stands in for a pin module's ``hashlib`` and keeps what it hashes."""

    def __init__(self) -> None:
        self.inputs: list[bytes] = []

    def sha256(self, data: bytes = b""):
        self.inputs.append(data)
        return hashlib.sha256(data)


def _text(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def _json(value):
    """``value`` as JSON data; ``repr`` for the odd non-JSON protocol param."""
    return json.loads(json.dumps(value, default=repr))


class _Tree:
    def __init__(self, root: Path) -> None:
        self.root = root
        self._modules: dict[str, object] = {}

    def module(self, relative: str):
        """A test module of this tree, imported by path (tests are no package)."""
        if relative not in self._modules:
            name = "pin_" + relative.replace("/", "_").removesuffix(".py")
            spec = importlib.util.spec_from_file_location(name, self.root / relative)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            self._modules[relative] = module
        return self._modules[relative]

    def captured(self, relative: str, call):
        """``call()``'s result and the bytes ``relative``'s helpers hashed meanwhile."""
        module, capture = self.module(relative), _CapturingHashlib()
        with self.patched(module, hashlib=capture):
            result = call(module)
        return result, capture.inputs

    @contextlib.contextmanager
    def uncompiled(self):
        """The tree's ``force_uncompiled`` fixture, without pytest."""
        import repro.compile

        with self.patched(repro.compile, compile_or_intern=self.module("conftest.py")._intern_only):
            yield

    @staticmethod
    @contextlib.contextmanager
    def patched(target, **values):
        """``target``'s attributes set to ``values`` for the block, then restored."""
        saved = {name: getattr(target, name) for name in values}
        for name, value in values.items():
            setattr(target, name, value)
        try:
            yield
        finally:
            for name, value in saved.items():
                setattr(target, name, value)


def _pin(payload, digest, pinned=None) -> dict:
    return {"payload": payload, "digest": digest, "pinned": pinned}


def _record_digests(tree: _Tree, table: str) -> dict:
    path = "tests/api/test_record_digests.py"
    module = tree.module(path)
    pins = {}
    if table == "DIGESTS":
        for grid, pinned in module.DIGESTS.items():
            records = module.grid_records(grid)
            payload = module._rounded([record.to_dict() for record in records])
            pins[f"DIGESTS[{grid}]"] = _pin(_json(payload), module._digest(records), pinned)
    elif table == "KERNEL_DIGESTS":
        records = module.grid_records("kernel")
        payload = module._rounded([record.to_dict() for record in records])
        key = module.HAS_NUMPY
        pins[f"KERNEL_DIGESTS[{key}]"] = _pin(
            _json(payload), module._digest(records), module.KERNEL_DIGESTS[key]
        )
    else:
        from repro.api.executor import execute_run
        from repro.api.spec import RunSpec, canonical_json

        record = execute_run(RunSpec(protocol="circles", n=4, k=2, engine="exact", seed=1))
        text = canonical_json(record.to_dict())
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        pins["FLOAT_EXACT_DIGEST"] = _pin(_json(record.to_dict()), digest, module.FLOAT_EXACT_DIGEST)
    return pins


def _spec_shas(tree: _Tree, table: str) -> dict:
    module = tree.module("tests/api/test_spec.py")
    if table == "GOLDEN_SWEEP_SHA":
        sweep = module.GOLDEN_SWEEP
        return {table: _pin(_json(sweep.to_dict()), sweep.sha(), module.GOLDEN_SWEEP_SHA)}
    return {
        f"GOLDEN_SHAS[{name}]": _pin(_json(spec.to_dict()), spec.sha(), module.GOLDEN_SHAS[name])
        for name, spec in module.GOLDEN_SPECS.items()
    }


def _pool_trajectories(tree: _Tree, table: str) -> dict:
    import repro.simulation.batch_engine as batch_engine

    path = "tests/simulation/test_pool_trajectories.py"
    module = tree.module(path)
    pins = {}
    for key, pinned in getattr(module, table).items():
        protocol_name, n, interval = key.split("/")
        n, interval = int(n.removeprefix("n=")), interval.removeprefix("interval=")
        force = None
        if table == "PINNED_ROUND_TRIPS":
            def force(enter, leave):
                batch_engine.SPARSE_ENTER_LOAD = enter
                batch_engine.SPARSE_LEAVE_LOAD = leave

        with tree.patched(
            batch_engine,
            SPARSE_ENTER_LOAD=batch_engine.SPARSE_ENTER_LOAD,
            SPARSE_LEAVE_LOAD=batch_engine.SPARSE_LEAVE_LOAD,
        ):
            digest, inputs = tree.captured(
                path, lambda mod: mod.trajectory(protocol_name, n, interval, force)
            )
        pins[f"{table}[{key}]"] = _pin(_text(inputs[-1]), digest, pinned)
    return pins


def _past_cap(tree: _Tree, table: str) -> dict:
    path = "tests/simulation/test_past_cap_trajectories.py"
    module = tree.module(path)
    pins = {}
    for key, pinned in getattr(module, table).items():
        name, k = key[0], key[1]
        forced = (name, k) in module.FORCED
        with tree.uncompiled() if forced else contextlib.nullcontext():
            if table == "ENGINE_PINS":
                n, interval = key[2], key[3]
                seed = (200 if forced else 100) + n + interval
                digests, texts = [], []
                for engine in ("BatchConfigurationSimulation", "VectorReplicateSimulation"):
                    digest, inputs = tree.captured(
                        path,
                        lambda mod: mod.engine_digest(
                            getattr(mod, engine), name, k, n, interval, seed
                        ),
                    )
                    digests.append(digest)
                    texts.append(_text(inputs[-1]))
                digest = digests[0] if len(set(digests)) == 1 else digests
                pins[f"ENGINE_PINS[{key}]"] = _pin(texts, digest, pinned)
            elif table == "RECORD_PINS":
                n, engine = key[2], key[3]
                text = module.record_json(module.run_spec(name, k, n, engine, 4 if forced else 3))
                pins[f"RECORD_PINS[{key}]"] = _pin(json.loads(text), module.digest(text), pinned)
            elif table == "GROUP_PINS":
                seeds = [4, 5, 6] if forced else [1, 2, 3]
                digest, inputs = tree.captured(
                    path, lambda mod: mod.group_digest(name, k, key[2], seeds)
                )
                rows, records = ast.literal_eval(inputs[-1].decode())
                pins[f"GROUP_PINS[{key}]"] = _pin(_json([rows, json.loads(records)]), digest, pinned)
            else:
                from repro.exact.chain import ConfigurationChain
                from repro.protocols.registry import get_protocol

                chain = ConfigurationChain.from_colors(get_protocol(name, k), [0, 0, 1, 2, 1])
                value = (
                    [repr(state) for state in chain.states],
                    chain.counts,
                    chain.weights,
                    chain.change_weights,
                )
                digest = module.digest(value)
                pins[f"CHAIN_PINS[{key}]"] = _pin(_text(repr(value).encode()), digest, pinned)
    return pins


def _experiments(tree: _Tree, table: str) -> dict:
    from repro.api.executor import run_sweep
    from repro.api.spec import canonical_json
    from repro.experiments import e3_correctness, e5_energy, e7_extensions

    if table == "E3_GREEDY_STALL":
        sweep = e3_correctness.empirical_sweep(("greedy-stall",), 18, 4, 2, 11)
        records = [record.to_dict() for record in run_sweep(sweep).records]
        text = canonical_json(records)
        return {table: _pin(_json(records), hashlib.sha256(text.encode()).hexdigest())}
    text = {
        "E3_TABLE": lambda: e3_correctness.run().to_text(),
        "E5_TABLE": lambda: e5_energy.run().to_text(),
        "E7_TABLE": lambda: e7_extensions.run(ks=(3,), num_agents=8, trials=2).to_text(),
    }[table]()
    return {table: _pin(text, hashlib.sha256(text.encode()).hexdigest())}


#: Pin table -> collector, in report order.
TABLES = {
    "DIGESTS": _record_digests,
    "KERNEL_DIGESTS": _record_digests,
    "FLOAT_EXACT_DIGEST": _record_digests,
    "GOLDEN_SHAS": _spec_shas,
    "GOLDEN_SWEEP_SHA": _spec_shas,
    "PINNED": _pool_trajectories,
    "PINNED_ROUND_TRIPS": _pool_trajectories,
    "ENGINE_PINS": _past_cap,
    "RECORD_PINS": _past_cap,
    "GROUP_PINS": _past_cap,
    "CHAIN_PINS": _past_cap,
    "E3_GREEDY_STALL": _experiments,
    "E3_TABLE": _experiments,
    "E5_TABLE": _experiments,
    "E7_TABLE": _experiments,
}


def collect(root: Path, tables: list[str]) -> dict:
    """Every pin of ``tables`` in the tree at ``root`` (whose src/ is imported)."""
    tree = _Tree(root)
    pins: dict = {}
    for table in tables:
        pins.update(TABLES[table](tree, table))
    return pins


# --------------------------------------------------------------------------- #
# orchestration
# --------------------------------------------------------------------------- #


def _collect_in(root: Path, tables: list[str], block_numpy: bool) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--collect", str(root), "--tables", *tables]
    if block_numpy:
        command.append("--block-numpy")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"collecting in {root} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _collect_tree(root: Path, tables: list[str]) -> dict:
    pins = _collect_in(root, tables, block_numpy=False)
    if "KERNEL_DIGESTS" in tables:
        pins.update(_collect_in(root, ["KERNEL_DIGESTS"], block_numpy=True))
    return pins


def _holds(pin: dict) -> str:
    if pin["pinned"] is None:
        return "-"
    return "holds" if pin["digest"] == pin["pinned"] else "stale"


def report(parent: dict, child: dict) -> list[str]:
    """One line per pin, ``id: verdict (parent pin …, child pin …)``, then one tally per table."""
    lines, tallies = [], {}
    for pin_id in sorted(parent.keys() | child.keys(), key=lambda p: (list(TABLES).index(p.split("[")[0]), p)):
        table = pin_id.split("[")[0]
        if pin_id not in parent or pin_id not in child:
            verdict = "only in " + ("child" if pin_id in child else "parent")
            lines.append(f"{pin_id}: {verdict}")
        else:
            verdict = classify(parent[pin_id]["payload"], child[pin_id]["payload"])
            lines.append(
                f"{pin_id}: {verdict} (parent pin {_holds(parent[pin_id])}, "
                f"child pin {_holds(child[pin_id])}, child digest {child[pin_id]['digest']})"
            )
        tallies.setdefault(table, {}).setdefault(verdict, 0)
        tallies[table][verdict] += 1
    for table, counts in tallies.items():
        summary = "; ".join(f"{count} {verdict}" for verdict, count in sorted(counts.items()))
        lines.append(f"== {table}: {sum(counts.values())} pins: {summary}")
    return lines


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?", help="the parent checkout")
    parser.add_argument("child", type=Path, nargs="?", default=ROOT,
                        help="the changed checkout (default: this one)")
    parser.add_argument("--tables", nargs="+", choices=list(TABLES), default=list(TABLES))
    parser.add_argument("--collect", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--block-numpy", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect is not None:
        if args.block_numpy:
            sys.modules["numpy"] = None
        json.dump(collect(args.collect.resolve(), args.tables), sys.stdout)
        return
    if args.parent is None:
        parser.error("the parent checkout is required")
    parent = _collect_tree(args.parent.resolve(), args.tables)
    child = _collect_tree(args.child.resolve(), args.tables)
    print("\n".join(report(parent, child)))


if __name__ == "__main__":
    main()
