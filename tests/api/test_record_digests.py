"""Record digests: default-criterion records are pinned byte for byte.

Every run path of the ``"protocol"`` runner — serial ``execute_run`` on the
agent, configuration and exact engines, replicate groups on the batch and
vector engines (``trials=2`` routes them), and Circles under a non-default
variant — must keep producing the very same records for specs that leave
``criterion`` unset.  The sha256 of each sub-grid's canonical record JSON is
pinned here.  The batch engine runs its numpy position kernel from
``n = 4096`` when numpy is importable and its pure-Python pool otherwise, so
only the kernel grid carries one digest per numpy availability.  One float
exact record is also pinned
unrounded, so a solve that moves its last bits cannot slip past a
:data:`~repro.api.records.RECORD_EPOCH` bump.
"""

import hashlib
import importlib.util
import json

import pytest

from repro.api.executor import execute_run, run_sweep
from repro.api.spec import RunSpec, SweepSpec, canonical_json
from repro.core.circles import CirclesVariant, ExchangeRule

HAS_NUMPY = importlib.util.find_spec("numpy") is not None

PROTOCOLS = ("circles", "cancellation-plurality", "tournament-plurality")
SAMPLED_ENGINES = ("agent", "batch", "vector")
GRIDS = (*SAMPLED_ENGINES, "kernel", "exact", "variant")


def _rounded(value):
    """``value`` with every float rounded to 12 significant digits.

    The exact engine solves its larger blocks through LAPACK when numpy is
    importable, and the last bit of those floats depends on the BLAS build;
    rounding keeps the pin independent of the machine.
    """
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def _digest(records) -> str:
    """sha256 of the records' canonical JSON, floats rounded by :func:`_rounded`.

    The ``default=repr`` fallback only serializes the variant grid's
    :class:`CirclesVariant` parameter; every other record is JSON-native, so
    for them this is :func:`repro.api.spec.canonical_json`.
    """
    text = json.dumps(
        _rounded([record.to_dict() for record in records]),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
        default=repr,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def grid_records(grid: str) -> list:
    """The records of one pinned sub-grid."""
    if grid in SAMPLED_ENGINES:
        sweep = SweepSpec(
            protocols=PROTOCOLS,
            populations=(6, 9),
            ks=(3,),
            engines=(grid,),
            trials=2,
            seed=2025,
        )
        return run_sweep(sweep).records
    if grid == "kernel":
        # Past the numpy kernel's population gate, under a fixed budget.
        sweep = SweepSpec(
            protocols=PROTOCOLS[:2],
            populations=(4096,),
            ks=(3,),
            engines=("batch", "vector"),
            trials=2,
            max_steps=20_000,
            seed=2025,
        )
        return run_sweep(sweep).records
    if grid == "exact":
        sweep = SweepSpec(
            protocols=PROTOCOLS,
            populations=(5, 6),
            ks=(2,),
            engines=("exact",),
            trials=1,
            seed=2025,
        )
        return run_sweep(sweep).records
    assert grid == "variant"
    variant = CirclesVariant(exchange_rule=ExchangeRule.SUM_WEIGHT)
    return [
        execute_run(
            RunSpec(
                protocol="circles",
                n=6 if engine == "exact" else 9,
                k=3,
                protocol_params={"variant": variant},
                engine=engine,
                seed=seed,
                workload_seed=7,
            )
        )
        for engine in (*SAMPLED_ENGINES, "exact")
        for seed in (11, 12)
    ]


#: Digests computed at the commit before the run-plan refactor, except
#: ``batch`` and ``vector``: their grids run the pool regimes, re-pinned at
#: record epoch 5 for the re-measured regime thresholds.  ``variant`` was
#: re-pinned when the configuration engine was deleted: it is the digest of
#: the same grid's remaining records, computed on the code before the
#: deletion.  At record epoch 6 every pin here was re-pinned to the digest
#: of the epoch-5 records with the spec's dropped ``compiled`` key popped;
#: no draw moved.  At record epoch 7 ``batch`` and ``vector`` were re-pinned
#: for the sparse skip carried across windows: their runs agree draw for
#: draw with epoch 6 up to the end of each engine's first sparse window
#: whose skip overran it.  At record epoch 8 every pin here was re-pinned to
#: the same records without the spec's ``runner`` key and the record's
#: copies of ``seed``, ``num_agents`` and ``engine``; ``tests/pin_evidence.py``
#: reported each payload as differing only by those keys, so no draw moved.
#: Only the kernel grid depends on numpy: without it the batch engine and
#: the replicate groups sample through pure Python.
DIGESTS = {
    "agent": "fa91f42491f312d45c6ad3bea389de968264d19d58f5cc1134cb08831215af03",
    "batch": "0ee6bd6f2b9152dcc6ec180b0c98dfbcfb8c64893330a3f987fc80db08afff0e",
    "vector": "1a0ea5595b22071785e24a322182d93a52e3e4c2838bc322a24311f8aaee2d08",
    "exact": "7e7bc61a394ee0a8a0507c87146a32c8edf9211cac33774bdbea59f332466cab",
    "variant": "518b5ffe3e1f7779898e1f14cb5b639c82af752c88e55d1167ac72596b9702d4",
}
#: Without numpy the kernel grid runs the pool regimes, so its digest was
#: re-pinned with ``batch`` and ``vector`` at record epoch 5.  Both were
#: re-pinned at epoch 8 like :data:`DIGESTS`.
KERNEL_DIGESTS = {
    True: "9b5c212ba0eb4edb1e577a6272c90602214d69c6d1e8c983a3402622a4b2e7a4",
    False: "7391d8ad7df26988c483171f985b30d36816ceb826e6096a3f3ce9d895cb8e27",
}
#: The record of ``test_float_exact_record_is_pinned``, pinned at record epoch 4,
#: unchanged at 5, and re-pinned at 6 only for the dropped ``compiled`` key
#: and at 8 only for the dropped ``runner`` key and record copies.
FLOAT_EXACT_DIGEST = "3884a14d1f348066d51d43cc342b690687d0ec81f2a7c73aef5b9679a590792a"


@pytest.mark.parametrize("grid", GRIDS)
def test_default_criterion_records_are_pinned(grid):
    expected = KERNEL_DIGESTS[HAS_NUMPY] if grid == "kernel" else DIGESTS[grid]
    assert _digest(grid_records(grid)) == expected


def test_float_exact_record_is_pinned():
    """One float ``engine="exact"`` record, unrounded, byte for byte.

    Every transient component of this chain is a singleton, so the solve is
    plain float division and the digest does not depend on numpy or the BLAS
    build.  A change that moves it changes stored records: bump
    :data:`~repro.api.records.RECORD_EPOCH` with it.
    """
    record = execute_run(RunSpec(protocol="circles", n=4, k=2, engine="exact", seed=1))
    assert record.interactions_changed == 1.9999999999999998
    assert record.extras["exact"]["arithmetic"] == "float"
    digest = hashlib.sha256(canonical_json(record.to_dict()).encode("utf-8")).hexdigest()
    assert digest == FLOAT_EXACT_DIGEST
