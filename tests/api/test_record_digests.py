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
#: whose skip overran it.  Only the kernel grid
#: depends on numpy: without it the batch engine and the replicate groups
#: sample through pure Python.
DIGESTS = {
    "agent": "575eaf8581d97f7731f97f36d51697cf18358b11de4d99adc04569f2a459a8e7",
    "batch": "cd91f0b06fe4adf52364a4ae8009cc68f17a239ffc80f039f1cf3340a549e121",
    "vector": "ed8e5d25e2f590a73e95a6a1f784a46e16329b37bc34ae6e049a7d1a4d480250",
    "exact": "225b998900f19007e4b405fff6d79bab15fa37880d7c3e26ca8c15e85d24c5b4",
    "variant": "fcb29521057f7b2d19464232738f741034a8fa3b15099e1d9d91109b0f847476",
}
#: Without numpy the kernel grid runs the pool regimes, so its digest was
#: re-pinned with ``batch`` and ``vector`` at record epoch 5.
KERNEL_DIGESTS = {
    True: "374555866d2aaa1e6f7b55e6bfd4e1a0ea1bb7bfdc691e8800ff84d1e1d9db14",
    False: "6cf257d0321ab27a472e2af2b25121c8ece942ad200a19310c69a213da2ebe4c",
}
#: The record of ``test_float_exact_record_is_pinned``, pinned at record epoch 4,
#: unchanged at 5, and re-pinned at 6 only for the dropped ``compiled`` key.
FLOAT_EXACT_DIGEST = "8b35bb88bad8ca89e41396e75f831e9853c0f24bc4ee819ee89e4d24b78c2e87"


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
