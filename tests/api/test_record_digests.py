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
#: deletion.  Only the kernel grid
#: depends on numpy: without it the batch engine and the replicate groups
#: sample through pure Python.
DIGESTS = {
    "agent": "cfca281f04e46de42ddf859f8470a9137d58830b39b726b6f11c12bd46dc6a80",
    "batch": "588b5c7567d1b3d8821b33872820c7fc88dd330110be4d4c235620e61385fd9c",
    "vector": "621dbd6cc7b0430677fa3dca6efbac99d56bed8fc9ae6b81a4c0f1458f4de204",
    "exact": "d69179a0c48bdbff6fea8472db05b04805d8dd63bad02d9d5801fefd6ddc61c6",
    "variant": "c34409cf68ce44ca46b1138b9f72c9a0c2ec55bd2818cbee0de2450c87d84a65",
}
#: Without numpy the kernel grid runs the pool regimes, so its digest was
#: re-pinned with ``batch`` and ``vector`` at record epoch 5.
KERNEL_DIGESTS = {
    True: "00b6af052d7fa103679e3a959b3e1606b2e748be8f2a48cb9f5dcc3c4aeee3db",
    False: "693e5a11ce3f5bcf2d6c5ea66f37cee97b9eedc536545558b73ce1873be5bfd9",
}
#: The record of ``test_float_exact_record_is_pinned``, pinned at record epoch 4
#: and unchanged at 5.
FLOAT_EXACT_DIGEST = "4ecabc0e2a3380b83ff25c03050fdf86c771a01c9ff147219c78a264f3c6a57e"


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
