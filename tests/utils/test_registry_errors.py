"""The shared unknown-name contract of the name registries.

Protocols, engines and workloads all resolve plain-string names;
historically each phrased its unknown-name error differently (two raised
``ValueError``).  They now share :func:`repro.utils.errors.unknown_name_error`:
a ``KeyError`` that names the kind, repeats the offending name, and lists the
valid names in sorted order.
"""

import pytest

import repro  # noqa: F401  (populates the default registries)
from repro.protocols.registry import get_protocol
from repro.simulation.registry import available_engines, get_engine
from repro.utils.errors import unknown_name_error
from repro.workloads.registry import get_workload, workload_names


class TestHelper:
    def test_message_shape(self):
        error = unknown_name_error("gadget", "nope", ["b", "a"])
        assert isinstance(error, KeyError)
        assert str(error) == '"unknown gadget \'nope\'; available gadgets: a, b"'

    def test_empty_registry_lists_none(self):
        assert "<none>" in str(unknown_name_error("gadget", "nope", []))


@pytest.mark.parametrize(
    "resolve,kind,known",
    [
        (get_protocol, "protocol", lambda: get_protocol("circles", 2)),
        (get_engine, "engine", lambda: get_engine("batch")),
        (get_workload, "workload", lambda: get_workload("uniform")),
    ],
    ids=["protocol", "engine", "workload"],
)
class TestEveryRegistry:
    def test_unknown_name_raises_keyerror_with_sorted_listing(self, resolve, kind, known):
        with pytest.raises(KeyError) as excinfo:
            resolve("definitely-not-registered")
        message = str(excinfo.value)
        assert f"unknown {kind} 'definitely-not-registered'" in message
        assert f"available {kind}s:" in message
        # The listing is sorted.
        listing = message.split(f"available {kind}s:")[1].rstrip('"').strip()
        names = [name.strip() for name in listing.split(",")]
        assert names == sorted(names)

    def test_known_name_resolves(self, resolve, kind, known):
        assert known() is not None


class TestListingsMatchRegistries:
    def test_engine_listing_matches_available_engines(self):
        with pytest.raises(KeyError) as excinfo:
            get_engine("nope")
        for name in available_engines():
            assert name in str(excinfo.value)

    def test_workload_listing_matches_workload_names(self):
        with pytest.raises(KeyError) as excinfo:
            get_workload("nope")
        for name in workload_names():
            assert name in str(excinfo.value)
