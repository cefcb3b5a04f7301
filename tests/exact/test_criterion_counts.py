"""The exact engine's count-level criterion verdicts equal the multiset ones.

:func:`repro.exact.engine.criterion_predicate` answers silence from the
chain's change probability and other criteria from count tuples first; on
every configuration of each chain below it must agree with
``is_converged_configuration`` on the decoded multiset.
"""

import pytest

import repro  # noqa: F401  (populates the protocol registry)
from repro.exact import ConfigurationChain, QuotientChain
from repro.exact.engine import criterion_predicate
from repro.protocols.registry import get_protocol
from repro.simulation.convergence import OutputConsensus, SilentConfiguration, StableCircles

INPUTS = [
    ("circles-tie-report", 3, (0, 1, 1, 2, 2)),
    ("circles-unordered", 2, (0, 0, 1)),
    ("exact-majority", 2, (0, 0, 1, 1)),
    ("circles", 3, (0, 1, 1, 2, 2)),
]

CRITERIA = [
    SilentConfiguration(),
    StableCircles(),
    OutputConsensus(),
    OutputConsensus(target=0),
    OutputConsensus(target=1),
]


def verdict(check, *args):
    try:
        return check(*args)
    except TypeError as error:  # StableCircles refuses non-Circles protocols
        return type(error)


@pytest.mark.parametrize("chain_cls", [ConfigurationChain, QuotientChain])
@pytest.mark.parametrize(
    "criterion", CRITERIA, ids=lambda c: f"{c.name}-{getattr(c, 'target', None)}"
)
@pytest.mark.parametrize("name,k,colors", INPUTS, ids=str)
def test_engine_verdicts_equal_the_multiset_verdicts(name, k, colors, criterion, chain_cls):
    protocol = get_protocol(name, k)
    chain = chain_cls.from_colors(protocol, colors)
    assert chain.compiled is not None
    predicate = criterion_predicate(chain, criterion)
    verdicts = []
    for index in range(chain.num_configurations):
        expected = verdict(
            criterion.is_converged_configuration, protocol, chain.configuration(index)
        )
        assert verdict(predicate, index) == expected, chain.configuration(index)
        verdicts.append(expected)
    assert False in verdicts or TypeError in verdicts
