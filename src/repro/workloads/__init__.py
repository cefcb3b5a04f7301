"""Input workload generators.

Population-protocol experiments are parameterized by the input color
assignment.  The generators here produce the assignments used by the tests,
the examples and the experiment harness: planted majorities with controlled
margins, uniform and Zipf-distributed colors, near-ties and exact ties, and
adversarially skewed inputs.  Every generator takes an explicit seed so runs
are reproducible.
"""

from repro.workloads.distributions import (
    adversarial_two_block,
    decisive_isolation,
    decisive_isolation_set,
    exact_tie,
    near_tie,
    planted_majority,
    uniform_random_colors,
    zipf_colors,
)
from repro.workloads.registry import (
    DEFAULT_WORKLOADS,
    WorkloadRegistry,
    get_workload,
    register_workload,
    workload_names,
)

__all__ = [
    "planted_majority",
    "uniform_random_colors",
    "zipf_colors",
    "near_tie",
    "exact_tie",
    "adversarial_two_block",
    "decisive_isolation",
    "decisive_isolation_set",
    "DEFAULT_WORKLOADS",
    "WorkloadRegistry",
    "get_workload",
    "register_workload",
    "workload_names",
]
