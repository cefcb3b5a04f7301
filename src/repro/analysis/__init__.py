"""Analysis tools: state complexity, exhaustive verification and statistics.

* :mod:`repro.analysis.state_complexity` — declared and reachable state
  counts of every protocol (experiment E1).
* :mod:`repro.analysis.verification` — exhaustive always-correctness model
  checking for small populations (experiment E3): a closed-class query on
  the configuration graph of :class:`repro.exact.chain.ConfigurationChain`.
* :mod:`repro.analysis.statistics` — the small statistics toolkit
  (means, quantiles, confidence intervals) used by the benchmark reports.
"""

from repro.analysis.state_complexity import (
    StateComplexityReport,
    declared_state_count,
    exact_reachable_count,
    reachable_states,
    state_complexity_report,
)
from repro.analysis.verification import VerificationResult, verify_always_correct
from repro.analysis.statistics import SummaryStats, confidence_interval, summarize

__all__ = [
    "StateComplexityReport",
    "declared_state_count",
    "exact_reachable_count",
    "reachable_states",
    "state_complexity_report",
    "VerificationResult",
    "verify_always_correct",
    "SummaryStats",
    "summarize",
    "confidence_interval",
]
