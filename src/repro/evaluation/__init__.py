"""Evaluation harness shared by tests, examples and benchmarks.

* :mod:`repro.evaluation.quality` -- average-log-likelihood cluster
  quality (Definition 1), horizon/landmark quality series, repeated-run
  averaging (the paper averages five runs);
* :mod:`repro.evaluation.memory` -- Theorem 3 memory accounting,
  predicted versus measured;
* :mod:`repro.evaluation.timing` -- wall-clock processing-time
  measurement for the scalability figures;
* :mod:`repro.evaluation.comm` -- communication-cost comparisons
  (Figure 2).
"""

from repro.evaluation.comm import (
    CommunicationComparison,
    compare_communication,
)
from repro.evaluation.memory import predicted_site_memory_bytes
from repro.evaluation.metrics import (
    adjusted_rand_index,
    matched_mean_error,
    weight_recovery_error,
)
from repro.evaluation.quality import (
    QualitySeries,
    averaged_quality,
    holdout_quality,
)
from repro.evaluation.timing import ThroughputResult, measure_throughput

__all__ = [
    "CommunicationComparison",
    "QualitySeries",
    "adjusted_rand_index",
    "ThroughputResult",
    "averaged_quality",
    "compare_communication",
    "holdout_quality",
    "matched_mean_error",
    "measure_throughput",
    "predicted_site_memory_bytes",
    "weight_recovery_error",
]
