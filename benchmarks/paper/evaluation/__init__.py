"""Measurement helpers of the paper benches and their tests.

* :mod:`.quality` -- average-log-likelihood cluster quality
  (Definition 1), horizon/landmark quality series, repeated-run
  averaging (the paper averages five runs);
* :mod:`.memory` -- Theorem 3 memory accounting, predicted versus
  measured;
* :mod:`.timing` -- wall-clock processing-time measurement for the
  scalability figures;
* :mod:`.comm` -- communication-cost comparisons (Figure 2);
* :mod:`.metrics` -- adjusted Rand index, matched-mean error, weight
  recovery.
"""

from benchmarks.paper.evaluation.comm import (
    CommunicationComparison,
    compare_communication,
)
from benchmarks.paper.evaluation.memory import predicted_site_memory_bytes
from benchmarks.paper.evaluation.metrics import (
    adjusted_rand_index,
    matched_mean_error,
    weight_recovery_error,
)
from benchmarks.paper.evaluation.quality import (
    QualitySeries,
    averaged_quality,
    holdout_quality,
)
from benchmarks.paper.evaluation.timing import ThroughputResult, measure_throughput

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
