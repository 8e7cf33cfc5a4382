"""Baseline algorithms the paper compares CluDistream against.

* :mod:`repro.baselines.sem` -- the Scalable EM (SEM) of Bradley, Reina
  and Fayyad, which compresses processed records into per-cluster
  sufficient statistics and maintains a single model over the whole
  stream;
* :mod:`repro.baselines.sampling` -- sampling-based EM: fit EM over a
  reservoir sample (the clearly-worst curve of Figure 6);
* :mod:`repro.baselines.periodic` -- the DBDC-style periodic-reporting
  strategy used for the Figure 2 communication comparison: every site
  runs SEM locally and ships its model to the coordinator on a fixed
  period, whether or not anything changed;
* :mod:`repro.baselines.kmeans` -- streaming divide-and-conquer
  k-means, the hard-partition approach the paper's introduction argues
  against.
"""

from repro.baselines.kmeans import StreamKMeans, StreamKMeansConfig, lloyd_kmeans
from repro.baselines.periodic import PeriodicReporter, PeriodicReporterConfig
from repro.baselines.sampling import ReservoirSampler, SamplingEM, SamplingEMConfig
from repro.baselines.sem import ScalableEM, SEMConfig

__all__ = [
    "PeriodicReporter",
    "PeriodicReporterConfig",
    "ReservoirSampler",
    "SEMConfig",
    "SamplingEM",
    "SamplingEMConfig",
    "ScalableEM",
    "StreamKMeans",
    "StreamKMeansConfig",
    "lloyd_kmeans",
]
