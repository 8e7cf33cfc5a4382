"""Stream generators and stream utilities.

The paper evaluates on two kinds of data:

* **synthetic streams** whose records follow a series of Gaussian
  mixtures, with a new mixture drawn every 2 000 points with probability
  ``P_d`` (:mod:`repro.streams.synthetic`), optionally corrupted with
  noise (:mod:`repro.streams.noise`), plus the 1-d visual stream behind
  Figures 3-4 (:mod:`repro.streams.visual`);
* the **NFD net-flow data set** from Shanghai Telecom -- proprietary, so
  :mod:`repro.streams.netflow` generates a synthetic equivalent with the
  same six-attribute schema, heavy tails and regime switches (see
  DESIGN.md, Substitutions).

:mod:`repro.streams.base` holds the shared stream plumbing.
"""

from repro.streams.drift import DriftConfig, DriftingGaussianStream
from repro.streams.base import (
    LabeledStream,
    StreamSegment,
    interleave,
    take,
)
from repro.streams.netflow import NetflowConfig, NetflowStreamGenerator
from repro.streams.noise import NoiseConfig, NoisyStream
from repro.streams.synthetic import (
    EvolvingStreamConfig,
    EvolvingGaussianStream,
    random_mixture,
)
from repro.streams.visual import VisualStreamPhases, one_dimensional_phases

__all__ = [
    "DriftConfig",
    "DriftingGaussianStream",
    "EvolvingGaussianStream",
    "EvolvingStreamConfig",
    "LabeledStream",
    "NetflowConfig",
    "NetflowStreamGenerator",
    "NoiseConfig",
    "NoisyStream",
    "StreamSegment",
    "VisualStreamPhases",
    "interleave",
    "one_dimensional_phases",
    "random_mixture",
    "take",
]
