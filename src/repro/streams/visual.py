"""The one-dimensional visual stream behind Figures 3-4.

"To simplify the visualization of clustering, we use one dimensional
synthetic data.  Figures 3(a), (b) and (c) show the histogram of the
data set in horizon H = 2k at three different time points."

:func:`one_dimensional_phases` builds that experiment: three distinct
1-d mixtures, each active for one horizon of 2 000 records, streamed
back to back.  The benchmark harness histograms each phase (Figure 3),
runs CluDistream over the concatenated stream, and compares the models
it recovers per phase against the ground truth (Figure 4), optionally
with 5% noise (Figure 4(d)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture

__all__ = ["VisualStreamPhases", "one_dimensional_phases"]

#: The three ground-truth phase mixtures.  Chosen to echo the paper's
#: histograms: phase changes move modes and reshape weights.
_PHASES = (
    ((0.5, -4.0, 0.6), (0.3, 0.0, 0.5), (0.2, 4.0, 0.8)),
    ((0.25, -5.0, 0.5), (0.45, -1.0, 0.7), (0.30, 3.0, 0.6)),
    ((0.4, -2.5, 0.9), (0.2, 1.5, 0.4), (0.4, 5.5, 0.5)),
)


@dataclass(frozen=True)
class VisualStreamPhases:
    """The Figures 3-4 experiment data.

    Attributes
    ----------
    mixtures:
        The three ground-truth 1-d mixtures, in phase order.
    horizon:
        Records per phase (the paper's ``H = 2k``).
    """

    mixtures: tuple[GaussianMixture, ...]
    horizon: int

    @property
    def n_phases(self) -> int:
        return len(self.mixtures)

    @property
    def total_records(self) -> int:
        return self.horizon * self.n_phases

    def phase_data(
        self, phase: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample one phase's horizon of records, shape ``(H, 1)``."""
        if not 0 <= phase < self.n_phases:
            raise IndexError(f"phase {phase} out of range")
        points, _ = self.mixtures[phase].sample(self.horizon, rng)
        return points

    def stream(self, rng: np.random.Generator) -> Iterator[np.ndarray]:
        """The concatenated three-phase stream, record by record."""
        for phase in range(self.n_phases):
            for row in self.phase_data(phase, rng):
                yield row

def one_dimensional_phases(
    horizon: int = 2000, repeats: int = 1
) -> VisualStreamPhases:
    """Build the three-phase 1-d stream of Figures 3-4.

    Parameters
    ----------
    horizon:
        Records per phase (the paper's 2 000).
    repeats:
        Repeat the three-phase cycle this many times (useful for the
        multi-test / reactivation benchmarks where distributions
        alternate).
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    mixtures = []
    for _ in range(repeats):
        for spec in _PHASES:
            weights = np.array([w for w, _, _ in spec])
            components = tuple(
                Gaussian(np.array([mu]), np.array([[sigma**2]]))
                for _, mu, sigma in spec
            )
            mixtures.append(GaussianMixture(weights, components))
    return VisualStreamPhases(mixtures=tuple(mixtures), horizon=horizon)
