"""Scalable EM (SEM) -- the paper's primary comparator.

SEM is the scalable mixture-model clustering framework of Bradley,
Reina and Fayyad ("Clustering very large databases using EM mixture
models", ICPR 2000, reference [6] of the paper).  The algorithm keeps a
*single* Gaussian mixture over everything seen so far and bounds memory
by compressing processed records:

1. records accumulate in a bounded buffer;
2. when the buffer fills, *extended EM* runs over the live records plus
   the per-cluster sufficient statistics of previously compressed data;
3. records confidently assigned to a cluster (small Mahalanobis
   distance to its mean) are folded into that cluster's sufficient
   statistics (the discard set) and evicted; uncertain records are
   retained up to the buffer budget.

Because one model must explain data from every distribution the stream
has gone through, quality degrades whenever the stream evolves -- which
is exactly the effect Figures 5-7 demonstrate and CluDistream's
test-and-cluster strategy avoids.

The implementation follows the common single-model simplification of
the framework (primary compression only; no secondary sub-cluster CS
sets), which preserves the compress-versus-refit behaviour the paper's
comparison exercises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core.em import EMConfig, fit_em
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.suffstats import SufficientStats

__all__ = ["SEMConfig", "ScalableEM"]


@dataclass(frozen=True, kw_only=True)
class SEMConfig:
    """SEM parameters.

    Parameters
    ----------
    n_components:
        Mixture size ``K``.
    buffer_size:
        Live-record budget; extended EM runs when it fills.
    compression_radius:
        Squared-Mahalanobis radius inside which a record is folded into
        its cluster's discard set.  Smaller values retain more records
        (higher fidelity, more memory).
    em:
        Inner EM settings for model refits.
    """

    n_components: int = 5
    buffer_size: int = 2000
    compression_radius: float = 4.0
    em: EMConfig = field(default_factory=EMConfig)

    def __post_init__(self) -> None:
        if self.buffer_size < self.n_components:
            raise ValueError("buffer must hold at least n_components records")
        if self.compression_radius <= 0.0:
            raise ValueError("compression_radius must be positive")


class ScalableEM:
    """Streaming SEM clusterer maintaining one global mixture.

    Parameters
    ----------
    dim:
        Record dimensionality.
    config:
        SEM parameters (``K`` defaults to the paper's 5).
    rng:
        Randomness for EM restarts.
    """

    def __init__(
        self,
        dim: int,
        config: SEMConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if dim < 1:
            raise ValueError("dim must be at least 1")
        self.dim = dim
        self.config = config or SEMConfig()
        self._rng = rng if rng is not None else np.random.default_rng(17)
        self._buffer: list[np.ndarray] = []
        #: Per-cluster discard sets, one component each (after a refit).
        self._discard: SufficientStats | None = None
        self._mixture: GaussianMixture | None = None
        self.records_seen = 0
        self.refits = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def mixture(self) -> GaussianMixture | None:
        """The current global model (``None`` before the first refit)."""
        return self._mixture

    @property
    def retained(self) -> int:
        """Live records currently buffered."""
        return len(self._buffer)

    @property
    def compressed(self) -> float:
        """Records folded into discard-set sufficient statistics."""
        return self._discard.total if self._discard is not None else 0.0

    def memory_bytes(self) -> int:
        """Buffer + sufficient statistics + model parameters, in bytes."""
        buffer_bytes = 8 * self.dim * len(self._buffer)
        stats = self._discard
        stats_bytes = (
            8 * (stats.counts.size + stats.sums.size + stats.outers.size)
            if stats is not None
            else 0
        )
        model_bytes = self._mixture.payload_bytes() if self._mixture else 0
        return buffer_bytes + stats_bytes + model_bytes

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def process_record(self, record: np.ndarray) -> None:
        """Buffer one record; refit + compress when the buffer fills."""
        record = np.asarray(record, dtype=float).ravel()
        if record.size != self.dim:
            raise ValueError(
                f"record has dimension {record.size}, SEM expects {self.dim}"
            )
        self._buffer.append(record)
        self.records_seen += 1
        if len(self._buffer) >= self.config.buffer_size:
            self.refit()

    def process_stream(self, records: Iterable[np.ndarray]) -> None:
        """Ingest many records."""
        for record in records:
            self.process_record(record)

    # ------------------------------------------------------------------
    # Extended EM + compression
    # ------------------------------------------------------------------
    def refit(self) -> GaussianMixture:
        """Run extended EM over live records + discard sets, then compress.

        Returns the refreshed mixture.  Safe to call with a partially
        filled buffer (used at stream end and by the periodic reporting
        baseline).
        """
        live = (
            np.stack(self._buffer)
            if self._buffer
            else np.empty((0, self.dim))
        )
        self._mixture = self._extended_em(live)
        self.refits += 1
        if live.shape[0]:
            self._compress(live)
        return self._mixture

    def _active_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(counts, sums, outers)`` of the discard sets holding records."""
        stats = self._discard
        if stats is None:
            stats = SufficientStats.zeros(1, self.dim)
        active = stats.counts > 0
        return stats.counts[active], stats.sums[active], stats.outers[active]

    def _extended_em(self, live: np.ndarray) -> GaussianMixture:
        """EM over live records plus compressed blocks."""
        blocks = self._active_blocks()
        if live.shape[0] + blocks[0].size < self.config.n_components:
            raise ValueError("not enough data to fit the SEM mixture")

        # Seed: previous model when available, else plain EM on live data.
        if self._mixture is None:
            return fit_em(live, self.config.em, self._rng).mixture

        mixture = self._mixture
        for _ in range(self.config.em.max_iter):
            new_mixture = self._m_step_with_blocks(mixture, live, *blocks)
            delta = self._model_shift(mixture, new_mixture)
            mixture = new_mixture
            if delta <= self.config.em.tol:
                break
        return mixture

    def _m_step_with_blocks(
        self,
        mixture: GaussianMixture,
        live: np.ndarray,
        block_counts: np.ndarray,
        block_sums: np.ndarray,
        block_outers: np.ndarray,
    ) -> GaussianMixture:
        """One extended E+M step treating blocks as weighted points.

        Each block stands in as its mean with mass ``n`` -- the
        block-assignment approximation of extended EM.
        """
        k = mixture.n_components
        dim = self.dim
        masses = np.zeros(k)
        linear = np.zeros((k, dim))
        outer = np.zeros((k, dim, dim))

        if live.shape[0]:
            resp = mixture.posterior(live)
            masses += resp.sum(axis=0)
            linear += resp.T @ live
            outer += np.einsum("nk,ni,nj->kij", resp, live, live)

        if block_counts.size:
            resp_blocks = mixture.posterior(block_sums / block_counts[:, None])
            weighted = resp_blocks * block_counts[:, None]
            masses += weighted.sum(axis=0)
            # A block's posterior (evaluated at its mean) distributes its
            # whole raw moments across the clusters: n_b μ_b for the
            # linear term and Σ x xᵀ (which carries the block's internal
            # scatter) for the quadratic term.
            for b in range(block_counts.size):
                linear += np.outer(resp_blocks[b], block_sums[b])
                for j in range(k):
                    outer[j] += resp_blocks[b, j] * block_outers[b]

        total = masses.sum()
        components = []
        weights = np.maximum(masses, 1e-12) / max(total, 1e-12)
        ridge = self.config.em.covariance_ridge
        for j in range(k):
            if masses[j] <= 1e-9:
                components.append(mixture.components[j])
                continue
            mean = linear[j] / masses[j]
            cov = outer[j] / masses[j] - np.outer(mean, mean)
            cov += ridge * np.eye(dim) + 1e-9 * np.eye(dim)
            components.append(
                Gaussian(mean, cov, diagonal=self.config.em.diagonal)
            )
        return GaussianMixture(weights, tuple(components))

    @staticmethod
    def _model_shift(old: GaussianMixture, new: GaussianMixture) -> float:
        """Max mean displacement between successive models."""
        shifts = [
            float(np.linalg.norm(a.mean - b.mean))
            for a, b in zip(old.components, new.components)
        ]
        return max(shifts) if shifts else 0.0

    def _compress(self, live: np.ndarray) -> None:
        """Primary compression: fold confident records into discard sets."""
        assert self._mixture is not None
        k = self.config.n_components
        if self._discard is None:
            self._discard = SufficientStats.zeros(k, self.dim)
        assignments = self._mixture.assign(live)
        keep: list[np.ndarray] = []
        for j, component in enumerate(self._mixture.components):
            members = live[assignments == j]
            if not members.shape[0]:
                continue
            distances = component.mahalanobis_sq(members)
            confident = distances <= self.config.compression_radius
            if np.any(confident):
                one_hot = np.zeros((int(confident.sum()), k))
                one_hot[:, j] = 1.0
                self._discard = self._discard.merge(
                    SufficientStats.from_responsibilities(
                        members[confident], one_hot
                    )
                )
            keep.extend(members[~confident])
        # Retain uncertain records, newest last, within half the buffer.
        budget = self.config.buffer_size // 2
        self._buffer = [np.asarray(row) for row in keep[-budget:]]

    # ------------------------------------------------------------------
    # Evaluation helpers
    # ------------------------------------------------------------------
    def current_model(self) -> GaussianMixture:
        """The model, refitting first if data arrived since the last fit.

        Raises
        ------
        ValueError
            If no records have been seen at all.
        """
        if self._mixture is None or self._buffer:
            if self.records_seen == 0:
                raise ValueError("SEM has seen no records")
            if (
                self._mixture is None
                and len(self._buffer) < self.config.n_components
            ):
                raise ValueError("not enough records for an initial SEM fit")
            self.refit()
        assert self._mixture is not None
        return self._mixture

    def __repr__(self) -> str:
        return (
            f"ScalableEM(dim={self.dim}, seen={self.records_seen}, "
            f"retained={self.retained}, compressed={self.compressed:.0f})"
        )
