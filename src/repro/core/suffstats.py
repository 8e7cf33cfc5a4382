"""Sufficient statistics for Gaussian mixtures (the incremental-EM layer).

Every quantity EM ever estimates is a function of three per-component
accumulators over responsibility-weighted records::

    N_j  = Σ_n r_nj              (mass)
    S_j  = Σ_n r_nj x_n          (first moment,  shape (d,))
    O_j  = Σ_n r_nj x_n x_nᵀ     (second moment, shape (d, d) or (d,))

:class:`SufficientStats` is the immutable value object holding the
stacked ``(N, S, O)`` of all ``K`` components.  It supports the algebra
the refit ladder needs -- accumulate from responsibilities, **merge**
(streams of chunks), **scale** (decay / forgetting), **blend** (the
Cappé–Moulines stepwise update) -- and exact **materialization** back
into a :class:`~repro.core.mixture.GaussianMixture`::

    w_j = N_j / Σ_i N_i,   μ_j = S_j / N_j,   Σ_j = O_j / N_j − μ_j μ_jᵀ

Materialization is the moment-form twin of the batch trainer's M-step
(:func:`repro.core.em._m_step` keeps the centered two-pass formula for
bitwise stability of the default path); property tests pin the two to
≤ 1e-10 agreement, including near-singular covariances and diagonal
mode.  Diagonal mode stores ``O_j`` as the ``d`` per-axis second
moments, matching Theorem 3's ``d``-parameter memory trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.mixture import GaussianMixture

__all__ = ["SufficientStats"]

#: Mass below which a component's parameters cannot be materialized.
MIN_MASS = 1e-12


@dataclass(frozen=True)
class SufficientStats:
    """Immutable per-component ``(N, Σx, Σxx)`` accumulators.

    Parameters
    ----------
    counts:
        Responsibility masses ``N_j``, shape ``(K,)``.
    sums:
        First moments ``Σ r x``, shape ``(K, d)``.
    outers:
        Second moments ``Σ r x xᵀ``: shape ``(K, d, d)`` for full
        covariances, ``(K, d)`` (per-axis ``Σ r x²``) when ``diagonal``.
    diagonal:
        Whether the second moments are stored (and materialized)
        diagonally.
    """

    counts: np.ndarray
    sums: np.ndarray
    outers: np.ndarray
    diagonal: bool = False

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=float).ravel()
        sums = np.asarray(self.sums, dtype=float)
        outers = np.asarray(self.outers, dtype=float)
        k = counts.size
        if sums.ndim != 2 or sums.shape[0] != k:
            raise ValueError(
                f"sums shape {sums.shape} does not match {k} components"
            )
        d = sums.shape[1]
        expected = (k, d) if self.diagonal else (k, d, d)
        if outers.shape != expected:
            raise ValueError(
                f"outers shape {outers.shape} does not match {expected}"
            )
        if np.any(counts < 0.0) or not np.all(np.isfinite(counts)):
            raise ValueError("counts must be finite and non-negative")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "sums", sums)
        object.__setattr__(self, "outers", outers)
        for array in (self.counts, self.sums, self.outers):
            array.setflags(write=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, k: int, dim: int) -> "SufficientStats":
        """Empty full-covariance accumulators for ``k`` components in
        ``dim`` dimensions."""
        if k < 1 or dim < 1:
            raise ValueError("k and dim must be positive")
        return cls(np.zeros(k), np.zeros((k, dim)), np.zeros((k, dim, dim)))

    @classmethod
    def from_responsibilities(
        cls,
        data: np.ndarray,
        responsibilities: np.ndarray,
        diagonal: bool = False,
    ) -> "SufficientStats":
        """Accumulate one chunk under a fixed responsibility matrix.

        ``data`` has shape ``(n, d)``, ``responsibilities`` shape
        ``(n, K)`` with rows summing to one (an E-step output).
        """
        data = np.atleast_2d(np.asarray(data, dtype=float))
        resp = np.atleast_2d(np.asarray(responsibilities, dtype=float))
        if resp.shape[0] != data.shape[0]:
            raise ValueError(
                f"{resp.shape[0]} responsibility rows for "
                f"{data.shape[0]} records"
            )
        counts = resp.sum(axis=0)
        sums = resp.T @ data
        if diagonal:
            outers = resp.T @ (data**2)
        else:
            # Σ_n r_nk x_n x_nᵀ as K products (d, n) @ (n, d) through BLAS.
            outers = (resp.T[:, None, :] * data.T) @ data
        return cls(counts, sums, outers, diagonal)

    @classmethod
    def from_mixture(
        cls, mixture: GaussianMixture, mass: float, diagonal: bool = False
    ) -> "SufficientStats":
        """Synthesize the stats a mixture would have produced.

        The exact inverse of :meth:`materialize` (minus the ridge):
        ``N_j = w_j · mass``, ``S_j = N_j μ_j``,
        ``O_j = N_j (Σ_j + μ_j μ_jᵀ)``.  This is how the refit ladder
        warm-starts incremental EM from a current or archived model that
        never tracked stats -- the model itself *is* the summary of the
        records it absorbed, ``mass`` says how many they were.
        """
        if mass <= 0.0:
            raise ValueError("mass must be positive")
        counts = mixture.weights * float(mass)
        means = np.stack([c.mean for c in mixture.components])
        sums = counts[:, None] * means
        if diagonal:
            variances = np.stack(
                [np.diag(c.covariance) for c in mixture.components]
            )
            outers = counts[:, None] * (variances + means**2)
        else:
            covs = np.stack([c.covariance for c in mixture.components])
            outers = counts[:, None, None] * (
                covs + np.einsum("ki,kj->kij", means, means)
            )
        return cls(counts, sums, outers, diagonal)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_components(self) -> int:
        return self.counts.size

    @property
    def dim(self) -> int:
        return self.sums.shape[1]

    @property
    def total(self) -> float:
        """Total absorbed mass ``Σ_j N_j`` (records, up to decay)."""
        return float(self.counts.sum())

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "SufficientStats") -> None:
        if (
            other.n_components != self.n_components
            or other.dim != self.dim
            or other.diagonal != self.diagonal
        ):
            raise ValueError(
                "incompatible sufficient statistics: "
                f"(K={self.n_components}, d={self.dim}, "
                f"diagonal={self.diagonal}) vs "
                f"(K={other.n_components}, d={other.dim}, "
                f"diagonal={other.diagonal})"
            )

    def merge(self, other: "SufficientStats") -> "SufficientStats":
        """Component-wise sum: the stats of the concatenated data."""
        self._check_compatible(other)
        return SufficientStats(
            self.counts + other.counts,
            self.sums + other.sums,
            self.outers + other.outers,
            self.diagonal,
        )

    def scaled(self, factor: float) -> "SufficientStats":
        """Uniformly decayed stats (``factor`` in ``(0, inf)``).

        Scaling all three accumulators by the same factor leaves the
        materialized ``(μ, Σ)`` unchanged and shrinks only the mass --
        the standard exponential-forgetting primitive.
        """
        if factor <= 0.0 or not np.isfinite(factor):
            raise ValueError("scale factor must be positive and finite")
        return SufficientStats(
            self.counts * factor,
            self.sums * factor,
            self.outers * factor,
            self.diagonal,
        )

    def blend(
        self,
        batch: "SufficientStats",
        eta: float,
        *,
        target: float | None = None,
    ) -> "SufficientStats":
        """Cappé–Moulines stepwise update: ``s ← (1−η)·s̄ + η·b̄``.

        Both operands are normalised to unit mass before the convex
        combination, then the result is rescaled to ``target`` -- by
        default the combined mass ``self.total + batch.total``.  The
        chunk is absorbed, but its influence on the parameters is
        ``η``, not its share of the records.  ``η`` follows the
        ``(t+2)^{-α}`` schedule in :func:`repro.core.em.incremental_em`,
        which passes ``target`` explicitly so repeated passes over the
        *same* chunk absorb its mass only once.
        """
        self._check_compatible(batch)
        if not 0.0 < eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if batch.total <= MIN_MASS:
            raise ValueError("cannot blend in an empty batch")
        if target is None:
            target = self.total + batch.total
        if target <= 0.0 or not np.isfinite(target):
            raise ValueError("target mass must be positive and finite")
        if self.total <= MIN_MASS:
            return batch.scaled(target / batch.total)
        return self.scaled((1.0 - eta) * target / self.total).merge(
            batch.scaled(eta * target / batch.total)
        )

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def materialize(
        self,
        *,
        covariance_ridge: float = 0.0,
        global_var: float = 1.0,
    ) -> GaussianMixture:
        """Exact ``(w, μ, Σ)`` of the accumulated evidence.

        ``covariance_ridge * global_var`` is added to every covariance
        diagonal, matching the batch M-step's regularisation
        (:func:`repro.core.em._m_step`); pass the trainer's
        ``EMConfig.covariance_ridge`` and the chunk's mean variance.

        Raises
        ------
        ValueError
            If any component's mass is below :data:`MIN_MASS` -- a
            starved component has no parameters; callers (the trainer's
            starvation re-seed, the ladder's cold fallback) must handle
            it before materializing.
        """
        if np.any(self.counts <= MIN_MASS):
            starved = np.flatnonzero(self.counts <= MIN_MASS).tolist()
            raise ValueError(
                f"cannot materialize starved components {starved}; "
                "re-seed or drop them first"
            )
        total = self.counts.sum()
        weights = self.counts / total
        means = self.sums / self.counts[:, None]
        ridge = covariance_ridge * global_var
        if self.diagonal:
            covariances = self.outers / self.counts[:, None] - means**2 + ridge
        else:
            covariances = (
                self.outers / self.counts[:, None, None]
                - means[:, :, None] * means[:, None, :]
                + ridge * np.eye(self.dim)
            )
        return GaussianMixture.from_stacks(
            weights, means, covariances, self.diagonal
        )

    # ------------------------------------------------------------------
    # Serialisation (checkpoints)
    # ------------------------------------------------------------------
    def to_dict(self) -> Mapping[str, object]:
        return {
            "counts": self.counts.tolist(),
            "sums": self.sums.tolist(),
            "outers": self.outers.tolist(),
            "diagonal": self.diagonal,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SufficientStats":
        return cls(
            np.asarray(payload["counts"], dtype=float),
            np.asarray(payload["sums"], dtype=float),
            np.asarray(payload["outers"], dtype=float),
            bool(payload.get("diagonal", False)),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SufficientStats):
            return NotImplemented
        return (
            self.diagonal == other.diagonal
            and np.array_equal(self.counts, other.counts)
            and np.array_equal(self.sums, other.sums)
            and np.array_equal(self.outers, other.outers)
        )

    def __repr__(self) -> str:
        return (
            f"SufficientStats(K={self.n_components}, dim={self.dim}, "
            f"total={self.total:.1f}, diagonal={self.diagonal})"
        )
