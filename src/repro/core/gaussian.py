"""Single Gaussian mixture components.

A :class:`Gaussian` is the atomic model object of the whole system: EM
estimates them, remote sites archive them, the network ships them (as
synopses) and the coordinator merges and splits them.  The class is
immutable -- every update produces a new instance -- which makes model
snapshots in the event table and in-flight network messages trivially
safe to share.

Both full and diagonal covariances are supported.  Theorem 3 notes the
memory trade-off between them (``d²`` versus ``d`` parameters); the
:meth:`Gaussian.payload_bytes` accounting reflects it so communication
benchmarks can report both variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.numerics.linalg import (
    LOG_2PI,
    SPDFactors,
    mahalanobis_sq,
    spd_factorize,
    spd_factorize_stack,
)

__all__ = ["Gaussian", "LOG_2PI"]

#: Bytes used per scalar parameter when accounting synopsis payloads.
#: The paper's implementation shipped doubles.
BYTES_PER_FLOAT = 8


@dataclass(frozen=True)
class Gaussian:
    """An immutable ``d``-dimensional Gaussian distribution.

    Parameters
    ----------
    mean:
        Mean vector ``μ`` of shape ``(d,)``.
    covariance:
        Covariance ``Σ`` of shape ``(d, d)``.  It is symmetrised and
        regularised on construction; the Cholesky factorisation is
        cached so repeated density evaluations are cheap.
    diagonal:
        When ``True`` the off-diagonal entries are zeroed and payload
        accounting uses ``d`` covariance parameters instead of ``d²``.
    """

    mean: np.ndarray
    covariance: np.ndarray
    diagonal: bool = False
    _factors: SPDFactors = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float).ravel()
        cov = np.asarray(self.covariance, dtype=float)
        if cov.ndim == 1:
            cov = np.diag(cov)
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"covariance shape {cov.shape} does not match "
                f"mean dimension {mean.size}"
            )
        if self.diagonal:
            cov = np.diag(np.diag(cov))
        self._adopt(mean, spd_factorize(cov))

    def _adopt(self, mean: np.ndarray, factors: SPDFactors) -> None:
        """Take ``mean`` and an accepted factorisation, read-only, as this
        component's state -- the one place a ``Gaussian`` gets its
        ``(μ, Σ, L)``.  ``factors`` must come from the regulariser in
        :mod:`repro.numerics.linalg`: every kernel relies on its floors."""
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", factors.covariance)
        object.__setattr__(self, "_factors", factors)
        mean.setflags(write=False)
        factors.covariance.setflags(write=False)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def stack(
        cls,
        means: np.ndarray,
        covariances: np.ndarray,
        diagonal: bool | Sequence[bool] = False,
    ) -> tuple[tuple["Gaussian", ...], tuple[np.ndarray, ...]]:
        """``K`` components regularised and factorised as one stack.

        ``means`` is ``(K, d)``, ``covariances`` ``(K, d, d)`` or ``(K, d)``
        per-axis variances, ``diagonal`` one flag or one per member.
        Returns the components -- each bit for bit ``Gaussian(means[j],
        covariances[j], diagonal)``, as views of shared arrays -- and the
        ``(means, L, log-dets)`` stacks a mixture derives the constants
        of :func:`~repro.numerics.linalg.batch_log_pdf` from, ``L⁻¹`` at
        its first density pass.
        """
        means = np.array(means, dtype=float, ndmin=2)
        covs = np.asarray(covariances, dtype=float)
        k, dim = means.shape
        if covs.shape == (k, dim):
            covs = np.where(np.eye(dim, dtype=bool), covs[:, :, None], 0.0)
        elif covs.shape != (k, dim, dim):
            raise ValueError(
                f"covariance stack {covs.shape} does not match "
                f"{k} means of dimension {dim}"
            )
        flags = np.empty(k, dtype=bool)
        flags[:] = diagonal
        if flags.any():
            keep = np.eye(dim, dtype=bool) | ~flags[:, None, None]
            covs = np.where(keep, covs, 0.0)
        covs, chols, log_dets = spd_factorize_stack(covs)
        components = []
        for mean, cov, chol, log_det, flag in zip(
            means, covs, chols, log_dets.tolist(), flags.tolist()
        ):
            component = object.__new__(cls)
            object.__setattr__(component, "diagonal", flag)
            component._adopt(mean, SPDFactors(cov, chol, log_det))
            components.append(component)
        means.setflags(write=False)
        return tuple(components), (means, chols, log_dets)

    @classmethod
    def spherical(
        cls, mean: np.ndarray, variance: float, diagonal: bool = False
    ) -> "Gaussian":
        """Gaussian with isotropic covariance ``variance * I``."""
        mean = np.asarray(mean, dtype=float).ravel()
        return cls(mean, variance * np.eye(mean.size), diagonal=diagonal)

    @classmethod
    def from_samples(
        cls, samples: np.ndarray, diagonal: bool = False
    ) -> "Gaussian":
        """Maximum-likelihood Gaussian fitted to ``samples``.

        Parameters
        ----------
        samples:
            Array of shape ``(n, d)`` with ``n >= 2``.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if samples.shape[0] < 2:
            raise ValueError("need at least two samples to fit a Gaussian")
        mean = samples.mean(axis=0)
        centered = samples - mean
        cov = centered.T @ centered / samples.shape[0]
        return cls(mean, cov, diagonal=diagonal)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Dimensionality ``d``."""
        return self.mean.size

    @property
    def log_det(self) -> float:
        """``log |Σ|`` from the cached factorisation."""
        return self._factors.log_det

    @property
    def precision(self) -> np.ndarray:
        """Explicit inverse covariance ``Σ⁻¹`` (cached)."""
        return self._factors.inverse()

    @property
    def factors(self) -> SPDFactors:
        """The cached :class:`~repro.numerics.linalg.SPDFactors`.

        Batched kernels (:func:`repro.numerics.linalg.batch_log_pdf`)
        pull each component's whitening matrix and log-determinant from
        here, so density evaluation never re-factorises a covariance --
        including across repeated chunk tests against archived models.
        """
        return self._factors

    # ------------------------------------------------------------------
    # Density evaluation
    # ------------------------------------------------------------------
    def mahalanobis_sq(self, points: np.ndarray) -> np.ndarray:
        """Squared Mahalanobis distance of each row of ``points``."""
        return mahalanobis_sq(points, self.mean, self._factors)

    def log_pdf(self, points: np.ndarray) -> np.ndarray:
        """Log density ``log p(x | this component)`` per row.

        This is the exact log of the paper's equation for ``p(x|j)``.
        """
        dist_sq = self.mahalanobis_sq(points)
        return -0.5 * (self.dim * LOG_2PI + self.log_det + dist_sq)

    def pdf(self, points: np.ndarray) -> np.ndarray:
        """Density ``p(x | this component)`` per row."""
        return np.exp(self.log_pdf(points))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` samples, shape ``(n, d)``."""
        if n < 0:
            raise ValueError("sample count must be non-negative")
        noise = rng.standard_normal((n, self.dim))
        return self.mean[None, :] + noise @ self._factors.cholesky.T

    # ------------------------------------------------------------------
    # Distances and combination
    # ------------------------------------------------------------------
    def symmetric_mahalanobis_sq(self, other: "Gaussian") -> float:
        """``(μ_i - μ_j)ᵀ (Σ_i⁻¹ + Σ_j⁻¹) (μ_i - μ_j)``.

        This is the quadratic form at the heart of the paper's
        ``M_merge`` (its reciprocal), ``M_split`` and ``M_remerge``
        criteria; the paper notes it can be derived from the symmetrised
        KL divergence between the components.
        """
        if other.mean.size != self.mean.size:
            raise ValueError("cannot compare Gaussians of different dimension")
        delta = self.mean - other.mean
        precision_sum = self._factors.inverse() + other._factors.inverse()
        return float(delta @ precision_sum @ delta)

    def merge_moments(
        self, other: "Gaussian", weight_self: float, weight_other: float
    ) -> "Gaussian":
        """Moment-matched Gaussian of the two-component sub-mixture.

        Exact mean/covariance of ``(w_i N_i + w_j N_j) / (w_i + w_j)``.
        Used both as the initial guess for the simplex merge fit and as
        the cheap ablation baseline.
        """
        total = weight_self + weight_other
        if total <= 0.0:
            raise ValueError("merged weight must be positive")
        a = weight_self / total
        b = weight_other / total
        mean = a * self.mean + b * other.mean
        delta_self = self.mean - mean
        delta_other = other.mean - mean
        cov = (
            a * (self.covariance + np.outer(delta_self, delta_self))
            + b * (other.covariance + np.outer(delta_other, delta_other))
        )
        return Gaussian(mean, cov, diagonal=self.diagonal and other.diagonal)

    # ------------------------------------------------------------------
    # Serialisation (synopsis payloads)
    # ------------------------------------------------------------------
    def payload_bytes(self) -> int:
        """Synopsis size in bytes when shipped to the coordinator.

        ``d`` mean parameters plus ``d²`` (full) or ``d`` (diagonal)
        covariance parameters, 8 bytes each.  The component weight is
        accounted separately by the mixture payload.
        """
        cov_params = self.dim if self.diagonal else self.dim * self.dim
        return BYTES_PER_FLOAT * (self.dim + cov_params)

    def to_dict(self) -> Mapping[str, object]:
        """Plain-data representation (for message payloads and tests)."""
        return {
            "mean": self.mean.tolist(),
            "covariance": self.covariance.tolist(),
            "diagonal": self.diagonal,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Gaussian":
        """Inverse of :meth:`to_dict`."""
        return cls(
            np.asarray(payload["mean"], dtype=float),
            np.asarray(payload["covariance"], dtype=float),
            diagonal=bool(payload.get("diagonal", False)),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gaussian):
            return NotImplemented
        return (
            self.diagonal == other.diagonal
            and np.array_equal(self.mean, other.mean)
            and np.array_equal(self.covariance, other.covariance)
        )

    def __hash__(self) -> int:
        return hash((self.mean.tobytes(), self.covariance.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Gaussian(dim={self.dim}, mean={np.round(self.mean, 4)}, "
            f"diagonal={self.diagonal})"
        )
