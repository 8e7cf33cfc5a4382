"""Reference density pass: the ``(n, K)`` kernel before the row layout.

This is the mixture density path of ``repro.numerics.linalg`` →
``repro.core.mixture`` as it stood before the pass was written as ``K``
contiguous rows:

* every pass re-derives the mixture's constants -- the ``L⁻¹μ`` shift
  ``einsum``, the contiguous whitening stack, ``log w`` under
  ``errstate``;
* the squared Mahalanobis distances come back as an ``(n, K)`` matrix,
  and the log densities and the weighted matrix are built from it
  through ``(n, K)`` temporaries;
* ``shifted_exp`` copies the ``(n, K)`` matrix into ``K`` rows and runs
  ``exp`` over every shifted value, subnormal results included (no
  floor).

It is kept here, out of ``src/``, as the oracle of
``tests/numerics/test_density_oracle.py``, which holds the row kernel to
these bytes.
"""

from __future__ import annotations

import numpy as np

from repro.core.mixture import LOG_DENSITY_FLOOR, GaussianMixture
from repro.numerics.linalg import LOG_2PI

__all__ = [
    "batch_log_pdf",
    "batch_mahalanobis_sq",
    "oracle_component_log_pdf",
    "oracle_e_step",
    "oracle_weighted_log_pdf",
    "shifted_exp",
]


def shifted_exp(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(peak, finite, scaled, totals)`` over one ``(K, n)`` copy of the
    ``(n, K)`` matrix ``values``; ``exp`` of every shifted value."""
    scaled = np.array(values.T, dtype=float, order="C")
    peak = np.maximum.reduce(scaled, axis=0)
    finite = np.isfinite(peak)
    scaled -= peak if finite.all() else np.where(finite, peak, 0.0)
    np.exp(scaled, out=scaled)
    return peak, finite, scaled, np.add.reduce(scaled, axis=0)


def batch_mahalanobis_sq(
    points: np.ndarray, means: np.ndarray, inverse_choleskys: np.ndarray
) -> np.ndarray:
    """Squared Mahalanobis distances to ``k`` Gaussians, shape ``(n, k)``:
    one ``(n, d) @ (d, k·d)`` GEMM, the shift and the whitening stack
    formed on every call."""
    points = np.asarray(points, dtype=float)
    inverse_choleskys = np.asarray(inverse_choleskys, dtype=float)
    k, d = inverse_choleskys.shape[0], inverse_choleskys.shape[1]
    shift = np.einsum("kde,ke->kd", inverse_choleskys, means)
    stacked = np.ascontiguousarray(inverse_choleskys.reshape(k * d, d))
    whitened = (points @ stacked.T).reshape(points.shape[0], k, d)
    whitened -= shift[None, :, :]
    return np.einsum("nkd,nkd->nk", whitened, whitened)


def batch_log_pdf(
    points: np.ndarray,
    means: np.ndarray,
    inverse_choleskys: np.ndarray,
    log_dets: np.ndarray,
) -> np.ndarray:
    """``-0.5 (d log 2π + log |Σ_j| + maha²(x, j))``, shape ``(n, k)``."""
    dim = np.asarray(points).shape[-1]
    dist_sq = batch_mahalanobis_sq(points, means, inverse_choleskys)
    return -0.5 * (dim * LOG_2PI + np.asarray(log_dets)[None, :] + dist_sq)


def _kernel_stack(mixture: GaussianMixture) -> tuple[np.ndarray, ...]:
    """``(means, L⁻¹, log-dets)`` stacked from the components: each
    ``L⁻¹`` keeps the Fortran order ``trtrs`` gave it."""
    return (
        np.stack([c.mean for c in mixture.components]),
        np.stack([c.factors.inverse_cholesky() for c in mixture.components]),
        np.array([c.log_det for c in mixture.components]),
    )


def oracle_component_log_pdf(
    mixture: GaussianMixture, points: np.ndarray
) -> np.ndarray:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return batch_log_pdf(points, *_kernel_stack(mixture))


def oracle_weighted_log_pdf(
    mixture: GaussianMixture, points: np.ndarray
) -> np.ndarray:
    with np.errstate(divide="ignore"):
        log_weights = np.log(mixture.weights)
    return oracle_component_log_pdf(mixture, points) + log_weights[None, :]


def oracle_e_step(mixture: GaussianMixture, points: np.ndarray) -> dict:
    """What the ``EStep`` over the ``(n, K)`` matrix read: the floored
    log density, its max-component form, the posteriors (C order, the
    weights on an all ``-inf`` row) and ``np.mean`` of the first."""
    weighted = oracle_weighted_log_pdf(mixture, points)
    peak, finite, scaled, totals = shifted_exp(weighted)
    log_density = peak + np.log(totals)
    log_density[~finite] = -np.inf
    with np.errstate(invalid="ignore"):
        posterior = np.ascontiguousarray((scaled / totals).T)
    posterior[~finite] = mixture.weights
    log_density = np.maximum(log_density, LOG_DENSITY_FLOOR)
    return {
        "log_density": log_density,
        "max_log_density": np.maximum(peak, LOG_DENSITY_FLOOR),
        "responsibilities": posterior,
        "log_likelihood": (
            float(np.mean(log_density)) if len(log_density) else None
        ),
    }
