"""The fit test of the test-and-cluster strategy (section 5.1.2).

Before clustering an incoming chunk, the remote site *tests* it against
the current model by comparing average log likelihoods::

    J_fit = | AvgPr_n - AvgPr_0 |        (eq. 4)

where ``AvgPr_0`` is the reference likelihood recorded when the model
was trained and ``AvgPr_n`` is the likelihood of the new chunk under
that same model.  Theorem 2 guarantees that two same-distribution chunks
of Theorem 1 size differ by less than ``ε`` with high probability, so
``J_fit ≤ ε`` accepts the chunk and anything larger triggers EM.

Two likelihood variants are provided, mirroring the proof of Theorem 2:
the full mixture likelihood of Definition 1 and the "sharpened"
max-component form the proof argues for.

Adaptive threshold
------------------
Verbatim, the criterion ``J_fit ≤ ε`` is unstable: the sampling noise of
an average log likelihood over ``M`` records has standard deviation
``σ/√M`` where ``σ`` is the per-record log-density spread, and Theorem
1's ``M ∝ 1/ε`` does not drive that below ``ε`` (empirically ~45% of
same-distribution chunks fail at the paper's own defaults).  The paper
states the *intent* -- "δ controls the probability of the error" -- so
:func:`adaptive_threshold` realises it: the effective tolerance is::

    max(ε, z_δ · σ̂ · sqrt(2/M)),   z_δ = sqrt(2 ln(1/δ))

with ``σ̂`` estimated on the model's training chunk.  The ``sqrt(2/M)``
accounts for both sides of the comparison fluctuating; the sub-Gaussian
``z_δ`` caps the same-distribution failure probability near ``δ``.
Remote sites use the adaptive threshold by default
(``RemoteSiteConfig.adaptive_test``); setting it off reproduces the
verbatim criterion.  See DESIGN.md ("Faithful-intent corrections").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.core.mixture import EStep, GaussianMixture

__all__ = [
    "FitTestResult",
    "LikelihoodVariant",
    "adaptive_threshold",
    "average_log_likelihood",
    "fit_test",
    "log_density_spread",
    "reference_statistics",
]


class LikelihoodVariant(str, Enum):
    """Which per-record likelihood enters the average.

    ``MIXTURE`` is Definition 1 verbatim; ``MAX_COMPONENT`` replaces each
    record's mixture probability with its maximal weighted component
    probability, the sharpening used in the proof of Theorem 2.
    """

    MIXTURE = "mixture"
    MAX_COMPONENT = "max_component"


def _log_values(
    mixture: GaussianMixture,
    data: np.ndarray,
    variant: LikelihoodVariant,
    e_step: EStep | None = None,
) -> tuple[np.ndarray, EStep | None]:
    """Floored per-record log values of ``variant`` and the density pass
    they were read from: ``e_step`` when the caller holds it, ``None``
    for NaN records (marginal densities, :mod:`repro.core.missing`)."""
    max_component = variant is LikelihoodVariant.MAX_COMPONENT
    if e_step is None:
        data = np.atleast_2d(np.asarray(data, dtype=float))
        if np.isnan(data).any():
            from repro.core.missing import marginal_log_values

            values = marginal_log_values(mixture, data, max_component=max_component)
            return values, None
        e_step = mixture.e_step(data)
    values = e_step.max_log_density if max_component else e_step.log_density
    return values, e_step


def average_log_likelihood(
    mixture: GaussianMixture,
    data: np.ndarray,
    variant: LikelihoodVariant = LikelihoodVariant.MIXTURE,
) -> float:
    """``AvgPr`` of ``data`` under ``mixture`` (Definition 1).

    Parameters
    ----------
    mixture:
        The candidate model.
    data:
        Chunk of shape ``(n, d)``.
    variant:
        Likelihood flavour; see :class:`LikelihoodVariant`.

    Notes
    -----
    Records with NaN attributes are handled transparently: the average
    switches to *marginal* densities (the observed sub-vectors), per
    :mod:`repro.core.missing`.
    """
    return _average(_log_values(mixture, data, variant)[0])


def _average(values: np.ndarray) -> float:
    n = values.shape[0]
    if n == 0:
        raise ValueError("cannot average over an empty data set")
    # ``np.mean``'s own sum and division, without its dispatch.
    return float(np.add.reduce(values) / n)


def log_density_spread(
    mixture: GaussianMixture,
    data: np.ndarray,
    variant: LikelihoodVariant = LikelihoodVariant.MIXTURE,
) -> float:
    """Per-record log-density standard deviation ``σ̂``.

    Estimated on the model's training chunk and stored alongside the
    reference likelihood; feeds :func:`adaptive_threshold`.
    """
    return _spread(_log_values(mixture, data, variant)[0])


def _spread(values: np.ndarray) -> float:
    if values.shape[0] < 2:
        raise ValueError("need at least two records to estimate a spread")
    return float(np.std(values))


def reference_statistics(
    mixture: GaussianMixture,
    data: np.ndarray,
    variant: LikelihoodVariant = LikelihoodVariant.MIXTURE,
    *,
    e_step: EStep | None = None,
) -> tuple[float, float]:
    """``(AvgPr_0, σ̂)``: :func:`average_log_likelihood` and
    :func:`log_density_spread` read from one vector of per-record values
    -- one density pass, or none given the ``e_step`` of ``mixture``
    over ``data``."""
    values, _ = _log_values(mixture, data, variant, e_step)
    return _average(values), _spread(values)


def adaptive_threshold(
    epsilon: float, delta: float, sigma: float, m: int, m_ref: int | None = None
) -> float:
    """Variance-aware tolerance for the fit test (see module docstring).

    Parameters
    ----------
    epsilon:
        The paper's ``ε`` -- a hard floor on the tolerance.
    delta:
        Target same-distribution failure probability.
    sigma:
        Per-record log-density spread of the reference model
        (:func:`log_density_spread`).
    m:
        Size of the tested chunk.
    m_ref:
        Size of the sample the reference likelihood was estimated on;
        defaults to ``m`` (both sides fluctuate equally, giving the
        ``sqrt(2/m)`` of the module docstring).
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    if m < 1:
        raise ValueError("m must be at least 1")
    m_ref = m if m_ref is None else m_ref
    if m_ref < 1:
        raise ValueError("m_ref must be at least 1")
    z = float(np.sqrt(2.0 * np.log(1.0 / delta)))
    spread = float(np.sqrt(1.0 / m + 1.0 / m_ref))
    return max(epsilon, z * sigma * spread)


@dataclass(frozen=True)
class FitTestResult:
    """Outcome of one ``J_fit`` evaluation.

    Attributes
    ----------
    fits:
        ``True`` when ``j_fit ≤ epsilon`` -- the chunk is explained by
        the model and no EM run is needed.
    j_fit:
        The statistic ``|AvgPr_n - AvgPr_0|``.
    chunk_likelihood:
        ``AvgPr_n`` of the tested chunk.
    reference_likelihood:
        ``AvgPr_0`` recorded for the model.
    epsilon:
        The threshold used.
    e_step:
        The density pass ``chunk_likelihood`` was read from, for whoever
        processes the chunk next (:func:`repro.core.em.absorb_chunk`);
        ``None`` for a chunk with missing attributes (a marginal test).
    """

    fits: bool
    j_fit: float
    chunk_likelihood: float
    reference_likelihood: float
    epsilon: float
    e_step: EStep | None = field(default=None, compare=False, repr=False)


def fit_test(
    mixture: GaussianMixture,
    chunk: np.ndarray,
    reference_likelihood: float,
    epsilon: float,
    variant: LikelihoodVariant = LikelihoodVariant.MIXTURE,
) -> FitTestResult:
    """Run the test criterion of section 5.1.2 on one chunk.

    Parameters
    ----------
    mixture:
        Current model ``(w, μ, Σ)``.
    chunk:
        Incoming chunk of shape ``(M, d)``.
    reference_likelihood:
        ``AvgPr_0`` -- the average log likelihood the model achieved on
        the chunk it was trained on.
    epsilon:
        Error bound ``ε``; chunks within ``ε`` of the reference fit.
    variant:
        Likelihood flavour used for *both* sides of the comparison.

    Returns
    -------
    FitTestResult
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if not np.isfinite(reference_likelihood):
        raise ValueError("reference likelihood must be finite")
    values, e_step = _log_values(mixture, chunk, variant)
    chunk_likelihood = _average(values)
    j_fit = abs(chunk_likelihood - reference_likelihood)
    return FitTestResult(
        fits=j_fit <= epsilon,
        j_fit=j_fit,
        chunk_likelihood=chunk_likelihood,
        reference_likelihood=reference_likelihood,
        epsilon=epsilon,
        e_step=e_step,
    )
