"""EM for records with missing attributes.

The paper motivates the EM approach with "noisy or incomplete data
records" -- e.g. corrupted click streams in P2P networks or partial
sensor readings -- and cites Dempster et al.'s treatment of incomplete
data.  This module implements that promise properly: records may carry
``NaN`` for unobserved attributes, and the EM machinery handles them
*exactly* rather than by imputation hacks:

* **E-step** -- responsibilities come from the *marginal* density of
  each record's observed sub-vector (:func:`marginal_log_pdf`);
* **M-step** -- missing coordinates enter through their conditional
  expectations given the observed ones,
  ``x̂_mis = μ_mis + Σ_mo Σ_oo⁻¹ (x_obs − μ_obs)``, and the conditional
  covariance ``Σ_mm − Σ_mo Σ_oo⁻¹ Σ_om`` is added back to the second
  moment so the covariance estimate is unbiased (the classical
  missing-data EM of Dempster/Laird/Rubin).

Records are grouped by missingness *pattern* so each distinct pattern
costs one set of matrix factorisations, keeping the common cases (no
missing values, one hot attribute missing) fast.

The fit test extends naturally: :func:`average_marginal_log_likelihood`
is Definition 1 computed on marginal densities, so the test-and-cluster
strategy keeps working on incomplete streams
(``RemoteSiteConfig(handle_missing=True)``).

This trainer has **no incremental variant**: sufficient statistics over
conditional expectations are pattern-dependent and do not merge across
chunks, so the refit ladder (DESIGN §14) dispatches NaN-bearing chunks
straight to a cold :func:`fit_em_missing` -- an explicit decision in
``RemoteSite._refit_warm`` / ``_absorb_passing_chunk``, not a silent
fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.em import EMConfig, EMResult, kmeans_plus_plus_centers
from repro.core.gaussian import Gaussian
from repro.core.mixture import EStep, GaussianMixture

__all__ = [
    "average_marginal_log_likelihood",
    "fit_em_missing",
    "group_by_pattern",
    "marginal_log_pdf",
    "mean_impute",
]

#: Responsibility mass floor (matches the complete-data trainer).
MIN_COMPONENT_MASS = 1e-8


@dataclass(frozen=True)
class PatternGroup:
    """Rows sharing one missingness pattern.

    Attributes
    ----------
    observed:
        Boolean mask of observed attributes, shape ``(d,)``.
    indices:
        Row indices (into the original data) in this group.
    rows:
        The group's records, shape ``(len(indices), d)`` (NaNs intact).
    """

    observed: np.ndarray
    indices: np.ndarray
    rows: np.ndarray


def group_by_pattern(data: np.ndarray) -> list[PatternGroup]:
    """Partition rows by their missingness pattern.

    Rows with *no* observed attribute are rejected -- they carry no
    information and would make responsibilities undefined.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    observed = ~np.isnan(data)
    if not observed.any(axis=1).all():
        raise ValueError("records with every attribute missing are not allowed")
    # Group via row-wise byte keys of the boolean mask.
    raw_keys = [mask.tobytes() for mask in observed]
    groups: dict[bytes, list[int]] = {}
    for index, key in enumerate(raw_keys):
        groups.setdefault(key, []).append(index)
    result = []
    for key, indices in groups.items():
        index_array = np.asarray(indices, dtype=int)
        result.append(
            PatternGroup(
                observed=observed[index_array[0]].copy(),
                indices=index_array,
                rows=data[index_array],
            )
        )
    return result


def mean_impute(data: np.ndarray) -> np.ndarray:
    """Replace NaNs by per-attribute observed means (seeding only).

    An attribute that is missing everywhere imputes to zero.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float)).copy()
    mask = np.isnan(data)
    counts = (~mask).sum(axis=0)
    sums = np.where(mask, 0.0, data).sum(axis=0)
    means = np.divide(
        sums, counts, out=np.zeros_like(sums), where=counts > 0
    )
    data[mask] = np.broadcast_to(means, data.shape)[mask]
    return data


def _marginal_parameters(
    gaussian: Gaussian, observed: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Marginal ``(μ_obs, Σ_oo)`` of a Gaussian on the observed attrs."""
    mean = gaussian.mean[observed]
    cov = gaussian.covariance[np.ix_(observed, observed)]
    return mean, cov


def marginal_log_pdf(gaussian: Gaussian, data: np.ndarray) -> np.ndarray:
    """Per-row log density of each record's *observed* sub-vector.

    Rows without missing values reduce to the ordinary
    :meth:`Gaussian.log_pdf`.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    out = np.empty(data.shape[0])
    for group in group_by_pattern(data):
        mean, cov = _marginal_parameters(gaussian, group.observed)
        sub = Gaussian(mean, cov)
        out[group.indices] = sub.log_pdf(group.rows[:, group.observed])
    return out


def _marginal_e_step(mixture: GaussianMixture, data: np.ndarray) -> EStep:
    """The density pass over ``log(w_j) + log p(x_obs | j)``, shape
    ``(n, K)``: the one log-sum-exp, read on marginal densities."""
    with np.errstate(divide="ignore"):
        log_weights = np.log(mixture.weights)
    columns = [
        marginal_log_pdf(component, data) + log_weights[j]
        for j, component in enumerate(mixture.components)
    ]
    return EStep(mixture.weights, np.column_stack(columns))


def marginal_log_values(
    mixture: GaussianMixture, data: np.ndarray, max_component: bool = False
) -> np.ndarray:
    """Per-record marginal log densities (NaNs marginalised out).

    ``max_component=True`` returns the Theorem 2 "sharpened" per-record
    statistic ``max_j log(w_j p(x_obs|j))`` instead of the full mixture
    log density.
    """
    e_step = _marginal_e_step(mixture, data)
    return e_step.max_log_density if max_component else e_step.log_density


def average_marginal_log_likelihood(
    mixture: GaussianMixture, data: np.ndarray
) -> float:
    """Definition 1 on marginal densities (NaNs marginalised out)."""
    return float(np.mean(marginal_log_values(mixture, data)))


def marginal_posterior(
    mixture: GaussianMixture, data: np.ndarray
) -> np.ndarray:
    """Posterior ``Pr(j | x_obs)`` from marginal densities."""
    return _marginal_e_step(mixture, data).responsibilities


def _m_step_missing(
    data_groups: list[PatternGroup],
    n_records: int,
    dim: int,
    responsibilities: np.ndarray,
    mixture: GaussianMixture,
    config: EMConfig,
) -> GaussianMixture:
    """Exact missing-data M-step over pattern groups."""
    k = mixture.n_components
    masses = responsibilities.sum(axis=0)
    weights = np.maximum(masses, MIN_COMPONENT_MASS) / n_records
    components: list[Gaussian] = []

    # Per component, accumulate completed moments over pattern groups.
    for j, component in enumerate(mixture.components):
        mass = masses[j]
        if mass <= MIN_COMPONENT_MASS * n_records:
            components.append(component)  # starving: keep as is
            continue
        linear = np.zeros(dim)
        outer = np.zeros((dim, dim))
        for group in data_groups:
            obs = group.observed
            mis = ~obs
            resp = responsibilities[group.indices, j]
            x_obs = group.rows[:, obs]
            mu_obs, cov_oo = _marginal_parameters(component, obs)
            completed = np.empty((group.rows.shape[0], dim))
            completed[:, obs] = x_obs
            if mis.any():
                cov_mo = component.covariance[np.ix_(mis, obs)]
                gain = cov_mo @ np.linalg.solve(
                    cov_oo + 1e-12 * np.eye(cov_oo.shape[0]),
                    np.eye(cov_oo.shape[0]),
                )
                mu_mis = component.mean[mis]
                completed[:, mis] = (
                    mu_mis[None, :]
                    + (x_obs - mu_obs[None, :]) @ gain.T
                )
                # Conditional covariance of the missing block.
                cond_cov = (
                    component.covariance[np.ix_(mis, mis)]
                    - gain @ component.covariance[np.ix_(obs, mis)]
                )
            else:
                cond_cov = None
            linear += resp @ completed
            outer += np.einsum("n,ni,nj->ij", resp, completed, completed)
            if cond_cov is not None:
                correction = np.zeros((dim, dim))
                correction[np.ix_(mis, mis)] = cond_cov
                outer += float(resp.sum()) * correction
        mean = linear / mass
        cov = outer / mass - np.outer(mean, mean)
        cov = cov + config.covariance_ridge * np.eye(dim)
        if config.diagonal:
            cov = np.diag(np.diag(cov))
        components.append(Gaussian(mean, cov, diagonal=config.diagonal))
    return GaussianMixture(np.asarray(weights), tuple(components))


def fit_em_missing(
    data: np.ndarray,
    config: EMConfig | None = None,
    rng: np.random.Generator | None = None,
    initial: GaussianMixture | None = None,
) -> EMResult:
    """Fit a Gaussian mixture to data that may contain NaN attributes.

    Mirrors :func:`repro.core.em.fit_em`: seeding happens on
    mean-imputed data (k-means++ with a shared spherical covariance),
    then exact missing-data E/M iterations run until the average
    *marginal* log likelihood stabilises.

    Parameters
    ----------
    data:
        Records of shape ``(n, d)``; NaN marks a missing attribute.
        Fully missing records are rejected.
    config / rng / initial:
        As in :func:`repro.core.em.fit_em` (``initial`` replaces the
        cold seed rather than racing against restarts -- missing-data
        iterations are costlier, so we keep a single candidate).

    Returns
    -------
    EMResult
    """
    config = config or EMConfig()
    rng = rng if rng is not None else np.random.default_rng()
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[0] < config.n_components:
        raise ValueError(
            f"need at least n_components={config.n_components} records"
        )
    if np.isinf(data).any():
        raise ValueError("data contains infinite values")
    groups = group_by_pattern(data)
    dim = data.shape[1]

    if initial is not None:
        if initial.dim != dim:
            raise ValueError("warm-start mixture dimension mismatch")
        mixture = initial
    else:
        imputed = mean_impute(data)
        k = min(config.n_components, data.shape[0])
        centers = kmeans_plus_plus_centers(imputed, k, rng)
        variance = max(float(np.mean(np.var(imputed, axis=0))) / k, 1e-6)
        mixture = GaussianMixture.from_stacks(
            np.full(k, 1.0 / k), centers, np.full((k, dim), variance), config.diagonal
        )

    history: list[float] = []
    previous = -np.inf
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iter + 1):
        responsibilities = marginal_posterior(mixture, data)
        mixture = _m_step_missing(
            groups, data.shape[0], dim, responsibilities, mixture, config
        )
        current = average_marginal_log_likelihood(mixture, data)
        history.append(current)
        if np.isfinite(previous) and abs(current - previous) <= config.tol:
            converged = True
            break
        previous = current
    return EMResult(
        mixture=mixture,
        log_likelihood=history[-1],
        n_iter=iterations,
        converged=converged,
        history=tuple(history),
    )
