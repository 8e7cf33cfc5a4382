"""Reference merge fit: one ``Gaussian`` built per simplex vertex.

This is the objective ``repro.core.merging.fit_merged_component`` used
before it scored vertices in log-Cholesky space.  It is kept here, out
of ``src/``, as the oracle of the kernel-equivalence and
trajectory-identity suites: every vertex is decoded by
``_unpack_parameters`` into ``Gaussian(mean, L Lᵀ)`` -- regularised and
re-factorised by the constructor -- and scored through ``Gaussian.pdf``,
and the search evaluates its vertices one at a time.  The search itself
is the oracle's own too (``tests.numerics.simplex_oracle``), so a change
to ``repro.numerics.simplex`` moves one side of the comparison only.
"""

from __future__ import annotations

import numpy as np

from repro.core.gaussian import Gaussian
from repro.core.merging import (
    MergeFit,
    _pack_parameters,
    _two_component_density,
    _unpack_parameters,
)
from repro.core.mixture import GaussianMixture
from tests.numerics.simplex_oracle import nelder_mead


def oracle_loss(
    theta: np.ndarray,
    samples: np.ndarray,
    pair_values: np.ndarray,
    proposal_values: np.ndarray,
    total: float,
) -> float:
    """The per-vertex loss: ``θ`` → ``Gaussian`` → ``pdf`` → L1 mean."""
    try:
        candidate = _unpack_parameters(theta, samples.shape[1])
    except (ValueError, np.linalg.LinAlgError):
        return np.inf
    merged_values = total * candidate.pdf(samples)
    return float(np.mean(np.abs(pair_values - merged_values) / proposal_values))


def oracle_fit_merged_component(
    weight_i: float,
    comp_i: Gaussian,
    weight_j: float,
    comp_j: Gaussian,
    n_samples: int = 2048,
    max_iter: int = 120,
    rng: np.random.Generator | None = None,
    method: str = "simplex",
    observer=None,
    *,
    samples: np.ndarray | None = None,
) -> MergeFit:
    """``fit_merged_component`` with the per-vertex ``Gaussian`` objective.

    ``samples``, when given, is the sample set already drawn; ``rng`` is
    then not used.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    total = weight_i + weight_j
    moment = comp_i.merge_moments(comp_j, weight_i, weight_j)
    proposal = GaussianMixture(
        np.array([weight_i / total, weight_j / total]), (comp_i, comp_j)
    )
    if samples is None:
        samples, _ = proposal.sample(n_samples, rng)
    proposal_values = proposal.pdf(samples)
    pair_values = _two_component_density(weight_i, comp_i, weight_j, comp_j)(
        samples
    )

    def objective(theta: np.ndarray) -> float:
        return oracle_loss(theta, samples, pair_values, proposal_values, total)

    moment_theta = _pack_parameters(moment)
    moment_loss = float(
        np.mean(
            np.abs(pair_values - total * moment.pdf(samples)) / proposal_values
        )
    )
    if method == "moment":
        return MergeFit(moment, total, moment_loss, moment_loss, 0)
    result = nelder_mead(
        objective, moment_theta, max_iter=max_iter, xtol=1e-5, ftol=1e-7
    )
    fitted = _unpack_parameters(result.x, comp_i.dim)
    fitted_loss = objective(result.x)
    if fitted_loss > moment_loss:
        fitted, fitted_loss = moment, moment_loss
    return MergeFit(
        component=fitted,
        weight=total,
        loss=fitted_loss,
        moment_loss=moment_loss,
        iterations=result.iterations,
        evaluations=result.evaluations,
    )
