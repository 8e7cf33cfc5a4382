"""Component merge/split criteria and the merged-component fit (§5.2).

The coordinator cannot see raw data, so it replaces SMEM's data-driven
merge criterion::

    J_merge(i, j) = Σ_x Pr(i|x) · Pr(j|x)

with the synopsis-only Mahalanobis criterion (eq. 5)::

    M_merge(i, j) = 1 / ((μ_i - μ_j)ᵀ (Σ_i⁻¹ + Σ_j⁻¹) (μ_i - μ_j))

Figure 1 of the paper argues the two rank component pairs almost
identically; ``J_merge`` lives with that comparison in
``benchmarks/paper/merging.py``, outside the system.

After choosing the pair with the largest ``M_merge``, the merged
component ``i'`` is fitted by minimising the L1 accuracy loss::

    l(x) = ∫ | w_i p(x|i) + w_j p(x|j) - (w_i + w_j) p(x|i') | dx

with the downhill-simplex method (the paper's choice, since ``l`` has no
usable derivatives).  The simplex search runs over the mean and a
log-Cholesky parameterisation of the covariance -- log-diagonal entries
keep every candidate positive definite -- and starts from the exact
moment-matched Gaussian, which is also exposed as the cheap ablation
baseline.  Vertices are scored in that parameter space
(:class:`repro.numerics.linalg.LogCholeskyL1Loss`, one per fit); only the
vertex the search returns is decoded into a :class:`Gaussian`.

The split-side criteria of Algorithm 2 (eq. 6) live here too:
``M_split(i, Mix)`` compares a component against its father mixture's
pooled Gaussian.  ``M_remerge`` is its reciprocal; the coordinator keeps
the distance itself and compares distances (DESIGN §17.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.numerics.integrate import monte_carlo_l1
from repro.numerics.linalg import (
    LOG_PIVOT_CLIP,
    LogCholeskyL1Loss,
    log_cholesky_index,
)
from repro.numerics.simplex import nelder_mead
from repro.obs.observer import Observer, ensure_observer

__all__ = [
    "MergeFit",
    "accuracy_loss",
    "fit_merged_component",
    "m_merge",
    "m_split",
    "pairwise_m_merge",
    "rank_merge_pairs",
]

#: ``M_merge`` of components with (numerically) identical means.  The
#: reciprocal distance diverges; we cap it so ranking stays total.
MERGE_SCORE_CAP = 1e12


# ----------------------------------------------------------------------
# Pairwise merge criteria
# ----------------------------------------------------------------------
def m_merge(component_i: Gaussian, component_j: Gaussian) -> float:
    """Synopsis-only merge criterion of eq. 5 (larger = merge sooner)."""
    distance = component_i.symmetric_mahalanobis_sq(component_j)
    if distance <= 1.0 / MERGE_SCORE_CAP:
        return MERGE_SCORE_CAP
    return 1.0 / distance


def m_split(component: Gaussian, mixture: GaussianMixture) -> float:
    """Split criterion of eq. 6 against the mixture's pooled Gaussian.

    A large value means the component sits far (in symmetrised
    Mahalanobis terms) from its father mixture and should be split out.
    """
    return component.symmetric_mahalanobis_sq(mixture.pooled_gaussian())


def pairwise_m_merge(mixture: GaussianMixture) -> np.ndarray:
    """Upper-triangular matrix of ``M_merge`` scores for all pairs.

    Entry ``[i, j]`` with ``i < j`` holds the score; the lower triangle
    and diagonal are zero.
    """
    k = mixture.n_components
    scores = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            scores[i, j] = m_merge(mixture.components[i], mixture.components[j])
    return scores


def rank_merge_pairs(mixture: GaussianMixture) -> list[tuple[int, int, float]]:
    """All component pairs sorted by descending ``M_merge``.

    Returns ``(i, j, score)`` triples with ``i < j`` -- the paper's "28
    combinations" for ``K = 8``.
    """
    scores = pairwise_m_merge(mixture)
    pairs = [
        (i, j, float(scores[i, j]))
        for i in range(mixture.n_components)
        for j in range(i + 1, mixture.n_components)
    ]
    pairs.sort(key=lambda item: item[2], reverse=True)
    return pairs


# ----------------------------------------------------------------------
# Accuracy loss and the merged-component fit
# ----------------------------------------------------------------------
def _two_component_density(
    weight_i: float, comp_i: Gaussian, weight_j: float, comp_j: Gaussian
):
    """Unnormalised density ``w_i p(x|i) + w_j p(x|j)`` as a callable."""

    def density(points: np.ndarray) -> np.ndarray:
        return weight_i * comp_i.pdf(points) + weight_j * comp_j.pdf(points)

    return density


def _proposal(weight_i, comp_i, weight_j, comp_j) -> GaussianMixture:
    """The normalised two-component sub-mixture the loss samples from."""
    total = weight_i + weight_j
    return GaussianMixture(
        np.array([weight_i / total, weight_j / total]), (comp_i, comp_j)
    )


def _draw_merge_samples(pair: tuple, n_samples: int, rng) -> np.ndarray:
    """A merge fit's common random numbers: its proposal's draws."""
    return _proposal(*pair).sample(n_samples, rng)[0]


def accuracy_loss(
    weight_i: float,
    comp_i: Gaussian,
    weight_j: float,
    comp_j: Gaussian,
    merged: Gaussian,
    n_samples: int = 2048,
    rng: np.random.Generator | None = None,
) -> float:
    """Monte-Carlo estimate of the paper's ``l(x)`` accuracy loss.

    The proposal is the normalised two-component sub-mixture, which by
    construction covers the support of both sides of the integrand.
    """
    if weight_i <= 0.0 or weight_j <= 0.0:
        raise ValueError("component weights must be positive")
    rng = rng if rng is not None else np.random.default_rng(0)
    total = weight_i + weight_j
    proposal = _proposal(weight_i, comp_i, weight_j, comp_j)

    pair_density = _two_component_density(weight_i, comp_i, weight_j, comp_j)

    def merged_density(points: np.ndarray) -> np.ndarray:
        return total * merged.pdf(points)

    return monte_carlo_l1(
        pair_density,
        merged_density,
        sampler=lambda n, gen: proposal.sample(n, gen)[0],
        proposal_density=proposal.pdf,
        n_samples=n_samples,
        rng=rng,
    )


def _pack_parameters(gaussian: Gaussian) -> np.ndarray:
    """Mean + log-Cholesky vectorisation of a Gaussian.

    The diagonal of the Cholesky factor is stored in log space so every
    parameter vector decodes to a valid (positive definite) covariance.
    """
    d = gaussian.dim
    chol = gaussian.factors.cholesky
    log_diag = np.log(np.diag(chol))
    lower = chol[np.tril_indices(d, k=-1)]
    return np.concatenate([gaussian.mean, log_diag, lower])


def _unpack_parameters(theta: np.ndarray, dim: int) -> Gaussian:
    """Inverse of :func:`_pack_parameters`."""
    mean = theta[:dim]
    log_diag = theta[dim : 2 * dim]
    lower = theta[2 * dim :]
    chol = np.zeros((dim, dim))
    chol[np.diag_indices(dim)] = np.exp(
        np.clip(log_diag, -LOG_PIVOT_CLIP, LOG_PIVOT_CLIP)
    )
    chol[np.tril_indices(dim, k=-1)] = lower
    return Gaussian(mean, chol @ chol.T)


def _sampled_loss(
    candidate: Gaussian,
    total: float,
    samples: np.ndarray,
    pair_values: np.ndarray,
    proposal_values: np.ndarray,
) -> float:
    """``l(x)`` of one candidate father on the fixed sample set."""
    merged_values = total * candidate.pdf(samples)
    return float(np.mean(np.abs(pair_values - merged_values) / proposal_values))


class _VertexObjective:
    """The simplex objective: ``(m, p)`` parameter rows → ``(m,)`` losses.

    Built once per fit.  Rows are scored in log-Cholesky space, with no
    :class:`Gaussian` built.  The few the kernel declines -- non-finite,
    near-singular or so ill-conditioned that the constructor's
    regularisation would floor, ridge or refuse them -- are decoded and
    scored as the ``Gaussian`` they stand for, so the search sees the
    density it would be handed.

    Such rows overflow on the way (``L Lᵀ`` may, and the constructor
    then refuses it).  Calling the object silences that per call; a
    search enters the same ``errstate`` once and hands :meth:`score` to
    the optimiser.
    """

    def __init__(
        self,
        total: float,
        samples: np.ndarray,
        pair_values: np.ndarray,
        proposal_values: np.ndarray,
    ) -> None:
        self._total = total
        self._samples = samples
        self._pair_values = pair_values
        self._proposal_values = proposal_values
        self._kernel = LogCholeskyL1Loss(
            np.ascontiguousarray(samples.T),
            pair_values / proposal_values,
            total / proposal_values,
            log_cholesky_index(samples.shape[1]),
        )

    def __call__(self, thetas: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return self.score(thetas)

    def score(self, thetas: np.ndarray) -> np.ndarray:
        """``__call__`` for a caller already inside its ``errstate``."""
        losses = self._kernel(thetas)
        for row, loss in enumerate(losses.tolist()):
            if loss != loss:  # nan: declined
                losses[row] = self._decoded_loss(thetas[row])
        return losses

    def _decoded_loss(self, theta: np.ndarray) -> float:
        try:
            candidate = _unpack_parameters(theta, self._samples.shape[1])
        except (ValueError, np.linalg.LinAlgError):
            return np.inf
        return _sampled_loss(
            candidate,
            self._total,
            self._samples,
            self._pair_values,
            self._proposal_values,
        )


@dataclass(frozen=True)
class MergeFit:
    """Result of fitting a merged component ``i'``.

    Attributes
    ----------
    component:
        The fitted father component.
    weight:
        Its weight ``w_i + w_j``.
    loss:
        Final L1 accuracy-loss estimate.
    moment_loss:
        Loss of the moment-matched initial guess (the ablation
        baseline); ``loss <= moment_loss`` up to Monte-Carlo noise.
    iterations:
        Simplex iterations spent.
    evaluations:
        Objective evaluations the search made (``0`` for the
        moment-matching method, which does not search).
    """

    component: Gaussian
    weight: float
    loss: float
    moment_loss: float
    iterations: int
    evaluations: int = 0


def fit_merged_component(
    weight_i: float,
    comp_i: Gaussian,
    weight_j: float,
    comp_j: Gaussian,
    n_samples: int = 2048,
    max_iter: int = 120,
    rng: np.random.Generator | None = None,
    method: str = "simplex",
    observer: Observer | None = None,
    *,
    samples: np.ndarray | None = None,
) -> MergeFit:
    """Fit the father component of a merge by minimising ``l(x)``.

    Parameters
    ----------
    weight_i / comp_i / weight_j / comp_j:
        The two components being merged, with their mixture weights.
    n_samples:
        Monte-Carlo budget per loss evaluation.  A common random-number
        sample set is drawn once and reused across simplex evaluations
        so the objective is deterministic (otherwise the simplex chases
        noise).
    max_iter:
        Simplex iteration budget.
    rng:
        Randomness for the loss sample set.
    method:
        ``"simplex"`` (the paper's downhill simplex fit) or
        ``"moment"`` (the exact moment-matching ablation, no search).
    observer:
        Optional :class:`~repro.obs.observer.Observer`: the simplex
        search is timed into the ``profile.simplex`` histogram and its
        iteration and objective-evaluation counts land in the
        ``merge.simplex_iterations`` / ``merge.simplex_evaluations``
        counters.
    samples:
        The sample set, already drawn from ``rng``; ``rng`` is then left
        untouched (the coordinator draws at merge time, fits on read).

    Returns
    -------
    MergeFit
    """
    if method not in ("simplex", "moment"):
        raise ValueError(f"unknown merge fit method {method!r}")
    obs = ensure_observer(observer)
    total = weight_i + weight_j
    moment = comp_i.merge_moments(comp_j, weight_i, weight_j)

    # Common random numbers: fix the proposal sample once.
    pair = (weight_i, comp_i, weight_j, comp_j)
    if samples is None:
        rng = rng if rng is not None else np.random.default_rng(0)
        samples = _draw_merge_samples(pair, n_samples, rng)
    proposal_values = _proposal(*pair).pdf(samples)
    pair_values = _two_component_density(*pair)(samples)

    def loss_of(candidate: Gaussian) -> float:
        return _sampled_loss(
            candidate, total, samples, pair_values, proposal_values
        )

    moment_loss = loss_of(moment)
    if method == "moment":
        return MergeFit(
            component=moment,
            weight=total,
            loss=moment_loss,
            moment_loss=moment_loss,
            iterations=0,
        )

    objective = _VertexObjective(total, samples, pair_values, proposal_values)
    with obs.timer("profile.simplex"), np.errstate(
        over="ignore", invalid="ignore"
    ):
        result = nelder_mead(
            objective.score,
            _pack_parameters(moment),
            max_iter=max_iter,
            xtol=1e-5,
            ftol=1e-7,
            vectorized=True,
        )
    if obs.enabled:
        obs.inc("merge.simplex_iterations", result.iterations)
        obs.inc("merge.simplex_evaluations", result.evaluations)
    fitted = _unpack_parameters(result.x, comp_i.dim)
    fitted_loss = loss_of(fitted)
    if fitted_loss > moment_loss:
        # The search never accepts a candidate worse than its seed.
        fitted, fitted_loss = moment, moment_loss
    return MergeFit(
        component=fitted,
        weight=total,
        loss=fitted_loss,
        moment_loss=moment_loss,
        iterations=result.iterations,
        evaluations=result.evaluations,
    )
