"""Classical EM for Gaussian mixtures (paper section 3.2).

The trainer follows the paper's recipe exactly:

1. initialise ``(w_j, μ_j, Σ_j)``,
2. E-step: posteriors ``Pr(j|x)`` (eq. 2),
3. M-step: re-estimate weights, means and covariances,
4. stop when the log likelihood change drops below the user threshold
   ``ϖ`` (``tol`` here).

Production details the paper leaves implicit are handled explicitly:
k-means++-style seeding (with a plain random fallback), responsibility
floors against component starvation, covariance regularisation against
chunk-sized degeneracies, and an optional diagonal-covariance mode for
the Theorem 3 memory trade-off.  Multiple restarts keep the best
likelihood, which matters for the small chunk sizes Theorem 1 produces.

Beyond the batch trainer, this module carries the incremental pipeline
(DESIGN.md section 14) that the refit ladder in
:mod:`repro.core.remote` runs before falling back to a cold fit:

- :func:`incremental_em`, the ladder's warm rung, absorbs a failing
  chunk with a few stepwise E-M passes (Cappé–Moulines stepsize
  ``(t+2)^{-α}``) over the sufficient statistics in
  :mod:`repro.core.suffstats`;
- :func:`absorb_chunk` folds a *passing* chunk into the running stats
  in one pass, no EM iterations at all.

Both are opt-in; with ``EMConfig.incremental`` left off the batch
path is bit-for-bit what it was before they existed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
import numpy as np

from repro.core.mixture import EStep, GaussianMixture
from repro.core.suffstats import SufficientStats
from repro.obs.observer import Observer, ensure_observer

__all__ = [
    "EMConfig",
    "EMResult",
    "IncrementalResult",
    "absorb_chunk",
    "fit_em",
    "incremental_em",
    "kmeans_plus_plus_centers",
]

#: Responsibility mass floor per component; components starving below it
#: are re-seeded on the record the model currently explains worst.
MIN_COMPONENT_MASS = 1e-8

#: Cappé–Moulines stepsize exponent ``α`` of :func:`incremental_em`
#: (``η_t = (t+2)^{-α}``); it must lie in ``(0.5, 1.0]`` for the
#: stepwise updates to converge.
STEP_ALPHA = 0.7

#: Stepwise E-M passes :func:`incremental_em` runs over a failing chunk
#: before the refit ladder judges the warm fit.
INCREMENTAL_STEPS = 2


@dataclass(frozen=True, kw_only=True)
class EMConfig:
    """Hyper-parameters of the EM trainer.

    Parameters
    ----------
    n_components:
        Number of clusters ``K``.
    tol:
        The paper's ``ϖ``: stop when ``|Lᵢ - Lᵢ₊₁| ≤ tol`` (on the
        *average* log likelihood so the threshold is data-size
        independent).
    max_iter:
        Iteration cap per restart.
    n_init:
        Number of random restarts; the fit with the best final
        likelihood wins.
    diagonal:
        Fit diagonal covariances (the ``d``-parameter variant mentioned
        in Theorem 3) instead of full ones.
    covariance_ridge:
        Relative ridge added to every M-step covariance.
    init:
        ``"kmeans++"`` (default) or ``"random"`` seeding.
    incremental:
        Opt into the incremental refit ladder: sites try
        reactivation → warm-start stepwise E-M → cold refit instead of
        always cold-refitting a failing chunk, and absorb passing
        chunks through the sufficient statistics in one pass.  Off by
        default; the default path is pinned byte-identical to the
        pre-ladder trainer.
    """

    n_components: int = 5
    tol: float = 1e-4
    max_iter: int = 100
    n_init: int = 2
    diagonal: bool = False
    covariance_ridge: float = 1e-6
    init: str = "kmeans++"
    incremental: bool = False

    def __post_init__(self) -> None:
        if self.n_components < 1:
            raise ValueError("n_components must be at least 1")
        if self.tol < 0.0:
            raise ValueError("tol must be non-negative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.n_init < 1:
            raise ValueError("n_init must be at least 1")
        if self.init not in ("kmeans++", "random"):
            raise ValueError(f"unknown init strategy {self.init!r}")


@dataclass(frozen=True)
class EMResult:
    """Outcome of an EM fit.

    Attributes
    ----------
    mixture:
        The fitted :class:`GaussianMixture`.
    log_likelihood:
        Final average log likelihood (``AvgPr`` of Definition 1) on the
        training chunk.
    n_iter:
        Iterations of the winning restart.
    converged:
        Whether the winning restart met the ``tol`` criterion.
    history:
        Average log likelihood after each iteration of the winning
        restart (non-decreasing, per Dempster et al.).
    """

    mixture: GaussianMixture
    log_likelihood: float
    n_iter: int
    converged: bool
    history: tuple[float, ...]


def kmeans_plus_plus_centers(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread ``k`` centers by squared distance.

    Returns an array of shape ``(k, d)``.  Duplicated records are fine;
    when all remaining distances are zero the next center is drawn
    uniformly.
    """
    n = data.shape[0]
    if k > n:
        raise ValueError(f"cannot seed {k} centers from {n} records")
    centers = np.empty((k, data.shape[1]))
    first = int(rng.integers(n))
    centers[0] = data[first]
    closest_sq = np.sum((data - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = float(closest_sq.sum())
        if total <= 0.0:
            choice = int(rng.integers(n))
        else:
            choice = int(rng.choice(n, p=closest_sq / total))
        centers[i] = data[choice]
        dist_sq = np.sum((data - centers[i]) ** 2, axis=1)
        np.minimum(closest_sq, dist_sq, out=closest_sq)
    return centers


def _initial_mixture(
    data: np.ndarray, config: EMConfig, rng: np.random.Generator, global_var: float
) -> GaussianMixture:
    """Seed a mixture: chosen centers, shared spherical covariance."""
    k = min(config.n_components, data.shape[0])
    if config.init == "kmeans++" and data.shape[0] >= k:
        centers = kmeans_plus_plus_centers(data, k, rng)
    else:
        indices = rng.choice(data.shape[0], size=k, replace=False)
        centers = data[indices]
    variance = max(global_var / max(k, 1), 1e-6)
    return GaussianMixture.from_stacks(
        np.full(k, 1.0 / k),
        centers,
        np.full(centers.shape, variance),
        config.diagonal,
    )


def _m_step(
    data: np.ndarray,
    e_step: EStep,
    config: EMConfig,
    global_var: float,
) -> GaussianMixture:
    """Re-estimate ``(w, μ, Σ)`` from posteriors (paper step 2b).

    ``e_step`` is the current mixture's density pass over ``data``.  A
    component whose responsibility mass collapses is re-seeded on the
    record with the lowest current mixture density -- the standard cure
    for starvation on tiny chunks.
    """
    responsibilities = e_step.responsibilities
    n, k = responsibilities.shape
    dim = data.shape[1]
    masses = responsibilities.sum(axis=0)
    weights = masses / n
    means = np.zeros((k, dim))
    covariances = np.zeros((k, dim, dim))
    starved = masses < MIN_COMPONENT_MASS * n
    # The moments stay one product per component: a column of the
    # posterior against the chunk is not the BLAS kernel (nor the bits)
    # of the whole posterior against it.
    for j in np.flatnonzero(~starved):
        resp = responsibilities[:, j]
        mass = masses[j]
        means[j] = mean = resp @ data / mass
        centered = data - mean
        if config.diagonal:
            covariances[j] = np.diag(resp @ (centered**2) / mass)
        else:
            covariances[j] = (centered * resp[:, None]).T @ centered / mass
    covariances += config.covariance_ridge * global_var * np.eye(dim)
    if np.any(starved):
        # Re-seeded members are spherical, unridged, in the same stack.
        reseeded = np.flatnonzero(starved)
        worst_order = np.argsort(e_step.log_density)
        cursor = np.minimum(np.arange(reseeded.size), n - 1)
        means[reseeded] = data[worst_order[cursor]]
        covariances[reseeded] = global_var * np.eye(dim)
        weights[reseeded] = 1.0 / n
    return GaussianMixture.from_stacks(
        weights, means, covariances, config.diagonal
    )


def _em_loop(
    data: np.ndarray,
    mixture: GaussianMixture,
    config: EMConfig,
    global_var: float,
) -> EMResult:
    """Iterate E/M from ``mixture`` until the ``tol`` criterion holds.

    The single driver behind cold restarts and warm refinement.  The
    density pass whose likelihood decides convergence also gives the next
    M-step its posteriors: a fit of ``n`` iterations makes ``n + 1`` passes.
    """
    history: list[float] = []
    previous = -np.inf
    converged = False
    iterations = 0
    e_step = mixture.e_step(data)
    for iterations in range(1, config.max_iter + 1):
        mixture = _m_step(data, e_step, config, global_var)
        e_step = mixture.e_step(data)
        current = e_step.log_likelihood
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


def fit_em(
    data: np.ndarray,
    config: EMConfig | None = None,
    rng: np.random.Generator | None = None,
    initial: GaussianMixture | None = None,
    observer: Observer | None = None,
    *,
    warm_start: GaussianMixture | Sequence[GaussianMixture] | None = None,
) -> EMResult:
    """Fit a Gaussian mixture to ``data`` with the classical EM algorithm.

    Parameters
    ----------
    data:
        Records of shape ``(n, d)``; ``n`` must be at least
        ``n_components``.
    config:
        Trainer hyper-parameters; defaults to :class:`EMConfig` with the
        paper's ``K = 5``.
    rng:
        Randomness source for seeding and restarts.
    initial:
        Optional extra candidate mixture.  When provided it is refined
        as one additional candidate *alongside* ``n_init`` cold
        restarts -- the pre-ladder warm-start flavour kept for
        compatibility (``RemoteSiteConfig.warm_start``).
    observer:
        Optional :class:`~repro.obs.observer.Observer`: the whole fit is
        timed into the ``profile.em_fit`` histogram and the winning
        restart's iteration count and log-likelihood trajectory are
        emitted as one ``em.fit`` trace event.
    warm_start:
        One mixture or a sequence of them to refine *instead of* the
        ``n_init`` cold restarts -- no k-means++ seeding at all.
        Mutually exclusive with ``initial``.  No caller in the package
        passes it: the refit ladder's warm rung is
        :func:`incremental_em`, and ``RemoteSiteConfig.warm_start``
        goes through ``initial``.

    Returns
    -------
    EMResult
        The best fit (by final average log likelihood) over all
        candidates.
    """
    config = config or EMConfig()
    rng = rng if rng is not None else np.random.default_rng()
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.ndim != 2:
        raise ValueError("data must be a 2-d array of records")
    if data.shape[0] < config.n_components:
        raise ValueError(
            f"need at least n_components={config.n_components} records, "
            f"got {data.shape[0]}"
        )
    if not np.all(np.isfinite(data)):
        raise ValueError("data contains non-finite records")
    if warm_start is not None:
        if initial is not None:
            raise ValueError("warm_start and initial are mutually exclusive")
        if isinstance(warm_start, GaussianMixture):
            warm_start = (warm_start,)
        else:
            warm_start = tuple(warm_start)
        if not warm_start:
            raise ValueError("warm_start must contain at least one mixture")
        for candidate in warm_start:
            if candidate.dim != data.shape[1]:
                raise ValueError("warm-start mixture dimension mismatch")

    obs = ensure_observer(observer)
    with obs.timer("profile.em_fit"):
        global_var = _chunk_global_var(data)  # once, for every start
        starts = warm_start
        if starts is None:
            starts = [
                _initial_mixture(data, config, rng, global_var)
                for _ in range(config.n_init)
            ]
            if initial is not None:
                if initial.dim != data.shape[1]:
                    raise ValueError("warm-start mixture dimension mismatch")
                starts.append(initial)
        candidates = [
            _em_loop(data, start, config, global_var) for start in starts
        ]
        best = max(candidates, key=lambda result: result.log_likelihood)
    if obs.enabled:
        obs.inc("em.fits")
        obs.inc("em.iterations", best.n_iter)
        obs.event(
            "em.fit",
            records=int(data.shape[0]),
            n_components=best.mixture.n_components,
            n_iter=best.n_iter,
            converged=best.converged,
            log_likelihood=best.log_likelihood,
            history=list(best.history),
        )
    return best


# ----------------------------------------------------------------------
# Incremental pipeline (DESIGN.md section 14)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class IncrementalResult:
    """Outcome of an incremental update (:func:`incremental_em` or
    :func:`absorb_chunk`).

    Attributes
    ----------
    mixture:
        The updated :class:`GaussianMixture`.
    stats:
        The running :class:`~repro.core.suffstats.SufficientStats` after
        absorbing the chunk; feed it back into the next call so the
        model's memory of past chunks survives.
    log_likelihood:
        Average log likelihood of ``mixture`` on the chunk it just
        absorbed (``AvgPr`` of Definition 1).
    n_steps:
        Stepwise E-M passes performed (:data:`INCREMENTAL_STEPS` for
        :func:`incremental_em`, ``1`` for one-pass absorption).
    history:
        Average log likelihood after each pass.
    e_step:
        The density pass of ``mixture`` over the chunk ``log_likelihood``
        was read from; the site takes the reference statistics from it.
    """

    mixture: GaussianMixture
    stats: SufficientStats
    log_likelihood: float
    n_steps: int
    history: tuple[float, ...]
    e_step: EStep | None = field(default=None, compare=False, repr=False)


def _chunk_global_var(data: np.ndarray) -> float:
    """The M-step's ridge scale: mean per-axis variance of the chunk."""
    return float(np.mean(np.var(data, axis=0))) or 1.0


def _validate_chunk(data: np.ndarray, mixture: GaussianMixture) -> np.ndarray:
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.ndim != 2:
        raise ValueError("data must be a 2-d array of records")
    if data.shape[1] != mixture.dim:
        raise ValueError(
            f"chunk dimension {data.shape[1]} does not match "
            f"mixture dimension {mixture.dim}"
        )
    if not np.all(np.isfinite(data)):
        raise ValueError("data contains non-finite records")
    return data


def incremental_em(
    data: np.ndarray,
    mixture: GaussianMixture,
    config: EMConfig | None = None,
    *,
    stats: SufficientStats | None = None,
    observer: Observer | None = None,
) -> IncrementalResult:
    """Absorb a chunk with a few stepwise E-M passes (Cappé–Moulines).

    Each pass ``t`` runs one E-step under the current mixture, folds the
    chunk's sufficient statistics into the running ones with stepsize
    ``η_t = (t + 2)^{-α}`` (``α`` = :data:`STEP_ALPHA`), and
    re-materializes the mixture; :data:`INCREMENTAL_STEPS` passes run.
    The chunk's mass is absorbed exactly once regardless of how many
    passes run; only the *parameters* keep moving.

    Parameters
    ----------
    data:
        The chunk, shape ``(n, d)``.
    mixture:
        Warm-start model -- the site's current model or a reactivation
        candidate.
    config:
        Uses ``diagonal`` and ``covariance_ridge``; defaults to
        :class:`EMConfig`.
    stats:
        Running statistics for ``mixture``.  When ``None`` they are
        synthesized from the mixture itself with mass equal to the
        chunk size -- the prior model counts as one chunk's worth of
        evidence, so a drifted chunk can actually move it.
    observer:
        Timed into ``profile.em_incremental``; emits an
        ``em.incremental`` event and bumps ``em.incremental_updates``.

    Raises
    ------
    ValueError
        On dimension/finite-ness violations, or when a component
        starves below materializable mass mid-update -- callers (the
        refit ladder) treat that as "warm rung failed" and escalate.
    """
    config = config or EMConfig()
    data = _validate_chunk(data, mixture)
    n = data.shape[0]
    if stats is None:
        stats = SufficientStats.from_mixture(
            mixture, float(n), diagonal=config.diagonal
        )
    obs = ensure_observer(observer)
    with obs.timer("profile.em_incremental"):
        # The pass that scores a step's mixture gives the next its posteriors.
        e_step = mixture.e_step(data)
        history: list[float] = []
        global_var = _chunk_global_var(data)
        target = stats.total + float(n)
        for t in range(INCREMENTAL_STEPS):
            eta = (t + 2.0) ** -STEP_ALPHA
            batch = SufficientStats.from_responsibilities(
                data, e_step.responsibilities, diagonal=config.diagonal
            )
            stats = stats.blend(batch, eta, target=target)
            mixture = stats.materialize(
                covariance_ridge=config.covariance_ridge,
                global_var=global_var,
            )
            e_step = mixture.e_step(data)
            history.append(e_step.log_likelihood)
        result = IncrementalResult(
            mixture=mixture,
            stats=stats,
            log_likelihood=e_step.log_likelihood,
            n_steps=len(history),
            history=tuple(history),
            e_step=e_step,
        )
    if obs.enabled:
        obs.inc("em.incremental_updates")
        obs.event(
            "em.incremental",
            records=int(n),
            n_components=result.mixture.n_components,
            n_steps=result.n_steps,
            log_likelihood=result.log_likelihood,
        )
    return result


def absorb_chunk(
    data: np.ndarray,
    mixture: GaussianMixture,
    config: EMConfig | None = None,
    *,
    stats: SufficientStats | None = None,
    observer: Observer | None = None,
    e_step: EStep | None = None,
) -> IncrementalResult:
    """One-pass absorption of a *passing* chunk: no EM iterations.

    When a chunk passes the fit test the model already explains it, so
    a single E-step's sufficient statistics merged at full weight keep
    ``(w, μ, Σ)`` current at the cost of one posterior evaluation --
    the suffstat analogue of "the model absorbs the chunk" in
    Algorithm 1's pass branch.

    Same ``stats`` convention as :func:`incremental_em`; returns the
    merged statistics so successive passing chunks accumulate exactly.
    ``e_step`` is the density pass of ``mixture`` over ``data`` when the
    caller already made it (the fit test the chunk just passed).
    """
    config = config or EMConfig()
    data = _validate_chunk(data, mixture)
    n = data.shape[0]
    if stats is None:
        stats = SufficientStats.from_mixture(
            mixture, float(n), diagonal=config.diagonal
        )
    if e_step is not None and e_step.weighted.shape != (n, mixture.n_components):
        raise ValueError("e_step is not a pass of this mixture over this chunk")
    obs = ensure_observer(observer)
    with obs.timer("profile.em_absorb"):
        if e_step is None:
            e_step = mixture.e_step(data)
        batch = SufficientStats.from_responsibilities(
            data, e_step.responsibilities, diagonal=config.diagonal
        )
        stats = stats.merge(batch)
        updated = stats.materialize(
            covariance_ridge=config.covariance_ridge,
            global_var=_chunk_global_var(data),
        )
        e_step = updated.e_step(data)
        likelihood = e_step.log_likelihood
    if obs.enabled:
        obs.inc("em.absorbed_chunks")
        obs.event(
            "em.absorb",
            records=int(n),
            n_components=updated.n_components,
            log_likelihood=likelihood,
        )
    return IncrementalResult(
        mixture=updated,
        stats=stats,
        log_likelihood=likelihood,
        n_steps=1,
        history=(likelihood,),
        e_step=e_step,
    )
