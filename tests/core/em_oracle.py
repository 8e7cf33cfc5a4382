"""Reference model path: every quantity computed where it is used.

This is the site/model path of ``repro.numerics.linalg`` →
``repro.core.mixture`` → ``repro.core.testing`` / ``repro.core.em`` →
``repro.core.remote`` as it stood before quantities were computed once
and handed on:

* ``regularize_covariance`` factors Σ to test it and ``spd_factorize``
  factors the accepted Σ again;
* ``log_pdf`` and ``posterior`` each evaluate the weighted log-density
  matrix and reduce it on their own (under the same floor rule: a term
  whose shifted log is under ``log(tiny)`` is 0, not subnormal);
* the EM loop and ``incremental_em`` evaluate every iterate twice (the
  likelihood that decides convergence, then the posterior of the same
  mixture), and the M-step's starvation re-seed a third time;
* ``absorb_chunk`` takes the old model's posterior and the new model's
  likelihood itself, and the site then asks for ``AvgPr_0`` and ``σ̂`` of
  the new model in two more passes (five passes per passing chunk);
* the second moments are the three-operand ``einsum``.

It is kept here, out of ``src/``, as the oracle of
``tests/core/test_em_identity.py``.  :func:`oracle_model_path` swaps it
in under the real ``RemoteSite`` / ``fit_em`` by patching the names they
call, so everything around the arithmetic -- Algorithm 1, the ladder,
the observer, the checkpoint -- is the code under test on both sides.

``log_density_spread`` of the ``MAX_COMPONENT`` variant is kept as it
was too, i.e. over the *unfloored* maxima; the identity streams never
reach the floor, the fix has its own test in ``test_testing.py``.
"""

from __future__ import annotations

import contextlib
import math
from typing import Iterator

import numpy as np
import pytest

import repro.core.em as em_module
import repro.core.gaussian as gaussian_module
import repro.core.remote as remote_module
from repro.core.em import (
    INCREMENTAL_STEPS,
    MIN_COMPONENT_MASS,
    STEP_ALPHA,
    EMConfig,
    EMResult,
    IncrementalResult,
    _chunk_global_var,
    _validate_chunk,
)
from repro.core.gaussian import Gaussian
from repro.core.mixture import LOG_DENSITY_FLOOR, GaussianMixture
from repro.core.suffstats import SufficientStats
from repro.core.testing import FitTestResult, LikelihoodVariant
from repro.numerics.linalg import (
    DEFAULT_RIDGE,
    LOG_TINY,
    PIVOT_FLOOR,
    VARIANCE_FLOOR,
    SPDFactors,
)
from repro.obs.observer import ensure_observer

__all__ = [
    "assert_close",
    "einsum_moments",
    "oracle_absorb_chunk",
    "oracle_em_loop",
    "oracle_incremental_em",
    "oracle_log_pdf",
    "oracle_model_path",
    "oracle_posterior",
    "oracle_spd_factorize",
]


# ----------------------------------------------------------------------
# numerics.linalg
# ----------------------------------------------------------------------
def oracle_spd_factorize(
    matrix: np.ndarray, ridge: float = DEFAULT_RIDGE
) -> tuple[np.ndarray, np.ndarray, float]:
    """``(Σ, L, log|Σ|)``: regularise with one factorisation per
    attempt, then factor the accepted matrix once more."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"covariance must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("covariance contains non-finite entries")
    sym = (arr + arr.T) / 2.0
    diag = np.diag(sym).copy()
    np.fill_diagonal(sym, np.maximum(diag, VARIANCE_FLOOR))
    scale = max(float(np.mean(np.diag(sym))), float(np.max(np.abs(sym))))
    if scale <= 0.0:
        scale = 1.0
    bump = ridge * scale
    candidate = sym
    pivot_floor = PIVOT_FLOOR * np.sqrt(scale)
    for _ in range(12):
        try:
            factor = np.linalg.cholesky(candidate)
            if float(np.min(np.diag(factor))) > pivot_floor:
                break
        except np.linalg.LinAlgError:
            pass
        candidate = sym + bump * np.eye(sym.shape[0])
        bump *= 10.0
    else:
        raise np.linalg.LinAlgError(
            "could not regularize covariance into positive definiteness"
        )
    chol = np.linalg.cholesky(candidate)
    return candidate, chol, 2.0 * float(np.sum(np.log(np.diag(chol))))


# ----------------------------------------------------------------------
# core.mixture
# ----------------------------------------------------------------------
def _floored(shifted: np.ndarray) -> np.ndarray:
    """The floor rule: a shifted value under ``log(tiny)`` is ``-inf``,
    so its term is 0 rather than subnormal."""
    shifted[shifted < LOG_TINY] = -np.inf
    return shifted


def oracle_log_pdf(mixture: GaussianMixture, points: np.ndarray) -> np.ndarray:
    """Floored mixture log density through its own log-sum-exp."""
    values = mixture.weighted_log_pdf(points)
    peak = np.max(values, axis=1, keepdims=True)
    safe_peak = np.where(np.isfinite(peak), peak, 0.0)
    summed = np.sum(np.exp(_floored(values - safe_peak)), axis=1)
    out = np.squeeze(safe_peak, axis=1) + np.log(summed)
    finite = np.squeeze(np.isfinite(peak), axis=1)
    return np.maximum(np.where(finite, out, -np.inf), LOG_DENSITY_FLOOR)


def oracle_posterior(mixture: GaussianMixture, points: np.ndarray) -> np.ndarray:
    """``Pr(j|x)`` through its own evaluation of the same matrix."""
    weighted = mixture.weighted_log_pdf(points)
    peak = np.max(weighted, axis=1, keepdims=True)
    finite = np.isfinite(peak).ravel()
    probs = np.exp(_floored(weighted - np.where(np.isfinite(peak), peak, 0.0)))
    totals = probs.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        posterior = probs / totals
    if not np.all(finite):
        posterior[~finite] = mixture.weights[None, :]
    return posterior


def _average_log_likelihood(mixture: GaussianMixture, points: np.ndarray) -> float:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] == 0:
        raise ValueError("cannot average over an empty data set")
    return float(np.mean(oracle_log_pdf(mixture, points)))


# ----------------------------------------------------------------------
# core.testing
# ----------------------------------------------------------------------
def _variant_average(
    mixture: GaussianMixture, data: np.ndarray, variant: LikelihoodVariant
) -> float:
    data = np.atleast_2d(np.asarray(data, dtype=float))
    max_component = variant is LikelihoodVariant.MAX_COMPONENT
    if np.isnan(data).any():
        from repro.core.missing import marginal_log_values

        values = marginal_log_values(mixture, data, max_component=max_component)
        return float(np.mean(values))
    if not max_component:
        return _average_log_likelihood(mixture, data)
    if data.shape[0] == 0:
        raise ValueError("cannot average over an empty data set")
    best = np.max(mixture.weighted_log_pdf(data), axis=1)
    return float(np.mean(np.maximum(best, LOG_DENSITY_FLOOR)))


def _variant_spread(
    mixture: GaussianMixture, data: np.ndarray, variant: LikelihoodVariant
) -> float:
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[0] < 2:
        raise ValueError("need at least two records to estimate a spread")
    max_component = variant is LikelihoodVariant.MAX_COMPONENT
    if np.isnan(data).any():
        from repro.core.missing import marginal_log_values

        values = marginal_log_values(mixture, data, max_component=max_component)
    elif not max_component:
        values = oracle_log_pdf(mixture, data)
    else:
        values = np.max(mixture.weighted_log_pdf(data), axis=1)
    return float(np.std(values))


def _fit_test(
    mixture: GaussianMixture,
    chunk: np.ndarray,
    reference_likelihood: float,
    epsilon: float,
    variant: LikelihoodVariant = LikelihoodVariant.MIXTURE,
) -> FitTestResult:
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if not np.isfinite(reference_likelihood):
        raise ValueError("reference likelihood must be finite")
    chunk_likelihood = _variant_average(mixture, chunk, variant)
    j_fit = abs(chunk_likelihood - reference_likelihood)
    return FitTestResult(
        fits=j_fit <= epsilon,
        j_fit=j_fit,
        chunk_likelihood=chunk_likelihood,
        reference_likelihood=reference_likelihood,
        epsilon=epsilon,
    )


def _reference_statistics(
    mixture: GaussianMixture,
    data: np.ndarray,
    variant: LikelihoodVariant = LikelihoodVariant.MIXTURE,
    *,
    e_step=None,
) -> tuple[float, float]:
    """Two passes, whatever the caller holds."""
    return (
        _variant_average(mixture, data, variant),
        _variant_spread(mixture, data, variant),
    )


# ----------------------------------------------------------------------
# core.em
# ----------------------------------------------------------------------
#: Appended to by every M-step that re-seeded a starved component, so a
#: test can tell that its stream reached that path.
RESEEDS: list[int] = []


def _m_step(
    data: np.ndarray,
    responsibilities: np.ndarray,
    config: EMConfig,
    mixture: GaussianMixture,
) -> GaussianMixture:
    n, k = responsibilities.shape
    masses = responsibilities.sum(axis=0)
    weights = masses / n
    components: list[Gaussian] = []
    global_var = float(np.mean(np.var(data, axis=0))) or 1.0
    starved = masses < MIN_COMPONENT_MASS * n
    if np.any(starved):
        RESEEDS.append(int(starved.sum()))
        log_density = oracle_log_pdf(mixture, data)
        worst_order = np.argsort(log_density)
    reseed_cursor = 0
    for j in range(k):
        if starved[j]:
            center = data[worst_order[min(reseed_cursor, n - 1)]]
            reseed_cursor += 1
            components.append(
                Gaussian.spherical(center, global_var, diagonal=config.diagonal)
            )
            weights[j] = 1.0 / n
            continue
        resp = responsibilities[:, j]
        mass = masses[j]
        mean = resp @ data / mass
        centered = data - mean
        if config.diagonal:
            variances = resp @ (centered**2) / mass
            cov = np.diag(variances)
        else:
            cov = (centered * resp[:, None]).T @ centered / mass
        cov = cov + config.covariance_ridge * global_var * np.eye(data.shape[1])
        components.append(Gaussian(mean, cov, diagonal=config.diagonal))
    return GaussianMixture(np.asarray(weights), tuple(components))


def oracle_em_loop(
    data: np.ndarray,
    mixture: GaussianMixture,
    config: EMConfig,
    global_var: float | None = None,
) -> EMResult:
    """The E/M loop with two density passes per iterate.  ``global_var``
    is ignored: every M-step computes the chunk variance itself."""
    history: list[float] = []
    previous = -np.inf
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iter + 1):
        responsibilities = oracle_posterior(mixture, data)
        mixture = _m_step(data, responsibilities, config, mixture)
        current = _average_log_likelihood(mixture, data)
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


def einsum_moments(
    data: np.ndarray, responsibilities: np.ndarray, diagonal: bool = False
) -> SufficientStats:
    """``SufficientStats.from_responsibilities`` with the second moments
    as the three-operand ``einsum``."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    resp = np.atleast_2d(np.asarray(responsibilities, dtype=float))
    if resp.shape[0] != data.shape[0]:
        raise ValueError(
            f"{resp.shape[0]} responsibility rows for {data.shape[0]} records"
        )
    counts = resp.sum(axis=0)
    sums = resp.T @ data
    if diagonal:
        outers = resp.T @ (data**2)
    else:
        outers = np.einsum("nk,ni,nj->kij", resp, data, data)
    return SufficientStats(counts, sums, outers, diagonal)


def oracle_incremental_em(
    data: np.ndarray,
    mixture: GaussianMixture,
    config: EMConfig | None = None,
    *,
    stats: SufficientStats | None = None,
    observer=None,
    moments=einsum_moments,
) -> IncrementalResult:
    """Stepwise E-M with two density passes per step."""
    config = config or EMConfig()
    data = _validate_chunk(data, mixture)
    n = data.shape[0]
    if stats is None:
        stats = SufficientStats.from_mixture(
            mixture, float(n), diagonal=config.diagonal
        )
    obs = ensure_observer(observer)
    with obs.timer("profile.em_incremental"):
        global_var = _chunk_global_var(data)
        target = stats.total + float(n)
        history: list[float] = []
        current = mixture
        for t in range(INCREMENTAL_STEPS):
            eta = (t + 2.0) ** -STEP_ALPHA
            responsibilities = oracle_posterior(current, data)
            batch = moments(data, responsibilities, diagonal=config.diagonal)
            stats = stats.blend(batch, eta, target=target)
            current = stats.materialize(
                covariance_ridge=config.covariance_ridge,
                global_var=global_var,
            )
            history.append(_average_log_likelihood(current, data))
        result = IncrementalResult(
            mixture=current,
            stats=stats,
            log_likelihood=history[-1],
            n_steps=len(history),
            history=tuple(history),
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


def oracle_absorb_chunk(
    data: np.ndarray,
    mixture: GaussianMixture,
    config: EMConfig | None = None,
    *,
    stats: SufficientStats | None = None,
    observer=None,
    e_step=None,
    moments=einsum_moments,
) -> IncrementalResult:
    """One-pass absorption that evaluates both models itself and hands
    nothing on (``e_step`` is accepted and ignored)."""
    config = config or EMConfig()
    data = _validate_chunk(data, mixture)
    n = data.shape[0]
    if stats is None:
        stats = SufficientStats.from_mixture(
            mixture, float(n), diagonal=config.diagonal
        )
    obs = ensure_observer(observer)
    with obs.timer("profile.em_absorb"):
        responsibilities = oracle_posterior(mixture, data)
        batch = moments(data, responsibilities, diagonal=config.diagonal)
        stats = stats.merge(batch)
        updated = stats.materialize(
            covariance_ridge=config.covariance_ridge,
            global_var=_chunk_global_var(data),
        )
        likelihood = _average_log_likelihood(updated, data)
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
    )


# ----------------------------------------------------------------------
# Comparing trajectories across a kernel whose sums round differently
# ----------------------------------------------------------------------
def assert_close(new, old, path="$") -> None:
    """Equal structure, ids, counters and events; floats to 1e-9."""
    if isinstance(old, float) and isinstance(new, float):
        assert math.isclose(new, old, rel_tol=1e-9, abs_tol=1e-12), path
    elif isinstance(old, dict):
        assert isinstance(new, dict) and new.keys() == old.keys(), path
        for key in old:
            assert_close(new[key], old[key], f"{path}.{key}")
    elif isinstance(old, list):
        assert isinstance(new, list) and len(new) == len(old), path
        for index, (a, b) in enumerate(zip(new, old)):
            assert_close(a, b, f"{path}[{index}]")
    else:
        assert new == old and type(new) is type(old), path


# ----------------------------------------------------------------------
# Swapping the reference in
# ----------------------------------------------------------------------
@contextlib.contextmanager
def oracle_model_path(moments=einsum_moments) -> Iterator[None]:
    """Run ``RemoteSite`` / ``fit_em`` over the reference arithmetic.

    ``moments`` is the second-moment kernel of the incremental
    functions: the ``einsum`` reference, or
    ``SufficientStats.from_responsibilities`` to hold the kernel fixed
    and compare the data flow alone, bit for bit.
    """

    def incremental(*args, **kwargs):
        return oracle_incremental_em(*args, moments=moments, **kwargs)

    def absorb(*args, **kwargs):
        return oracle_absorb_chunk(*args, moments=moments, **kwargs)

    def factorize(matrix):
        return SPDFactors(*oracle_spd_factorize(matrix))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gaussian_module, "spd_factorize", factorize)
        patch.setattr(em_module, "_em_loop", oracle_em_loop)
        patch.setattr(remote_module, "fit_test", _fit_test)
        patch.setattr(remote_module, "incremental_em", incremental)
        patch.setattr(remote_module, "absorb_chunk", absorb)
        patch.setattr(remote_module, "reference_statistics", _reference_statistics)
        yield
