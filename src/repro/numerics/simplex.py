"""Downhill simplex (Nelder-Mead) minimisation, implemented from scratch.

The coordinator fits a merged Gaussian component by minimising the L1
accuracy loss ``l(x)`` (paper section 5.2.1).  Because the derivatives of
``l(x)`` are unknown, the paper uses the derivative-free downhill simplex
method of Nelder and Mead [19].  This module implements the classic
algorithm with the standard reflection / expansion / contraction /
shrink coefficients and an adaptive initial simplex.

The implementation intentionally mirrors the original 1965 formulation
rather than SciPy's variant so the library carries no behavioural
dependency on SciPy's optimiser internals; a regression test compares
the two on standard test functions.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["NelderMeadResult", "nelder_mead"]

#: Standard Nelder-Mead coefficients: reflection, expansion, contraction,
#: shrink.
ALPHA = 1.0
GAMMA = 2.0
RHO = 0.5
SIGMA = 0.5


@dataclass(frozen=True)
class NelderMeadResult:
    """Outcome of a downhill-simplex run.

    Attributes
    ----------
    x:
        Best parameter vector found.
    fun:
        Objective value at :attr:`x`.
    iterations:
        Number of simplex iterations performed.
    evaluations:
        Number of objective evaluations.
    converged:
        ``True`` if the spread criterion was met before ``max_iter``.
    """

    x: np.ndarray
    fun: float
    iterations: int
    evaluations: int
    converged: bool


def _initial_simplex(x0: np.ndarray, step: float) -> np.ndarray:
    """Build the ``(n+1, n)`` starting simplex around ``x0``.

    Each vertex perturbs one coordinate by ``step`` relative to its
    magnitude (absolute ``step`` for zero coordinates), the scheme used
    by most practical implementations.
    """
    n = x0.size
    simplex = np.tile(x0, (n + 1, 1))
    for i in range(n):
        if simplex[i + 1, i] != 0.0:
            simplex[i + 1, i] *= 1.0 + step
        else:
            simplex[i + 1, i] = step
    return simplex


def _stable_sort(
    simplex: np.ndarray, values: list[float]
) -> tuple[np.ndarray, list[float]]:
    """Vertices and values in ascending value order, ties in input order."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return simplex[order], [values[index] for index in order]


def nelder_mead(
    objective: Callable[[np.ndarray], float],
    x0: np.ndarray,
    max_iter: int = 500,
    xtol: float = 1e-6,
    ftol: float = 1e-8,
    initial_step: float = 0.05,
    vectorized: bool = False,
) -> NelderMeadResult:
    """Minimise ``objective`` starting from ``x0``.

    Parameters
    ----------
    objective:
        Callable mapping a parameter vector to a finite float.  Values
        that come back non-finite are treated as ``+inf`` so the simplex
        retreats from invalid regions (e.g. negative variances during a
        merge fit).
    x0:
        Initial guess, shape ``(n,)``.
    max_iter:
        Iteration budget.
    xtol / ftol:
        Convergence thresholds on the simplex spread in parameter space
        and objective value respectively; both must hold.
    initial_step:
        Relative perturbation used to seed the simplex.
    vectorized:
        When ``True``, ``objective`` maps ``(m, n)`` parameter rows to
        ``(m,)`` values.  The initial simplex and each shrink step are
        then evaluated as one batch; reflection, expansion and
        contraction depend on each other's outcome and arrive as
        ``m = 1``.  The search itself is the same either way.

    Returns
    -------
    NelderMeadResult
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size == 0:
        raise ValueError("cannot optimise a zero-dimensional parameter vector")
    n = x0.size

    def evaluate(points: np.ndarray) -> list[float]:
        if vectorized:
            values = np.asarray(objective(points), dtype=float)
        else:
            values = np.array([float(objective(point)) for point in points])
        return np.where(np.isfinite(values), values, np.inf).tolist()

    def evaluate_one(x: np.ndarray) -> float:
        if vectorized:
            value = float(objective(x[None, :])[0])
        else:
            value = float(objective(x))
        return value if math.isfinite(value) else math.inf

    # The simplex is kept sorted: ``values`` ascends, and vertices of
    # equal value stand in the order a stable sort of the whole simplex
    # at the top of every iteration would leave them in.  A batch is
    # sorted that way; a step that replaces the worst vertex puts the
    # newcomer where that sort would -- behind every survivor it does
    # not beat -- and the survivors keep their order.
    simplex = _initial_simplex(x0, initial_step)
    simplex, values = _stable_sort(simplex, evaluate(simplex))
    evaluations = n + 1

    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        # The parameter spread costs a pass over the whole simplex and
        # only matters once the value spread is already inside ``ftol``.
        if (
            abs(values[-1] - values[0]) <= ftol
            and float(np.abs(simplex[1:] - simplex[0]).max()) <= xtol
        ):
            converged = True
            break

        centroid = simplex[:-1].sum(axis=0) / n
        worst = simplex[-1]

        reflected = centroid + ALPHA * (centroid - worst)
        f_reflected = evaluate_one(reflected)
        evaluations += 1

        if values[0] <= f_reflected < values[-2]:
            accepted, f_accepted = reflected, f_reflected
        elif f_reflected < values[0]:
            expanded = centroid + GAMMA * (reflected - centroid)
            f_expanded = evaluate_one(expanded)
            evaluations += 1
            if f_expanded < f_reflected:
                accepted, f_accepted = expanded, f_expanded
            else:
                accepted, f_accepted = reflected, f_reflected
        else:
            # Contraction: outside if the reflection improved on the
            # worst vertex, inside otherwise.
            if f_reflected < values[-1]:
                contracted = centroid + RHO * (reflected - centroid)
            else:
                contracted = centroid + RHO * (worst - centroid)
            f_contracted = evaluate_one(contracted)
            evaluations += 1
            if f_contracted < min(f_reflected, values[-1]):
                accepted, f_accepted = contracted, f_contracted
            else:
                # Shrink every vertex toward the best one.
                simplex[1:] = simplex[0] + SIGMA * (simplex[1:] - simplex[0])
                values[1:] = evaluate(simplex[1:])
                evaluations += n
                simplex, values = _stable_sort(simplex, values)
                continue

        slot = bisect_right(values, f_accepted, 0, n)
        simplex[slot + 1 :] = simplex[slot:-1]
        simplex[slot] = accepted
        del values[-1]
        values.insert(slot, f_accepted)

    return NelderMeadResult(
        x=simplex[0].copy(),
        fun=values[0],
        iterations=iterations,
        evaluations=evaluations,
        converged=converged,
    )
