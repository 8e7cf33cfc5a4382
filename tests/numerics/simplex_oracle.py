"""Reference downhill simplex: re-sorts the whole simplex every iteration.

This is ``repro.numerics.simplex.nelder_mead`` as it was before its loop
kept the simplex sorted by insertion.  It is kept here verbatim, out of
``src/``, as the oracle of the search-identity suite
(``test_simplex_identity``) and of the merge-fit oracle
(``tests.core.merge_fit_oracle``), which must not share a search with the
code they check: a stable ``argsort`` and two fancy-index copies at the
top of every iteration, every value through ``np.asarray`` /
``np.where(np.isfinite(...))``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.numerics.simplex import NelderMeadResult

#: Standard Nelder-Mead coefficients: reflection, expansion, contraction,
#: shrink.
ALPHA = 1.0
GAMMA = 2.0
RHO = 0.5
SIGMA = 0.5


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

    def evaluate(points: np.ndarray) -> np.ndarray:
        if vectorized:
            values = np.asarray(objective(points), dtype=float)
        else:
            values = np.array([float(objective(point)) for point in points])
        return np.where(np.isfinite(values), values, np.inf)

    def safe_eval(x: np.ndarray) -> float:
        return float(evaluate(x[None, :])[0])

    simplex = _initial_simplex(x0, initial_step)
    values = evaluate(simplex)
    evaluations = values.size

    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]

        # The parameter spread costs a pass over the whole simplex and
        # only matters once the value spread is already inside ``ftol``.
        if (
            abs(float(values[-1]) - float(values[0])) <= ftol
            and float(np.abs(simplex[1:] - simplex[0]).max()) <= xtol
        ):
            converged = True
            break

        centroid = simplex[:-1].sum(axis=0) / x0.size
        worst = simplex[-1]

        reflected = centroid + ALPHA * (centroid - worst)
        f_reflected = safe_eval(reflected)
        evaluations += 1

        if values[0] <= f_reflected < values[-2]:
            simplex[-1] = reflected
            values[-1] = f_reflected
            continue

        if f_reflected < values[0]:
            expanded = centroid + GAMMA * (reflected - centroid)
            f_expanded = safe_eval(expanded)
            evaluations += 1
            if f_expanded < f_reflected:
                simplex[-1] = expanded
                values[-1] = f_expanded
            else:
                simplex[-1] = reflected
                values[-1] = f_reflected
            continue

        # Contraction: outside if the reflection improved on the worst
        # vertex, inside otherwise.
        if f_reflected < values[-1]:
            contracted = centroid + RHO * (reflected - centroid)
        else:
            contracted = centroid + RHO * (worst - centroid)
        f_contracted = safe_eval(contracted)
        evaluations += 1
        if f_contracted < min(f_reflected, values[-1]):
            simplex[-1] = contracted
            values[-1] = f_contracted
            continue

        # Shrink every vertex toward the best one.
        simplex[1:] = simplex[0] + SIGMA * (simplex[1:] - simplex[0])
        values[1:] = evaluate(simplex[1:])
        evaluations += values.size - 1

    best_index = int(np.argmin(values))
    return NelderMeadResult(
        x=simplex[best_index].copy(),
        fun=float(values[best_index]),
        iterations=iterations,
        evaluations=evaluations,
        converged=converged,
    )
