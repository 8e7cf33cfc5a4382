"""``nelder_mead`` runs the *same search* as the loop it replaced.

The loop used to re-sort the whole simplex at the top of every iteration
(a stable ``argsort`` and two fancy-index copies); it now keeps the
simplex sorted and puts a replaced vertex where that sort would.  That
is only a cheaper way to reach the same state: every objective
evaluation must be asked at the same point in the same order, and the
result must be the same to the bit.  The old loop is kept verbatim as
``tests.numerics.simplex_oracle``.

The cases lean on what insertion could get wrong and a full sort cannot:
plateau objectives whose values tie *exactly*, ``inf`` half-spaces and
``nan`` returns (ties at ``inf``), shrink steps (the only full re-sort
inside the loop), and budgets that stop the search in any state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.numerics.simplex import nelder_mead
from tests.numerics.simplex_oracle import nelder_mead as oracle_nelder_mead
from tests.numerics import test_simplex

rosenbrock = test_simplex.rosenbrock
#: Cusps along every axis and a forbidden half-space.
ridge = test_simplex.TestVectorized.ridge


def quadratic(x: np.ndarray) -> float:
    """A coupled, badly scaled bowl of any dimension."""
    scale = 1.0 + np.arange(x.size) % 7
    target = np.cos(np.arange(x.size))
    offset = x - target
    return float(np.sum(scale * offset**2) + 0.5 * offset[0] * offset[-1])


def plateau(objective, steps: float = 4.0):
    """``objective`` floored to multiples of ``1/steps``: neighbouring
    vertices tie exactly."""

    def stepped(x: np.ndarray) -> float:
        return float(np.floor(steps * objective(x)) / steps)

    return stepped


def fenced(x: np.ndarray) -> float:
    """``inf`` on one side, ``nan`` on another, a bowl in between."""
    if x[0] < -0.5:
        return float("inf")
    if x[1] > 2.5:
        return float("nan")
    return float(np.sum((x - np.array([0.25, 2.0, -1.0])) ** 2))


def start(n: int) -> np.ndarray:
    return np.linspace(-1.5, 2.0, n) if n > 1 else np.array([3.0])


#: (id, objective, x0, nelder_mead keywords, what the run must exhibit)
CASES = [
    ("rosenbrock-5", rosenbrock, [-1.2, 1.0], dict(max_iter=5), "budget"),
    ("rosenbrock-61", rosenbrock, [-1.2, 1.0], dict(max_iter=61), "budget"),
    ("rosenbrock", rosenbrock, [-1.2, 1.0], dict(max_iter=5000), "converged"),
    ("ridge", ridge, [-1.2, 1.0, 0.5], dict(max_iter=400), "converged shrink"),
    ("ridge-37", ridge, [-1.2, 1.0, 0.5], dict(max_iter=37), "budget"),
    ("quadratic-1", quadratic, start(1), dict(), "converged"),
    ("quadratic-2", quadratic, start(2), dict(), "converged"),
    ("quadratic-5", quadratic, start(5), dict(max_iter=2000), "converged"),
    ("quadratic-14", quadratic, start(14), dict(max_iter=120), "budget"),
    ("quadratic-40", quadratic, start(40), dict(max_iter=300), "budget"),
    ("quadratic-14-loose", quadratic, start(14),
     dict(max_iter=4000, xtol=1e-2, ftol=1e-3), "converged"),
    ("plateau-rosenbrock", plateau(rosenbrock), [-1.2, 1.0],
     dict(max_iter=200), "converged shrink ties"),
    ("plateau-1", plateau(quadratic), start(1), dict(max_iter=40), "ties"),
    ("plateau-2", plateau(quadratic), start(2),
     dict(max_iter=150), "converged shrink ties"),
    ("plateau-5", plateau(quadratic), start(5),
     dict(max_iter=150), "converged shrink ties"),
    # Out of budget on the iteration that shrinks: returns unsorted.
    ("plateau-5-56", plateau(quadratic), start(5),
     dict(max_iter=56), "budget shrink ties"),
    ("ridge-215", ridge, [-1.2, 1.0, 0.5],
     dict(max_iter=215), "budget shrink"),
    ("plateau-14", plateau(quadratic), start(14),
     dict(max_iter=120), "budget ties"),
    ("plateau-40", plateau(quadratic), start(40),
     dict(max_iter=200), "budget ties"),
    ("plateau-ridge", plateau(ridge, steps=64.0), [-1.2, 1.0, 0.5],
     dict(max_iter=80), "shrink ties"),
    ("fenced", fenced, [0.0, 2.4, 0.5], dict(max_iter=300), "converged"),
    ("fenced-start", fenced, [-0.45, 2.45, 0.0],
     dict(max_iter=90, initial_step=0.2), "budget shrink fences"),
    ("plateau-fenced", plateau(fenced), [0.0, 2.4, 0.5],
     dict(max_iter=100), "shrink ties"),
    ("all-inf", lambda x: float("inf"), [1.0, 2.0],
     dict(max_iter=12), "budget shrink ties"),
    ("no-budget", quadratic, start(5), dict(max_iter=0), "budget"),
]


class Recorded:
    """An objective that writes down every point it is asked about."""

    def __init__(self, objective, vectorized: bool) -> None:
        self.objective = objective
        self.vectorized = vectorized
        self.points: list[np.ndarray] = []
        self.values: list[float] = []
        self.batches: list[int] = []

    def __call__(self, x: np.ndarray):
        rows = x if self.vectorized else x[None, :]
        values = [self.objective(row) for row in rows]
        self.batches.append(rows.shape[0])
        self.points.extend(rows.copy())
        self.values.extend(values)
        return np.array(values) if self.vectorized else values[0]


@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "rows"])
@pytest.mark.parametrize(
    "objective, x0, keywords, exhibits",
    [pytest.param(*case[1:], id=case[0]) for case in CASES],
)
def test_same_points_in_the_same_order(
    objective, x0, keywords, exhibits, vectorized
):
    x0 = np.asarray(x0, dtype=float)
    new_calls = Recorded(objective, vectorized)
    old_calls = Recorded(objective, vectorized)
    new = nelder_mead(new_calls, x0, vectorized=vectorized, **keywords)
    old = oracle_nelder_mead(old_calls, x0, vectorized=vectorized, **keywords)

    assert new_calls.batches == old_calls.batches
    # Bit for bit: a point that differs in its last place is a
    # different search from there on.
    np.testing.assert_array_equal(
        np.array(new_calls.points).view(np.uint64),
        np.array(old_calls.points).view(np.uint64),
    )
    assert np.array_equal(new.x.view(np.uint64), old.x.view(np.uint64))
    assert isinstance(new.fun, float)
    assert new.fun == old.fun
    assert (new.iterations, new.evaluations, new.converged) == (
        old.iterations,
        old.evaluations,
        old.converged,
    )
    assert new.evaluations == len(new_calls.points)

    # The case is here for a reason: make sure it still happens.
    if "converged" in exhibits:
        assert new.converged
    if "budget" in exhibits:
        assert not new.converged
        assert new.iterations == keywords["max_iter"]
    if "shrink" in exhibits and vectorized:
        # Past the initial batch only a shrink asks for n rows at once.
        assert x0.size > 1 and x0.size in new_calls.batches[1:]
    if "ties" in exhibits:
        # Exactly equal values at distinct points: the input on which
        # insertion and a stable sort could part ways.
        distinct_points = {point.tobytes() for point in new_calls.points}
        assert len(set(new_calls.values)) <= 0.8 * len(distinct_points)
    if "fences" in exhibits:
        assert {"inf", "nan"} < {str(value) for value in new_calls.values}
