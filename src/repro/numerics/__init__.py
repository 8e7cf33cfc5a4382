"""Numerical support routines for the CluDistream reproduction.

The paper leans on three pieces of numerical machinery that do not belong
to the clustering logic itself:

* robust covariance linear algebra (inverses and log-determinants of
  near-singular matrices produced by small EM responsibilities),
* the downhill-simplex (Nelder-Mead) minimiser of [19] used to fit merged
  mixture components on the coordinator, and
* numerical integration of the L1 accuracy-loss ``l(x)`` between mixture
  densities.

Everything here is implemented from scratch on top of ``numpy`` so that
the rest of the library has no hidden dependencies on SciPy internals.
"""

from repro.numerics.integrate import (
    monte_carlo_l1,
    trapezoid_grid,
)
from repro.numerics.linalg import (
    LOG_2PI,
    LogCholeskyL1Loss,
    SPDFactors,
    batch_log_pdf,
    ensure_spd,
    log_cholesky_index,
    mahalanobis_sq,
    spd_factorize,
    spd_factorize_stack,
)
from repro.numerics.simplex import NelderMeadResult, nelder_mead

__all__ = [
    "LOG_2PI",
    "LogCholeskyL1Loss",
    "NelderMeadResult",
    "SPDFactors",
    "batch_log_pdf",
    "ensure_spd",
    "log_cholesky_index",
    "mahalanobis_sq",
    "monte_carlo_l1",
    "nelder_mead",
    "spd_factorize",
    "spd_factorize_stack",
    "trapezoid_grid",
]
