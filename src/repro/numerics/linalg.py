"""Robust linear algebra for Gaussian covariance matrices.

EM on small data chunks routinely produces covariance estimates that are
ill-conditioned or (through responsibilities collapsing onto a handful of
records) outright singular.  The paper sidesteps the issue with a
footnote -- "we can exclude these situations from consideration" -- but a
production library cannot, so every covariance that enters a density
computation is regularised and factored once, by :func:`spd_factorize`
(one matrix) or :func:`spd_factorize_stack` (a mixture's ``K`` at once).
All downstream quantities (inverse, log-determinant, squared Mahalanobis
distances) are derived from the Cholesky factor, which is both faster
and far more numerically stable
than forming explicit inverses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "LOG_2PI",
    "LOG_TINY",
    "LogCholeskyL1Loss",
    "SPDFactors",
    "batch_log_pdf",
    "ensure_spd",
    "inverse_cholesky_stack",
    "log_cholesky_index",
    "mahalanobis_sq",
    "shifted_exp",
    "spd_factorize",
    "spd_factorize_stack",
]

LOG_2PI = float(np.log(2.0 * np.pi))

#: ``log`` of the smallest normal double: ``exp`` of anything below it is
#: subnormal or 0 (:func:`shifted_exp` makes it 0).
LOG_TINY = float(np.log(np.finfo(float).tiny))

#: Ridge added (relative to the mean diagonal) when a covariance matrix
#: fails its Cholesky factorisation.
DEFAULT_RIDGE = 1e-6

#: Hard floor on covariance diagonal entries.  Prevents zero-variance
#: attributes (the degenerate case the paper's footnote excludes) from
#: producing infinite densities.
VARIANCE_FLOOR = 1e-10

#: :func:`spd_factorize` accepts a Cholesky factor only while its
#: smallest pivot exceeds this fraction of ``sqrt(scale)``.
PIVOT_FLOOR = 1e-6

#: Clip on the log-diagonal of a log-Cholesky parameter vector, so every
#: decoded pivot lies in ``[e⁻³⁰, e³⁰]``.
LOG_PIVOT_CLIP = 30.0

#: Largest ``‖L‖_F² ‖L⁻¹‖_F²`` at which :class:`LogCholeskyL1Loss`
#: scores a row from ``L`` directly.  Up to here the direct value and
#: the one through ``Gaussian(μ, L Lᵀ)`` agree to ``O(ε·cond)``: 1e-15
#: relative around a well-conditioned seed, 1e-11 measured (1e-9
#: bound) at the gate.
LOG_CHOLESKY_MAX_CONDITION = 1e6

#: Bytes of ``(d, n)`` workspace a :class:`LogCholeskyL1Loss` owns.  A
#: batch that needs more is walked in blocks of rows that fit.
LOG_CHOLESKY_WORKSPACE_BYTES = 1 << 19

# Rows whose smallest pivot² could fall under the variance floor.
_LOG_PIVOT_MIN = 0.5 * math.log(2.0 * VARIANCE_FLOOR)


def ensure_spd(matrix: np.ndarray) -> np.ndarray:
    """Return a symmetric copy of ``matrix`` with floored diagonal.

    Parameters
    ----------
    matrix:
        Square array, or a stack ``(..., d, d)`` of them, expected to be
        approximately symmetric (as produced by an EM M-step).

    Raises
    ------
    ValueError
        If ``matrix`` is not square or contains non-finite entries.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim < 2 or arr.shape[-2] != arr.shape[-1]:
        raise ValueError(f"covariance must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("covariance contains non-finite entries")
    sym = (arr + arr.swapaxes(-2, -1)) / 2.0
    diagonals = np.einsum("...ii->...i", sym)  # a writable view
    np.maximum(diagonals, VARIANCE_FLOOR, out=diagonals)
    return sym


def _accepted_factors(
    stack: np.ndarray, pivot_floor: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of a ``(K, d, d)`` stack from one call, and the
    indices of the members to reject: not positive definite, or -- since
    Cholesky can numerically succeed on an exactly singular matrix --
    factored with a pivot not well clear of zero."""
    try:
        factors = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        # The gufunc fails a stack as a whole: find out who, one by one
        # (the same ``potrf``, the same bits).  Zero pivots are rejected.
        factors = np.zeros_like(stack)
        for member, factor in zip(stack, factors) if len(stack) > 1 else ():
            try:
                factor[...] = np.linalg.cholesky(member)
            except np.linalg.LinAlgError:
                pass
    accepted = factors.diagonal(0, -2, -1).min(axis=-1) > pivot_floor
    return factors, (~accepted).nonzero()[0]


def _regularized_factors(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Σ, L)``: ``matrices`` regularised and the Cholesky factors that
    accepted them, so nothing downstream factors ``Σ`` again.  One matrix
    or a ``(K, d, d)`` stack: the members share the first attempt (one
    ``cholesky`` call); a member it rejects gets a ridge of
    :data:`DEFAULT_RIDGE` times its scale, escalating alone by a factor
    of ten until accepted.  The eleventh ridge exceeds the matrix scale
    itself, so failure is only possible for non-finite input, which
    :func:`ensure_spd` rejects first."""
    covariances = ensure_spd(matrices)
    stack = covariances.reshape((-1,) + covariances.shape[-2:])
    dim = stack.shape[-1]
    # Scale by the full matrix magnitude, not just the diagonal: a
    # floored diagonal with dominant off-diagonal entries needs a ridge
    # comparable to those entries to become positive definite.  (The
    # floor keeps the diagonal mean, hence the scale, positive.)
    scale = np.maximum(
        np.add.reduce(stack.diagonal(0, -2, -1), axis=-1) / dim,
        np.abs(stack).max(axis=(-2, -1)),
    )
    pivot_floor = PIVOT_FLOOR * np.sqrt(scale)
    choleskys, rejected = _accepted_factors(stack, pivot_floor)
    for j in rejected:
        bump = DEFAULT_RIDGE * scale[j]
        for _ in range(11):
            candidate = stack[j] + bump * np.eye(dim)
            factor, again = _accepted_factors(
                candidate[None], pivot_floor[j : j + 1]
            )
            if not again.size:
                stack[j], choleskys[j] = candidate, factor[0]
                break
            bump *= 10.0
        else:
            raise np.linalg.LinAlgError(
                "could not regularize covariance into positive definiteness"
            )
    return covariances, choleskys.reshape(covariances.shape)


def _solve_factor(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``L⁻¹ rhs`` for a validated lower factor ``(d, d)`` and a
    ``(d, n)`` right-hand side, or for a ``(K, d, d)`` stack of factors
    and a ``(K, d, n)`` (or one broadcast ``(d, n)``) right-hand side.

    Column-oriented forward substitution: ``x_j = b_j · (1 / L_jj)``,
    then ``b_i -= L_ij x_j`` below it, one ``j`` at a time across the
    whole stack.  Every step is elementwise, so member ``j`` of a stack
    is bit for bit the single solve of that member, an identity
    right-hand side gives an exactly lower-triangular ``L⁻¹``, and a NaN
    in ``b_j`` reaches ``x_j`` and every row below it, as through LAPACK
    ``trtrs``.  No finiteness scan: the regulariser has accepted ``L``.
    Each member of the solution is in Fortran order -- ``trtrs``'s
    layout, which decides the order in which the sums downstream add."""
    dim, n = factor.shape[-1], rhs.shape[-1]
    stack = factor.reshape(-1, dim, dim)
    # rows[j] is x_j as (n, K), columns[j, i] is L_ij over the K members:
    # the members are the contiguous inner axis of every step.
    rows = np.empty((dim, n, stack.shape[0]))
    rows[...] = rhs.transpose(1, 2, 0) if rhs.ndim == 3 else rhs[..., None]
    columns = stack.transpose(2, 1, 0)
    reciprocals = 1.0 / stack.diagonal(0, 1, 2).T
    for j in range(dim - 1):
        row = rows[j]
        row *= reciprocals[j]
        rows[j + 1 :] -= columns[j, j + 1 :, None] * row
    rows[-1] *= reciprocals[-1]
    solution = np.empty((stack.shape[0], n, dim))
    solution.transpose(2, 1, 0)[...] = rows
    return solution.transpose(0, 2, 1).reshape(factor.shape[:-1] + (n,))


@dataclass(frozen=True)
class SPDFactors:
    """Cached Cholesky factorisation of a covariance matrix.

    Attributes
    ----------
    covariance:
        The (regularised) symmetric positive-definite matrix.
    cholesky:
        Lower-triangular ``L`` with ``L @ L.T == covariance``.
    log_det:
        ``log |covariance|`` computed from the factor diagonal.
    """

    covariance: np.ndarray
    cholesky: np.ndarray
    log_det: float
    _inverse: list = field(default_factory=list, repr=False, compare=False)
    _inverse_cholesky: list = field(
        default_factory=list, repr=False, compare=False
    )

    @property
    def dim(self) -> int:
        """Dimensionality ``d`` of the underlying Gaussian."""
        return self.covariance.shape[0]

    def inverse(self) -> np.ndarray:
        """Explicit inverse, computed lazily and cached.

        Only the coordinator's merge/split criteria need an explicit
        ``Σ⁻¹`` (to form ``Σ_i⁻¹ + Σ_j⁻¹``); density evaluation goes
        through triangular solves instead.
        """
        if not self._inverse:
            identity = np.eye(self.dim)
            half = np.linalg.solve(self.cholesky, identity)
            self._inverse.append(half.T @ half)
        return self._inverse[0]

    def inverse_cholesky(self) -> np.ndarray:
        """Lower-triangular ``L⁻¹``, computed lazily and cached.

        This is the whitening matrix of the batched density kernel
        (:func:`batch_log_pdf`): stacking each component's ``L⁻¹`` lets
        one GEMM whiten the records against every component at once,
        and the cache means repeated chunk tests against the same
        archived model never re-factorise anything.
        """
        if not self._inverse_cholesky:
            inverse_cholesky_stack(self.cholesky[None], (self,))
        return self._inverse_cholesky[0]

    def whiten(self, centered: np.ndarray) -> np.ndarray:
        """Map centred rows ``x - μ`` to whitened coordinates ``L⁻¹(x-μ)ᵀ``.

        Parameters
        ----------
        centered:
            Array of shape ``(n, d)`` of already-centred records.

        Returns
        -------
        numpy.ndarray
            Shape ``(d, n)`` whitened coordinates; squared column norms
            are the squared Mahalanobis distances.
        """
        return _solve_factor(self.cholesky, centered.T)


def spd_factorize(matrix: np.ndarray) -> SPDFactors:
    """Regularise ``matrix`` (:data:`DEFAULT_RIDGE`) and return its
    cached Cholesky factors."""
    cov, chol = _regularized_factors(matrix)
    log_det = 2.0 * float(np.log(chol.diagonal()).sum())
    return SPDFactors(covariance=cov, cholesky=chol, log_det=log_det)


def spd_factorize_stack(
    matrices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`spd_factorize` of every member of a ``(K, d, d)`` stack, as
    the read-only stacks ``(Σ, L, log|Σ|)``: member ``j`` of each is bit
    for bit what ``spd_factorize(matrices[j])`` holds.  The members
    share one finiteness scan and one ``cholesky`` call.  ``L⁻¹`` is not
    formed here: a decoded model may never run a density pass, and the
    first one forms it for the whole stack (:func:`inverse_cholesky_stack`)."""
    covariances, choleskys = _regularized_factors(matrices)
    log_dets = 2.0 * np.log(choleskys.diagonal(0, -2, -1)).sum(axis=-1)
    for stack in (covariances, choleskys, log_dets):
        stack.setflags(write=False)
    return covariances, choleskys, log_dets


def inverse_cholesky_stack(
    choleskys: np.ndarray, factors: Sequence[SPDFactors]
) -> np.ndarray:
    """The read-only ``(K, d, d)`` stack of every ``L⁻¹`` of the accepted
    factors ``choleskys`` (:func:`spd_factorize_stack`), from one solve.
    Member ``j`` is bit for bit, and in the layout of,
    ``factors[j].inverse_cholesky()``, and is kept in that cache if it
    is empty, so a component reused in another mixture never solves
    again."""
    inverses = _solve_factor(choleskys, np.eye(choleskys.shape[-1]))
    inverses.setflags(write=False)
    for member, inverse in zip(factors, inverses):
        if not member._inverse_cholesky:
            member._inverse_cholesky.append(inverse)
    return inverses


def mahalanobis_sq(
    points: np.ndarray,
    mean: np.ndarray,
    covariance: np.ndarray | SPDFactors,
) -> np.ndarray:
    """Squared Mahalanobis distance of each row of ``points`` from ``mean``.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)`` or ``(d,)``.
    mean:
        Gaussian mean of shape ``(d,)``.
    covariance:
        Either a raw ``(d, d)`` covariance or pre-computed
        :class:`SPDFactors`.

    Returns
    -------
    numpy.ndarray
        Shape ``(n,)`` distances (a scalar array for 1-d input).
    """
    factors = (
        covariance
        if isinstance(covariance, SPDFactors)
        else spd_factorize(covariance)
    )
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    centered = pts - np.asarray(mean, dtype=float)[None, :]
    whitened = factors.whiten(centered)
    return np.sum(whitened * whitened, axis=0)


# ----------------------------------------------------------------------
# Batched density kernels (all components at once)
# ----------------------------------------------------------------------
def shifted_exp(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(peak, finite, scaled, totals)`` of an ``(n, K)`` matrix of log
    values: ``exp(values - peak)`` along each row with its sum -- the
    one log-sum-exp, which a mixture's E-step reads everything from.
    It reads ``values.T`` -- ``K`` contiguous rows when ``values`` is
    the row kernel's transposed view (:func:`batch_log_pdf`) -- so the
    peak, the shift, the ``exp`` and the sums each run over whole rows,
    and the shift writes ``scaled`` in that ``(K, n)`` layout.  ``peak``
    is the true maximum and ``finite`` says where it is finite;
    elsewhere the shift is 0, so an all ``-inf`` row of ``values`` gives
    zeros and a zero total rather than ``nan``.

    Shifted values below :data:`LOG_TINY` are stored as ``-inf`` before
    the ``exp``: their terms are exactly 0 instead of subnormal, which
    ``exp`` is slow to produce.  Every total holds the peak's term 1,
    beside which such a term rounds away, so the totals keep their bits
    (DESIGN.md section 10.2); only entries of ``scaled`` under ``tiny``
    change.

    The ``K`` rows are added strictly left to right -- for fewer than
    eight the order of ``numpy.sum`` along the strided axis too; from
    eight on numpy adds that axis in blocks of eight and the totals
    differ in the last bits (DESIGN.md section 10.2).
    """
    rows = values.T
    peak = np.maximum.reduce(rows, axis=0)
    finite = np.isfinite(peak)
    shift = peak if finite.all() else np.where(finite, peak, 0.0)
    scaled = np.subtract(rows, shift, order="C")
    np.putmask(scaled, scaled < LOG_TINY, -np.inf)
    np.exp(scaled, out=scaled)
    return peak, finite, scaled, np.add.reduce(scaled, axis=0)


def batch_log_pdf(
    points: np.ndarray,
    whitener_t: np.ndarray,
    shift: np.ndarray,
    constants: np.ndarray,
    log_weights: np.ndarray | None = None,
) -> np.ndarray:
    """``log p(x|j)``, or ``log(w_j p(x|j))`` given ``log_weights``, as
    ``K`` contiguous rows: shape ``(K, n)``, C order.

    The batched equivalent of ``K`` ``Gaussian.log_pdf`` calls,
    ``-0.5 (d log 2π + log |Σ_j| + ‖L_j⁻¹x - L_j⁻¹μ_j‖²)``, over
    constants a mixture derives once (``GaussianMixture._row_kernel``):

    whitener_t:
        ``(d, K·d)``: the transpose of the C-contiguous ``(K·d, d)``
        stack of every ``L_j⁻¹``.  The records are whitened against all
        components by one GEMM, ``points @ whitener_t``; its operand
        layout picks the BLAS kernel, hence the bits.
    shift:
        ``(K, d)``: ``L_j⁻¹ μ_j``.
    constants:
        ``(K,)``: ``d log 2π + log |Σ_j|``.

    The squared norms are written straight into the rows, through their
    ``(n, K)`` transpose: ``einsum``'s own ``(n, K)`` result, in the same
    order of additions.
    """
    n_components, dim = shift.shape
    whitened = (points @ whitener_t).reshape(points.shape[0], n_components, dim)
    whitened -= shift
    rows = np.empty((n_components, points.shape[0]))
    np.einsum("nkd,nkd->nk", whitened, whitened, out=rows.T)
    rows += constants[:, None]
    rows *= -0.5
    if log_weights is not None:
        rows += log_weights[:, None]
    return rows


# ----------------------------------------------------------------------
# Log-Cholesky parameter rows (the merge fit's simplex vertices)
# ----------------------------------------------------------------------
def log_cholesky_index(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of ``L`` in log-Cholesky parameter order.

    A parameter row is ``θ = (μ, log diag L, tril L)``; the returned
    tuple addresses the ``d`` diagonal entries followed by the strict
    lower triangle in ``numpy.tril_indices(d, -1)`` order, so one
    assignment scatters ``θ[d:]`` into a stack of factors.
    """
    diag = np.arange(dim)
    rows, cols = np.tril_indices(dim, k=-1)
    return np.concatenate([diag, rows]), np.concatenate([diag, cols])


class LogCholeskyL1Loss:
    """``mean_n |target_n - weight_n · N(x_n; μ, L Lᵀ)|`` per parameter row.

    One object scores every vertex of one merge fit: it binds the
    fit's fixed sample set and owns the workspaces the evaluations
    reuse, so it lives as long as that fit and is not shared between
    fits or threads.  Each of the ``m`` rows it is handed is a Gaussian
    in log-Cholesky form ``(μ, log diag L, tril L)``.  The density is
    evaluated from ``L`` itself: the fixed points are whitened by
    ``L⁻¹`` (one triangular inverse and one ``(d, d) @ (d, n)`` product
    per row) and ``log |Σ|`` is twice the sum of the clipped
    log-diagonal -- ``L Lᵀ`` is never formed and nothing is
    re-factorised.

    A row is evaluated when ``Gaussian(μ, L Lᵀ)`` provably denotes the
    same density to rounding: ``θ`` finite, every pivot² above
    ``2·VARIANCE_FLOOR``, and ``‖L‖_F² ‖L⁻¹‖_F²`` -- an upper bound on
    ``cond(Σ)`` -- at most :data:`LOG_CHOLESKY_MAX_CONDITION`.  Beyond
    that, :func:`spd_factorize` may floor or ridge ``L Lᵀ`` (its
    pivot test fails from ``cond(Σ) ≈ 1/PIVOT_FLOOR²``) and
    re-factorising it loses ``cond(Σ)·ε`` of the factor, so those rows
    come back ``nan`` and are the caller's to score through that gate.

    Rows are scored independently, which is what lets two bodies share
    the arithmetic.  A simplex search asks for one vertex at a time
    nine times in ten, and at ``m = 1`` a batched kernel is all
    dispatch: the *row body* runs the same operations as 1-D / 2-D
    calls into kept buffers, allocating nothing that grows with ``n``.
    The *batch body* takes ``m ≥ 2`` (an initial simplex, a shrink
    step) through the same workspaces in blocks of rows.  One row
    returns bit for bit what a batch returns for it, whatever the
    buffers held before.

    Rows on their way to being declined overflow, and nothing here
    silences that: call inside ``np.errstate(over="ignore",
    invalid="ignore")``.

    Parameters
    ----------
    points_t:
        The evaluation points transposed, shape ``(d, n)``.
    target / weight:
        Shape ``(n,)`` vectors of the loss above.
    factor_index:
        :func:`log_cholesky_index` of ``d``.
    """

    def __init__(
        self,
        points_t: np.ndarray,
        target: np.ndarray,
        weight: np.ndarray,
        factor_index: tuple[np.ndarray, np.ndarray],
    ) -> None:
        from scipy.linalg.lapack import dtrtri

        dim, n_points = points_t.shape
        self._dtrtri = dtrtri
        self._points_t = points_t
        self._target = target
        self._weight = weight
        self._log_norm = -0.5 * dim * LOG_2PI
        # One workspace for both bodies; the row body uses its first row.
        row_bytes = 8 * n_points * (2 * dim + 1)
        self._block_rows = max(1, LOG_CHOLESKY_WORKSPACE_BYTES // row_bytes)
        self._centered = np.empty((self._block_rows, dim, n_points))
        self._whitened = np.empty_like(self._centered)
        self._values = np.empty((self._block_rows, n_points))
        # Where a row's entries of L land in a flattened (d, d).
        self._scatter = factor_index[0] * dim + factor_index[1]
        # The row body's own: clipped log-pivots, L's entries in
        # parameter order, L (its strict upper triangle is never
        # written, so it stays zero) and L⁻¹ in C order.
        self._log_diag = np.empty(dim)
        self._entries = np.empty(self._scatter.size)
        self._factor = np.zeros((dim, dim))
        self._factor_flat = self._factor.reshape(-1)
        self._whitener = np.empty((dim, dim))
        self._zeros = np.zeros(dim + self._scatter.size)

    def __call__(self, thetas: np.ndarray) -> np.ndarray:
        """Losses of the ``(m, p)`` rows ``thetas``, shape ``(m,)``;
        ``nan`` for the rows not evaluated here."""
        n_rows = thetas.shape[0]
        if n_rows == 1:
            return self._row(thetas[0])
        if n_rows <= self._block_rows:
            return self._batch(thetas)
        return np.concatenate(
            [
                self(thetas[start : start + self._block_rows])
                for start in range(0, n_rows, self._block_rows)
            ]
        )

    def _row(self, theta: np.ndarray) -> np.ndarray:
        dim = self._log_diag.size
        log_diag, entries, whitener = (
            self._log_diag, self._entries, self._whitener,
        )
        np.maximum(theta[dim : 2 * dim], -LOG_PIVOT_CLIP, out=log_diag)
        np.minimum(log_diag, LOG_PIVOT_CLIP, out=log_diag)
        entries[dim:] = theta[2 * dim :]
        np.exp(log_diag, out=entries[:dim])
        self._factor_flat[self._scatter] = entries
        whitener[...] = self._dtrtri(self._factor, lower=1)[0]
        condition = np.einsum("p,p->", entries, entries) * np.einsum(
            "ij,ij->", whitener, whitener
        )
        # The same three gates as the batch body, at the price of one
        # row: ``0 · x`` is ``nan`` for a non-finite ``x`` and zero
        # otherwise, so the dot is zero exactly when ``θ`` is finite.
        if not (
            condition <= LOG_CHOLESKY_MAX_CONDITION
            and min(log_diag.tolist()) > _LOG_PIVOT_MIN
            and self._zeros.dot(theta) == 0.0
        ):
            return np.array([np.nan])
        centered, whitened, values = (
            self._centered[0], self._whitened[0], self._values[0],
        )
        np.subtract(self._points_t, theta[:dim, None], out=centered)
        np.matmul(whitener, centered, out=whitened)
        np.einsum("dn,dn->n", whitened, whitened, out=values)
        values *= -0.5
        values += self._log_norm - log_diag.sum()
        np.exp(values, out=values)
        values *= self._weight
        np.subtract(self._target, values, out=values)
        np.abs(values, out=values)
        return np.add.reduce(values, keepdims=True) / values.size

    def _batch(self, thetas: np.ndarray) -> np.ndarray:
        n_rows = thetas.shape[0]
        dim = self._log_diag.size
        log_diag = np.minimum(
            np.maximum(thetas[:, dim : 2 * dim], -LOG_PIVOT_CLIP),
            LOG_PIVOT_CLIP,
        )
        entries = thetas[:, dim:].copy()
        entries[:, :dim] = np.exp(log_diag)
        whitener = np.zeros((n_rows, dim, dim))
        whitener.reshape(n_rows, -1)[:, self._scatter] = entries
        for factor in whitener:
            factor[...] = self._dtrtri(factor, lower=1)[0]
        condition = np.einsum("mp,mp->m", entries, entries) * np.einsum(
            "mij,mij->m", whitener, whitener
        )
        declined = ~(
            np.isfinite(thetas).all(axis=1)
            & (condition <= LOG_CHOLESKY_MAX_CONDITION)
            & (log_diag.min(axis=1) > _LOG_PIVOT_MIN)
        )
        centered, whitened, values = (
            self._centered[:n_rows],
            self._whitened[:n_rows],
            self._values[:n_rows],
        )
        np.subtract(self._points_t, thetas[:, :dim, None], out=centered)
        np.matmul(whitener, centered, out=whitened)
        np.einsum("mdn,mdn->mn", whitened, whitened, out=values)
        values *= -0.5
        values += (self._log_norm - log_diag.sum(axis=1))[:, None]
        np.exp(values, out=values)
        values *= self._weight
        np.subtract(self._target, values, out=values)
        np.abs(values, out=values)
        losses = values.sum(axis=1) / values.shape[1]
        # Declined rows ran through the arithmetic for nothing: they are
        # rare, and no row reads another's.
        losses[declined] = np.nan
        return losses
