"""Chunk-size theory (paper Lemma 1 / Theorem 1).

The remote site conceptually divides its stream into chunks of size::

    M = -2 d ln(δ(2 - δ)) / ε

Theorem 1 guarantees that with at least ``M`` samples the squared
Mahalanobis distance between the sample mean and the true mean stays
below ``ε`` with probability ``1 - δ``; Theorem 2 lifts this to the
average-log-likelihood test used by the test-and-cluster strategy.

This module computes ``M``, exposes the Lemma 1 tail bound for property
tests, and provides the chunk iterator that feeds Algorithm 1.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "chunk_size",
    "iter_chunks",
    "lemma1_tail_bound",
    "window_error_bound",
]


def chunk_size(dim: int, epsilon: float, delta: float) -> int:
    """Theorem 1 chunk size ``M = ⌈-2 d ln(δ(2-δ)) / ε⌉``.

    Parameters
    ----------
    dim:
        Data dimensionality ``d``.
    epsilon:
        Error bound ``ε`` on the squared Mahalanobis distance (and, via
        Theorem 2, on the average-log-likelihood difference).
    delta:
        Probability error bound ``δ`` in ``(0, 1)``.

    Returns
    -------
    int
        The chunk size, at least 1.

    Notes
    -----
    ``δ(2-δ) ∈ (0, 1)`` for ``δ ∈ (0, 1)``, so the logarithm is negative
    and ``M`` positive.  With the paper's defaults
    (``d=4, ε=0.02, δ=0.01``) this gives ``M = 1567``.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    raw = -2.0 * dim * math.log(delta * (2.0 - delta)) / epsilon
    return max(1, math.ceil(raw))


def lemma1_tail_bound(epsilon: float, m: int) -> float:
    """Lemma 1 upper bound on ``Pr(x ≥ ε)`` for ``x ~ N(0, 1/M)``.

    Returns ``1 - sqrt(1 - exp(-M ε² / 2))``, clipped into ``[0, 1]``.
    Property tests check it dominates the exact Gaussian tail.
    """
    if m <= 0:
        raise ValueError("M must be positive")
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    inner = 1.0 - math.exp(-m * epsilon * epsilon / 2.0)
    return min(1.0, max(0.0, 1.0 - math.sqrt(inner))) if inner >= 0 else 1.0


def window_error_bound(dim: int, epsilon: float, delta: float) -> float:
    """Absolute error of evolving-analysis window answers (section 7).

    Event-table entries are chunk-aligned, so a user query window is
    answered to within half a chunk: ``M/2 = -d ln(δ(2-δ)) / ε``.
    """
    return chunk_size(dim, epsilon, delta) / 2.0


def iter_chunks(records: Iterable[np.ndarray], chunk: int) -> Iterator[np.ndarray]:
    """Group a record iterable into ``(chunk, d)`` arrays.

    A trailing partial chunk is held back -- Algorithm 1 only ever acts
    on full chunks; ``numpy.array_split`` keeps it.

    Parameters
    ----------
    records:
        Iterable of ``(d,)`` record vectors (e.g. a stream generator).
    chunk:
        Records per chunk (Theorem 1's ``M``).

    Returns
    -------
    Iterator[numpy.ndarray]
        Arrays of shape ``(chunk, d)``.
    """
    if chunk < 1:
        raise ValueError("chunk size must be at least 1")
    return _chunks(records, chunk)


def _chunks(records: Iterable[np.ndarray], chunk: int) -> Iterator[np.ndarray]:
    buffer: list[np.ndarray] = []
    for record in records:
        buffer.append(np.asarray(record, dtype=float))
        if len(buffer) == chunk:
            yield np.stack(buffer)
            buffer = []
