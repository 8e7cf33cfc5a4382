"""Gaussian mixture models (paper section 3.1).

A :class:`GaussianMixture` bundles ``K`` weighted :class:`Gaussian`
components and provides every quantity the paper's algorithms consume:

* the mixture density ``p(x) = Σ_j w_j p(x|j)`` (eq. 1),
* posteriors ``Pr(j|x)`` (eq. 2),
* the average log likelihood ``AvgPr`` (Definition 1) both as the paper
  states it and in the "sharpened" max-component form used in the proof
  of Theorem 2,
* moment summaries (pooled mean/covariance) needed by the coordinator's
  split criterion, and
* synopsis payload accounting for the communication benchmarks.

Like :class:`Gaussian`, mixtures are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.gaussian import BYTES_PER_FLOAT, Gaussian
from repro.numerics.linalg import (
    LOG_2PI,
    batch_log_pdf,
    inverse_cholesky_stack,
    shifted_exp,
)

__all__ = ["EStep", "GaussianMixture", "union_by_mass"]

#: Log-density floor: records in the far tail of every component clamp
#: here rather than producing ``-inf`` average log likelihoods.
LOG_DENSITY_FLOOR = -745.0  # ~ log(smallest positive double)


def _records(points: np.ndarray) -> np.ndarray:
    return np.atleast_2d(np.asarray(points, dtype=float))


class EStep:
    """One density pass of a mixture over a chunk (paper section 3.2).

    The posteriors ``Pr(j|x)`` and the likelihood come from the same
    matrix ``weighted = log(w_j p(x_i|j))``, shape ``(n, K)``; so do the
    fit test and a model's reference statistics.  An ``EStep`` holds the
    matrix -- from :meth:`GaussianMixture.e_step`, the transposed view of
    ``K`` contiguous rows -- and its one reduction
    (:func:`~repro.numerics.linalg.shifted_exp`, over those rows) and
    derives each of them from that only when asked, the two arrays at
    most once.

    It is handed on as an argument and dropped with the chunk, never
    cached on the mixture: a memo keyed on the chunk array goes stale
    when a producer refills its buffer in place (DESIGN.md section 10.2).
    """

    __slots__ = (
        "weights", "weighted", "_reduced", "_log_density", "_responsibilities"
    )

    def __init__(self, weights: np.ndarray, weighted: np.ndarray) -> None:
        self.weights = weights
        self.weighted = weighted
        self._reduced = shifted_exp(weighted)
        self._log_density = self._responsibilities = None

    @property
    def log_density(self) -> np.ndarray:
        """Floored mixture log density per record; see
        :meth:`GaussianMixture.log_pdf`."""
        if self._log_density is None:
            peak, finite, _, totals = self._reduced
            log_density = peak + np.log(totals)
            if not finite.all():
                log_density[~finite] = -np.inf
            self._log_density = np.maximum(
                log_density, LOG_DENSITY_FLOOR, out=log_density
            )
        return self._log_density

    @property
    def max_log_density(self) -> np.ndarray:
        """Floored maximal ``log(w_j p(x|j))`` per record (Theorem 2):
        the peak the reduction already took."""
        return np.maximum(self._reduced[0], LOG_DENSITY_FLOOR)

    @property
    def responsibilities(self) -> np.ndarray:
        """``Pr(j|x)``, shape ``(n, K)`` in C order -- the operand layout
        the moment products downstream were pinned on; see
        :meth:`GaussianMixture.posterior`."""
        if self._responsibilities is None:
            _, finite, scaled, totals = self._reduced
            with np.errstate(invalid="ignore"):
                posterior = np.ascontiguousarray((scaled / totals).T)
            if not finite.all():
                posterior[~finite] = self.weights
            self._responsibilities = posterior
        return self._responsibilities

    @property
    def log_likelihood(self) -> float:
        """``AvgPr`` of the chunk under the mixture (Definition 1)."""
        n = self.weighted.shape[0]
        if n == 0:
            raise ValueError("cannot average over an empty data set")
        # ``np.mean``'s own sum and division, without its dispatch.
        return float(np.add.reduce(self.log_density) / n)


@dataclass(frozen=True)
class GaussianMixture:
    """An immutable mixture ``(w_j, μ_j, Σ_j), j = 1..K``.

    Parameters
    ----------
    weights:
        Non-negative weights of shape ``(K,)``; they are normalised to
        sum to one on construction.  Weights that already sum to one
        within floating-point tolerance are kept bitwise as given, so
        reconstructing a mixture from its own (serialised) weights is
        exactly idempotent.
    components:
        The ``K`` Gaussian components, all of the same dimension.
    """

    weights: np.ndarray
    components: tuple[Gaussian, ...]
    _pooled: list = field(default_factory=list, init=False, repr=False, compare=False)
    _batch: list = field(default_factory=list, init=False, repr=False, compare=False)
    _kernel: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float).ravel()
        components = tuple(self.components)
        if weights.size != len(components):
            raise ValueError(
                f"{weights.size} weights for {len(components)} components"
            )
        if weights.size == 0:
            raise ValueError("a mixture needs at least one component")
        total = float(weights.sum())
        # Non-negative with a finite sum is all finite (min is NaN-aware).
        if not (weights.min() >= 0.0 and math.isfinite(total)):
            raise ValueError("weights must be finite and non-negative")
        if total <= 0.0:
            raise ValueError("weights must not all be zero")
        dims = {component.dim for component in components}
        if len(dims) != 1:
            raise ValueError(f"components have mixed dimensions: {dims}")
        # Skip the division when the weights are already normalised to
        # within floating-point tolerance: dividing by 1.0 +/- 1ulp would
        # shift the stored values by an ulp, which breaks the bitwise
        # construct/serialise/reconstruct idempotency the checkpoint
        # restore path (DESIGN.md section 9) relies on.
        if abs(total - 1.0) > 1e-12:
            weights = weights / total
        else:
            weights = weights.copy()
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "components", components)
        self.weights.setflags(write=False)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def single(cls, component: Gaussian) -> "GaussianMixture":
        """Mixture containing one component with weight 1."""
        return cls(np.ones(1), (component,))

    @classmethod
    def from_stacks(
        cls,
        weights: np.ndarray,
        means: np.ndarray,
        covariances: np.ndarray,
        diagonal: bool | Sequence[bool] = False,
    ) -> "GaussianMixture":
        """Build all ``K`` components at once (:meth:`Gaussian.stack`:
        one regularise-and-factor for the ``(K, d, d)`` stack) and keep
        the kernel stack that came with them, so the first density pass
        has nothing left to assemble (:meth:`_row_kernel`)."""
        components, kernel_stack = Gaussian.stack(means, covariances, diagonal)
        mixture = cls(weights, components)
        mixture._batch.append(kernel_stack)
        return mixture

    @classmethod
    def from_pairs(
        cls, pairs: Sequence[tuple[float, Gaussian]]
    ) -> "GaussianMixture":
        """Build from ``(weight, component)`` pairs."""
        if not pairs:
            raise ValueError("need at least one (weight, component) pair")
        weights = np.array([w for w, _ in pairs], dtype=float)
        components = tuple(g for _, g in pairs)
        return cls(weights, components)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_components(self) -> int:
        """Number of components ``K``."""
        return len(self.components)

    @property
    def dim(self) -> int:
        """Dimensionality ``d``."""
        return self.components[0].dim

    def __iter__(self) -> Iterator[tuple[float, Gaussian]]:
        return zip(self.weights.tolist(), self.components)

    # ------------------------------------------------------------------
    # Densities and posteriors
    # ------------------------------------------------------------------
    def _row_kernel(self) -> tuple[np.ndarray, ...]:
        """``(whitener_t, shift, constants, log w)``: the constants of
        :func:`~repro.numerics.linalg.batch_log_pdf`.

        Derived once per mixture (mixtures are immutable) from the
        ``(means, L, log-dets)`` kernel stack :meth:`from_stacks` kept --
        every ``L⁻¹`` from one solve, which the components then cache --
        or else from the components' cached factors, so every density
        pass -- E-step iterations, fit tests, anomaly scoring -- is the
        pass alone.  Archived models on a remote site keep theirs across
        chunks: the multi-test ``c_max`` path never re-factorises a
        covariance it has tested before.
        """
        if not self._kernel:
            if self._batch:
                means, choleskys, log_dets = self._batch[0]
                inverses = inverse_cholesky_stack(
                    choleskys, [c.factors for c in self.components]
                )
            else:
                means = np.stack([c.mean for c in self.components])
                inverses = np.stack(
                    [c.factors.inverse_cholesky() for c in self.components]
                )
                log_dets = np.array([c.log_det for c in self.components])
            n_components, dim = means.shape
            with np.errstate(divide="ignore"):
                log_weights = np.log(self.weights)
            self._kernel.append((
                np.ascontiguousarray(inverses.reshape(n_components * dim, dim)).T,
                # On the stack as stored: this sum's order follows its strides.
                np.einsum("kde,ke->kd", inverses, means),
                dim * LOG_2PI + log_dets,
                log_weights,
            ))
        return self._kernel[0]

    def component_log_pdf(self, points: np.ndarray) -> np.ndarray:
        """Matrix of ``log p(x|j)`` values, shape ``(n, K)``, C order.

        Evaluated by the batched kernel
        :func:`repro.numerics.linalg.batch_log_pdf` -- one GEMM over
        all ``K`` components instead of ``K`` separate triangular
        solves.
        """
        whitener_t, shift, constants, _ = self._row_kernel()
        rows = batch_log_pdf(_records(points), whitener_t, shift, constants)
        return np.ascontiguousarray(rows.T)

    def weighted_log_pdf(self, points: np.ndarray) -> np.ndarray:
        """Matrix of ``log(w_j p(x|j))`` values, shape ``(n, K)``, C order.

        Zero-weight components contribute ``-inf`` columns, matching the
        convention that they cannot generate data.
        """
        rows = batch_log_pdf(_records(points), *self._row_kernel())
        return np.ascontiguousarray(rows.T)

    def e_step(self, points: np.ndarray) -> EStep:
        """The one density pass over ``points`` that every likelihood
        and posterior below is read from: the rows of
        :meth:`weighted_log_pdf`, reduced where they are written."""
        rows = batch_log_pdf(_records(points), *self._row_kernel())
        return EStep(self.weights, rows.T)

    def log_pdf(self, points: np.ndarray) -> np.ndarray:
        """Mixture log density ``log p(x)`` per row (eq. 1), floored.

        The log-sum-exp is computed stably; rows in the extreme tail of
        every component clamp to :data:`LOG_DENSITY_FLOOR` instead of
        ``-inf`` so downstream averages stay finite.
        """
        return self.e_step(points).log_density

    def pdf(self, points: np.ndarray) -> np.ndarray:
        """Mixture density ``p(x)`` per row."""
        return np.exp(self.log_pdf(points))

    def posterior(self, points: np.ndarray) -> np.ndarray:
        """Posterior membership matrix ``Pr(j|x)`` (eq. 2), shape ``(n, K)``.

        Rows always sum to one.  In the deep tail of every component the
        computation stays stable: the relatively-closest component wins
        (a numerically hard assignment); a row whose every weighted log
        density is ``-inf`` falls back to the mixture weights.  An entry
        below the smallest normal double is exactly 0, never subnormal.
        """
        return self.e_step(points).responsibilities

    def assign(self, points: np.ndarray) -> np.ndarray:
        """Hard assignment: index of the most probable component per row."""
        return np.argmax(self.posterior(points), axis=1)

    # ------------------------------------------------------------------
    # Average log likelihood (Definition 1)
    # ------------------------------------------------------------------
    def average_log_likelihood(self, points: np.ndarray) -> float:
        """``AvgPr = (1/|D|) Σ_x log Σ_j w_j p(x|j)`` (Definition 1)."""
        return self.e_step(points).log_likelihood

    def max_component_log_likelihood(self, points: np.ndarray) -> float:
        """Sharpened average using per-record max component probability.

        The proof of Theorem 2 replaces the overall mixture probability
        of each record by the maximal ``w_j p(x|j)`` to sharpen the
        average-log-likelihood test; this method implements that
        variant.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[0] == 0:
            raise ValueError("cannot average over an empty data set")
        return float(np.mean(self.e_step(points).max_log_density))

    # ------------------------------------------------------------------
    # Moments, sampling, combination
    # ------------------------------------------------------------------
    def pooled_gaussian(self) -> Gaussian:
        """Single moment-matched Gaussian of the whole mixture.

        This provides the ``(μ_Mix, Σ_Mix)`` pair the coordinator's
        ``M_split`` / ``M_remerge`` criteria compare components against.
        """
        if not self._pooled:
            only = self.components[0]
            if len(self.weights) == 1 and self.weights[0] == 1.0 and not only.diagonal:
                # The pool of one leaf is the leaf: nothing to re-factorise.
                self._pooled.append(only)
                return only
            # ``np.array``: ``np.stack``'s copy, without its checks.
            means = np.array([component.mean for component in self.components])
            covariances = np.array(
                [component.covariance for component in self.components]
            )
            mean = self.weights @ means
            deltas = means - mean
            cov = np.einsum(
                "k,kij->ij", self.weights, covariances
            ) + np.einsum("k,ki,kj->ij", self.weights, deltas, deltas)
            self._pooled.append(Gaussian(mean, cov))
        return self._pooled[0]

    def sample(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` samples; returns ``(points, component_labels)``."""
        if n < 0:
            raise ValueError("sample count must be non-negative")
        labels = rng.choice(self.n_components, size=n, p=self.weights)
        points = np.empty((n, self.dim))
        for j, component in enumerate(self.components):
            mask = labels == j
            count = int(mask.sum())
            if count:
                points[mask] = component.sample(count, rng)
        return points, labels

    def scaled(self, factor: float) -> np.ndarray:
        """Raw (unnormalised) weights scaled by ``factor``.

        Helper for the sliding-window deletion protocol where model
        weights are adjusted by signed record counts.
        """
        if factor <= 0.0:
            raise ValueError("scale factor must be positive")
        return self.weights * factor

    def with_components(
        self, weights: np.ndarray, components: Sequence[Gaussian]
    ) -> "GaussianMixture":
        """New mixture with replaced contents (dimension-checked)."""
        mixture = GaussianMixture(np.asarray(weights, dtype=float), tuple(components))
        if mixture.dim != self.dim:
            raise ValueError("replacement components change dimensionality")
        return mixture

    def union(
        self, other: "GaussianMixture", weight_self: float, weight_other: float
    ) -> "GaussianMixture":
        """Weighted union of two mixtures.

        ``weight_self`` / ``weight_other`` are the relative masses of the
        two mixtures (typically record counts); the result renormalises.
        This is the coordinator's "combine all Gaussian models directly"
        primitive of section 5.2.
        """
        if other.dim != self.dim:
            raise ValueError("cannot union mixtures of different dimension")
        if weight_self < 0.0 or weight_other < 0.0:
            raise ValueError("union masses must be non-negative")
        weights = np.concatenate(
            [self.weights * weight_self, other.weights * weight_other]
        )
        return GaussianMixture(weights, self.components + other.components)

    # ------------------------------------------------------------------
    # Serialisation (synopsis payloads)
    # ------------------------------------------------------------------
    def payload_bytes(self) -> int:
        """Bytes to ship this mixture as a synopsis.

        ``K`` weights plus each component's parameters -- exactly the
        ``K(d² + d + 1)`` accounting of Theorem 3 (or ``K(2d + 1)`` for
        diagonal components), at 8 bytes per parameter.
        """
        return BYTES_PER_FLOAT * self.n_components + sum(
            component.payload_bytes() for component in self.components
        )

    def to_dict(self) -> Mapping[str, object]:
        """Plain-data representation (for message payloads and tests)."""
        return {
            "weights": self.weights.tolist(),
            "components": [c.to_dict() for c in self.components],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "GaussianMixture":
        """Inverse of :meth:`to_dict`."""
        items = payload["components"]
        return cls.from_stacks(
            np.asarray(payload["weights"], dtype=float),
            [item["mean"] for item in items],
            [item["covariance"] for item in items],
            [bool(item.get("diagonal", False)) for item in items],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussianMixture):
            return NotImplemented
        return (
            np.array_equal(self.weights, other.weights)
            and self.components == other.components
        )

    def __hash__(self) -> int:
        return hash((self.weights.tobytes(), self.components))

    def __repr__(self) -> str:
        return (
            f"GaussianMixture(K={self.n_components}, dim={self.dim}, "
            f"weights={np.round(self.weights, 4)})"
        )


def union_by_mass(
    pairs: Iterable[tuple[GaussianMixture, float]],
) -> GaussianMixture | None:
    """Left-to-right :meth:`GaussianMixture.union` of ``(mixture, mass)`` pairs.

    The one fold behind every section 7 answer that combines models by
    their record mass (landmark and horizon windows, site- and
    coordinator-side).  Pairs with a non-positive mass are skipped;
    ``None`` when no pair is left.
    """
    combined: GaussianMixture | None = None
    combined_mass = 0.0
    for mixture, mass in pairs:
        if mass <= 0:
            continue
        if combined is None:
            combined = mixture
        else:
            combined = combined.union(mixture, combined_mass, float(mass))
        combined_mass += float(mass)
    return combined
