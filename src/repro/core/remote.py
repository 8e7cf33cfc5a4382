"""Remote-site processing: the test-and-cluster strategy (Algorithm 1).

A :class:`RemoteSite` consumes its local stream record by record,
buffers Theorem 1-sized chunks and runs Algorithm 1 on each full chunk:

1. the very first chunk is clustered with EM, establishing the current
   model and its reference likelihood ``AvgPr_0``;
2. every later chunk is *tested* first (``J_fit ≤ ε``).  A fitting chunk
   just bumps the current model's counter -- no EM, no communication;
3. with the multi-test strategy (``c_max > 1``) a chunk that fails the
   current model is tested against up to ``c_max - 1`` archived models;
   matching one *reactivates* it (cheap ``WeightUpdateMessage``);
4. only when every test fails does the site archive the current model,
   append an event-table entry and run EM, emitting a full
   ``ModelUpdateMessage``.

The site also keeps the per-model counters, the event table driving the
section 7 evolving analysis, and cost statistics (tests vs clusterings,
buffered bytes, Theorem 3 memory accounting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.chunking import chunk_size
from repro.core.em import EMConfig, absorb_chunk, fit_em, incremental_em
from repro.core.events import EventTable
from repro.core.gaussian import Gaussian
from repro.core.mixture import EStep, GaussianMixture
from repro.core.suffstats import SufficientStats
from repro.core.protocol import (
    DeletionMessage,
    Message,
    ModelUpdateMessage,
    WeightUpdateMessage,
)
from repro.core.testing import (
    LikelihoodVariant,
    adaptive_threshold,
    fit_test,
    reference_statistics,
)
from repro.obs.observer import Observer, ensure_observer

__all__ = ["ModelEntry", "RemoteSite", "RemoteSiteConfig", "SiteStatistics"]

#: NumPy hands out one dtype object for native float64; any other
#: spelling merely takes ``process_record``'s converting path.
_FLOAT64 = np.dtype(np.float64)


@dataclass(frozen=True, kw_only=True)
class RemoteSiteConfig:
    """Parameters of one remote site.

    Defaults follow the paper's experimental setting (section 6):
    ``ε = 0.02``, ``δ = 0.01``, ``d = 4``, ``K = 5``, ``c_max = 4``.

    Parameters
    ----------
    dim:
        Record dimensionality ``d``.
    epsilon:
        Error bound ``ε`` of the fit test (and chunk-size formula).
    delta:
        Probability error ``δ`` of Theorem 1.
    c_max:
        Maximal number of model tests per chunk (current model plus up
        to ``c_max - 1`` archived models).  ``c_max = 1`` is the paper's
        single-test strategy.
    em:
        EM trainer configuration (``K`` lives here).
    variant:
        Likelihood flavour of the fit test.
    warm_start:
        Additionally refine EM from the failing current model (an extra
        candidate next to the cold restarts).  Off by default: the
        k-means++ cold start consistently matches or beats the warm
        refinement (see ``bench_ablation_warm_start``), so the extra EM
        run is pure cost; the knob remains for ablation.
    adaptive_test:
        Use the variance-aware tolerance of
        :func:`repro.core.testing.adaptive_threshold` (default).  Off
        reproduces the paper's verbatim ``J_fit ≤ ε`` criterion.
    handle_missing:
        Accept records with NaN (missing) attributes: EM runs the exact
        missing-data variant (:mod:`repro.core.missing`) and the fit
        test evaluates marginal likelihoods.  Off (default), NaN records
        are rejected.
    reference_holdout:
        Fraction of each training chunk held out to estimate the
        reference statistics ``AvgPr_0`` / ``σ̂`` out of sample.
        Measuring them on the records EM just fitted makes the
        reference optimistically biased by roughly
        ``#params / 2M``, which mis-fires the test on hard data; the
        held-out estimate removes the bias (see DESIGN.md,
        faithful-intent corrections).  ``0.0`` reproduces the paper's
        in-sample reference.
    archive_limit:
        Retention bound on the archived-model list.  The archive is
        kept in recency-of-use order (reactivating a model moves it to
        the tail), so the bound evicts least-recently-used models
        first and the reactivate ladder -- which scans the most recent
        ``c_max - 1`` entries -- keeps seeing exactly the models it
        would have tested anyway.  Evictions are counted in
        ``SiteStatistics.archive_evictions``.  ``None`` (default)
        keeps every archived model, the paper's unbounded model list.
    event_limit:
        Retention bound on the event table (see
        :class:`~repro.core.events.EventTable`); ``None`` (default)
        keeps every entry.
    chunk_override:
        Explicit chunk size ``M``; when ``None`` Theorem 1's formula is
        used.

    Incremental mode (``em.incremental = True``) replaces the
    fail-path cold restart with the DESIGN.md section 14 refit ladder
    (reactivate → warm-start stepwise E-M → cold refit) and absorbs
    passing chunks through sufficient statistics; with it off the site
    is byte-identical to the pre-ladder behaviour.
    """

    dim: int = 4
    epsilon: float = 0.02
    delta: float = 0.01
    c_max: int = 4
    em: EMConfig = field(default_factory=EMConfig)
    variant: LikelihoodVariant = LikelihoodVariant.MIXTURE
    warm_start: bool = False
    adaptive_test: bool = True
    handle_missing: bool = False
    reference_holdout: float = 0.25
    archive_limit: int | None = None
    event_limit: int | None = None
    chunk_override: int | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.c_max < 1:
            raise ValueError("c_max must be at least 1")
        if self.archive_limit is not None and self.archive_limit < 1:
            raise ValueError(
                f"archive_limit must be at least 1, got {self.archive_limit}"
            )
        if self.event_limit is not None and self.event_limit < 1:
            raise ValueError(
                f"event_limit must be at least 1, got {self.event_limit}"
            )
        if self.chunk_override is not None and self.chunk_override < 1:
            raise ValueError("chunk_override must be at least 1")
        if not 0.0 <= self.reference_holdout < 1.0:
            raise ValueError("reference_holdout must lie in [0, 1)")

    @property
    def chunk(self) -> int:
        """Chunk size ``M`` (Theorem 1 unless overridden)."""
        if self.chunk_override is not None:
            return self.chunk_override
        return chunk_size(self.dim, self.epsilon, self.delta)


@dataclass
class ModelEntry:
    """A model in the site's model list with its bookkeeping.

    Attributes
    ----------
    model_id:
        Site-local identifier (monotonically increasing).
    mixture:
        The fitted mixture parameters.
    reference_likelihood:
        ``AvgPr_0`` recorded when the model was trained.
    reference_std:
        Per-record log-density spread ``σ̂`` of the reference sample
        (drives the adaptive test threshold).
    reference_size:
        Number of records the reference statistics were estimated on.
    count:
        Counter ``c``: number of records currently attributed to the
        model.
    trained_at:
        Stream position (records) when the model was trained.
    stats:
        Running sufficient statistics behind the mixture (incremental
        mode only; ``None`` on the classic path).  They let passing
        chunks be absorbed in one pass and warm refits resume exactly
        where the model's evidence left off.
    """

    model_id: int
    mixture: GaussianMixture
    reference_likelihood: float
    reference_std: float
    reference_size: int
    count: int
    trained_at: int
    stats: SufficientStats | None = None


@dataclass
class SiteStatistics:
    """Cost counters backing Theorems 3-4 and the scalability figures.

    ``n_tests`` counts fit-test evaluations (cost ``λC`` each in the
    paper's model); ``n_clusterings`` counts model installs after a
    full test failure (cost ``C`` when cold; warm refits are cheaper
    and counted again in ``n_warm_refits``); ``n_tests_passed`` counts
    the evaluations whose chunk fitted, so ``n_tests -
    n_tests_passed`` is the fail count; ``n_archived`` counts
    current-model retirements into the model list.

    The last three counters exist only in incremental mode
    (``n_absorbed`` one-pass absorptions of passing chunks,
    ``n_warm_refits`` / ``n_cold_refits`` ladder outcomes); they stay
    zero -- and out of checkpoints -- on the classic path.
    ``archive_evictions`` counts models dropped by the
    ``archive_limit`` retention bound and likewise stays zero (and out
    of checkpoints) while the bound is off.
    """

    records_seen: int = 0
    chunks_processed: int = 0
    n_tests: int = 0
    n_tests_passed: int = 0
    n_clusterings: int = 0
    n_reactivations: int = 0
    n_archived: int = 0
    messages_sent: int = 0
    bytes_sent: int = 0
    n_absorbed: int = 0
    n_warm_refits: int = 0
    n_cold_refits: int = 0
    archive_evictions: int = 0

    def register_message(self, message: Message) -> None:
        self.messages_sent += 1
        self.bytes_sent += message.payload_bytes()


class RemoteSite:
    """One remote site running Algorithm 1 over its local stream.

    Parameters
    ----------
    site_id:
        Identifier used in outgoing messages.
    config:
        Site parameters.
    rng:
        Randomness for EM seeding (kept site-local so distributed runs
        are reproducible per site).
    emit:
        Optional callback invoked with every outgoing
        :class:`~repro.core.protocol.Message`; a runtime channel plugs
        its delivery in here.  Messages are also returned by
        :meth:`process_record` / :meth:`process_chunk` so the site is
        usable without any channel.
    observer:
        Optional :class:`~repro.obs.observer.Observer` receiving the
        site's trace events (``site.chunk_test``, ``site.cluster``,
        ``site.reactivate``, ``site.archive``, ``site.expire``) and
        metrics.  Defaults to the disabled observer, which keeps
        behaviour byte-identical.
    history:
        Optional :class:`~repro.obs.history.ModelHistory`: each reign
        closed in :attr:`events`, with a summary (see :attr:`history`).
        ``None`` (default) records nothing and keeps state
        byte-identical.
    """

    def __init__(
        self,
        site_id: int,
        config: RemoteSiteConfig | None = None,
        rng: np.random.Generator | None = None,
        emit: Callable[[Message], None] | None = None,
        observer: Observer | None = None,
        history=None,
    ) -> None:
        self.site_id = site_id
        self.config = config or RemoteSiteConfig()
        self._rng = rng if rng is not None else np.random.default_rng(site_id)
        self._emit = emit
        self._obs = ensure_observer(observer)
        # The config is frozen, so Theorem 1 is evaluated once, here.
        self._dim = self.config.dim
        self._chunk = self.config.chunk
        #: The chunk being filled: the float64 bytes of the submitted
        #: records, row after row.  A full buffer is handed to Algorithm
        #: 1 as an ``(M, d)`` view and never written again (the model,
        #: the hold-out and the history may keep it), so the next record
        #: starts a fresh one.
        self._rows = bytearray()
        self._chunk_bytes = 8 * self._dim * self._chunk
        self._rejects_nan = not self.config.handle_missing
        self._current: ModelEntry | None = None
        self._archive: list[ModelEntry] = []
        self._next_model_id = 0
        #: Records consumed through completed chunks (buffer excluded).
        self._position = 0
        #: Stream index where the current model's reign began.
        self._current_started_at = 0
        #: Iterations of the most recent EM fit (refit-span telemetry).
        self._last_fit_iterations = 0
        self.events = EventTable(max_events=self.config.event_limit)
        self.stats = SiteStatistics()
        self.history = history

    @property
    def history(self):
        """The reign record (``None`` when off): observed after every
        chunk at the stream position, closed where :attr:`events` is.
        Assigning one names it ``site:<id>``, hands it the site's
        observer and keeps no more reigns than ``event_limit``."""
        return self._history

    @history.setter
    def history(self, history) -> None:
        if history is not None:
            if history.scope is None:
                history.scope = f"site:{self.site_id}"
            if history.observer is None:
                history.observer = self._obs
            limit = self.config.event_limit
            if limit is not None and limit < history.events.max_events:
                history.events.max_events = limit
        self._history = history

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def chunk(self) -> int:
        """Chunk size ``M`` in records."""
        return self._chunk

    @property
    def position(self) -> int:
        """Records fully consumed through chunks so far."""
        return self._position

    @property
    def current_model(self) -> ModelEntry | None:
        """The model currently explaining the stream (``None`` initially)."""
        return self._current

    @property
    def current_started_at(self) -> int:
        """Stream index where the current model's reign began."""
        return self._current_started_at

    @property
    def model_list(self) -> Sequence[ModelEntry]:
        """Archived models, oldest first (the paper's model list)."""
        return tuple(self._archive)

    @property
    def all_models(self) -> Sequence[ModelEntry]:
        """Archived models plus the current one, in training order."""
        models = list(self._archive)
        if self._current is not None:
            models.append(self._current)
        return tuple(sorted(models, key=lambda entry: entry.model_id))

    def memory_bytes(self) -> int:
        """Theorem 3 memory accounting for this site, in bytes.

        Buffer of at most ``M`` ``d``-dimensional records plus the
        parameters of every stored mixture (and its counter).
        """
        buffer_bytes = 8 * self.config.dim * self.chunk
        model_bytes = sum(
            entry.mixture.payload_bytes() + 8 for entry in self.all_models
        )
        return buffer_bytes + model_bytes

    def find_model(self, model_id: int) -> ModelEntry | None:
        """Look up any stored model (archived or current) by id."""
        for entry in self.all_models:
            if entry.model_id == model_id:
                return entry
        return None

    # ------------------------------------------------------------------
    # Record / chunk ingestion
    # ------------------------------------------------------------------
    def process_record(self, record: np.ndarray) -> list[Message]:
        """Ingest one record; runs Algorithm 1 when a chunk completes.

        The record's bytes are copied into the site's chunk buffer, so
        the caller may reuse its array.  Returns the messages emitted by
        this record (usually empty -- at most one chunk boundary can
        fall on a single record).
        """
        dim = self._dim
        if (
            type(record) is not np.ndarray
            or record.dtype is not _FLOAT64
            or record.shape != (dim,)
        ):
            record = np.asarray(record, dtype=float).ravel()
            if record.size != dim:
                raise ValueError(
                    f"record has dimension {record.size}, site expects {dim}"
                )
        if self._rejects_nan:
            # A float sum is NaN when an entry is NaN (or the row holds
            # both infinities, hence the exact rescan); it overflows to
            # inf silently, so no RuntimeWarning can fire.
            total = sum(record.tolist())
            if total != total:
                self._screen_missing(record)
        rows = self._rows
        rows += record.tobytes()
        self.stats.records_seen += 1
        if len(rows) < self._chunk_bytes:
            return []
        self._rows = bytearray()
        self._position += self._chunk
        return self._handle_chunk(np.frombuffer(rows).reshape(self._chunk, dim))

    def process_stream(self, records: Iterable[np.ndarray]) -> list[Message]:
        """Ingest many records; returns all messages emitted."""
        messages: list[Message] = []
        for record in records:
            messages.extend(self.process_record(record))
        return messages

    def _screen_missing(self, rows: np.ndarray) -> None:
        """The NaN rule for a record, a chunk or a restored buffer."""
        if self._rejects_nan and np.isnan(rows).any():
            raise ValueError(
                "record has missing attributes; enable "
                "RemoteSiteConfig(handle_missing=True) to accept them"
            )

    def process_chunk(self, chunk: np.ndarray) -> list[Message]:
        """Run Algorithm 1 on a whole chunk at once.

        Batch entry point for replays and benchmarks; the chunk may have
        any length ≥ ``K``.  Record accounting is kept consistent with
        the record-by-record path.
        """
        chunk = np.atleast_2d(np.asarray(chunk, dtype=float))
        if self._rows:
            raise RuntimeError(
                "process_chunk cannot be mixed with a partially filled "
                "record buffer"
            )
        self._screen_missing(chunk)
        self.stats.records_seen += chunk.shape[0]
        self._position += chunk.shape[0]
        return self._handle_chunk(chunk)

    # ------------------------------------------------------------------
    # Sliding-window support (section 7)
    # ------------------------------------------------------------------
    def expire(self, model_id: int, expired_records: int) -> list[Message]:
        """Delete ``expired_records`` worth of weight from a stored model.

        Implements the section 7 deletion protocol: the weight is
        subtracted locally and a :class:`DeletionMessage` (model ID with
        negative weight) is emitted for the coordinator.  The model is
        dropped from the archive when its count becomes non-positive.
        """
        if expired_records <= 0:
            raise ValueError("expired_records must be positive")
        entry = self.find_model(model_id)
        if entry is None:
            raise KeyError(f"site {self.site_id} has no model {model_id}")
        entry.count -= expired_records
        if entry.count <= 0 and entry is not self._current:
            self._archive = [e for e in self._archive if e is not entry]
        if self._obs.enabled:
            self._obs.event(
                "site.expire",
                site=self.site_id,
                model=model_id,
                expired=expired_records,
                remaining=max(entry.count, 0),
            )
        message = DeletionMessage(
            site_id=self.site_id,
            model_id=model_id,
            time=self._position,
            count_delta=expired_records,
        )
        return self._send([message])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _handle_chunk(self, chunk: np.ndarray) -> list[Message]:
        """Algorithm 1 body; ``chunk`` is already counted in ``_position``."""
        if chunk.shape[1] != self.config.dim:
            raise ValueError(
                f"chunk has dimension {chunk.shape[1]}, site expects "
                f"{self.config.dim}"
            )
        self.stats.chunks_processed += 1
        self._obs.inc("site.chunks", site=self.site_id)
        # The root span of this chunk's trace: everything downstream --
        # the EM fit, the synopsis's transport delivery, the
        # coordinator-side update/merge/split -- causally links back to
        # it through propagated span contexts.
        with self._obs.span(
            "site.chunk_test", site=self.site_id, records=int(chunk.shape[0])
        ):
            messages = self._run_algorithm(chunk)
        if self._history is not None:
            from repro.obs.history import site_history_payload

            self._history.observe(
                self._position,
                site_history_payload(self),
                start=self._current_started_at,
            )
        return messages

    def _run_algorithm(self, chunk: np.ndarray) -> list[Message]:
        if self._current is None:
            return self._cluster_chunk(chunk, warm=None)

        # Test 1: the current model (section 5.1.2).
        result = self._fit_test(self._current, chunk, target="current")
        if result.fits:
            if self.config.em.incremental:
                return self._absorb_passing_chunk(chunk, result.e_step)
            self._current.count += chunk.shape[0]
            return []

        # The chunk failed the current model: climb the refit ladder.
        return self._refit(chunk)

    def _refit(self, chunk: np.ndarray) -> list[Message]:
        """The refit ladder (DESIGN.md section 14).

        Rungs, cheapest first:

        1. *reactivate* -- tests 2..c_max against archived models, most
           recent first (the paper's multi-test strategy);
        2. *warm* -- stepwise E-M from the failing current model over
           its sufficient statistics (incremental mode only), accepted
           when the updated model passes the ε gate of
           :meth:`_warm_acceptable`;
        3. *cold* -- archive the current model and refit from scratch.

        The classic (non-incremental) path takes rungs 1 and 3 only --
        exactly the pre-ladder behaviour.  The enclosing ``site.refit``
        span records which rung won and its EM effort; wall time is the
        span's own ``start``/``end`` (stamped from the observer's time
        source, so deterministic traces stay deterministic).
        """
        with self._obs.span(
            "site.refit", site=self.site_id, records=int(chunk.shape[0])
        ) as span:
            # Rung 1 (tests 2..c_max): archived models, most recent
            # first (multi-test strategy, section 5.1.2).
            reactivated = self._try_reactivate(chunk)
            if reactivated is not None:
                return self._note_refit(
                    span, "reactivated", 0, reactivated
                )

            if self.config.em.incremental:
                # Rung 2: warm-start stepwise E-M over the suffstats.
                warm_messages, n_steps = self._refit_warm(chunk)
                if warm_messages is not None:
                    self.stats.n_warm_refits += 1
                    return self._note_refit(
                        span, "warm", n_steps, warm_messages
                    )

            # Rung 3: archive the current model and re-cluster cold.
            warm = self._current.mixture if self.config.warm_start else None
            self._retire_current(chunk.shape[0])
            messages = self._cluster_chunk(chunk, warm=warm)
            if self.config.em.incremental:
                self.stats.n_cold_refits += 1
            return self._note_refit(
                span, "cold", self._last_fit_iterations, messages
            )

    def _note_refit(
        self, span, outcome: str, n_iter: int, messages
    ) -> list[Message]:
        """Stamp the refit span/counters with the winning rung.

        No wall-clock here: trace events must stay pure functions of
        the seed (the lossy-determinism pin), so latency lives in the
        ``site.refit`` span's time-source-stamped ``start``/``end``.
        """
        if span is not None:
            span.attributes["outcome"] = outcome
            span.attributes["n_iter"] = n_iter
        if self._obs.enabled:
            self._obs.inc("site.refits", site=self.site_id, outcome=outcome)
            self._obs.event(
                "site.refit",
                site=self.site_id,
                outcome=outcome,
                n_iter=n_iter,
            )
        return messages

    def _absorb_passing_chunk(
        self, chunk: np.ndarray, e_step: EStep | None
    ) -> list[Message]:
        """Incremental pass branch: fold the chunk into the suffstats.

        Zero EM iterations, two density passes: the fit test's ``e_step``
        gives the absorption its posteriors and the updated model's gives
        the reference statistics, so the next fit test judges the
        *updated* parameters.  Chunks with missing attributes fall back
        to the classic counter bump (the suffstat E-step has no
        marginal-likelihood variant).
        """
        current = self._current
        assert current is not None
        n = int(chunk.shape[0])
        if np.isnan(chunk).any():
            current.count += n
            return []
        result = absorb_chunk(
            chunk,
            current.mixture,
            self.config.em,
            stats=current.stats,
            observer=self._obs,
            e_step=e_step,
        )
        current.mixture = result.mixture
        current.stats = result.stats
        current.reference_likelihood, current.reference_std = reference_statistics(
            result.mixture, chunk, self.config.variant, e_step=result.e_step
        )
        current.reference_size = n
        current.count += n
        self.stats.n_absorbed += 1
        if self._obs.enabled:
            self._obs.inc("site.absorbs", site=self.site_id)
            self._obs.event(
                "site.absorb",
                site=self.site_id,
                model=current.model_id,
                records=n,
                log_likelihood=result.log_likelihood,
            )
        return []

    def _refit_warm(
        self, chunk: np.ndarray
    ) -> tuple[list[Message] | None, int]:
        """Rung 2: stepwise E-M from the failing current model.

        Returns ``(messages, n_steps)`` when the warm fit clears the ε
        gate, ``(None, steps_tried)`` when the ladder must escalate to
        a cold refit.  Chunks with missing attributes always escalate
        (:mod:`repro.core.missing` is a cold-only trainer; the dispatch
        is deliberately explicit here rather than inside it).
        """
        if np.isnan(chunk).any():
            return None, 0
        current = self._current
        assert current is not None
        train, validation = self._split_reference(chunk)
        try:
            result = incremental_em(
                train,
                current.mixture,
                self.config.em,
                stats=current.stats,
                observer=self._obs,
            )
        except ValueError:
            # Starved component mid-update or degenerate chunk: the
            # warm rung has nothing usable, escalate.
            return None, 0
        if not self._warm_acceptable(result.log_likelihood, train):
            return None, result.n_steps
        self._retire_current(chunk.shape[0])
        messages = self._install_model(
            chunk_len=chunk.shape[0],
            mixture=result.mixture,
            validation=validation,
            log_likelihood=result.log_likelihood,
            n_iter=result.n_steps,
            converged=True,
            stats=result.stats,
        )
        return messages, result.n_steps

    def _warm_acceptable(
        self, warm_likelihood: float, train: np.ndarray
    ) -> bool:
        """The ladder's ε gate on a warm fit.

        The updated mixture must explain the chunk at least as well as
        a moment-matched single Gaussian, within the site's ε::

            AvgPr_warm ≥ AvgPr_baseline − ε

        A warm start stuck in a stale basin (abrupt drift) scores far
        below even the unimodal baseline and escalates to a cold refit;
        a warm start that genuinely tracked the drift matches or beats
        it.
        """
        if train.shape[0] < 2:
            return False
        try:
            baseline = Gaussian.from_samples(
                train, diagonal=self.config.em.diagonal
            )
            baseline_likelihood = float(np.mean(baseline.log_pdf(train)))
        except (ValueError, np.linalg.LinAlgError):
            return False
        return bool(
            warm_likelihood >= baseline_likelihood - self.config.epsilon
        )

    def _cluster_chunk(
        self, chunk: np.ndarray, warm: GaussianMixture | None
    ) -> list[Message]:
        """EM on the chunk; installs and announces the new current model.

        A slice of the chunk is held out (``reference_holdout``) so the
        reference ``AvgPr_0`` / ``σ̂`` are estimated out of sample.
        """
        train, validation = self._split_reference(chunk)
        with self._obs.span(
            "site.cluster", site=self.site_id, records=int(chunk.shape[0])
        ):
            if self.config.handle_missing and np.isnan(train).any():
                # Explicit cold dispatch: the missing-data trainer has
                # no incremental variant (see repro.core.missing).
                from repro.core.missing import fit_em_missing

                result = fit_em_missing(
                    train, self.config.em, self._rng, initial=warm
                )
            else:
                result = fit_em(
                    train,
                    self.config.em,
                    self._rng,
                    initial=warm,
                    observer=self._obs,
                )
        self._last_fit_iterations = result.n_iter
        stats = None
        if self.config.em.incremental and not np.isnan(train).any():
            stats = SufficientStats.from_mixture(
                result.mixture,
                float(train.shape[0]),
                diagonal=self.config.em.diagonal,
            )
        return self._install_model(
            chunk_len=chunk.shape[0],
            mixture=result.mixture,
            validation=validation,
            log_likelihood=result.log_likelihood,
            n_iter=result.n_iter,
            converged=result.converged,
            stats=stats,
        )

    def _install_model(
        self,
        *,
        chunk_len: int,
        mixture: GaussianMixture,
        validation: np.ndarray,
        log_likelihood: float,
        n_iter: int,
        converged: bool,
        stats: SufficientStats | None = None,
    ) -> list[Message]:
        """Install a freshly trained model and announce it.

        Shared tail of the cold (:meth:`_cluster_chunk`) and warm
        (:meth:`_refit_warm`) rungs: reference statistics on the
        held-out slice, model-list bookkeeping, the ``site.cluster``
        trace event and the full ``ModelUpdateMessage``.
        """
        self.stats.n_clusterings += 1
        reference, reference_std = reference_statistics(
            mixture, validation, self.config.variant
        )
        self._current = ModelEntry(
            model_id=self._allocate_model_id(),
            mixture=mixture,
            reference_likelihood=reference,
            reference_std=reference_std,
            reference_size=validation.shape[0],
            count=chunk_len,
            trained_at=self._position,
            stats=stats,
        )
        self._current_started_at = self._position - chunk_len
        if self._obs.enabled:
            self._obs.inc("site.clusterings", site=self.site_id)
            self._obs.event(
                "site.cluster",
                site=self.site_id,
                model=self._current.model_id,
                records=chunk_len,
                log_likelihood=log_likelihood,
                n_iter=n_iter,
                converged=converged,
            )
        message = ModelUpdateMessage(
            site_id=self.site_id,
            model_id=self._current.model_id,
            time=self._position,
            mixture=mixture,
            count=self._current.count,
            reference_likelihood=log_likelihood,
        )
        return self._send([message])

    def _try_reactivate(self, chunk: np.ndarray) -> list[Message] | None:
        """Multi-test: match the chunk against archived models.

        Returns the emitted messages on a match, ``None`` when no
        archived model fits (or ``c_max`` allows no extra tests).

        Archived mixtures are immutable, so the Cholesky/``L⁻¹``
        factors and stacked batch kernels behind each ``fit_test``
        density evaluation are computed once per model and reused
        across every chunk tested against it (pinned by the
        factorisation-count tests of ``tests/core/test_refit_ladder.py``).

        Candidate evaluation is bounded: at most ``c_max - 1`` models,
        scanned most recent first -- each candidate costs a full
        ``J_fit`` pass over the chunk, so an unbounded scan of a deep
        archive would turn the multi-test into its own latency spike.
        """
        budget = self.config.c_max - 1
        if budget <= 0 or not self._archive:
            return None
        for entry in reversed(self._archive[-budget:]):
            result = self._fit_test(entry, chunk, target="archive")
            if not result.fits:
                continue
            # The archived model explains the chunk: swap it back in.
            # Remove the entry *before* retiring the current model --
            # otherwise a full archive's retention bound could evict
            # the very model being reactivated and count it as lost.
            self._archive = [e for e in self._archive if e is not entry]
            self._retire_current(chunk.shape[0])
            entry.count += chunk.shape[0]
            self._current = entry
            self._current_started_at = self._position - chunk.shape[0]
            self.stats.n_reactivations += 1
            if self._obs.enabled:
                self._obs.inc("site.reactivations", site=self.site_id)
                self._obs.event(
                    "site.reactivate",
                    site=self.site_id,
                    model=entry.model_id,
                    count_delta=int(chunk.shape[0]),
                )
            message = WeightUpdateMessage(
                site_id=self.site_id,
                model_id=entry.model_id,
                time=self._position,
                count_delta=chunk.shape[0],
            )
            return self._send([message])
        return None

    def _retire_current(self, failing_chunk_len: int) -> None:
        """Archive the current model and close its event-table entry.

        The chunk that failed the test belongs to the *next* model, so
        the closed span ends where that chunk began.
        """
        assert self._current is not None
        end = self._position - failing_chunk_len
        span_recorded = end > self._current_started_at
        if span_recorded:
            self.events.append(
                start=self._current_started_at,
                end=end,
                model_id=self._current.model_id,
            )
            if self._history is not None:
                self._history.close(end)
        self._archive.append(self._current)
        self.stats.n_archived += 1
        if self._obs.enabled:
            self._obs.inc("site.archives", site=self.site_id)
            self._obs.event(
                "site.archive",
                site=self.site_id,
                model=self._current.model_id,
                start=self._current_started_at,
                end=end,
                span_recorded=span_recorded,
            )
        limit = self.config.archive_limit
        if limit is not None and len(self._archive) > limit:
            # LRU-by-reactivation: reactivation re-appends a model at
            # the tail, so the head is the least recently *used* model
            # and the recent entries the ladder scans survive.
            evicted = self._archive.pop(0)
            self.stats.archive_evictions += 1
            if self._obs.enabled:
                self._obs.inc("site.archive_evictions", site=self.site_id)
                self._obs.event(
                    "site.archive_evict",
                    site=self.site_id,
                    model=evicted.model_id,
                    archive_size=len(self._archive),
                )
        self._current = None

    def _fit_test(self, entry: ModelEntry, chunk: np.ndarray, target: str):
        """One counted, traced ``J_fit`` evaluation against ``entry``."""
        self.stats.n_tests += 1
        result = fit_test(
            entry.mixture,
            chunk,
            entry.reference_likelihood,
            self._threshold(entry, chunk.shape[0]),
            self.config.variant,
        )
        if result.fits:
            self.stats.n_tests_passed += 1
        obs = self._obs
        if obs.enabled:
            obs.inc(
                "site.chunk_tests",
                site=self.site_id,
                result="pass" if result.fits else "fail",
            )
            obs.event(
                "site.chunk_test",
                site=self.site_id,
                model=entry.model_id,
                target=target,
                passed=result.fits,
                j_fit=result.j_fit,
                threshold=result.epsilon,
                chunk=int(chunk.shape[0]),
            )
        return result

    def _threshold(self, entry: ModelEntry, chunk_len: int) -> float:
        """Effective fit-test tolerance for one model/chunk pair."""
        if not self.config.adaptive_test:
            return self.config.epsilon
        return adaptive_threshold(
            self.config.epsilon,
            self.config.delta,
            entry.reference_std,
            chunk_len,
            m_ref=entry.reference_size,
        )

    def _split_reference(
        self, chunk: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Split a chunk into (train, validation) for the reference.

        Falls back to using the whole chunk for both when the holdout
        is disabled or the chunk is too small to spare records.
        """
        fraction = self.config.reference_holdout
        n = chunk.shape[0]
        n_val = int(n * fraction)
        n_components = self.config.em.n_components
        if fraction <= 0.0 or n_val < 8 or n - n_val < 2 * n_components:
            return chunk, chunk
        permutation = self._rng.permutation(n)
        validation = chunk[permutation[:n_val]]
        train = chunk[permutation[n_val:]]
        return train, validation

    def _allocate_model_id(self) -> int:
        model_id = self._next_model_id
        self._next_model_id += 1
        return model_id

    def _send(self, messages: list[Message]) -> list[Message]:
        for message in messages:
            self.stats.register_message(message)
            if self._obs.enabled:
                self._obs.inc(
                    "site.messages",
                    site=self.site_id,
                    kind=type(message).__name__,
                )
                self._obs.inc(
                    "site.payload_bytes",
                    message.payload_bytes(),
                    site=self.site_id,
                )
            if self._emit is not None:
                self._emit(message)
        return messages

    def __repr__(self) -> str:
        return (
            f"RemoteSite(id={self.site_id}, chunk={self.chunk}, "
            f"models={len(self.all_models)}, "
            f"records={self.stats.records_seen})"
        )
