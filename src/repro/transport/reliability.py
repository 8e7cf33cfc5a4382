"""Exactly-once, in-order delivery over a misbehaving datagram service.

The layer is classic positive-ack ARQ, specialised to the star
topology:

* **sender (site side)** -- every payload gets the site's next monotone
  sequence number and sits in an outbox until a cumulative ack covers
  it; unacked entries retransmit on a timer with exponential backoff and
  multiplicative jitter (so ``r`` sites recovering from the same
  partition do not thundering-herd the coordinator).  An optional
  heartbeat timer keeps proving liveness while the site is silent
  (a *stable* site sends no synopses -- exactly when the coordinator
  most needs to distinguish "stable" from "dead").
* **receiver (coordinator side)** -- per-site cursor of the next
  expected sequence number plus a bounded reorder buffer.  Duplicates
  (retransmissions, duplicated datagrams) are suppressed; gaps are
  buffered and flushed in order; every datagram is answered with a
  cumulative ack, so lost acks heal on the next retransmission.

Together: each payload is delivered to the application **exactly once,
in per-site send order**, provided the link is not partitioned forever:
a payload is retransmitted until it is acked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.serde import WIRE_IDS, CodecError
from repro.transport.clock import Clock, TimerHandle
from repro.obs.observer import Observer, ensure_observer
from repro.obs.spans import Span, SpanContext
from repro.transport.framing import (
    KIND_ACK,
    KIND_DATA,
    KIND_DONE,
    KIND_HEARTBEAT,
    KIND_TELEMETRY,
    Envelope,
    decode_envelope,
    encode_envelope,
)

__all__ = [
    "ReceiverStats",
    "ReliabilityConfig",
    "ReliableReceiver",
    "ReliableSender",
    "SenderStats",
]

#: Multiplier applied to the retransmission timeout per failed attempt.
BACKOFF = 2.0
#: Ceiling on the per-attempt retransmission timeout, in clock seconds.
MAX_TIMEOUT = 10.0
#: Receiver-side cap on buffered out-of-order payloads per site;
#: datagrams beyond it are dropped (the sender's retransmission
#: recovers them once the gap heals).
REORDER_LIMIT = 1024


@dataclass(frozen=True, kw_only=True)
class ReliabilityConfig:
    """Tuning of the ARQ machinery.

    Parameters
    ----------
    initial_timeout:
        Retransmission timeout of the first attempt, in clock seconds;
        at most :data:`MAX_TIMEOUT`.  Each failed attempt multiplies it
        by :data:`BACKOFF`, up to :data:`MAX_TIMEOUT`.
    jitter:
        Uniform multiplicative jitter: each timeout is scaled by
        ``1 + U[0, jitter)``.
    heartbeat_interval:
        Period of site liveness beacons; ``None`` disables heartbeats.
    stale_after:
        A site is considered stale when nothing (data, heartbeat, done)
        has been heard from it for this many seconds.
    """

    initial_timeout: float = 0.5
    jitter: float = 0.1
    heartbeat_interval: float | None = 5.0
    stale_after: float = 30.0

    def __post_init__(self) -> None:
        if not 0.0 < self.initial_timeout <= MAX_TIMEOUT:
            raise ValueError(
                f"initial_timeout must lie in (0, {MAX_TIMEOUT}]"
            )
        if self.jitter < 0.0:
            raise ValueError("jitter must be non-negative")
        if self.heartbeat_interval is not None and self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.stale_after <= 0.0:
            raise ValueError("stale_after must be positive")


# ----------------------------------------------------------------------
# Sender
# ----------------------------------------------------------------------
@dataclass
class SenderStats:
    """Site-side delivery counters.

    ``telemetry_*`` counts best-effort TELEMETRY freight separately:
    it never enters ``wire_bytes``, so the section 6 communication
    accounting (and everything derived from it, e.g.
    :class:`repro.cluster.tree.LevelStats`) is identical whether or not
    a run federates its telemetry.
    """

    payloads_sent: int = 0
    payload_bytes: int = 0
    wire_datagrams: int = 0
    wire_bytes: int = 0
    retransmissions: int = 0
    acked: int = 0
    heartbeats_sent: int = 0
    telemetry_sent: int = 0
    telemetry_bytes: int = 0


@dataclass
class _OutboxEntry:
    frame: bytes
    attempts: int = 1
    timer: TimerHandle | None = None
    #: Detached ``transport.delivery`` span covering this payload's
    #: whole ARQ lifetime (send .. ack); retransmissions land on
    #: it as span events.  ``None`` when observability is off.
    span: Span | None = None


class ReliableSender:
    """The site side of the ARQ: outbox, retransmission, heartbeats.

    Parameters
    ----------
    site_id:
        Originating site (stamped into every envelope).
    transmit:
        Callback putting one encoded envelope on the wire (e.g.
        ``lambda data: transport.send_to_coordinator(site_id, data)``).
    clock:
        Timer service.
    config:
        ARQ tuning.
    rng:
        Randomness for timeout jitter.
    observer:
        Optional :class:`~repro.obs.observer.Observer` emitting
        ``transport.send`` / ``transport.retransmit`` /
        ``transport.heartbeat`` trace events.
    first_seq:
        Sequence number of the first payload sent (keyword-only,
        default ``1``).  A process resuming from a checkpoint passes
        the recorded next sequence number here so its peer's cursor --
        which survived the crash -- keeps accepting its payloads
        instead of suppressing them as duplicates.
    """

    def __init__(
        self,
        site_id: int,
        transmit: Callable[[bytes], None],
        clock: Clock,
        config: ReliabilityConfig | None = None,
        rng: np.random.Generator | None = None,
        observer: Observer | None = None,
        *,
        first_seq: int = 1,
    ) -> None:
        if first_seq < 1:
            raise ValueError("first_seq must be at least 1")
        self.site_id = site_id
        self._transmit = transmit
        self._clock = clock
        #: Cumulative-ack listener: called with the acked sequence number
        #: whenever an ACK envelope arrives (the edge's
        #: :class:`~repro.transport.wire.CodecSender` sets it; delta
        #: codecs key their acknowledged baselines off this).
        self.on_ack: Callable[[int], None] | None = None
        self.config = config or ReliabilityConfig()
        self._obs = ensure_observer(observer)
        self._rng = rng if rng is not None else np.random.default_rng(site_id)
        self._next_seq = first_seq
        self._outbox: dict[int, _OutboxEntry] = {}
        self._heartbeat_timer: TimerHandle | None = None
        self._closed = False
        self.stats = SenderStats()
        if self.config.heartbeat_interval is not None:
            self._arm_heartbeat()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def outstanding(self) -> int:
        """Payloads sent but not yet covered by a cumulative ack."""
        return len(self._outbox)

    @property
    def last_seq(self) -> int:
        """Highest sequence number assigned so far (0 before any send)."""
        return self._next_seq - 1

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_payload(
        self,
        payload: bytes,
        trace: SpanContext | None = None,
        *,
        codec: int = 0,
    ) -> int:
        """Enqueue one application payload; returns its sequence number.

        ``trace`` is the span context of the operation that produced
        the payload (e.g. the site's chunk-test span); it is embedded
        in the envelope header so the receiving side can causally link
        its work back, and it parents the per-payload
        ``transport.delivery`` span tracking the ARQ lifetime.

        ``codec`` is the wire-codec id announced in the envelope for
        non-CDS1 payloads (0, the default, adds no bytes).
        """
        if self._closed:
            raise RuntimeError("sender is closed")
        seq = self._next_seq
        self._next_seq += 1
        frame = encode_envelope(
            Envelope(
                kind=KIND_DATA,
                site_id=self.site_id,
                seq=seq,
                payload=payload,
                trace=trace,
                codec=codec,
            )
        )
        entry = _OutboxEntry(frame=frame)
        self._outbox[seq] = entry
        self.stats.payloads_sent += 1
        self.stats.payload_bytes += len(payload)
        obs = self._obs
        if obs.enabled:
            entry.span = obs.start_span(
                "transport.delivery",
                parent=trace,
                site=self.site_id,
                seq=seq,
                payload_bytes=len(payload),
            )
            obs.inc("transport.sends", site=self.site_id)
            obs.gauge_max(
                "transport.outbox_depth", len(self._outbox), site=self.site_id
            )
            obs.event(
                "transport.send",
                site=self.site_id,
                seq=seq,
                payload_bytes=len(payload),
                outstanding=len(self._outbox),
            )
        self._put_on_wire(frame)
        entry.timer = self._clock.call_later(
            self._timeout_for(entry.attempts), lambda: self._retransmit(seq)
        )
        return seq

    def send_done(self) -> None:
        """Announce that this site's stream has ended (best effort)."""
        self._put_on_wire(
            encode_envelope(
                Envelope(kind=KIND_DONE, site_id=self.site_id, seq=self.last_seq)
            )
        )

    def send_telemetry(self, payload: bytes) -> bool:
        """Ship one telemetry report upward, fire and forget.

        TELEMETRY envelopes are unsequenced, never acked and never
        retransmitted -- a lost report is simply superseded by the next
        flush.  They bypass the ``wire_bytes`` accounting entirely (see
        :class:`SenderStats`), so federating telemetry does not perturb
        the application stream's byte budget.  Returns ``False`` when
        the sender is already closed (shutdown race: drop, don't raise).
        """
        if self._closed:
            return False
        frame = encode_envelope(
            Envelope(
                kind=KIND_TELEMETRY,
                site_id=self.site_id,
                seq=self.last_seq,
                payload=payload,
            )
        )
        self.stats.telemetry_sent += 1
        self.stats.telemetry_bytes += len(frame)
        try:
            self._transmit(frame)
        except (ConnectionError, OSError):
            return False
        return True

    # ------------------------------------------------------------------
    # Receiving (the ack path)
    # ------------------------------------------------------------------
    def handle_datagram(self, data: bytes) -> None:
        """Process one downlink datagram (normally an ack)."""
        self.handle_envelope(decode_envelope(data))

    def handle_envelope(self, envelope: Envelope) -> None:
        if envelope.kind != KIND_ACK:
            return
        for seq in [s for s in self._outbox if s <= envelope.seq]:
            entry = self._outbox.pop(seq)
            if entry.timer is not None:
                entry.timer.cancel()
            self.stats.acked += 1
            if entry.span is not None:
                self._obs.span_event_on(entry.span, "acked", ack_seq=envelope.seq)
                self._obs.finish_span(entry.span, "ok")
        if self.on_ack is not None:
            self.on_ack(envelope.seq)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _retransmit(self, seq: int) -> None:
        entry = self._outbox.get(seq)
        if entry is None or self._closed:
            return
        obs = self._obs
        entry.attempts += 1
        self.stats.retransmissions += 1
        if obs.enabled:
            obs.inc("transport.retransmissions", site=self.site_id)
            obs.event(
                "transport.retransmit",
                site=self.site_id,
                seq=seq,
                attempt=entry.attempts,
            )
            obs.span_event_on(entry.span, "retransmit", attempt=entry.attempts)
        self._put_on_wire(entry.frame)
        entry.timer = self._clock.call_later(
            self._timeout_for(entry.attempts), lambda: self._retransmit(seq)
        )

    def _timeout_for(self, attempts: int) -> float:
        timeout = min(
            self.config.initial_timeout * BACKOFF ** (attempts - 1), MAX_TIMEOUT
        )
        if self.config.jitter > 0.0:
            timeout *= 1.0 + float(self._rng.random()) * self.config.jitter
        return timeout

    def _arm_heartbeat(self) -> None:
        interval = self.config.heartbeat_interval
        assert interval is not None
        self._heartbeat_timer = self._clock.call_later(interval, self._beat)

    def _beat(self) -> None:
        if self._closed:
            return
        self.stats.heartbeats_sent += 1
        obs = self._obs
        if obs.enabled:
            obs.inc("transport.heartbeats", site=self.site_id)
            obs.event(
                "transport.heartbeat", site=self.site_id, seq=self.last_seq
            )
        self._put_on_wire(
            encode_envelope(
                Envelope(
                    kind=KIND_HEARTBEAT, site_id=self.site_id, seq=self.last_seq
                )
            )
        )
        self._arm_heartbeat()

    def _put_on_wire(self, frame: bytes) -> None:
        self.stats.wire_datagrams += 1
        self.stats.wire_bytes += len(frame)
        self._transmit(frame)

    def close(self) -> None:
        """Cancel all timers; the sender cannot be used afterwards."""
        self._closed = True
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None
        for entry in self._outbox.values():
            if entry.timer is not None:
                entry.timer.cancel()
            if entry.span is not None:
                self._obs.finish_span(entry.span, "aborted")
                entry.span = None


# ----------------------------------------------------------------------
# Receiver
# ----------------------------------------------------------------------
@dataclass
class ReceiverStats:
    """Coordinator-side delivery counters."""

    datagrams_received: int = 0
    wire_bytes_received: int = 0
    delivered: int = 0
    duplicates_suppressed: int = 0
    buffered_out_of_order: int = 0
    reorder_overflow_dropped: int = 0
    #: High-water mark of any single site's reorder buffer -- how far
    #: out of order the link actually got, not just how often.
    max_reorder_depth: int = 0
    acks_sent: int = 0
    ack_wire_bytes: int = 0
    heartbeats_received: int = 0
    telemetry_received: int = 0
    telemetry_bytes_received: int = 0


@dataclass
class _SiteCursor:
    expected: int = 1
    #: Out-of-order payloads keyed by seq, each with its propagated
    #: span context (``None`` when the sender had no active span).
    buffer: dict[int, tuple[bytes, SpanContext | None]] = field(default_factory=dict)
    last_seen: float = float("-inf")
    done_at_seq: int | None = None

    @property
    def done(self) -> bool:
        return self.done_at_seq is not None and self.expected > self.done_at_seq


class ReliableReceiver:
    """The coordinator side: dedupe, reorder, ack, liveness tracking.

    Parameters
    ----------
    deliver:
        Callback receiving ``(site_id, payload, trace)`` exactly once
        per payload, in per-site sequence order; ``trace`` is the span
        context propagated in the envelope header (``None`` when the
        sender had no active span).
    send_ack:
        Callback putting one encoded ack envelope on the downlink of a
        site: ``send_ack(site_id, data)``.
    clock:
        Clock used to timestamp liveness.
    config:
        ARQ tuning (``stale_after``); the reorder buffer holds at most
        :data:`REORDER_LIMIT` payloads per site.
    observer:
        Optional :class:`~repro.obs.observer.Observer` emitting
        ``transport.deliver`` / ``transport.duplicate`` trace events and
        tracking the reorder-buffer high-water gauge.
    on_telemetry:
        Optional keyword-only callback receiving ``(site_id, payload)``
        for every TELEMETRY envelope -- best-effort federation freight,
        outside the dedupe/reorder machinery (duplicates reach the
        callback; the federation collector dedupes by flush sequence).
        A TELEMETRY envelope still refreshes the site's liveness cursor.
    """

    def __init__(
        self,
        deliver: Callable[[int, bytes, SpanContext | None], None],
        send_ack: Callable[[int, bytes], None],
        clock: Clock,
        config: ReliabilityConfig | None = None,
        observer: Observer | None = None,
        *,
        on_telemetry: Callable[[int, bytes], None] | None = None,
    ) -> None:
        self._deliver = deliver
        self._send_ack = send_ack
        self._clock = clock
        self.config = config or ReliabilityConfig()
        self._obs = ensure_observer(observer)
        self._on_telemetry = on_telemetry
        self._cursors: dict[int, _SiteCursor] = {}
        self.stats = ReceiverStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def known_sites(self) -> tuple[int, ...]:
        """Sites ever heard from, in first-contact order."""
        return tuple(self._cursors)

    def last_seen(self, site_id: int) -> float:
        """Clock time of the last datagram from ``site_id`` (-inf if never)."""
        cursor = self._cursors.get(site_id)
        return cursor.last_seen if cursor is not None else float("-inf")

    def stale_sites(self, stale_after: float | None = None) -> tuple[int, ...]:
        """Sites silent for longer than ``stale_after`` (config default).

        A site that announced completion (DONE) is never stale -- silence
        is its expected end state, not a failure.
        """
        timeout = stale_after if stale_after is not None else self.config.stale_after
        now = self._clock.now
        return tuple(
            site_id
            for site_id, cursor in self._cursors.items()
            if not cursor.done and now - cursor.last_seen > timeout
        )

    # ------------------------------------------------------------------
    # Cursor checkpointing
    # ------------------------------------------------------------------
    def cursor_snapshot(self) -> dict[int, int]:
        """Per-site next expected sequence numbers (for checkpoints).

        Only the in-order cursor is recorded: payloads buffered out of
        order are deliberately dropped from the snapshot -- the sender's
        retransmission recovers them after a restore, which keeps the
        checkpoint free of undelivered application payloads.
        """
        return {
            site_id: cursor.expected
            for site_id, cursor in self._cursors.items()
        }

    def restore_cursor(self, site_id: int, expected: int) -> None:
        """Resume ``site_id``'s cursor at ``expected`` (from a snapshot).

        A receiver restored this way keeps suppressing payloads its
        pre-crash incarnation already delivered, so crash/resume never
        double-applies a synopsis.
        """
        if expected < 1:
            raise ValueError("expected sequence must be at least 1")
        cursor = self._cursors.setdefault(site_id, _SiteCursor())
        cursor.expected = expected
        cursor.buffer.clear()

    def all_done(self, expected_sites: int) -> bool:
        """``True`` once ``expected_sites`` distinct sites completed."""
        return sum(1 for c in self._cursors.values() if c.done) >= expected_sites

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def handle_datagram(self, data: bytes) -> None:
        """Process one uplink datagram."""
        self.handle_envelope(decode_envelope(data))

    def handle_envelope(self, envelope: Envelope) -> None:
        if envelope.kind == KIND_TELEMETRY:
            # Best-effort federation freight: refresh liveness, hand
            # the payload over, and keep it out of the wire accounting
            # so federated and plain runs report identical byte costs.
            self.stats.telemetry_received += 1
            self.stats.telemetry_bytes_received += envelope.wire_bytes()
            cursor = self._cursors.setdefault(envelope.site_id, _SiteCursor())
            cursor.last_seen = self._clock.now
            if self._on_telemetry is not None:
                self._on_telemetry(envelope.site_id, envelope.payload)
            return
        self.stats.datagrams_received += 1
        self.stats.wire_bytes_received += envelope.wire_bytes()
        cursor = self._cursors.setdefault(envelope.site_id, _SiteCursor())
        cursor.last_seen = self._clock.now

        if envelope.kind == KIND_DATA:
            self._on_data(envelope, cursor)
        elif envelope.kind == KIND_HEARTBEAT:
            self.stats.heartbeats_received += 1
            # Re-ack so a site whose acks were all lost can still drain.
            self._ack(envelope.site_id, cursor)
        elif envelope.kind == KIND_DONE:
            cursor.done_at_seq = envelope.seq
            self._ack(envelope.site_id, cursor)
        # ACK envelopes never arrive on the uplink; ignore if they do.

    def _on_data(self, envelope: Envelope, cursor: _SiteCursor) -> None:
        if envelope.codec not in WIRE_IDS:
            raise CodecError(
                f"site {envelope.site_id} sent a payload announcing "
                f"unknown wire codec id {envelope.codec}"
            )
        seq = envelope.seq
        obs = self._obs
        if seq < cursor.expected or seq in cursor.buffer:
            self.stats.duplicates_suppressed += 1
            if obs.enabled:
                obs.inc("transport.duplicates_suppressed", site=envelope.site_id)
                obs.event(
                    "transport.duplicate", site=envelope.site_id, seq=seq
                )
        elif seq == cursor.expected:
            self._deliver(envelope.site_id, envelope.payload, envelope.trace)
            self.stats.delivered += 1
            if obs.enabled:
                obs.inc("transport.delivered", site=envelope.site_id)
                obs.event(
                    "transport.deliver",
                    site=envelope.site_id,
                    seq=seq,
                    flushed=len(cursor.buffer),
                )
            cursor.expected += 1
            while cursor.expected in cursor.buffer:
                payload, trace = cursor.buffer.pop(cursor.expected)
                self._deliver(envelope.site_id, payload, trace)
                self.stats.delivered += 1
                if obs.enabled:
                    obs.inc("transport.delivered", site=envelope.site_id)
                    obs.event(
                        "transport.deliver",
                        site=envelope.site_id,
                        seq=cursor.expected,
                        flushed=len(cursor.buffer),
                    )
                cursor.expected += 1
        elif len(cursor.buffer) >= REORDER_LIMIT:
            self.stats.reorder_overflow_dropped += 1
        else:
            cursor.buffer[seq] = (envelope.payload, envelope.trace)
            self.stats.buffered_out_of_order += 1
            depth = len(cursor.buffer)
            if depth > self.stats.max_reorder_depth:
                self.stats.max_reorder_depth = depth
            if obs.enabled:
                obs.gauge_max(
                    "transport.reorder_depth", depth, site=envelope.site_id
                )
        self._ack(envelope.site_id, cursor)

    def _ack(self, site_id: int, cursor: _SiteCursor) -> None:
        frame = encode_envelope(
            Envelope(kind=KIND_ACK, site_id=site_id, seq=cursor.expected - 1)
        )
        self.stats.acks_sent += 1
        self.stats.ack_wire_bytes += len(frame)
        self._send_ack(site_id, frame)
