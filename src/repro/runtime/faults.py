"""Seeded fault injection behind the :class:`~repro.runtime.Channel` interface.

One :class:`ChannelFaults` spec configures drop / duplicate / reorder
faults for *any* runtime channel, so an experiment can flip backends
without re-describing its adversary:

* the **direct** channel (and the simulated one, which is the direct
  channel on a virtual clock) injects at message granularity via
  :class:`MessageFaultInjector`;
* the **transport** channel maps the same spec onto a
  :class:`~repro.transport.lossy.LossyTransport` wrapping the backend,
  where faults hit *datagrams* and the ARQ layer heals them -- the
  coordinator converges to the loss-free state instead.

Semantics are documented rather than hidden: without a reliability
layer a dropped message is gone (pair with
``CoordinatorConfig(tolerate_loss=True)``), a duplicate is applied
twice (harmless for idempotent model updates), and a reordered message
arrives after its successor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.protocol import Message
from repro.obs.observer import Observer, ensure_observer
from repro.runtime.accounting import DeliveryAccounting

__all__ = ["ChannelFaults", "MessageFaultInjector"]


@dataclass(frozen=True)
class ChannelFaults:
    """Backend-agnostic fault spec shared by all three channels.

    Parameters
    ----------
    drop_rate / duplicate_rate / reorder_rate:
        Independent per-message (per-datagram on the transport channel)
        probabilities in ``[0, 1)``.
    seed:
        Seed of the injector's private generator; the fault schedule is
        a pure function of ``(seed, message sequence)``.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "reorder_rate"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")

    @property
    def any_enabled(self) -> bool:
        return (
            self.drop_rate > 0.0
            or self.duplicate_rate > 0.0
            or self.reorder_rate > 0.0
        )


class MessageFaultInjector:
    """Message-level adversary between a channel and the coordinator.

    *Is* the delivery boundary of the message-level channels: every
    message they hand to the coordinator passes through :meth:`offer`
    and is counted as ``delivered`` when it lands.  With a fault spec,
    :meth:`offer` may drop it, deliver it twice, or hold it back so its
    successor overtakes it; without one it is a plain pass-through.
    It draws one uniform per enabled fault class per message, so the
    same seed and rates yield the same schedule on every message-level
    backend.  :class:`~repro.transport.lossy.LossyTransport` draws its
    reorder uniform once per *copy*, so the two draw streams part after
    the first duplicate.

    Parameters
    ----------
    config:
        Fault rates and seed; ``None`` injects nothing.
    deliver:
        The downstream sink (normally ``coordinator.handle_message``).
    accounting:
        The channel's :class:`~repro.runtime.accounting.DeliveryAccounting`;
        ``delivered`` / ``dropped`` / ``duplicated`` / ``reordered`` are
        counted here.
    observer:
        Optional observer; each injected fault emits the same
        ``fault.drop`` / ``fault.duplicate`` / ``fault.reorder`` trace
        events as the datagram-level injector, labelled
        ``direction="message"``.
    """

    def __init__(
        self,
        config: ChannelFaults | None,
        deliver: Callable[[Message], None],
        accounting: DeliveryAccounting,
        observer: Observer | None = None,
    ) -> None:
        self.config = config = config or ChannelFaults()
        self._sink = deliver
        self._accounting = accounting
        self._obs = ensure_observer(observer)
        self._rng = np.random.default_rng(config.seed)
        #: Held-back message plus the span context active when it was
        #: offered, so its eventual delivery re-joins the originating
        #: trace instead of whichever message released it.
        self._held: tuple[Message, object | None] | None = None

    def offer(self, message: Message) -> None:
        """Apply the fault model to one message on its way down."""
        config = self.config
        obs = self._obs
        if (
            config.drop_rate > 0.0
            and self._rng.random() < config.drop_rate
        ):
            self._accounting.dropped += 1
            if obs.enabled:
                obs.inc("fault.drops", direction="message")
                obs.event("fault.drop", direction="message")
            return
        copies = 1
        if (
            config.duplicate_rate > 0.0
            and self._rng.random() < config.duplicate_rate
        ):
            copies = 2
            self._accounting.duplicated += 1
            if obs.enabled:
                obs.inc("fault.duplicates", direction="message")
                obs.event("fault.duplicate", direction="message")
        if (
            config.reorder_rate > 0.0
            and self._rng.random() < config.reorder_rate
            and self._held is None
        ):
            # Hold the first copy back; it is released after the next
            # message goes through (or at flush time).
            self._accounting.reordered += 1
            if obs.enabled:
                obs.inc("fault.reorders", direction="message")
                obs.event("fault.reorder", direction="message")
            self._held = (message, obs.span_context())
            for _ in range(copies - 1):
                self._deliver(message)
            return
        held, self._held = self._held, None
        for _ in range(copies):
            self._deliver(message)
        if held is not None:
            self._deliver_held(held)

    def _deliver(self, message: Message) -> None:
        self._accounting.delivered += 1
        self._sink(message)

    def flush(self) -> None:
        """Release any held-back message (end of run)."""
        held, self._held = self._held, None
        if held is not None:
            self._deliver_held(held)

    def _deliver_held(self, held: tuple[Message, object | None]) -> None:
        message, context = held
        with self._obs.remote_parent(context):
            self._deliver(message)
