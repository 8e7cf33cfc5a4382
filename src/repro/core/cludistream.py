"""The assembled CluDistream system (paper section 5).

:class:`CluDistream` wires ``r`` :class:`~repro.core.remote.RemoteSite`
instances to one :class:`~repro.core.coordinator.Coordinator` and
drives them through :meth:`CluDistream.runtime`: one
:class:`~repro.runtime.Runtime` over a pluggable
:class:`~repro.runtime.Channel`, which decides how messages travel:

* :class:`~repro.runtime.DirectChannel` -- messages are delivered to
  the coordinator synchronously; ideal for quality experiments where
  network timing is irrelevant.  :meth:`CluDistream.feed` and
  :meth:`CluDistream.feed_streams` are shorthands for this channel;
* :class:`~repro.runtime.SimulatedChannel` -- direct delivery on a
  virtual clock (record ``k`` of a site at ``k / rate`` seconds), with
  the per-second communication-cost series of Figure 2 collected on the
  way (``channel.cost_series()``);
* :class:`~repro.runtime.TransportChannel` -- the wire-format messages
  travel a :mod:`repro.transport` backend with full reliability
  semantics (sequence numbers, retransmission, dedupe), surviving
  seeded drop/duplicate/reorder faults with a final state identical to
  the loss-free run.  The same stack runs over real asyncio TCP sockets
  via ``repro.transport.tcp`` and the ``serve`` / ``site`` CLI
  subcommands.

Every channel takes fault injection and reports unified delivery
accounting; the runtime adds checkpoint/resume.

This is the primary public entry point of the library; see
``examples/quickstart.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.coordinator import Coordinator, CoordinatorConfig
from repro.core.mixture import GaussianMixture
from repro.core.protocol import Message
from repro.core.remote import RemoteSite, RemoteSiteConfig
from repro.obs.observer import Observer, ensure_observer
from repro.runtime import Channel, DirectChannel, Runtime

__all__ = ["CluDistream", "CluDistreamConfig"]


@dataclass(frozen=True, kw_only=True)
class CluDistreamConfig:
    """Whole-system configuration.

    Defaults follow section 6 of the paper: ``r = 20`` remote sites,
    ``ε = 0.02``, ``δ = 0.01``, ``d = 4``, ``K = 5``, ``c_max = 4``.

    Parameters
    ----------
    n_sites:
        Number of remote sites ``r``.
    site:
        Per-site configuration (shared by all sites).
    coordinator:
        Coordinator configuration.
    """

    n_sites: int = 20
    site: RemoteSiteConfig = field(default_factory=RemoteSiteConfig)
    coordinator: CoordinatorConfig = field(default_factory=CoordinatorConfig)

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError("need at least one remote site")


class CluDistream:
    """The distributed clustering system: ``r`` sites + coordinator.

    Parameters
    ----------
    config:
        System configuration.
    seed:
        Base seed; site ``i`` uses ``seed + i`` so runs are reproducible
        and sites are independent.
    observer:
        Optional :class:`~repro.obs.observer.Observer`, shared by the
        coordinator and every site (and forwarded to the channel by
        :meth:`runtime`).  ``None`` keeps the system completely
        uninstrumented.
    """

    def __init__(
        self,
        config: CluDistreamConfig | None = None,
        seed: int = 0,
        observer: Observer | None = None,
    ) -> None:
        self.config = config or CluDistreamConfig()
        self.observer = ensure_observer(observer)
        self.coordinator = Coordinator(
            self.config.coordinator,
            rng=np.random.default_rng(seed + 10_000),
            observer=self.observer,
        )
        self.sites: list[RemoteSite] = [
            RemoteSite(
                site_id=i,
                config=self.config.site,
                rng=np.random.default_rng(seed + i),
                observer=self.observer,
            )
            for i in range(self.config.n_sites)
        ]
        self._direct_runtime: Runtime | None = None

    # ------------------------------------------------------------------
    # The unified runtime
    # ------------------------------------------------------------------
    def runtime(
        self,
        channel: Channel | None = None,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int | None = None,
    ) -> Runtime:
        """A :class:`~repro.runtime.Runtime` over this system.

        Pick any :class:`~repro.runtime.Channel` (with fault injection
        if desired), get unified delivery accounting, and opt into the
        checkpoint/resume lifecycle.  ``channel`` defaults to a fresh
        :class:`~repro.runtime.DirectChannel`.
        """
        return Runtime(
            self.sites,
            self.coordinator,
            channel if channel is not None else DirectChannel(),
            observer=self.observer,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
        )

    def _direct(self) -> Runtime:
        """The cached direct-mode runtime behind :meth:`feed` (one
        channel, so delivery accounting accumulates across calls)."""
        if self._direct_runtime is None:
            self._direct_runtime = self.runtime(DirectChannel())
        return self._direct_runtime

    # ------------------------------------------------------------------
    # Direct (synchronous) mode
    # ------------------------------------------------------------------
    def feed(self, site_id: int, record: np.ndarray) -> list[Message]:
        """Deliver one record to a site; messages reach the coordinator
        immediately.

        Returns the messages generated (already applied at the
        coordinator).
        """
        return self._direct().step(site_id, record)

    def feed_streams(
        self,
        streams: Mapping[int, Iterable[np.ndarray]],
        max_records_per_site: int,
    ) -> int:
        """Round-robin feed several site streams in direct mode.

        Parameters
        ----------
        streams:
            ``site_id -> record iterable``.
        max_records_per_site:
            Records consumed from each stream.

        Returns
        -------
        int
            Total records delivered.
        """
        # A fresh Runtime each call (stream position restarts at zero)
        # over the shared direct channel (accounting accumulates).  Its
        # run closes the channel, so the cached runtime behind feed()
        # must open it again before its next record.
        direct = self._direct()
        try:
            return self.runtime(direct.channel).run(
                streams, max_records_per_site
            ).records
        finally:
            direct._opened = False

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def global_mixture(self) -> GaussianMixture:
        """The coordinator's compact global model."""
        return self.coordinator.global_mixture()

    def site_mixtures(self) -> Sequence[GaussianMixture]:
        """Each site's current local model (sites without one skipped)."""
        return tuple(
            site.current_model.mixture
            for site in self.sites
            if site.current_model is not None
        )

    def evolving_query(
        self, start: int, length: int
    ) -> dict[int, list[tuple[int, int, GaussianMixture | None]]]:
        """Section 7 evolving analysis across all sites.

        For each site, returns the sequence of ``(span_start, span_end,
        mixture)`` covering the record window ``[start, start+length)``
        -- the "series of Gaussian mixture models [reflecting] the
        evolving process of data stream within that window".  Spans are
        clipped to the window; the still-open current reign is included;
        a mixture is ``None`` when the covering model has since expired
        (sliding-window deletion).

        Answers are exact up to chunk granularity (absolute error
        ``M/2``, per the paper).
        """
        if length <= 0:
            raise ValueError("window length must be positive")
        end = start + length
        answer: dict[int, list[tuple[int, int, GaussianMixture | None]]] = {}
        for site in self.sites:
            spans: list[tuple[int, int, GaussianMixture | None]] = []
            for record in site.events.window(start, length):
                entry = site.find_model(record.model_id)
                spans.append(
                    (
                        max(record.start, start),
                        min(record.end, end),
                        entry.mixture if entry else None,
                    )
                )
            current = site.current_model
            if current is not None:
                reign_start = site.current_started_at
                if reign_start < end and start < site.position:
                    spans.append(
                        (
                            max(reign_start, start),
                            min(site.position, end),
                            current.mixture,
                        )
                    )
            answer[site.site_id] = spans
        return answer

    def total_bytes_sent(self) -> int:
        """Bytes emitted by all sites (direct or simulated)."""
        return sum(site.stats.bytes_sent for site in self.sites)

    def total_messages_sent(self) -> int:
        """Messages emitted by all sites."""
        return sum(site.stats.messages_sent for site in self.sites)

    def memory_bytes(self) -> int:
        """Theorem 3 memory across sites plus the coordinator tree."""
        return (
            sum(site.memory_bytes() for site in self.sites)
            + self.coordinator.memory_bytes()
        )

    def _site(self, site_id: int) -> RemoteSite:
        if not 0 <= site_id < len(self.sites):
            raise KeyError(f"unknown site {site_id}")
        return self.sites[site_id]

    def __repr__(self) -> str:
        return (
            f"CluDistream(sites={len(self.sites)}, "
            f"coordinator={self.coordinator!r})"
        )
