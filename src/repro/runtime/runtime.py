"""The unified execution loop: one runtime, three channels, checkpoints.

:class:`Runtime` owns the remote sites and the coordinator and drives
them over any :class:`~repro.runtime.channel.Channel`.  The loop is the
same whatever the backend: records are fed round-robin (one record per
site per round), the channel decides how the resulting messages travel,
and the runtime handles cross-cutting concerns -- fault injection
configuration, unified accounting, trace events, and the
checkpoint/resume lifecycle built on :mod:`repro.io.checkpoint`:

* :meth:`Runtime.checkpoint` quiesces the channel (everything in
  flight lands), then snapshots every site, the coordinator and a
  manifest recording the stream position;
* :meth:`Runtime.resume` rebuilds a runtime from such a directory; its
  next :meth:`run` call skips the records already consumed, so a site
  crash mid-stream converges to coordinator state *identical* to an
  uninterrupted run (the crash/resume suite asserts byte-identical
  snapshots on all three channel backends).

``CluDistream.runtime`` builds one of these over an assembled system
(``CluDistream.feed`` / ``feed_streams`` are its direct-channel
shorthands); new execution modes (sharding, async batching, alternative
wire formats) plug in as new channels without touching the driver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.coordinator import Coordinator
from repro.core.protocol import Message
from repro.core.remote import RemoteSite
from repro.obs.observer import Observer, ensure_observer
from repro.runtime.accounting import DeliveryAccounting
from repro.runtime.channel import Channel

__all__ = ["MANIFEST_NAME", "RunReport", "Runtime"]

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 1


@dataclass(frozen=True)
class RunReport:
    """Outcome of one :meth:`Runtime.run` call.

    Attributes
    ----------
    records:
        Records delivered to sites *by this call* (records skipped while
        resuming are not counted).
    rounds:
        Total stream rounds consumed so far, including rounds replayed
        from a checkpoint manifest.
    duration:
        Channel time elapsed, in (virtual where applicable) seconds.
    accounting:
        The channel's delivery accounting at the end of the run.
    checkpoints:
        Paths of the checkpoint directories written during the run.
    """

    records: int
    rounds: int
    duration: float
    accounting: DeliveryAccounting
    checkpoints: tuple[Path, ...]


class Runtime:
    """Sites + coordinator driven over one pluggable channel.

    Parameters
    ----------
    sites / coordinator:
        The system to drive.  :meth:`repro.core.cludistream.CluDistream.runtime`
        builds a runtime from an assembled system.
    channel:
        Delivery backend; see :mod:`repro.runtime.channel`.
    observer:
        Optional :class:`~repro.obs.observer.Observer`; the runtime
        emits ``runtime.run`` / ``runtime.checkpoint`` /
        ``runtime.resume`` trace events and shares the observer with
        the channel.
    checkpoint_dir:
        Directory for :meth:`checkpoint` snapshots.  When set, a
        completed :meth:`run` writes a final checkpoint automatically.
    checkpoint_every:
        Optional period, in rounds, of automatic mid-run checkpoints.
    """

    def __init__(
        self,
        sites: Sequence[RemoteSite],
        coordinator: Coordinator,
        channel: Channel,
        observer: Observer | None = None,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int | None = None,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        self.sites = list(sites)
        self.coordinator = coordinator
        self.channel = channel
        self.observer = ensure_observer(observer)
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.checkpoint_every = checkpoint_every
        self._by_id = {site.site_id: site for site in self.sites}
        #: Live endpoint descriptors (``{"telemetry": {"host", "port",
        #: "url"}, ...}``) recorded verbatim in the checkpoint manifest
        #: so tooling can find the actually bound ports of a run --
        #: callers fill this in after binding (port 0 resolves late).
        self.endpoints: dict[str, dict] = {}
        #: Stream rounds already consumed (> 0 after a resume).
        self._round = 0
        self._opened = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def rounds_completed(self) -> int:
        """Stream rounds consumed so far (one record per site each)."""
        return self._round

    def accounting(self) -> DeliveryAccounting:
        """The channel's current delivery accounting."""
        return self.channel.accounting()

    def _site(self, site_id: int) -> RemoteSite:
        try:
            return self._by_id[site_id]
        except KeyError:
            raise KeyError(f"unknown site {site_id}") from None

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def _ensure_open(self, sites: Sequence[RemoteSite] | None = None) -> None:
        if not self._opened:
            self.channel.open(
                self.sites if sites is None else sites,
                self.coordinator,
                self.observer,
            )
            self._opened = True

    def step(self, site_id: int, record: np.ndarray) -> list[Message]:
        """Feed a single record through the channel (keeps it open).

        The single-record sibling of :meth:`run`, backing
        ``CluDistream.feed``; returns the messages the site emitted.
        """
        self._ensure_open()
        return self.channel.submit(self._site(site_id), record)

    def run(
        self,
        streams: Mapping[int, Iterable[np.ndarray]],
        max_records_per_site: int,
        stop_after_round: int | None = None,
    ) -> RunReport:
        """Drive every stream through the channel, round-robin.

        Parameters
        ----------
        streams:
            ``site_id -> record iterable``.  After a resume, the streams
            must replay the same records as the original run; the first
            :attr:`rounds_completed` records of each are skipped.
        max_records_per_site:
            Records consumed from each stream (including any skipped
            while resuming).
        stop_after_round:
            Abandon the run once this many rounds have been consumed --
            the crash-simulation hook used by the resume test suite.  An
            abandoned run skips ``channel.finish()`` (no end-of-stream
            markers, no final checkpoint) but still closes the channel.

        Returns
        -------
        RunReport
        """
        if max_records_per_site < 1:
            raise ValueError("max_records_per_site must be positive")
        obs = self.observer
        iterators: dict[int, Iterator[np.ndarray]] = {
            site_id: iter(stream) for site_id, stream in streams.items()
        }
        sites = {site_id: self._site(site_id) for site_id in iterators}
        # Only the sites with a stream get wired; idle sites stay
        # untouched (exactly what the pre-runtime drivers did).
        self._ensure_open(list(sites.values()))
        checkpoints: list[Path] = []
        last_checkpoint_round = -1
        delivered = 0
        stopped = False
        # Detached on purpose: the run span brackets the whole loop in
        # the timeline without becoming the parent of per-chunk spans,
        # so every site chunk-test span stays the root of its own trace.
        run_span = obs.start_span("runtime.run", channel=self.channel.name)
        try:
            for site_id, iterator in iterators.items():
                for _ in range(min(self._round, max_records_per_site)):
                    next(iterator, None)
            for _ in range(self._round, max_records_per_site):
                for site_id, iterator in iterators.items():
                    record = next(iterator, None)
                    if record is None:
                        continue
                    self.channel.submit(sites[site_id], record)
                    delivered += 1
                self._round += 1
                if (
                    self.checkpoint_every is not None
                    and self.checkpoint_dir is not None
                    and self._round % self.checkpoint_every == 0
                ):
                    checkpoints.append(self.checkpoint())
                    last_checkpoint_round = self._round
                if stop_after_round is not None and self._round >= stop_after_round:
                    stopped = True
                    break
            if not stopped:
                self.channel.finish()
                if (
                    self.checkpoint_dir is not None
                    and last_checkpoint_round != self._round
                ):
                    checkpoints.append(self.checkpoint())
        finally:
            self.channel.close()
            self._opened = False
        if obs.enabled:
            obs.span_event_on(
                run_span, "finished", records=delivered, rounds=self._round
            )
            obs.finish_span(run_span, "stopped" if stopped else "ok")
            obs.inc("runtime.records", delivered)
            obs.event(
                "runtime.run",
                channel=self.channel.name,
                records=delivered,
                rounds=self._round,
                stopped=stopped,
            )
        return RunReport(
            records=delivered,
            rounds=self._round,
            duration=self.channel.duration,
            accounting=self.channel.accounting(),
            checkpoints=tuple(checkpoints),
        )

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def checkpoint(self, directory: str | Path | None = None) -> Path:
        """Quiesce the channel and snapshot the whole system.

        Writes one JSON checkpoint per site, one for the coordinator,
        and a ``manifest.json`` recording the stream position; the
        manifest is written last, so a directory containing one is
        always a complete, loadable checkpoint.

        Parameters
        ----------
        directory:
            Target directory (created if missing); defaults to the
            runtime's ``checkpoint_dir``.

        Returns
        -------
        Path
            The checkpoint directory.
        """
        from repro.io.checkpoint import save_coordinator, save_site

        target = Path(directory) if directory is not None else self.checkpoint_dir
        if target is None:
            raise ValueError("no checkpoint directory configured")
        obs = self.observer
        # Detached for the same reason as the run span: checkpoints
        # must not adopt (or be adopted by) per-chunk traces.
        span = obs.start_span("runtime.checkpoint", round=self._round)
        with obs.timer("profile.checkpoint"):
            target.mkdir(parents=True, exist_ok=True)
            if self._opened:
                self.channel.quiesce()
            for site in self.sites:
                save_site(site, target / f"site-{site.site_id}.json")
            save_coordinator(self.coordinator, target / "coordinator.json")
            manifest = {
                "format": MANIFEST_FORMAT,
                "kind": "runtime",
                "round": self._round,
                "site_ids": [site.site_id for site in self.sites],
            }
            if self.endpoints:
                manifest["endpoints"] = self.endpoints
            (target / MANIFEST_NAME).write_text(json.dumps(manifest))
        obs.finish_span(span)
        if obs.enabled:
            obs.inc("runtime.checkpoints")
            obs.event(
                "runtime.checkpoint",
                round=self._round,
                sites=len(self.sites),
                path=str(target),
            )
        return target

    @classmethod
    def resume(
        cls,
        checkpoint_dir: str | Path,
        channel: Channel,
        observer: Observer | None = None,
        checkpoint_every: int | None = None,
    ) -> "Runtime":
        """Rebuild a runtime from a :meth:`checkpoint` directory.

        The restored runtime continues exactly where the checkpoint was
        taken: model ids, counters, event tables, rng states and the
        stream position are all preserved, so running it over the same
        streams converges to the same coordinator state as a run that
        never crashed.
        """
        from repro.io.checkpoint import load_coordinator, load_site

        directory = Path(checkpoint_dir)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise FileNotFoundError(
                f"no runtime checkpoint manifest at {manifest_path}"
            )
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("kind") != "runtime":
            raise ValueError("manifest is not a runtime checkpoint")
        if manifest.get("format") != MANIFEST_FORMAT:
            raise ValueError(
                f"unsupported runtime checkpoint format {manifest.get('format')}"
            )
        observer = ensure_observer(observer)
        sites = [
            load_site(directory / f"site-{site_id}.json", observer=observer)
            for site_id in manifest["site_ids"]
        ]
        coordinator = load_coordinator(
            directory / "coordinator.json", observer=observer
        )
        runtime = cls(
            sites,
            coordinator,
            channel,
            observer=observer,
            checkpoint_dir=directory,
            checkpoint_every=checkpoint_every,
        )
        runtime._round = manifest["round"]
        if observer.enabled:
            observer.inc("runtime.resumes")
            observer.event(
                "runtime.resume",
                round=runtime._round,
                sites=len(sites),
                path=str(directory),
            )
        return runtime

    def __repr__(self) -> str:
        return (
            f"Runtime(sites={len(self.sites)}, channel={self.channel.name!r}, "
            f"rounds={self._round})"
        )
