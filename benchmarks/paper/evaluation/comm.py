"""Communication-cost comparison (Figure 2).

Runs the event-driven CluDistream sites and the periodic-reporting
baseline over the *same* per-site record sequences and compares total
uplink bytes, exposing the cumulative-cost series both for plotting and
for the shape assertions in the benchmark (CluDistream's curve must
flatten once the sites have learned their distributions; the periodic
baseline keeps climbing linearly forever).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from benchmarks.paper.baselines.periodic import PeriodicReporter, PeriodicReporterConfig
from repro.core.remote import RemoteSite, RemoteSiteConfig

__all__ = ["CommunicationComparison", "compare_communication"]


@dataclass(frozen=True)
class CommunicationComparison:
    """Totals and cumulative series of one communication comparison.

    Attributes
    ----------
    cludistream_bytes / periodic_bytes:
        Total uplink bytes of each strategy.
    cludistream_series / periodic_series:
        Cumulative bytes sampled every ``sample_every`` records
        (parallel to :attr:`positions`).
    positions:
        Stream positions (records per site) of the samples.
    """

    cludistream_bytes: int
    periodic_bytes: int
    cludistream_series: tuple[int, ...]
    periodic_series: tuple[int, ...]
    positions: tuple[int, ...]

    @property
    def ratio(self) -> float:
        """Periodic bytes over CluDistream bytes (> 1 means we win)."""
        if self.cludistream_bytes == 0:
            return float("inf")
        return self.periodic_bytes / self.cludistream_bytes


def compare_communication(
    make_streams: Callable[[int], Mapping[int, Sequence[np.ndarray]]],
    n_sites: int,
    records_per_site: int,
    site_config: RemoteSiteConfig | None = None,
    periodic_config: PeriodicReporterConfig | None = None,
    sample_every: int = 2000,
    seed: int = 0,
) -> CommunicationComparison:
    """Run both strategies over identical streams and compare bytes.

    Parameters
    ----------
    make_streams:
        Factory called once per strategy with a seed; must return
        ``site_id -> record sequence`` with *identical contents* for
        equal seeds (materialise the records, or use seeded
        generators).
    n_sites / records_per_site:
        Workload size.
    site_config / periodic_config:
        Strategy parameters.
    sample_every:
        Sampling stride of the cumulative series, in records per site.
    seed:
        Passed to ``make_streams`` (same value for both strategies).
    """
    if records_per_site < 1:
        raise ValueError("records_per_site must be positive")
    site_config = site_config or RemoteSiteConfig()
    periodic_config = periodic_config or PeriodicReporterConfig()

    positions = list(range(sample_every, records_per_site + 1, sample_every))

    # --- CluDistream sites -------------------------------------------
    streams = make_streams(seed)
    sites = [
        RemoteSite(i, site_config, rng=np.random.default_rng(seed + i))
        for i in range(n_sites)
    ]
    clu_series = _drive(
        consumers=[site.process_record for site in sites],
        byte_counters=[lambda s=site: s.stats.bytes_sent for site in sites],
        streams=streams,
        records_per_site=records_per_site,
        positions=positions,
    )

    # --- Periodic reporting ------------------------------------------
    streams = make_streams(seed)
    dim = site_config.dim
    reporters = [
        PeriodicReporter(
            i, dim, periodic_config, rng=np.random.default_rng(seed + i)
        )
        for i in range(n_sites)
    ]
    periodic_series = _drive(
        consumers=[reporter.process_record for reporter in reporters],
        byte_counters=[lambda r=reporter: r.bytes_sent for reporter in reporters],
        streams=streams,
        records_per_site=records_per_site,
        positions=positions,
    )

    return CommunicationComparison(
        cludistream_bytes=clu_series[-1] if clu_series else 0,
        periodic_bytes=periodic_series[-1] if periodic_series else 0,
        cludistream_series=tuple(clu_series),
        periodic_series=tuple(periodic_series),
        positions=tuple(positions),
    )


def _drive(
    consumers: Sequence[Callable[[np.ndarray], object]],
    byte_counters: Sequence[Callable[[], int]],
    streams: Mapping[int, Sequence[np.ndarray]],
    records_per_site: int,
    positions: Sequence[int],
) -> list[int]:
    """Feed all sites in lockstep, sampling total bytes at ``positions``."""
    iterators = {site_id: iter(stream) for site_id, stream in streams.items()}
    series: list[int] = []
    next_sample = 0
    for step in range(1, records_per_site + 1):
        for site_id, iterator in iterators.items():
            record = next(iterator, None)
            if record is not None:
                consumers[site_id](record)
        if next_sample < len(positions) and step == positions[next_sample]:
            series.append(sum(counter() for counter in byte_counters))
            next_sample += 1
    return series
