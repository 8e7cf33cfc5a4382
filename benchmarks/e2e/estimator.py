"""The disturbance-rejecting estimator: yardstick, quiet gate, composite.

The host this benchmark was sized on is a 2-vCPU guest that flips
between a fast state and one 1.3-1.7x slower (small BLAS calls suffer
most) every few seconds to every few minutes, so medians of whole runs
disagree by 17-31 % between invocations of identical code.  Every
workload here is deterministic, seeded, single-threaded work, which
allows a sharper estimate:

* each timed quantity is cut into *slices* that are identical across
  repeats (same records, same order, same state);
* between slices a :class:`QuietGate` probes a fixed ~1 ms kernel, the
  *yardstick*, and holds the next slice back while the host reads
  slower than 1.12x its quiet level; every sample keeps the reading it
  ran under;
* a repeat's samples are rescaled to the yardstick's reference speed
  (:func:`rescale`: time x :data:`YARDSTICK_REFERENCE_S` / the median
  reading of that repeat), which takes out the slow periods that
  outlast the gate's budget and the drift of the host's level from one
  minute to the next;
* the value of a slice is its **minimum over repeats** of those
  samples (:func:`composite`; the second smallest from
  :data:`TRIM_FROM` samples on) -- the cost of that work when nothing
  else ran -- which takes out the 30 ms bursts no reading can follow;
* totals are sums of slice values, latency percentiles are taken over
  per-boundary values.

A slice only has to be undisturbed in *one* repeat, so the composite
converges on the undisturbed cost long before any whole repeat is
clean.  It also falls as repeats are added (each is one more chance at
a lucky sample), by about 1 % from 8 to 12 repeats, so two runs are
only comparable at the same repeat count: callers fix it up front.

Rescaled samples are in *yardstick units* (seconds at the speed at
which the yardstick reads its reference), raw ones in host seconds.
The two are never mixed: a run rescales all of its samples or none,
every statistic below takes samples of one kind, and reports record
which kind they hold.

Nothing in this module imports ``repro``; it is exercised with
synthetic timings by ``test_harness.py``.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Callable, Sequence

__all__ = [
    "QuietGate",
    "TRIM_FROM",
    "YARDSTICK_REFERENCE_S",
    "composite",
    "disturbed_share",
    "make_yardstick",
    "quantile",
    "raw_over_composite",
    "rescale",
]

#: The yardstick's quiet reading on the sizing host.  Samples are
#: rescaled to it, so every timing metric reads "at the speed at which
#: the yardstick takes 1.00 ms"; changing the yardstick kernel or this
#: constant re-bases all of them.
YARDSTICK_REFERENCE_S = 1.0e-3

#: From this many samples of a slice on, its value is the second
#: smallest.  One repeat in ten or so straddles a change of the host's
#: level: its median reading then belongs to neither half, the half
#: that ran fast is rescaled as if it had run slow, and the plain
#: minimum picks exactly those samples.  With few samples the second
#: smallest would too often be a disturbed one, so they keep the
#: minimum.
TRIM_FROM = 8


def make_yardstick() -> Callable[[], float]:
    """A fixed ~1 ms NumPy + Python kernel; returns its wall time.

    Mixes what the workloads mix: small BLAS calls, elementwise NumPy
    over a chunk-sized array and interpreter-bound looping.
    """
    import numpy as np

    rng = np.random.default_rng(20070415)
    matrix = rng.standard_normal((48, 48))
    chunk = rng.standard_normal((400, 4))

    def probe() -> float:
        start = time.perf_counter()
        acc = 0.0
        for _ in range(24):
            acc += float((matrix @ matrix)[0, 0])
            acc += float(np.exp(-0.5 * (chunk * chunk).sum(axis=1)).sum())
        for i in range(12_000):
            acc += i * 0.5
        return time.perf_counter() - start

    return probe


class QuietGate:
    """Hold timed work back while the host reads slow on the yardstick.

    A *reading* is the median of ``BURST`` consecutive probes (single
    probes scatter +/-15 % even on a quiet host).  The *quiet level*
    (``floor``) is the 10th percentile of the readings taken so far in
    this invocation: the low edge of the fast state, without the
    downward creep of a plain minimum over hundreds of readings (which
    ends up holding the gate shut on a quiet host).

    ``wait`` returns as soon as a reading is within ``RATIO`` of the
    quiet level, or when the invocation's wait budget is spent.  It
    waits by probing again, never by sleeping: on the sizing host a
    process that slept even 50 ms reads 1.3x slow for seconds after, so
    a sleeping gate would hold itself shut.

    The replay loop calls ``wait`` before every replay and again
    whenever ``interval_s`` of timed work has passed, always between
    slices, so waiting never lands inside a timed slice; ``last`` is
    the reading the next slices run under.  ``probe`` and ``clock`` are
    injectable for the tests.
    """

    RATIO = 1.12
    BURST = 5
    #: seconds of timed work between two readings inside a replay
    interval_s = 0.1

    def __init__(
        self,
        probe: Callable[[], float],
        *,
        budget_s: float = 90.0,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._probe = probe
        self._budget = budget_s
        self._clock = clock
        self._sorted: list[float] = []
        self.last = 0.0
        self.waited_s = 0.0
        self.passes = 0
        self.held = 0
        self.gave_up = 0

    @property
    def floor(self) -> float:
        """The quiet level in seconds (``inf`` before any reading)."""
        if not self._sorted:
            return float("inf")
        return self._sorted[len(self._sorted) // 10]

    def _quiet(self) -> bool:
        self.last = statistics.median(self._probe() for _ in range(self.BURST))
        bisect.insort(self._sorted, self.last)
        return self.last <= self.RATIO * self.floor

    def wait(self) -> float:
        """Probe until the host reads quiet; returns the seconds waited
        beyond the first reading."""
        self.passes += 1
        if self._quiet():
            return 0.0
        self.held += 1
        started = self._clock()
        while True:
            spent = self._clock() - started
            if self.waited_s + spent >= self._budget:
                self.gave_up += 1
                break
            if self._quiet():
                spent = self._clock() - started
                break
        self.waited_s += spent
        return spent

    def stats(self) -> dict:
        readings = self._sorted
        return {
            "ratio": self.RATIO,
            "budget_s": self._budget,
            "passes": self.passes,
            "held": self.held,
            "gave_up": self.gave_up,
            "waited_s": self.waited_s,
            "floor_ms": self.floor * 1e3 if readings else 0.0,
            "median_ms": statistics.median(readings) * 1e3 if readings else 0.0,
            "readings": len(readings),
        }


def rescale(
    repeats: Sequence[Sequence[float]], readings: Sequence[Sequence[float]]
) -> list[list[float]]:
    """Samples at the yardstick's reference speed.

    ``repeats[r][i]`` is the time of slice ``i`` in repeat ``r`` and
    ``readings[r][i]`` the yardstick reading that sample ran under.
    Every sample of a repeat is scaled by the same factor,
    ``YARDSTICK_REFERENCE_S / median(readings[r])``: the level the host
    ran at during that repeat.  Scaling each sample by its own reading
    would let the minimum over repeats pick the samples whose reading
    happened to come out high.
    """
    out = []
    for times, levels in zip(repeats, readings):
        factor = YARDSTICK_REFERENCE_S / statistics.median(levels)
        out.append([t * factor for t in times])
    return out


def composite(
    repeats: Sequence[Sequence[float]],
    prefixes: Sequence[Sequence[float]] = (),
) -> list[float]:
    """Per-slice low value over repeats: the smallest sample, or the
    second smallest once a slice has :data:`TRIM_FROM` samples.

    ``repeats[r][i]`` is the sample of slice ``i`` in repeat ``r``, in
    whichever unit the caller keeps all of its samples; every repeat
    must have timed the same slices.  ``prefixes`` are further passes
    that stopped early and sampled only the first slices.
    """
    if not repeats:
        raise ValueError("need at least one repeat")
    width = len(repeats[0])
    if any(len(repeat) != width for repeat in repeats):
        raise ValueError("repeats timed different numbers of slices")
    if any(len(prefix) > width for prefix in prefixes):
        raise ValueError("a prefix pass timed more slices than the repeats")
    columns = [list(column) for column in zip(*repeats)]
    for prefix in prefixes:
        for column, sample in zip(columns, prefix):
            column.append(sample)
    return [
        sorted(column)[1] if len(column) >= TRIM_FROM else min(column)
        for column in columns
    ]


def raw_over_composite(
    repeats: Sequence[Sequence[float]], values: Sequence[float]
) -> float:
    """Median repeat total over the composite total; ``repeats`` are
    the samples ``values`` was composed from."""
    return statistics.median(sum(repeat) for repeat in repeats) / sum(values)


def disturbed_share(
    repeats: Sequence[Sequence[float]],
    values: Sequence[float],
    threshold: float = 1.25,
) -> float:
    """Time-weighted share of slice samples read above ``threshold`` x
    their slice value -- how much of what ``values`` was composed from
    was disturbed."""
    weight = sum(values) * len(repeats)
    disturbed = sum(
        value
        for repeat in repeats
        for sample, value in zip(repeat, values)
        if sample > threshold * value
    )
    return disturbed / weight if weight > 0.0 else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (NumPy's default), ``q`` in [0, 1]."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction
