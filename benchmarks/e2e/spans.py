"""The harness's own span recorder, installed around public entry points.

Spans inside the program are a later change (ROADMAP aim 4); here the
benchmark wraps the calls *into* each layer from the outside.  A traced
repeat runs with every entry point in :data:`ENTRY_POINTS` replaced by
a recording wrapper:

* every call updates a per-name aggregate ``(calls, total, self)``;
* calls made during a *boundary step* are also kept as full spans
  ``{id, name, start, end, parent, chunk}`` -- one trace per chunk --
  and written to ``trace-<workload>.json``;
* per-record calls between boundaries are only aggregated: hundreds of
  thousands of identical ``submit -> process_record`` pairs would cost
  more to store than the work they describe.

Self time is a span's duration minus the part covered by its children
(:func:`self_times`); a layer is the span name up to its last dot.
End-to-end metrics never come from a traced repeat.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from typing import Iterable, Iterator

__all__ = [
    "ENTRY_POINTS",
    "SpanRecorder",
    "installed",
    "layer_of",
    "self_times",
]

#: ``(module, attribute path, span name)``.  Module-level functions are
#: patched in the namespace that *calls* them (``repro.core.remote``
#: imports ``fit_test`` by name), classes by attribute.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.runtime.channel", "DirectChannel.submit", "runtime.submit"),
    ("repro.runtime.channel", "DirectChannel.quiesce", "runtime.quiesce"),
    ("repro.runtime.channel", "SimulatedChannel.submit", "runtime.submit"),
    ("repro.runtime.channel", "SimulatedChannel.quiesce", "runtime.quiesce"),
    ("repro.runtime.channel", "TransportChannel.submit", "runtime.submit"),
    ("repro.runtime.channel", "TransportChannel.quiesce", "runtime.quiesce"),
    ("repro.runtime.runtime", "Runtime.step", "runtime.step"),
    ("repro.runtime.runtime", "Runtime.checkpoint", "io.checkpoint.save"),
    ("repro.runtime.runtime", "Runtime.resume", "io.checkpoint.load"),
    ("repro.core.remote", "RemoteSite.process_record", "core.remote.process_record"),
    ("repro.core.remote", "fit_test", "core.testing.fit_test"),
    ("repro.core.remote", "fit_em", "core.em.fit_em"),
    ("repro.core.remote", "incremental_em", "core.em.incremental_em"),
    ("repro.core.remote", "absorb_chunk", "core.em.absorb_chunk"),
    ("repro.core.coordinator", "Coordinator.handle_message", "core.coordinator.handle_message"),
    ("repro.core.coordinator", "fit_merged_component", "core.merging.fit_merged_component"),
    ("repro.core.coordinator", "m_merge", "core.merging.m_merge"),
    ("repro.core.coordinator", "m_split", "core.merging.m_split"),
    ("repro.core.merging", "pairwise_m_merge", "core.merging.pairwise_m_merge"),
    ("repro.core.merging", "rank_merge_pairs", "core.merging.rank_merge_pairs"),
    ("repro.core.serde", "CDS1Codec.encode", "core.serde.encode"),
    ("repro.core.serde", "CDS1Codec.decode", "core.serde.decode"),
    ("repro.core.serde", "CDS2Codec.encode", "core.serde.encode"),
    ("repro.core.serde", "CDS2Codec.decode", "core.serde.decode"),
    ("repro.transport.endpoint", "drain", "transport.drain"),
    ("repro.transport.reliability", "ReliableSender.send_payload", "transport.send_payload"),
    ("repro.transport.reliability", "ReliableSender.handle_datagram", "transport.sender_datagram"),
    ("repro.transport.reliability", "ReliableReceiver.handle_datagram", "transport.receiver_datagram"),
    ("repro.cluster.tree", "TransportTree.feed", "cluster.tree.feed"),
    ("repro.cluster.tree", "TransportTree.drain", "cluster.tree.drain"),
    ("repro.simulation.engine", "SimulationEngine.advance", "simulation.advance"),
    ("repro.simulation.engine", "SimulationEngine.run", "simulation.run"),
    ("repro.simulation.engine", "SimulationEngine.step", "simulation.step"),
)


_NOTHING = (0, 0.0, 0.0, 0)


def layer_of(name: str) -> str:
    """``core.em.fit_em`` -> ``core.em``."""
    return name.rsplit(".", 1)[0]


class SpanRecorder:
    """In-memory span store with on-the-fly self-time aggregation.

    The wrappers sit on per-record paths, so they do as little as they
    can: no per-call allocation, one shared list of registers instead
    of attribute look-ups, and the clock read first and last so that
    the wrapper's own cost lands inside the span rather than in the
    caller's self time.
    """

    #: registers: seconds the open span's children took so far, keep
    #: flag, next span id, id of the open span, chunk id, wrapped calls
    #: the open span made so far
    _CHILDREN, _KEEP, _NEXT, _OPEN, _CHUNK, _CALLS = range(6)

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._reg = [0.0, False, 0, -1, -1, 0]
        #: name -> [calls, total seconds, self seconds, wrapped calls it
        #: made], all calls ...
        self.aggregate: dict[str, list] = {}
        #: ... and the part made during boundary steps (``keep`` on)
        self.boundary: dict[str, list] = {}
        #: kept spans: (id, name, start, end, parent id or -1, chunk id)
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        #: what the set-up phase recorded, once :meth:`end_setup` ran
        self.setup: dict[str, list] = {}
        #: the wrapper's own seconds per call, (inside, outside) its
        #: span, taken out of every self time; see :meth:`calibrate`
        self.overhead = (0.0, 0.0)
        self.calibrated = False

    def keep_spans(self, chunk: int | None) -> None:
        """Keep full spans from now on, labelled ``chunk``; ``None``
        goes back to aggregating only."""
        self._reg[self._KEEP] = chunk is not None
        self._reg[self._CHUNK] = -1 if chunk is None else chunk

    def wrap(self, name: str, function):
        """A recording stand-in for ``function``."""
        aggregate = self.aggregate.setdefault(name, [0, 0.0, 0.0, 0])
        boundary = self.boundary.setdefault(name, [0, 0.0, 0.0, 0])
        reg = self._reg
        spans = self.spans
        clock = self._clock

        def wrapper(*args, **kwargs):
            start = clock()
            outer_children = reg[0]
            outer_calls = reg[5]
            reg[0] = 0.0
            reg[5] = 0
            if reg[1]:
                parent = reg[3]
                reg[3] = span_id = reg[2]
                reg[2] += 1
            else:
                span_id = -1
            try:
                return function(*args, **kwargs)
            finally:
                aggregate[0] += 1
                made = reg[5]
                aggregate[3] += made
                own = reg[0]
                duration = clock() - start
                reg[0] = outer_children + duration
                reg[5] = outer_calls + 1
                aggregate[1] += duration
                aggregate[2] += duration - own
                if span_id >= 0:
                    reg[3] = parent
                    boundary[0] += 1
                    boundary[1] += duration
                    boundary[2] += duration - own
                    boundary[3] += made
                    spans.append(
                        (span_id, name, start, start + duration, parent, reg[4])
                    )

        wrapper.__wrapped__ = function
        wrapper.__name__ = getattr(function, "__name__", name)
        return wrapper

    def end_setup(self) -> None:
        """Move everything recorded so far into ``setup``: from here on
        the aggregates describe the timed (steady) phase only."""
        self.setup = {name: list(v) for name, v in self.aggregate.items()}
        for table in (self.aggregate, self.boundary):
            for values in table.values():
                values[:] = [0, 0.0, 0.0, 0]

    def calibrate(self, rounds: int = 9, calls: int = 4_000) -> None:
        """Measure the wrapper's own cost per call and take it out of
        every self time from now on: ``inside`` is what a wrapped
        no-op's span lasts (charged to the span itself), ``outside``
        what wrapping adds to a loop of calls beyond that (charged to
        the caller's span, or to nobody for an outermost call).

        Each is the minimum over ``rounds`` short loops, and over every
        earlier call of this method: one loop that lands in a slow
        burst would overstate the cost, and on a per-record path
        (240 000 wrapped calls of 2 us of work each) that turns the
        caller's self time negative.  Erring low only leaves a little of
        the wrappers' cost in the per-record layers.
        """
        clock = self._clock

        def nothing(a, b):
            return None

        plain, wrapped_loop, inside = [], [], []
        for _ in range(rounds):
            scratch = SpanRecorder(clock)
            wrapped = scratch.wrap("calibration.nothing", nothing)
            for function, per_call in ((nothing, plain), (wrapped, wrapped_loop)):
                start = clock()
                for _ in range(calls):
                    function(None, None)
                per_call.append((clock() - start) / calls)
            inside.append(scratch.aggregate["calibration.nothing"][1] / calls)
        outside = max(0.0, min(wrapped_loop) - min(plain) - min(inside))
        if self.calibrated:
            self.overhead = (
                min(self.overhead[0], min(inside)), min(self.overhead[1], outside)
            )
        else:
            self.overhead = (min(inside), outside)
            self.calibrated = True

    def _own(self, entry) -> float:
        calls, _total, own, made = entry
        return own - calls * self.overhead[0] - made * self.overhead[1]

    def wrapper_seconds(self) -> float:
        """What the wrappers themselves cost over all recorded calls."""
        return sum(self.overhead) * sum(v[0] for v in self.aggregate.values())

    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.aggregate.get(name, _NOTHING)[0]

    def total(self, name: str) -> float:
        return self.aggregate.get(name, _NOTHING)[1]

    def self_time(self, name: str, boundary: bool | None = None) -> float:
        """Self seconds of ``name``: all calls, only those made during
        boundary steps (``True``) or only those between them (``False``)."""
        everything = self._own(self.aggregate.get(name, _NOTHING))
        if boundary is None:
            return everything
        inside = self._own(self.boundary.get(name, _NOTHING))
        return inside if boundary else everything - inside

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer, summed over the layer's span names."""
        out: dict[str, float] = {}
        for name, entry in self.aggregate.items():
            out[layer_of(name)] = out.get(layer_of(name), 0.0) + self._own(entry)
        return out

    def span_dicts(self, origin: float = 0.0) -> list[dict]:
        """Kept spans as JSON-ready dicts, times relative to ``origin``."""
        return [
            {
                "id": span_id,
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
                "chunk": chunk,
            }
            for span_id, name, start, end, parent, chunk in sorted(self.spans)
        ]


def self_times(spans: Iterable[dict]) -> dict[int, float]:
    """Self time per span id: duration minus the children's durations.

    ``spans`` are dicts with ``id``, ``start``, ``end`` and ``parent``
    (``-1`` for a root) -- the format of ``trace-<workload>.json``.
    Children of one parent never overlap (the program is one thread),
    so subtracting their durations is exact.
    """
    own = {}
    for span in spans:
        own[span["id"]] = own.get(span["id"], 0.0) + span["end"] - span["start"]
    for span in spans:
        if span["parent"] >= 0:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


@contextlib.contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Replace every entry point with a recording wrapper; restore on exit."""
    originals = []
    try:
        for module_name, path, name in ENTRY_POINTS:
            owner, attribute = _resolve(module_name, path)
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(recorder.wrap(name, original.__func__))
            else:
                wrapped = recorder.wrap(name, original)
            setattr(owner, attribute, wrapped)
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
