"""The codec cells behind ``BENCH_comm.json``: wire bytes per record.

One seeded drift workload -- a ``K=8``, ``d=8`` full-covariance mixture
in which exactly one component moves per refit, the steady state the
CDS2 delta encoding is designed for -- is pushed over the in-process
delivery edge (:class:`~repro.transport.endpoint.SiteEndpoint` to a
root :class:`~repro.cluster.hop.AggregatorHop` on a loopback
transport), once per codec cell (CDS1; CDS2 at f64/f32/f16, each with
delta on and off).  Two numbers come out per cell:

* ``bytes_per_record`` -- total encoded wire bytes divided by the
  records the synopses stand in for (the x-axis of the Pareto table in
  the README);
* ``avg_pr_loss`` -- holdout ``AvgPr`` (Definition 1) of the mixture
  the *receiver* decoded, relative to the CDS1 cell.  Quantisation is
  only admissible while this stays negligible; delta at f64 must cost
  exactly nothing (the decoded model is bit-identical).

Bytes are a pure function of the seed -- they depend on neither the
machine nor the load -- so the document carries no timing slots and no
machine stamp, and ``test_comm.py`` gates the checked-in table by
*equality*: a cell that grows **or shrinks** by one byte is a wire
format change.  Restamp it (only for a deliberate one)::

    PYTHONPATH=src python -m tests.bench.codec_cells
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.cluster.hop import AggregatorHop, InternalNode
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.protocol import ModelUpdateMessage
from repro.core.serde import CodecConfig
from repro.core.testing import average_log_likelihood
from repro.obs.observer import ensure_observer
from repro.streams.synthetic import random_mixture
from repro.transport.clock import ManualClock
from repro.transport.loopback import LoopbackTransport
from tests.cluster.trees import wire_edge

BASELINE = Path(__file__).resolve().parents[2] / "BENCH_comm.json"

SCHEMA = "repro.bench.comm/v1"

#: The cell every other cell's quality is measured against.
REFERENCE_CELL = "comm_cds1"


@dataclass(frozen=True, kw_only=True)
class CommCell:
    """One codec configuration of the byte table."""

    name: str
    codec: str
    quantize: str = "f64"
    delta: bool = False

    def config(self) -> CodecConfig:
        return CodecConfig(quantize=self.quantize, delta=self.delta)


#: The Pareto sweep: CDS1 snapshots (the v1 wire format), then CDS2
#: across covariance quantisation (packed Cholesky factors) x delta.
COMM_CELLS: tuple[CommCell, ...] = (
    CommCell(name="comm_cds1", codec="cds1"),
    CommCell(name="comm_cds2_full", codec="cds2"),
    CommCell(name="comm_cds2_f32", codec="cds2", quantize="f32"),
    CommCell(name="comm_cds2_f16", codec="cds2", quantize="f16"),
    CommCell(name="comm_cds2_delta", codec="cds2", delta=True),
    CommCell(name="comm_cds2_f32_delta", codec="cds2", quantize="f32", delta=True),
    CommCell(name="comm_cds2_f16_delta", codec="cds2", quantize="f16", delta=True),
)


@dataclass(frozen=True, kw_only=True)
class CommWorkload:
    """The seeded drift stream all cells share.

    ``messages[t]`` is the site's ``t``-th model upload; between
    consecutive uploads exactly one component has moved (means drift,
    everything else is the *same array object*, hence byte-identical on
    the wire -- the situation a refit after a localised drift produces,
    and the one the delta codec's change detection keys on).
    ``holdout`` is sampled from the final ground-truth mixture, so a
    receiver that decoded the last upload correctly scores the same
    ``AvgPr`` on it as the sender's model does.
    """

    messages: tuple[ModelUpdateMessage, ...]
    holdout: np.ndarray
    #: Every argument of :func:`build_workload`, as the table records it.
    config: dict[str, int]

    @property
    def records(self) -> int:
        return len(self.messages) * self.config["records_per_update"]


def build_workload(
    seed: int,
    *,
    updates: int = 40,
    records_per_update: int = 250,
    n_components: int = 8,
    dim: int = 8,
    holdout: int = 2000,
) -> CommWorkload:
    """Deterministic drift workload: one component moves per update."""
    rng = np.random.default_rng(seed + 9_000)
    mixture = random_mixture(
        dim=dim,
        n_components=n_components,
        rng=np.random.default_rng(seed),
        separation=3.0,
    )
    messages = []
    for step in range(updates):
        drifting = step % n_components
        components = list(mixture.components)
        moved = components[drifting]
        components[drifting] = Gaussian(
            moved.mean + 0.05 * rng.standard_normal(dim),
            np.array(moved.covariance),
            diagonal=moved.diagonal,
        )
        mixture = GaussianMixture(np.array(mixture.weights), tuple(components))
        messages.append(
            ModelUpdateMessage(
                site_id=1,
                model_id=step + 1,
                time=step,
                mixture=mixture,
                count=(step + 1) * records_per_update,
                reference_likelihood=-float(dim),
            )
        )
    points, _ = mixture.sample(holdout, np.random.default_rng(seed + 9_500))
    return CommWorkload(
        messages=tuple(messages),
        holdout=points,
        config={
            "seed": seed,
            "updates": updates,
            "records_per_update": records_per_update,
            "n_components": n_components,
            "dim": dim,
            "holdout": holdout,
        },
    )


def run_cell(cell: CommCell, workload: CommWorkload) -> dict[str, object]:
    """Push the workload through one codec cell over the loopback edge.

    Loopback delivery is synchronous, so acks return before ``send``
    does and every delta update gets to baseline against its immediate
    predecessor -- the steady state of a healthy edge.  The decode side
    is the coordinator's own hop, so ``avg_pr`` reflects what the
    coordinator would actually see, quantisation loss included.
    """
    clock = ManualClock()
    transport = LoopbackTransport()
    # Stands where the coordinator would: keeps what the edge decoded.
    updates: list[ModelUpdateMessage] = []
    sink = SimpleNamespace(handle_message=updates.append)
    hop = AggregatorHop(InternalNode(-1, sink), 0, ensure_observer(None))
    transport.bind_coordinator(
        hop.listen(transport.send_to_site, clock).handle_datagram
    )
    site = wire_edge(
        1,
        transport,
        clock,
        wire_codec=cell.codec,
        codec_config=cell.config(),
    )
    for message in workload.messages:
        site.send(message)
    site.finish()
    if site.outstanding() or len(updates) != len(workload.messages):
        raise RuntimeError(
            f"comm cell {cell.name!r} delivered {len(updates)} of "
            f"{len(workload.messages)} updates"
        )

    stats = site.codec_sender.stats
    avg_pr = average_log_likelihood(updates[-1].mixture, workload.holdout)
    return {
        "bytes_per_record": stats.bytes_encoded / workload.records,
        "bytes_total": stats.bytes_encoded,
        "messages": stats.messages,
        "records": workload.records,
        "delta_updates": stats.delta_updates,
        "snapshot_updates": stats.snapshot_updates,
        "delta_hit_rate": stats.delta_hit_rate,
        "components_shipped": stats.components_shipped,
        "components_total": stats.components_total,
        "avg_pr": float(avg_pr),
    }


def run_cells(seed: int = 0, **shape) -> dict[str, object]:
    """Run every cell and assemble the ``BENCH_comm.json`` document.

    ``shape`` overrides :func:`build_workload`'s keyword defaults (the
    tests run a smaller stream than the checked-in one).
    """
    workload = build_workload(seed, **shape)
    cells = {cell.name: run_cell(cell, workload) for cell in COMM_CELLS}
    reference = cells[REFERENCE_CELL]
    for entry in cells.values():
        entry["avg_pr_loss"] = reference["avg_pr"] - entry["avg_pr"]
        entry["reduction_vs_cds1"] = (
            reference["bytes_per_record"] / entry["bytes_per_record"]
        )
    return {"schema": SCHEMA, "config": workload.config, "cells": cells}


if __name__ == "__main__":
    BASELINE.write_text(json.dumps(run_cells(), indent=2) + "\n")
    print(f"wrote {BASELINE}")
