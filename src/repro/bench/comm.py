"""The codec cells: wire bytes per record, gated exactly.

One seeded drift workload -- a ``K=8``, ``d=8`` full-covariance mixture
in which exactly one component moves per refit, the steady state the
CDS2 delta encoding is designed for -- is pushed over the in-process
delivery edge (:class:`~repro.transport.endpoint.SiteEndpoint` to
:class:`~repro.transport.endpoint.CoordinatorEndpoint` on a loopback
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
machine stamp, and :func:`compare_comm_reports` gates ``BENCH_comm.json``
by *equality*: a cell that grows **or shrinks** by one byte is a wire
format change and needs a deliberate restamp
(``repro bench --json BENCH_comm.json``).  Time is measured elsewhere,
by ``benchmarks/e2e`` (DESIGN.md section 10.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Mapping

import numpy as np

from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.protocol import ModelUpdateMessage
from repro.core.serde import CodecConfig
from repro.core.testing import average_log_likelihood
from repro.streams.synthetic import random_mixture
from repro.transport.clock import ManualClock
from repro.transport.endpoint import CoordinatorEndpoint, SiteEndpoint
from repro.transport.loopback import LoopbackTransport

__all__ = [
    "COMM_CELLS",
    "CommCell",
    "CommWorkload",
    "compare_comm_reports",
    "format_comm_report",
    "run_comm_bench",
]

SCHEMA = "repro.bench.comm/v1"

#: The cell every other cell's quality is measured against.
REFERENCE_CELL = "comm_cds1"

#: What :func:`compare_comm_reports` requires equal, cell by cell.
EXACT_FIELDS = (
    "bytes_total",
    "messages",
    "delta_updates",
    "snapshot_updates",
    "components_shipped",
)

#: Holdout ``AvgPr`` a cell may lose against :data:`REFERENCE_CELL`.
MAX_AVG_PR_LOSS = 0.01


@dataclass(frozen=True, kw_only=True)
class CommCell:
    """One codec configuration measured by the comm bench."""

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
    #: Every argument of :func:`build_workload`, as the report records it.
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
    runs the negotiated receiver codec, so ``avg_pr`` reflects what the
    coordinator would actually see, quantisation loss included.
    """
    clock = ManualClock()
    transport = LoopbackTransport()
    # Stands where the coordinator would: keeps what the edge decoded.
    updates: list[ModelUpdateMessage] = []
    sink = SimpleNamespace(handle_message=updates.append)
    CoordinatorEndpoint(sink, transport, clock, wire_codec=cell.codec)
    site = SiteEndpoint(
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


def run_comm_bench(seed: int = 0, *, progress=None, **shape) -> dict[str, object]:
    """Run every cell and assemble the ``BENCH_comm.json`` document.

    ``shape`` overrides :func:`build_workload`'s keyword defaults (the
    tests run a smaller stream than the checked-in one).
    """
    workload = build_workload(seed, **shape)
    cells: dict[str, dict[str, object]] = {}
    for cell in COMM_CELLS:
        if progress is not None:
            progress(f"running {cell.name} ...")
        cells[cell.name] = run_cell(cell, workload)
    reference = cells[REFERENCE_CELL]
    for entry in cells.values():
        entry["avg_pr_loss"] = reference["avg_pr"] - entry["avg_pr"]
        entry["reduction_vs_cds1"] = (
            reference["bytes_per_record"] / entry["bytes_per_record"]
        )
    return {"schema": SCHEMA, "config": workload.config, "cells": cells}


def compare_comm_reports(baseline: Mapping, current: Mapping) -> list[str]:
    """Every way ``current`` departs from ``baseline``; empty when none.

    Exact in both directions: one line per cell and field that is not
    *equal* (a missing cell differs in every field), plus one per cell
    of ``current`` over the ``AvgPr`` loss budget.
    """
    for doc in (baseline, current):
        if (
            not isinstance(doc, Mapping)
            or doc.get("schema") != SCHEMA
            or not isinstance(doc.get("cells"), Mapping)
        ):
            raise ValueError(f"not a {SCHEMA} document")
    problems = []
    if baseline.get("config") != current.get("config"):
        problems.append("config: the two reports ran different workloads")
    old, new = baseline["cells"], current["cells"]
    for name in sorted(set(old) | set(new)):
        was, now = old.get(name, {}), new.get(name, {})
        for field in EXACT_FIELDS:
            if was.get(field) != now.get(field):
                problems.append(
                    f"{name}.{field}: {was.get(field)} -> {now.get(field)}"
                )
        loss = now.get("avg_pr_loss", 0.0)
        if abs(loss) > MAX_AVG_PR_LOSS:
            problems.append(
                f"{name}.avg_pr_loss: |{loss}| > {MAX_AVG_PR_LOSS}"
            )
    return problems


def format_comm_report(doc: Mapping) -> str:
    """Human-readable Pareto table of a comm report document."""
    config, cells = doc["config"], doc["cells"]
    lines = [
        f"{len(cells)} codec cells, {config['updates']} updates x "
        f"{config['records_per_update']} records (K={config['n_components']}, "
        f"d={config['dim']}, seed {config['seed']})"
    ]
    width = max(len(name) for name in cells)
    lines.append(
        f"  {'cell':<{width}}  {'bytes/rec':>9}  {'vs cds1':>8}  "
        f"{'Δ-hit':>6}  {'AvgPr loss':>11}"
    )
    for name, entry in cells.items():
        lines.append(
            f"  {name:<{width}}  "
            f"{entry['bytes_per_record']:9.2f}  "
            f"{entry['reduction_vs_cds1']:7.2f}x  "
            f"{entry['delta_hit_rate'] * 100:5.0f}%  "
            f"{entry['avg_pr_loss']:11.6f}"
        )
    return "\n".join(lines)
