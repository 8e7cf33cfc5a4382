"""Tests for the codec cells and the checked-in Pareto baseline.

Every number the cells emit is a pure function of the seed -- so these
tests pin the byte accounting exactly, including against the committed
``BENCH_comm.json``: if an edit to the wire formats changes any cell's
bytes, in either direction, the baseline must be restamped deliberately
(``PYTHONPATH=src python -m tests.bench.codec_cells``), not silently.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.core.serde import get_codec
from tests.bench.codec_cells import (
    BASELINE,
    COMM_CELLS,
    REFERENCE_CELL,
    SCHEMA,
    build_workload,
    run_cell,
    run_cells,
)

SMALL = dict(updates=8, records_per_update=100, holdout=400)

#: What must be equal, cell by cell, between the table and a rerun.
EXACT_FIELDS = (
    "bytes_total",
    "messages",
    "delta_updates",
    "snapshot_updates",
    "components_shipped",
)

#: Holdout ``AvgPr`` a cell may lose against :data:`REFERENCE_CELL`.
MAX_AVG_PR_LOSS = 0.01


def byte_table(doc) -> dict:
    """The part of a codec-cell document that must match exactly: the
    workload and every cell's :data:`EXACT_FIELDS`."""
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise ValueError(f"not a {SCHEMA} document")
    return {
        "config": doc["config"],
        "cells": {
            name: {field: cell[field] for field in EXACT_FIELDS}
            for name, cell in doc["cells"].items()
        },
    }


def lost_quality(doc) -> list[str]:
    """The cells over the :data:`MAX_AVG_PR_LOSS` budget."""
    return [
        name
        for name, cell in doc["cells"].items()
        if abs(cell["avg_pr_loss"]) > MAX_AVG_PR_LOSS
    ]


def small_doc(seed: int = 0):
    return run_cells(seed, **SMALL)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        first = small_doc()
        second = small_doc()
        for name in first["cells"]:
            assert (
                first["cells"][name]["bytes_total"]
                == second["cells"][name]["bytes_total"]
            )
            assert (
                first["cells"][name]["avg_pr"]
                == second["cells"][name]["avg_pr"]
            )

    def test_cds1_cell_is_byte_identical_to_direct_encoding(self):
        # The v1 cell's accounting must equal encoding every message
        # with a plain CDS1 codec -- the transport layer adds nothing.
        workload = build_workload(0, **SMALL)
        (cds1,) = [c for c in COMM_CELLS if c.name == REFERENCE_CELL]
        result = run_cell(cds1, workload)
        codec = get_codec("cds1")
        direct = sum(len(codec.encode(m)) for m in workload.messages)
        assert result["bytes_total"] == direct
        # ... and equals the paper's section-6 accounting.
        accounted = sum(m.payload_bytes() for m in workload.messages)
        assert result["bytes_total"] == accounted


class TestQualityGates:
    @pytest.fixture(scope="class")
    def doc(self):
        return small_doc()

    def test_every_cell_present(self, doc):
        assert set(doc["cells"]) == {c.name for c in COMM_CELLS}

    def test_delta_f32_meets_the_pareto_target(self, doc):
        # The headline acceptance gate: >= 3x fewer bytes/record than
        # CDS1 snapshots at <= 0.01 holdout AvgPr loss.
        cell = doc["cells"]["comm_cds2_f32_delta"]
        assert cell["reduction_vs_cds1"] >= 3.0
        assert abs(cell["avg_pr_loss"]) <= 0.01

    def test_exact_f64_cells_lose_nothing(self, doc):
        # f64 transport is bit-exact, delta or not: zero AvgPr loss.
        for name in ("comm_cds2_full", "comm_cds2_delta"):
            assert doc["cells"][name]["avg_pr_loss"] == 0.0

    def test_quantized_cells_stay_within_the_loss_budget(self, doc):
        for name, entry in doc["cells"].items():
            assert abs(entry["avg_pr_loss"]) <= 0.01, name

    def test_delta_cells_actually_delta(self, doc):
        for name, entry in doc["cells"].items():
            if name.endswith("_delta"):
                assert entry["delta_hit_rate"] > 0.5, name

    def test_pareto_ordering(self, doc):
        s = doc["cells"]
        assert (
            s["comm_cds2_f32_delta"]["bytes_per_record"]
            < s["comm_cds2_f32"]["bytes_per_record"]
            < s[REFERENCE_CELL]["bytes_per_record"]
        )

    def test_baseline_comparison_is_exact(self, doc):
        assert byte_table(copy.deepcopy(doc)) == byte_table(doc)
        for off_by in (+1, -1):  # a shrink is a format change too
            moved = copy.deepcopy(doc)
            moved["cells"]["comm_cds2_f32"]["bytes_total"] += off_by
            assert byte_table(moved) != byte_table(doc)

    def test_comparison_names_missing_cells_and_lost_quality(self, doc):
        moved = copy.deepcopy(doc)
        del moved["cells"]["comm_cds2_f16"]
        moved["cells"]["comm_cds2_f32"]["avg_pr_loss"] = -0.02
        assert byte_table(moved) != byte_table(doc)
        assert lost_quality(doc) == []
        assert lost_quality(moved) == ["comm_cds2_f32"]

    @pytest.mark.parametrize(
        "not_a_report", [[], {}, {"schema": "repro.bench/v1", "scenarios": {}}]
    )
    def test_comparison_rejects_other_documents(self, not_a_report):
        with pytest.raises(ValueError, match="not a repro.bench.comm/v1"):
            byte_table(not_a_report)


class TestCheckedInBaseline:
    """The committed BENCH_comm.json must match the current code."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return json.loads(BASELINE.read_text())

    @pytest.fixture(scope="class")
    def current(self, baseline):
        return run_cells(**baseline["config"])

    def test_baseline_exists_and_is_a_comm_report(self, baseline):
        assert baseline["schema"] == SCHEMA
        assert set(baseline["cells"]) == {c.name for c in COMM_CELLS}

    def test_byte_accounting_matches_exactly(self, baseline, current):
        # Bytes are seed-deterministic: any mismatch means the wire
        # format changed and the baseline needs a deliberate restamp.
        assert byte_table(current) == byte_table(baseline)
        assert lost_quality(current) == []

    def test_checked_in_baseline_meets_the_acceptance_gate(self, baseline):
        cell = baseline["cells"]["comm_cds2_f32_delta"]
        assert cell["reduction_vs_cds1"] >= 3.0
        assert abs(cell["avg_pr_loss"]) <= 0.01
