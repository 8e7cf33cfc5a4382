"""Tests for the codec cells and the checked-in Pareto baseline.

Every number the cells emit is a pure function of the seed -- so these
tests pin the byte accounting exactly, including against the committed
``BENCH_comm.json``: if an edit to the wire formats changes any cell's
bytes, in either direction, the baseline must be restamped deliberately,
not silently.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.bench import compare_comm_reports, format_comm_report, run_comm_bench
from repro.bench.comm import (
    COMM_CELLS,
    REFERENCE_CELL,
    SCHEMA,
    build_workload,
    run_cell,
)
from repro.core.serde import get_codec

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "BENCH_comm.json"

SMALL = dict(updates=8, records_per_update=100, holdout=400)


def small_doc(seed: int = 0):
    return run_comm_bench(seed, **SMALL)


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
        assert compare_comm_reports(doc, doc) == []
        for off_by in (+1, -1):  # a shrink is a format change too
            moved = copy.deepcopy(doc)
            moved["cells"]["comm_cds2_f32"]["bytes_total"] += off_by
            (problem,) = compare_comm_reports(doc, moved)
            assert problem.startswith("comm_cds2_f32.bytes_total:")

    def test_comparison_names_missing_cells_and_lost_quality(self, doc):
        moved = copy.deepcopy(doc)
        del moved["cells"]["comm_cds2_f16"]
        moved["cells"]["comm_cds2_f32"]["avg_pr_loss"] = -0.02
        problems = compare_comm_reports(doc, moved)
        assert "comm_cds2_f32.avg_pr_loss: |-0.02| > 0.01" in problems
        assert any(p.startswith("comm_cds2_f16.messages:") for p in problems)

    @pytest.mark.parametrize(
        "not_a_report", [[], {}, {"schema": "repro.bench/v1", "scenarios": {}}]
    )
    def test_comparison_rejects_other_documents(self, doc, not_a_report):
        with pytest.raises(ValueError, match="not a repro.bench.comm/v1"):
            compare_comm_reports(not_a_report, doc)

    def test_format_renders_every_cell(self, doc):
        text = format_comm_report(doc)
        for cell in COMM_CELLS:
            assert cell.name in text


class TestCheckedInBaseline:
    """The committed BENCH_comm.json must match the current code."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return json.loads(BASELINE.read_text())

    @pytest.fixture(scope="class")
    def current(self, baseline):
        return run_comm_bench(**baseline["config"])

    def test_baseline_exists_and_is_a_comm_report(self, baseline):
        assert baseline["schema"] == SCHEMA
        assert set(baseline["cells"]) == {c.name for c in COMM_CELLS}

    def test_byte_accounting_matches_exactly(self, baseline, current):
        # Bytes are seed-deterministic: any mismatch means the wire
        # format changed and the baseline needs a deliberate restamp
        # (repro bench --json BENCH_comm.json).
        assert compare_comm_reports(baseline, current) == []

    def test_checked_in_baseline_meets_the_acceptance_gate(self, baseline):
        cell = baseline["cells"]["comm_cds2_f32_delta"]
        assert cell["reduction_vs_cds1"] >= 3.0
        assert abs(cell["avg_pr_loss"]) <= 0.01
