"""Malformed trace events: one ``ValueError`` from the fold, one CLI line.

The trace fold names the offending event's ``seq`` and field, and both
``repro stats`` and ``repro monitor --trace`` turn that into a single
stderr line and exit status 1 -- never a traceback.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.obs import HealthMonitor, JsonlTraceSink, TraceEvent

GOOD = ("site.chunk_test", {"site": 0, "passed": True, "chunk": 10})


def write_trace(path, *events) -> str:
    sink = JsonlTraceSink(path)
    for seq, (type_, fields) in enumerate(events, start=1):
        sink.write(TraceEvent(seq=seq, time=0.0, type=type_, fields=fields))
    sink.close()
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str]:
    status = main(list(argv))
    err = capsys.readouterr().err
    return status, err


def assert_one_line(err: str, *needles: str) -> None:
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1, err
    for needle in needles:
        assert needle in err, err


class TestFoldNamesSeqAndField:
    def test_missing_site(self):
        with pytest.raises(ValueError, match=r"seq 2 .*'site'"):
            HealthMonitor.replay(
                [
                    TraceEvent(1, 0.0, *GOOD),
                    TraceEvent(2, 0.0, "site.chunk_test", {"passed": True}),
                ]
            )

    def test_non_numeric_count(self):
        with pytest.raises(ValueError, match=r"seq 7 .*'n_iter'.*'abc'"):
            HealthMonitor().write(
                TraceEvent(7, 0.0, "em.fit", {"n_iter": "abc"})
            )


class TestChunkTestWithoutSite:
    @pytest.fixture
    def trace(self, tmp_path):
        return write_trace(
            tmp_path / "t.jsonl", GOOD, ("site.chunk_test", {"passed": False})
        )

    def test_stats(self, capsys, trace):
        status, err = run_cli(capsys, "stats", trace)
        assert status == 1
        assert_one_line(err, trace, "seq 2", "'site'")

    def test_monitor(self, capsys, trace):
        status, err = run_cli(capsys, "monitor", "--trace", trace, "--no-clear")
        assert status == 1
        assert_one_line(err, trace, "seq 2", "'site'")


class TestHistoryReignWithoutStart:
    def test_stats_window(self, capsys, tmp_path):
        trace = write_trace(
            tmp_path / "t.jsonl",
            ("history.reign", {"scope": "coordinator", "start": 1, "end": 3,
                               "model": 0, "summary": {"components": 1}}),
            ("history.reign", {"scope": "coordinator", "end": 5, "model": 1,
                               "summary": {"components": 2}}),
        )
        status, err = run_cli(capsys, "stats", trace, "--window", "0", "5")
        assert status == 1
        assert_one_line(err, trace, "seq 2", "'start'")

    def test_a_summary_that_is_not_an_object(self, capsys, tmp_path):
        trace = write_trace(
            tmp_path / "t.jsonl",
            ("history.reign", {"scope": "coordinator", "start": 1, "end": 3,
                               "model": 0, "summary": [1, 2]}),
        )
        status, err = run_cli(capsys, "stats", trace, "--window", "0", "5")
        assert status == 1
        assert_one_line(err, trace, "seq 1", "'summary'")


class TestNonNumericIterations:
    @pytest.fixture
    def trace(self, tmp_path):
        return write_trace(
            tmp_path / "t.jsonl", GOOD, ("em.fit", {"n_iter": "abc"})
        )

    def test_stats(self, capsys, trace):
        status, err = run_cli(capsys, "stats", trace)
        assert status == 1
        assert_one_line(err, trace, "seq 2", "'n_iter'")

    def test_monitor_no_longer_accepts_it(self, capsys, trace):
        status, err = run_cli(capsys, "monitor", "--trace", trace, "--no-clear")
        assert status == 1
        assert_one_line(err, trace, "seq 2", "'n_iter'")


def test_monitor_missing_trace_file(capsys, tmp_path):
    missing = str(tmp_path / "absent.jsonl")
    status, err = run_cli(capsys, "monitor", "--trace", missing, "--no-clear")
    assert status == 1
    assert_one_line(err, "no such trace file", missing)
