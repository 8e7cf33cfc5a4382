"""Every view of the trace fold, pinned byte for byte.

One checked-in trace (``data/golden.trace.jsonl``, see ``golden_run.py``)
feeds ``repro stats`` (text, JSON, ``--window`` with the default scope
and with ``--scope site:0``), ``repro monitor --trace``, the ``/health``
report and the ``health_*`` gauges of ``/metrics``, a federated rollup
of that health report, and the replayed ``ModelHistory.to_dict()``.  A
loopback ``TransportTree(federate=True)`` pins ``/cluster/health`` and
``level_stats()`` together.  The CLI outputs are taken through
``repro.cli.main``.  The trace itself is pinned to its recorder, so a
change to what the seeded run emits cannot leave the goldens describing
an older run.
"""

from __future__ import annotations

import pytest

from tests.obs.golden_run import GOLDENS, TRACE, record, views


@pytest.fixture(scope="module")
def rendered() -> dict[str, str]:
    return views()


def test_fixture_is_small_and_present():
    assert TRACE.stat().st_size <= 200_000


def test_the_trace_is_what_the_recorder_records():
    assert record() == TRACE.read_text(encoding="utf-8")


def test_every_golden_is_rendered(rendered):
    assert sorted(rendered) == sorted(p.name for p in GOLDENS.iterdir())


@pytest.mark.parametrize(
    "name", sorted(p.name for p in GOLDENS.iterdir())
)
def test_view_matches_its_golden(rendered, name):
    assert rendered[name] == (GOLDENS / name).read_text(encoding="utf-8")
