"""Record ingest into the chunk buffer is the old list ingest, byte for byte.

``RemoteSite.process_record`` appends each record's float64 bytes to a
per-chunk ``bytearray`` (viewed as the ``(M, d)`` chunk at the
boundary) instead of appending a row object to a list and stacking the
list per chunk.  That is a different place to keep the same rows and
nothing else: driven by the same records,
``RemoteSite`` and the list-buffer reference kept in
``tests.core.ingest_oracle`` must raise the same error from the same
call and, after *every* record, have emitted the same messages and hold
the same counters, position and checkpoint payload -- whatever the
record's type, dtype or shape.

``data/site_checkpoint_partial_buffer.json`` was written by the
list-buffer implementation itself (``PYTHONPATH=<src of ed9cf30>:.
python tests/core/test_ingest_identity.py --write``, i.e. this file run
against the commit before the chunk buffer), 7 records into a chunk:
the buffer implementation must reach the same bytes at that record,
load them, and finish the stream as if it had never stopped.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.em import EMConfig
from repro.core.remote import RemoteSite, RemoteSiteConfig
from repro.core.serde import get_codec
from repro.io.checkpoint import restore_site, snapshot_site
from tests.core.ingest_oracle import OracleSite, oracle_snapshot

FIXTURE = Path(__file__).parent / "data" / "site_checkpoint_partial_buffer.json"

DIM = 2
CHUNK = 6
ENCODE = get_codec("cds1").encode

#: Entries a record may hold: ordinary values, zeros, ±inf, NaN,
#: subnormals and values whose square overflows.
SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2e-310, 1e200, -1.7e308)
entries = st.one_of(*[st.floats(-5.0, 5.0)] * 11, st.sampled_from(SPECIAL))


def site_config(
    handle_missing: bool = False, components: int = 1, chunk: int = CHUNK
) -> RemoteSiteConfig:
    return RemoteSiteConfig(
        dim=DIM,
        epsilon=0.05,
        delta=0.05,
        c_max=3,
        em=EMConfig(n_components=components, n_init=1, max_iter=20),
        handle_missing=handle_missing,
        chunk_override=chunk,
    )


@st.composite
def records(draw):
    """One submitted record, in any of the spellings a producer uses."""
    kind = draw(
        st.sampled_from(
            ["f64"] * 12
            + ["list", "int", "f32", "row", "column", "strided"] * 2
            + ["short", "long", "text", "none"]
        )
    )
    if kind == "text":
        return ["a", "b"]
    if kind == "none":
        return None
    size = {"short": DIM - 1, "long": DIM + 1}.get(kind, DIM)
    values = np.array(draw(st.lists(entries, min_size=size, max_size=size)))
    if kind == "list":
        return values.tolist()
    if kind == "int":
        return np.clip(np.nan_to_num(values), -9, 9).astype(np.int64)
    if kind == "f32":
        with np.errstate(over="ignore"):
            return values.astype(np.float32)
    if kind == "row":
        return values.reshape(1, DIM)
    if kind == "column":
        return values.reshape(DIM, 1)
    if kind == "strided":
        return np.repeat(values, 2)[::2]
    return values


def outcome(site: RemoteSite, record):
    """What one ``process_record`` call did: messages or the error."""
    try:
        return "ok", [ENCODE(m) for m in site.process_record(record)]
    except Exception as error:  # compared, not handled
        return type(error).__name__, str(error)


def assert_same_state(site: RemoteSite, oracle: OracleSite) -> None:
    assert vars(site.stats) == vars(oracle.stats)
    assert site.position == oracle.position
    assert json.dumps(snapshot_site(site)) == json.dumps(oracle_snapshot(oracle))


class TestBlockIngestIsListIngest:
    @settings(max_examples=80, deadline=None)
    @given(
        stream=st.lists(records(), min_size=CHUNK, max_size=5 * CHUNK),
        handle_missing=st.booleans(),
    )
    def test_every_record_has_the_same_outcome(self, stream, handle_missing):
        config = site_config(handle_missing)
        site = RemoteSite(3, config, rng=np.random.default_rng(8))
        oracle = OracleSite(3, config, rng=np.random.default_rng(8))
        for record in stream:
            assert outcome(site, record) == outcome(oracle, record)
            assert_same_state(site, oracle)

    def test_drifting_stream_record_by_record(self):
        """Every Algorithm 1 transition, compared after every record."""
        config = site_config(components=2, chunk=40)
        site = RemoteSite(1, config, rng=np.random.default_rng(4))
        oracle = OracleSite(1, config, rng=np.random.default_rng(4))
        rng = np.random.default_rng(17)
        sent = 0
        for regime in (0.0, 8.0, 0.0, 16.0, 8.0):
            for row in rng.normal(regime, 1.0, size=(2 * 40 + 9, DIM)):
                result = outcome(site, row)
                assert result == outcome(oracle, row.copy())
                sent += len(result[1])
                assert_same_state(site, oracle)
        assert sent >= 4
        assert site.stats.n_reactivations >= 1
        assert site.stats.n_archived >= 2

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(entries, min_size=1, max_size=9),
        handle_missing=st.booleans(),
    )
    # The float-sum screen's edges: both infinities (a NaN sum, so the
    # exact rescan), sums that overflow, NaN first or last.
    @example(values=[np.inf, -np.inf], handle_missing=False)
    @example(values=[1.0, -np.inf, 2.0, np.inf, 3.0], handle_missing=False)
    @example(values=[1.7e308, 1.7e308], handle_missing=False)
    @example(values=[-1.7e308, -1.7e308, -1.7e308, 1.0, 2.0], handle_missing=False)
    @example(values=[np.nan], handle_missing=False)
    @example(values=[np.nan, 1.0, 2.0, 3.0, 4.0], handle_missing=False)
    @example(values=[1.0, 2.0, 3.0, 4.0, np.nan], handle_missing=False)
    @example(values=[np.inf, 1.0, 2.0, -np.inf, np.nan], handle_missing=False)
    def test_nan_rejection_is_isnan_any(self, values, handle_missing):
        """The float-sum screen rejects exactly what ``np.isnan(r).any()``
        does -- and, like it, stays silent on values that overflow when
        squared or summed (RuntimeWarnings are errors in this suite)."""
        record = np.array(values)
        config = RemoteSiteConfig(
            dim=record.size, handle_missing=handle_missing, chunk_override=10**6
        )
        site = RemoteSite(0, config)
        if np.isnan(record).any() and not handle_missing:
            with pytest.raises(ValueError, match="missing attributes"):
                site.process_record(record)
            assert site.stats.records_seen == 0
            assert snapshot_site(site)["buffer"] == []
        else:
            assert site.process_record(record) == []
            # Bit-for-bit (NaN included): what was stored is the record.
            stored = np.array(snapshot_site(site)["buffer"])
            assert stored.tobytes() == record.tobytes()


class TestNanScreen:
    """The sum screen decides alone unless the sum is NaN; then the
    exact rescan does, and only it may reject."""

    class CountingSite(RemoteSite):
        rescans = 0

        def _screen_missing(self, rows):
            self.rescans += 1
            super()._screen_missing(rows)

    @pytest.mark.parametrize(
        "values, rescans",
        [
            ([np.inf, -np.inf], 1),
            ([-np.inf, 3.0, 4.0, 5.0, np.inf], 1),
            ([1.7e308, 1.7e308], 0),
            ([-1.7e308, -1.7e308, 1.0, 2.0, 3.0], 0),
            ([np.inf, np.inf], 0),
        ],
    )
    def test_infinite_rows_accepted_without_a_warning(self, values, rescans):
        record = np.array(values)
        site = self.CountingSite(
            0, RemoteSiteConfig(dim=record.size, chunk_override=10**6)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert site.process_record(record) == []
        assert site.rescans == rescans
        assert site.stats.records_seen == 1

    @pytest.mark.parametrize("dim", [1, 5])
    @pytest.mark.parametrize("where", [0, -1])
    def test_nan_first_or_last_rejected_with_the_state_untouched(self, dim, where):
        site = self.CountingSite(0, RemoteSiteConfig(dim=dim, chunk_override=3))
        site.process_record(np.ones(dim))
        before = json.dumps(snapshot_site(site))
        record = np.arange(1.0, dim + 1.0)
        record[where] = np.nan
        with pytest.raises(ValueError, match="missing attributes"):
            site.process_record(record)
        assert site.rescans == 1
        assert json.dumps(snapshot_site(site)) == before
        assert site.stats.records_seen == 1


class TestHandedOffChunk:
    """What Algorithm 1 receives at a boundary: an ``(M, d)`` float64,
    C-ordered, writeable array that no later record writes into."""

    class CapturingSite(RemoteSite):
        def _handle_chunk(self, chunk):
            self.seen = [*getattr(self, "seen", []), chunk]
            return []

    def test_chunk_layout_and_ownership(self):
        site = self.CapturingSite(0, site_config())
        data = np.random.default_rng(3).normal(size=(3 * CHUNK + 2, DIM))
        site.process_stream(data[:CHUNK])
        (first,) = site.seen
        assert first.shape == (CHUNK, DIM)
        assert first.dtype == np.float64
        assert first.flags.c_contiguous and first.flags.writeable
        kept = first.copy()
        site.process_stream(data[CHUNK:])
        assert len(site.seen) == 3
        assert np.array_equal(first, kept)
        assert np.array_equal(np.concatenate(site.seen), data[: 3 * CHUNK])
        assert not any(
            np.shares_memory(a, b) for a, b in zip(site.seen, site.seen[1:])
        )


# ----------------------------------------------------------------------
# A checkpoint written by the list-buffer implementation
# ----------------------------------------------------------------------
_RECORDS = 2 * 40 + 7


def partial_workload() -> np.ndarray:
    rng = np.random.default_rng(31)
    return np.concatenate(
        [rng.normal(0.0, 1.0, size=(40, DIM)), rng.normal(9.0, 1.0, size=(120, DIM))]
    )


def fresh_partial_site() -> RemoteSite:
    config = site_config(components=2, chunk=40)
    return RemoteSite(5, config, rng=np.random.default_rng(77))


def snapshot_bytes(site: RemoteSite) -> bytes:
    return json.dumps(snapshot_site(site), sort_keys=True).encode()


class TestListBufferCheckpointLoads:
    def test_block_site_writes_the_same_bytes_mid_chunk(self):
        site = fresh_partial_site()
        site.process_stream(partial_workload()[:_RECORDS])
        assert len(snapshot_site(site)["buffer"]) == 7
        assert snapshot_bytes(site) == FIXTURE.read_bytes()

    def test_fixture_round_trips_through_restore(self):
        restored = restore_site(json.loads(FIXTURE.read_text()))
        assert snapshot_bytes(restored) == FIXTURE.read_bytes()

    def test_restored_site_finishes_the_stream(self):
        data = partial_workload()
        restored = restore_site(json.loads(FIXTURE.read_text()))
        uninterrupted = fresh_partial_site()
        uninterrupted.process_stream(data[:_RECORDS])
        assert [ENCODE(m) for m in restored.process_stream(data[_RECORDS:])] == [
            ENCODE(m) for m in uninterrupted.process_stream(data[_RECORDS:])
        ]
        assert snapshot_bytes(restored) == snapshot_bytes(uninterrupted)
        assert restored.position == 160


if __name__ == "__main__":
    import sys

    if "--write" in sys.argv:
        site = fresh_partial_site()
        site.process_stream(partial_workload()[:_RECORDS])
        FIXTURE.write_bytes(snapshot_bytes(site))
        print(f"wrote {FIXTURE}")
    else:
        print(__doc__)
