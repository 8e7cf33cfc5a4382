"""Tests for the remote site (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.em import EMConfig
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.protocol import (
    DeletionMessage,
    ModelUpdateMessage,
    WeightUpdateMessage,
)
from repro.core.remote import RemoteSite, RemoteSiteConfig


def make_mixture(center: float) -> GaussianMixture:
    """A two-component 2-d mixture around ``center``."""
    return GaussianMixture(
        np.array([0.5, 0.5]),
        (
            Gaussian.spherical(np.array([center, 0.0]), 0.3),
            Gaussian.spherical(np.array([center, 5.0]), 0.3),
        ),
    )


def stream_of(mixture: GaussianMixture, n: int, seed: int):
    points, _ = mixture.sample(n, np.random.default_rng(seed))
    return points


@pytest.fixture
def site(fast_site_config: RemoteSiteConfig) -> RemoteSite:
    config = RemoteSiteConfig(
        dim=2,
        epsilon=fast_site_config.epsilon,
        delta=fast_site_config.delta,
        c_max=4,
        em=EMConfig(n_components=2, n_init=1, max_iter=40, tol=1e-3),
        chunk_override=300,
    )
    return RemoteSite(0, config, rng=np.random.default_rng(5))


class TestConfig:
    def test_chunk_uses_theorem1_by_default(self):
        config = RemoteSiteConfig(dim=4, epsilon=0.02, delta=0.01)
        assert config.chunk == 1567

    def test_chunk_override(self):
        config = RemoteSiteConfig(chunk_override=123)
        assert config.chunk == 123

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            RemoteSiteConfig(dim=0)
        with pytest.raises(ValueError):
            RemoteSiteConfig(c_max=0)
        with pytest.raises(ValueError):
            RemoteSiteConfig(chunk_override=0)


class TestFirstChunk:
    def test_no_model_before_first_chunk_completes(self, site: RemoteSite):
        data = stream_of(make_mixture(0.0), site.chunk - 1, 1)
        for row in data:
            assert site.process_record(row) == []
        assert site.current_model is None

    def test_first_chunk_is_always_clustered(self, site: RemoteSite):
        data = stream_of(make_mixture(0.0), site.chunk, 1)
        messages = site.process_stream(data)
        assert len(messages) == 1
        assert isinstance(messages[0], ModelUpdateMessage)
        assert site.current_model is not None
        assert site.current_model.count == site.chunk
        assert site.stats.n_clusterings == 1
        assert site.stats.n_tests == 0

    def test_record_dimension_checked(self, site: RemoteSite):
        with pytest.raises(ValueError, match="dimension"):
            site.process_record(np.zeros(5))


class TestStableStream:
    def test_fitting_chunks_only_bump_the_counter(self, site: RemoteSite):
        mixture = make_mixture(0.0)
        messages = site.process_stream(stream_of(mixture, site.chunk * 5, 2))
        model_updates = [
            m for m in messages if isinstance(m, ModelUpdateMessage)
        ]
        assert len(model_updates) == 1  # only the initial clustering
        assert site.current_model.count == site.chunk * 5
        assert site.stats.n_clusterings == 1

    def test_no_communication_while_stable(self, site: RemoteSite):
        site.process_stream(stream_of(make_mixture(0.0), site.chunk, 2))
        bytes_after_first = site.stats.bytes_sent
        site.process_stream(stream_of(make_mixture(0.0), site.chunk * 4, 3))
        assert site.stats.bytes_sent == bytes_after_first


class TestDistributionChange:
    def test_change_triggers_reclustering_and_event(self, site: RemoteSite):
        site.process_stream(stream_of(make_mixture(0.0), site.chunk * 2, 2))
        messages = site.process_stream(
            stream_of(make_mixture(50.0), site.chunk, 3)
        )
        assert any(isinstance(m, ModelUpdateMessage) for m in messages)
        assert site.stats.n_clusterings == 2
        assert len(site.events) == 1
        event = site.events[0]
        assert event.start == 0
        assert event.end == site.chunk * 2
        assert len(site.model_list) == 1

    def test_new_model_covers_the_failing_chunk(self, site: RemoteSite):
        site.process_stream(stream_of(make_mixture(0.0), site.chunk, 2))
        site.process_stream(stream_of(make_mixture(50.0), site.chunk, 3))
        assert site.current_started_at == site.chunk
        assert site.current_model.count == site.chunk


class TestMultiTestReactivation:
    def test_alternating_distributions_reactivate_archived_models(
        self, site: RemoteSite
    ):
        a, b = make_mixture(0.0), make_mixture(50.0)
        # A A B B A: the return to A should reuse the archived model.
        site.process_stream(stream_of(a, site.chunk * 2, 2))
        site.process_stream(stream_of(b, site.chunk * 2, 3))
        messages = site.process_stream(stream_of(a, site.chunk, 4))
        weight_updates = [
            m for m in messages if isinstance(m, WeightUpdateMessage)
        ]
        assert len(weight_updates) == 1
        assert site.stats.n_reactivations == 1
        assert site.stats.n_clusterings == 2  # A and B only

    def test_single_test_strategy_never_reactivates(self):
        config = RemoteSiteConfig(
            dim=2,
            epsilon=0.3,
            delta=0.05,
            c_max=1,
            em=EMConfig(n_components=2, n_init=1, max_iter=40, tol=1e-3),
            chunk_override=300,
        )
        site = RemoteSite(0, config, rng=np.random.default_rng(5))
        a, b = make_mixture(0.0), make_mixture(50.0)
        site.process_stream(stream_of(a, site.chunk, 2))
        site.process_stream(stream_of(b, site.chunk, 3))
        site.process_stream(stream_of(a, site.chunk, 4))
        assert site.stats.n_reactivations == 0
        assert site.stats.n_clusterings == 3

    def test_event_table_tiles_the_stream_under_alternation(
        self, site: RemoteSite
    ):
        a, b = make_mixture(0.0), make_mixture(50.0)
        for seed, mixture in enumerate([a, b, a, b]):
            site.process_stream(stream_of(mixture, site.chunk, 10 + seed))
        events = list(site.events)
        assert events[0].start == 0
        for previous, current in zip(events, events[1:]):
            assert current.start == previous.end


class TestRecordOwnership:
    """A record belongs to the site from the call that submitted it."""

    @staticmethod
    def capture_chunks(site: RemoteSite, monkeypatch) -> list[np.ndarray]:
        seen: list[np.ndarray] = []
        monkeypatch.setattr(
            site, "_handle_chunk", lambda chunk: seen.append(chunk) or []
        )
        return seen

    def test_producer_may_reuse_its_array(self, site: RemoteSite, monkeypatch):
        seen = self.capture_chunks(site, monkeypatch)
        data = stream_of(make_mixture(0.0), site.chunk, 1)
        scratch = np.empty(2)
        for row in data:
            scratch[:] = row  # the river ``learn_one`` idiom: one array
            site.process_record(scratch)
        assert len(seen) == 1
        assert np.array_equal(seen[0], data)

    def test_handed_off_chunk_is_never_written_again(
        self, site: RemoteSite, monkeypatch
    ):
        seen = self.capture_chunks(site, monkeypatch)
        data = stream_of(make_mixture(0.0), 2 * site.chunk, 1)
        site.process_stream(data[: site.chunk])
        first = seen[0].copy()
        site.process_stream(data[site.chunk :])
        # Algorithm 1, the hold-out and the history may keep a chunk:
        # the block is fresh per chunk, not a ring.
        assert np.array_equal(seen[0], first)
        assert not np.shares_memory(seen[0], seen[1])


class TestChunkEntryPoint:
    def test_process_chunk_equivalent_accounting(self, site: RemoteSite):
        chunk = stream_of(make_mixture(0.0), site.chunk, 2)
        site.process_chunk(chunk)
        assert site.stats.records_seen == site.chunk
        assert site.position == site.chunk

    def test_process_chunk_rejected_with_partial_buffer(
        self, site: RemoteSite
    ):
        site.process_record(np.zeros(2))
        with pytest.raises(RuntimeError, match="partially filled"):
            site.process_chunk(np.zeros((10, 2)))

    def test_nan_chunk_rejected_before_any_test(self, site: RemoteSite):
        """The chunk entry point keeps the record path's NaN rule: a
        NaN chunk must not reach the marginal-likelihood fit test."""
        site.process_chunk(stream_of(make_mixture(0.0), site.chunk, 2))
        before = vars(site.stats).copy()
        chunk = stream_of(make_mixture(0.0), site.chunk, 3)
        chunk[5, 1] = np.nan
        with pytest.raises(ValueError, match="missing attributes"):
            site.process_chunk(chunk)
        assert vars(site.stats) == before
        assert site.position == site.chunk

    def test_nan_chunk_on_a_fresh_site_emits_nothing(self, site: RemoteSite):
        sent = []
        fresh = RemoteSite(1, site.config, emit=sent.append)
        chunk = stream_of(make_mixture(0.0), site.chunk, 2)
        chunk[-1, 0] = np.nan
        with pytest.raises(ValueError, match="missing attributes"):
            fresh.process_chunk(chunk)
        assert sent == []
        assert fresh.current_model is None
        assert fresh.position == fresh.stats.records_seen == 0


class TestExpire:
    def test_expire_emits_deletion_and_reduces_counter(
        self, site: RemoteSite
    ):
        site.process_stream(stream_of(make_mixture(0.0), site.chunk * 2, 2))
        model_id = site.current_model.model_id
        messages = site.expire(model_id, site.chunk)
        assert isinstance(messages[0], DeletionMessage)
        assert site.current_model.count == site.chunk

    def test_fully_expired_archived_model_is_dropped(self, site: RemoteSite):
        site.process_stream(stream_of(make_mixture(0.0), site.chunk, 2))
        site.process_stream(stream_of(make_mixture(50.0), site.chunk, 3))
        archived_id = site.model_list[0].model_id
        site.expire(archived_id, site.chunk * 2)
        assert site.find_model(archived_id) is None

    def test_expire_unknown_model_rejected(self, site: RemoteSite):
        with pytest.raises(KeyError):
            site.expire(99, 10)

    def test_expire_requires_positive_count(self, site: RemoteSite):
        site.process_stream(stream_of(make_mixture(0.0), site.chunk, 2))
        with pytest.raises(ValueError, match="positive"):
            site.expire(site.current_model.model_id, 0)


class TestAccounting:
    def test_memory_bytes_grows_with_models(self, site: RemoteSite):
        site.process_stream(stream_of(make_mixture(0.0), site.chunk, 2))
        one_model = site.memory_bytes()
        site.process_stream(stream_of(make_mixture(50.0), site.chunk, 3))
        assert site.memory_bytes() > one_model

    def test_emit_callback_receives_messages(self, fast_site_config):
        received = []
        config = RemoteSiteConfig(
            dim=2,
            epsilon=0.3,
            em=EMConfig(n_components=2, n_init=1, max_iter=30, tol=1e-3),
            chunk_override=300,
        )
        site = RemoteSite(
            0, config, rng=np.random.default_rng(5), emit=received.append
        )
        site.process_stream(stream_of(make_mixture(0.0), site.chunk, 2))
        assert len(received) == 1
        assert site.stats.messages_sent == 1

    def test_verbatim_test_mode_runs(self):
        config = RemoteSiteConfig(
            dim=2,
            epsilon=0.3,
            adaptive_test=False,
            em=EMConfig(n_components=2, n_init=1, max_iter=30, tol=1e-3),
            chunk_override=300,
        )
        site = RemoteSite(0, config, rng=np.random.default_rng(5))
        site.process_stream(stream_of(make_mixture(0.0), site.chunk * 3, 2))
        assert site.stats.chunks_processed == 3


class TestArchiveRetention:
    def bounded_site(self, limit: int) -> RemoteSite:
        config = RemoteSiteConfig(
            dim=2,
            epsilon=0.3,
            delta=0.05,
            c_max=4,
            em=EMConfig(n_components=2, n_init=1, max_iter=40, tol=1e-3),
            chunk_override=300,
            archive_limit=limit,
        )
        return RemoteSite(0, config, rng=np.random.default_rng(5))

    def test_archive_limit_validated_naming_value(self):
        with pytest.raises(ValueError, match="archive_limit.*got 0"):
            RemoteSiteConfig(archive_limit=0)
        with pytest.raises(ValueError, match="event_limit.*got 0"):
            RemoteSiteConfig(event_limit=0)

    def test_archive_stays_bounded_with_eviction_counter(self):
        site = self.bounded_site(1)
        for center, seed in [(0.0, 2), (50.0, 3), (100.0, 4), (150.0, 5)]:
            site.process_stream(stream_of(make_mixture(center), site.chunk, seed))
        assert len(site.model_list) <= 1
        # Four distinct reigns, one current, one archived: two evicted.
        assert site.stats.archive_evictions == 2
        assert site.stats.n_clusterings == 4

    def test_ladder_still_finds_recent_models_after_eviction(self):
        # With a bound of 2, the oldest model (A) is evicted when the
        # fourth distribution arrives -- but the *recent* B must still
        # be reachable by the reactivation ladder.
        site = self.bounded_site(2)
        centers = [0.0, 50.0, 100.0, 150.0]  # A B C D
        for seed, center in enumerate(centers, start=2):
            site.process_stream(stream_of(make_mixture(center), site.chunk, seed))
        assert site.stats.archive_evictions == 1  # A fell off the head
        archived = {entry.model_id for entry in site.model_list}
        assert len(archived) == 2
        # Return to B: reactivated from the archive, not re-clustered.
        site.process_stream(stream_of(make_mixture(50.0), site.chunk, 9))
        assert site.stats.n_reactivations == 1
        assert site.stats.n_clusterings == 4

    def test_reactivation_refreshes_recency(self):
        # A is used again before the bound bites, so eviction claims
        # the stale B instead -- LRU by reactivation, not insertion.
        site = self.bounded_site(2)
        site.process_stream(stream_of(make_mixture(0.0), site.chunk, 2))    # A
        site.process_stream(stream_of(make_mixture(50.0), site.chunk, 3))   # B
        site.process_stream(stream_of(make_mixture(100.0), site.chunk, 4))  # C
        site.process_stream(stream_of(make_mixture(0.0), site.chunk, 5))    # A again
        assert site.stats.n_reactivations == 1
        a_id = site.current_model.model_id
        # D pushes the archive past the bound; the LRU head goes.
        site.process_stream(stream_of(make_mixture(150.0), site.chunk, 6))  # D
        assert site.stats.archive_evictions == 1
        assert a_id in {entry.model_id for entry in site.model_list}
        # A is still reachable a second time.
        site.process_stream(stream_of(make_mixture(0.0), site.chunk, 7))
        assert site.stats.n_reactivations == 2

    def test_unbounded_archive_reports_zero_evictions(self, site: RemoteSite):
        site.process_stream(stream_of(make_mixture(0.0), site.chunk, 2))
        site.process_stream(stream_of(make_mixture(50.0), site.chunk, 3))
        assert site.stats.archive_evictions == 0
