"""Tests for site and coordinator checkpoints."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.core.coordinator import Coordinator, CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.protocol import ModelUpdateMessage
from repro.core.remote import RemoteSite, RemoteSiteConfig
from repro.core.serde import get_codec
from repro.io.checkpoint import (
    load_coordinator,
    load_site,
    restore_coordinator,
    restore_site,
    save_coordinator,
    save_site,
    snapshot_coordinator,
    snapshot_site,
)


def make_site(seed: int = 5) -> RemoteSite:
    config = RemoteSiteConfig(
        dim=2,
        epsilon=0.3,
        delta=0.05,
        em=EMConfig(n_components=2, n_init=1, max_iter=30, tol=1e-3),
        chunk_override=300,
    )
    return RemoteSite(0, config, rng=np.random.default_rng(seed))


def mixture_at(center: float) -> GaussianMixture:
    return GaussianMixture(
        np.array([0.5, 0.5]),
        (
            Gaussian.spherical(np.array([center, 0.0]), 0.3),
            Gaussian.spherical(np.array([center, 5.0]), 0.3),
        ),
    )


def feed(site: RemoteSite, center: float, n: int, seed: int) -> None:
    points, _ = mixture_at(center).sample(n, np.random.default_rng(seed))
    site.process_stream(points)


class TestSiteCheckpoint:
    def test_round_trip_preserves_models_and_events(self):
        site = make_site()
        feed(site, 0.0, 600, 1)
        feed(site, 40.0, 300, 2)
        clone = restore_site(snapshot_site(site))
        assert clone.site_id == site.site_id
        assert clone.position == site.position
        assert len(clone.all_models) == len(site.all_models)
        assert clone.current_model.mixture == site.current_model.mixture
        assert list(clone.events.records) == list(site.events.records)
        assert vars(clone.stats) == vars(site.stats)

    def test_round_trip_preserves_partial_buffer(self):
        site = make_site()
        points, _ = mixture_at(0.0).sample(450, np.random.default_rng(1))
        site.process_stream(points)  # one chunk + 150 buffered
        payload = snapshot_site(site)
        assert payload["buffer"] == points[300:].tolist()
        clone = restore_site(payload)
        assert snapshot_site(clone) == payload
        # The restored rows complete the same chunk as the original's.
        rest, _ = mixture_at(40.0).sample(150, np.random.default_rng(2))
        encode = get_codec("cds1").encode
        assert [encode(m) for m in clone.process_stream(rest)] == [
            encode(m) for m in site.process_stream(rest)
        ]
        assert clone.position == site.position == 600

    def test_buffer_that_does_not_fit_a_chunk_rejected(self):
        site = make_site()
        feed(site, 0.0, 10, 1)
        payload = snapshot_site(site)
        payload["buffer"] = payload["buffer"] * 30  # 300 rows, M = 300
        with pytest.raises(ValueError, match="a chunk is 300"):
            restore_site(payload)

    def test_buffer_row_of_the_wrong_width_rejected(self):
        site = make_site()
        feed(site, 0.0, 10, 1)
        payload = snapshot_site(site)
        payload["buffer"][3] = [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="records of 2 values"):
            restore_site(payload)

    def test_buffer_row_with_nan_rejected_when_the_site_rejects_nan(self):
        """A restored buffer meets the record path's NaN rule: the chunk
        it would complete must not pass through the marginal test."""
        site = make_site()
        feed(site, 0.0, 10, 1)
        payload = snapshot_site(site)
        payload["buffer"][4][0] = float("nan")
        with pytest.raises(ValueError, match="missing attributes"):
            restore_site(payload)
        payload["config"]["handle_missing"] = True
        restored = snapshot_site(restore_site(payload))["buffer"]
        assert np.isnan(restored[4][0]) and len(restored) == 10

    def test_restored_site_continues_identically(self):
        original = make_site()
        feed(original, 0.0, 600, 1)
        clone = restore_site(snapshot_site(original))
        # Same future records through both: identical behaviour.
        future, _ = mixture_at(40.0).sample(600, np.random.default_rng(3))
        msgs_original = original.process_stream(future.copy())
        msgs_clone = clone.process_stream(future.copy())
        assert len(msgs_original) == len(msgs_clone)
        assert original.stats.n_clusterings == clone.stats.n_clusterings
        assert (
            original.current_model.mixture == clone.current_model.mixture
        )

    def test_file_round_trip(self, tmp_path):
        site = make_site()
        feed(site, 0.0, 600, 1)
        path = save_site(site, tmp_path / "site.json")
        clone = load_site(path)
        assert clone.current_model.mixture == site.current_model.mixture

    def test_wrong_kind_rejected(self):
        site = make_site()
        payload = snapshot_site(site)
        payload["kind"] = "coordinator"
        with pytest.raises(ValueError, match="not a remote-site"):
            restore_site(payload)

    def test_wrong_version_rejected(self):
        site = make_site()
        payload = snapshot_site(site)
        payload["format"] = 99
        with pytest.raises(ValueError, match="unsupported"):
            restore_site(payload)


class TestCoordinatorCheckpoint:
    def make_coordinator(self) -> Coordinator:
        coordinator = Coordinator(
            CoordinatorConfig(max_components=4, merge_method="moment"),
            rng=np.random.default_rng(7),
        )
        for site_id in range(5):
            coordinator.handle_message(
                ModelUpdateMessage(
                    site_id=site_id,
                    model_id=0,
                    time=0,
                    mixture=mixture_at(float(site_id * 15)),
                    count=1000,
                    reference_likelihood=-1.0,
                )
            )
        return coordinator

    def test_round_trip_preserves_tree(self):
        coordinator = self.make_coordinator()
        clone = restore_coordinator(snapshot_coordinator(coordinator))
        assert clone.n_components == coordinator.n_components
        assert clone.site_models.keys() == coordinator.site_models.keys()
        assert vars(clone.stats) == vars(coordinator.stats)
        assert clone.global_mixture() == coordinator.global_mixture()

    def test_restored_coordinator_accepts_new_updates(self):
        coordinator = self.make_coordinator()
        clone = restore_coordinator(snapshot_coordinator(coordinator))
        clone.handle_message(
            ModelUpdateMessage(
                site_id=9,
                model_id=0,
                time=1,
                mixture=mixture_at(200.0),
                count=500,
                reference_likelihood=-1.0,
            )
        )
        assert (9, 0) in clone.site_models
        assert clone.n_components <= 4

    def test_cluster_id_counter_does_not_collide(self):
        coordinator = self.make_coordinator()
        clone = restore_coordinator(snapshot_coordinator(coordinator))
        existing = {c.cluster_id for c in clone.clusters}
        clone.handle_message(
            ModelUpdateMessage(
                site_id=8,
                model_id=0,
                time=1,
                mixture=mixture_at(500.0),
                count=500,
                reference_likelihood=-1.0,
            )
        )
        new_ids = {c.cluster_id for c in clone.clusters} - existing
        assert all(new_id > max(existing) for new_id in new_ids)

    def test_file_round_trip(self, tmp_path):
        coordinator = self.make_coordinator()
        path = save_coordinator(coordinator, tmp_path / "coord.json")
        clone = load_coordinator(path)
        assert clone.global_mixture() == coordinator.global_mixture()

    def test_wrong_kind_rejected(self):
        coordinator = self.make_coordinator()
        payload = snapshot_coordinator(coordinator)
        payload["kind"] = "remote_site"
        with pytest.raises(ValueError, match="not a coordinator"):
            restore_coordinator(payload)

    @pytest.mark.parametrize("budget", [None, 3])
    def test_checkpoint_with_removed_index_key_still_loads(self, budget):
        """``index_candidates`` (the deleted KD-tree variant) is ignored."""
        coordinator = self.make_coordinator()
        payload = snapshot_coordinator(coordinator)
        assert "index_candidates" not in payload["config"]
        payload["config"]["index_candidates"] = budget
        clone = restore_coordinator(payload)
        assert clone.config == coordinator.config
        assert clone.global_mixture() == coordinator.global_mixture()

    def test_infinite_remerge_distances_survive_json(self, tmp_path):
        coordinator = self.make_coordinator()
        payload = snapshot_coordinator(coordinator)
        json.dumps(payload)  # must be strictly JSON-serialisable
        clone = restore_coordinator(payload)
        distances = [
            leaf.remerge_distance
            for cluster in clone.clusters
            for leaf in cluster.leaves
        ]
        originals = [
            leaf.remerge_distance
            for cluster in coordinator.clusters
            for leaf in cluster.leaves
        ]
        assert sorted(map(str, distances)) == sorted(map(str, originals))

    @pytest.mark.parametrize("method", ["moment", "simplex"])
    def test_a_cascade_with_every_distance_owed_round_trips_byte_for_byte(
        self, method
    ):
        from tests.core.test_remerge_reference import cascade

        coordinator = cascade(method)
        assert any(
            leaf._merged_into is not None
            for cluster in coordinator.clusters
            for leaf in cluster.leaves
        )
        text = json.dumps(snapshot_coordinator(coordinator))
        clone = restore_coordinator(json.loads(text))
        assert json.dumps(snapshot_coordinator(clone)) == text

    def test_a_coordinator_restored_mid_stream_ends_as_the_straight_run(
        self, monkeypatch
    ):
        """The recurring run's messages, split decisions included, fed
        straight and through a JSON checkpoint taken halfway."""
        from repro.core.merging import fit_merged_component
        from tests.core.test_merge_fit_identity import _recurring_run

        messages = []
        handle = Coordinator.handle_message

        def recording(self, message):
            messages.append(message)
            handle(self, message)

        monkeypatch.setattr(Coordinator, "handle_message", recording)
        _recurring_run(monkeypatch, fit_merged_component)
        monkeypatch.setattr(Coordinator, "handle_message", handle)

        def fresh() -> Coordinator:
            return Coordinator(
                CoordinatorConfig(max_components=3, merge_samples=256),
                rng=np.random.default_rng(7),
            )

        straight = fresh()
        for message in messages:
            straight.handle_message(message)
        half = len(messages) // 2
        first = fresh()
        for message in messages[:half]:
            first.handle_message(message)
        resumed = restore_coordinator(
            json.loads(json.dumps(snapshot_coordinator(first)))
        )
        for message in messages[half:]:
            resumed.handle_message(message)
        assert resumed.stats.splits > first.stats.splits
        assert json.dumps(snapshot_coordinator(resumed)) == json.dumps(
            snapshot_coordinator(straight)
        )

    def test_a_checkpoint_with_reciprocal_scores_restores(self):
        """1.16.0 wrote ``remerge_score``, the distance's reciprocal, with
        ``null`` for an infinite score and ``0.0`` for an infinite
        distance; both read as an infinite distance."""
        from tests.core.test_lazy_remerge import cascade

        coordinator = cascade()
        payload = snapshot_coordinator(coordinator)
        leaves = [leaf for cluster in payload["clusters"] for leaf in cluster["leaves"]]
        distances = [leaf.pop("remerge_distance") for leaf in leaves]
        assert len(set(distances)) > 2 and None not in distances
        for leaf, distance in zip(leaves, distances):
            leaf["remerge_score"] = 1.0 / distance
        leaves[0]["remerge_score"], leaves[1]["remerge_score"] = None, 0.0
        clone = restore_coordinator(json.loads(json.dumps(payload)))
        restored = [
            leaf.remerge_distance
            for cluster in clone.clusters
            for leaf in cluster.leaves
        ]
        assert restored == [math.inf, math.inf] + [
            1.0 / (1.0 / distance) for distance in distances[2:]
        ]
        assert clone.global_mixture() == coordinator.global_mixture()


#: A 1.17.0 pyramid history, as ``ModelHistory.to_dict()`` wrote it
#: into site and coordinator checkpoints before the reign record.
PYRAMID_HISTORY = {
    "max_bytes": None,
    "scope": "site:0",
    "last_tick": 600,
    "evicted_memory": 0,
    "store": {
        "alpha": 2,
        "capacity": 2,
        "offered": 2,
        "stored_total": 2,
        "evicted": 0,
        "snapshots": [
            [300, {"model": 0, "components": 2, "weights": [0.5, 0.5],
                   "events_horizon": 0,
                   "counters": {"archives": 0, "evictions": 0,
                                "reactivations": 0},
                   "gauges": {"components": 2, "pass_rate": None}}],
            [600, {"model": 0, "components": 2, "weights": [0.5, 0.5],
                   "events_horizon": 0,
                   "counters": {"archives": 0, "evictions": 0,
                                "reactivations": 0},
                   "gauges": {"components": 2, "pass_rate": 1.0}}],
        ],
    },
}


class TestHistoryCheckpoint:
    def make_history_site(self) -> RemoteSite:
        from repro.obs.history import ModelHistory

        config = RemoteSiteConfig(
            dim=2,
            epsilon=0.3,
            delta=0.05,
            em=EMConfig(n_components=2, n_init=1, max_iter=30, tol=1e-3),
            chunk_override=300,
        )
        return RemoteSite(
            0,
            config,
            rng=np.random.default_rng(5),
            history=ModelHistory(),
        )

    def test_payload_has_no_history_key_when_disabled(self):
        # Byte-identity pin: checkpoints of history-less sites and
        # coordinators are exactly the pre-history format.
        site = make_site()
        feed(site, 0.0, 600, 1)
        assert "history" not in snapshot_site(site)
        coordinator = TestCoordinatorCheckpoint().make_coordinator()
        assert "history" not in snapshot_coordinator(coordinator)

    def test_site_history_survives_the_round_trip(self):
        site = self.make_history_site()
        feed(site, 0.0, 600, 1)
        feed(site, 40.0, 600, 2)
        assert len(site.history) >= 1
        clone = restore_site(snapshot_site(site))
        assert clone.history is not None
        assert list(clone.history.events) == list(clone.events)
        assert clone.history.scope == site.history.scope
        assert clone.history.summary() == site.history.summary()
        for t in range(0, site.position, 150):
            assert clone.history.model_at(t) == site.history.model_at(t)
        # The restored record keeps recording where the old one stopped,
        # exactly as the uninterrupted one does.
        feed(clone, 0.0, 600, 3)
        feed(site, 0.0, 600, 3)
        assert clone.history.last_tick == clone.position
        assert clone.history.reigns() == site.history.reigns()

    def test_history_survives_json_and_files(self, tmp_path):
        import json

        site = self.make_history_site()
        feed(site, 0.0, 900, 1)
        feed(site, 40.0, 600, 2)
        path = save_site(site, tmp_path / "site.json")
        with open(path) as handle:
            payload = json.load(handle)
        assert len(payload["history"]["reigns"]) == len(site.events) + 1
        clone = load_site(path)
        assert clone.history.reigns() == site.history.reigns()

    def test_coordinator_history_continues_across_a_restore(self):
        from repro.obs.history import ModelHistory

        def update(site_id: int, time: int) -> ModelUpdateMessage:
            return ModelUpdateMessage(
                site_id=site_id,
                model_id=time,
                time=time,
                mixture=mixture_at(float(site_id * 15)),
                count=1000,
                reference_likelihood=-1.0,
            )

        coordinator = TestCoordinatorCheckpoint().make_coordinator()
        coordinator.history = ModelHistory(scope="coordinator")
        for time in (100, 200):
            coordinator.handle_message(update(0, time))
        clone = restore_coordinator(
            json.loads(json.dumps(snapshot_coordinator(coordinator)))
        )
        for target in (coordinator, clone):
            for time in (200, 300, 400):
                target.handle_message(update(1, time))
        assert clone.history.to_dict() == coordinator.history.to_dict()
        assert len(clone.history) == 3

    def test_a_pyramid_checkpoint_still_restores(self):
        # A 1.17.0 checkpoint carries the pyramid under "history": the
        # pyramid is dropped, the site's record rebuilds on its event
        # table and the coordinator's starts afresh.
        site = self.make_history_site()
        feed(site, 0.0, 600, 1)
        feed(site, 40.0, 600, 2)
        payload = json.loads(json.dumps(snapshot_site(site)))
        payload["history"] = PYRAMID_HISTORY
        clone = restore_site(payload)
        assert list(clone.history.events) == list(clone.events)
        assert clone.history.scope == "site:0"
        assert len(clone.history) == len(site.events) >= 1
        record = clone.events[0]
        assert clone.history.model_at(record.start)["model"] == record.model_id
        feed(clone, 40.0, 600, 3)
        assert clone.history.model_at(clone.position - 1)["model"] == (
            clone.current_model.model_id
        )
        # The reign open at the checkpoint closes where the table does.
        feed(clone, 0.0, 600, 4)
        assert len(clone.events) > len(site.events)
        assert list(clone.history.events) == list(clone.events)

        coordinator = TestCoordinatorCheckpoint().make_coordinator()
        state = snapshot_coordinator(coordinator)
        state["history"] = dict(PYRAMID_HISTORY, scope="coordinator")
        restored = restore_coordinator(state)
        assert restored.history.scope == "coordinator"
        assert restored.history.reigns() == []
        restored.handle_message(ModelUpdateMessage(
            site_id=9, model_id=0, time=50, mixture=mixture_at(3.0),
            count=10, reference_likelihood=-1.0,
        ))
        assert restored.history.model_at(50)["summary"]["counters"][
            "model_updates"
        ] == restored.stats.model_updates
