"""Tests for the coordinator (Algorithm 2)."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.coordinator import Coordinator, CoordinatorConfig
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.protocol import (
    DeletionMessage,
    ModelUpdateMessage,
    WeightUpdateMessage,
)


def site_mixture(center: np.ndarray) -> GaussianMixture:
    """A two-component site model around ``center``."""
    return GaussianMixture(
        np.array([0.6, 0.4]),
        (
            Gaussian.spherical(center, 0.5),
            Gaussian.spherical(center + np.array([0.0, 4.0]), 0.5),
        ),
    )


def model_update(
    site_id: int, model_id: int, mixture: GaussianMixture, count: int = 1000
) -> ModelUpdateMessage:
    return ModelUpdateMessage(
        site_id=site_id,
        model_id=model_id,
        time=count,
        mixture=mixture,
        count=count,
        reference_likelihood=-1.0,
    )


@pytest.fixture
def coordinator() -> Coordinator:
    return Coordinator(
        CoordinatorConfig(max_components=4, merge_method="moment"),
        rng=np.random.default_rng(0),
    )


class TestModelUpdates:
    def test_first_update_creates_clusters(self, coordinator: Coordinator):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)))
        )
        assert coordinator.n_components >= 1
        assert coordinator.stats.model_updates == 1
        mixture = coordinator.global_mixture()
        assert mixture.dim == 2

    def test_same_distribution_sites_share_clusters(
        self, coordinator: Coordinator
    ):
        # Ten sites reporting near-identical models must NOT produce
        # ten times the components (the r*K blow-up of section 5.2).
        for site_id in range(10):
            jitter = np.full(2, 0.01 * site_id)
            coordinator.handle_message(
                model_update(site_id, 0, site_mixture(jitter))
            )
        assert coordinator.n_components <= 4

    def test_distinct_distributions_stay_separate(
        self, coordinator: Coordinator
    ):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)))
        )
        coordinator.handle_message(
            model_update(1, 0, site_mixture(np.array([50.0, 50.0])))
        )
        mixture = coordinator.global_mixture()
        means = np.stack([c.mean for c in mixture.components])
        spread = np.linalg.norm(means.max(axis=0) - means.min(axis=0))
        assert spread > 10.0

    def test_replacement_update_removes_old_leaves(
        self, coordinator: Coordinator
    ):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)))
        )
        count_before = len(coordinator.full_mixture().components)
        # The same (site, model) reports again: leaves replaced, not added.
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.ones(2)))
        )
        assert len(coordinator.full_mixture().components) == count_before

    def test_full_mixture_is_leaf_union(self, coordinator: Coordinator):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)))
        )
        coordinator.handle_message(
            model_update(1, 0, site_mixture(np.array([30.0, 0.0])))
        )
        full = coordinator.full_mixture()
        assert full.n_components == 4  # 2 sites × 2 components

    def test_empty_coordinator_has_no_mixture(self, coordinator: Coordinator):
        with pytest.raises(ValueError, match="no models"):
            coordinator.global_mixture()
        with pytest.raises(ValueError, match="no models"):
            coordinator.full_mixture()


class TestWeightUpdates:
    def test_weight_update_scales_leaf_masses(self, coordinator: Coordinator):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)), count=1000)
        )
        before = sum(cluster.weight for cluster in coordinator.clusters)
        coordinator.handle_message(
            WeightUpdateMessage(site_id=0, model_id=0, time=2, count_delta=1000)
        )
        after = sum(cluster.weight for cluster in coordinator.clusters)
        assert after == pytest.approx(2.0 * before)
        assert coordinator.stats.weight_updates == 1

    def test_weight_update_for_unknown_model_rejected(
        self, coordinator: Coordinator
    ):
        with pytest.raises(KeyError, match="unknown model"):
            coordinator.handle_message(
                WeightUpdateMessage(site_id=9, model_id=9, time=0, count_delta=5)
            )


class TestDeletions:
    def test_deletion_reduces_weight(self, coordinator: Coordinator):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)), count=1000)
        )
        before = sum(cluster.weight for cluster in coordinator.clusters)
        coordinator.handle_message(
            DeletionMessage(site_id=0, model_id=0, time=3, count_delta=500)
        )
        after = sum(cluster.weight for cluster in coordinator.clusters)
        assert after == pytest.approx(0.5 * before)

    def test_full_deletion_drops_the_model(self, coordinator: Coordinator):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)), count=1000)
        )
        coordinator.handle_message(
            DeletionMessage(site_id=0, model_id=0, time=3, count_delta=1000)
        )
        assert (0, 0) not in coordinator.site_models
        with pytest.raises(ValueError):
            coordinator.global_mixture()

    def test_deletion_of_unknown_model_is_ignored(
        self, coordinator: Coordinator
    ):
        coordinator.handle_message(
            DeletionMessage(site_id=5, model_id=5, time=0, count_delta=10)
        )  # must not raise
        assert coordinator.stats.deletions == 1


class TestMergeCap:
    def test_component_cap_enforced(self):
        coordinator = Coordinator(
            CoordinatorConfig(max_components=3, merge_method="moment"),
            rng=np.random.default_rng(1),
        )
        for site_id in range(6):
            center = np.array([float(site_id * 20), 0.0])
            coordinator.handle_message(
                model_update(site_id, 0, site_mixture(center))
            )
        assert coordinator.n_components <= 3
        assert coordinator.stats.merges > 0

    def test_unbounded_mode_never_merges(self):
        coordinator = Coordinator(
            CoordinatorConfig(max_components=None),
            rng=np.random.default_rng(1),
        )
        for site_id in range(5):
            center = np.array([float(site_id * 20), 0.0])
            coordinator.handle_message(
                model_update(site_id, 0, site_mixture(center))
            )
        assert coordinator.stats.merges == 0
        assert coordinator.n_components >= 5

    def test_simplex_merge_method_works(self):
        with pytest.warns(DeprecationWarning):
            config = CoordinatorConfig(
                max_components=2, merge_method="simplex", merge_samples=256
            )
        coordinator = Coordinator(config, rng=np.random.default_rng(1))
        for site_id in range(4):
            center = np.array([float(site_id * 15), 0.0])
            coordinator.handle_message(
                model_update(site_id, 0, site_mixture(center))
            )
        assert coordinator.n_components <= 2


class TestMergeMethodDeprecation:
    """1.17.0 makes moment pools the default and deprecates the simplex
    (DESIGN.md section 10.3)."""

    def test_the_simplex_warns_once_naming_its_removal(self):
        with pytest.warns(DeprecationWarning, match="1.18.0") as caught:
            CoordinatorConfig(merge_method="simplex")
        assert len(caught) == 1
        assert "benchmarks/paper/merging.py" in str(caught[0].message)

    def test_a_spec_reaches_the_warning_through_its_config(self):
        from repro.cluster import ClusterSpec

        spec = ClusterSpec(merge_method="simplex")
        with pytest.warns(DeprecationWarning, match="simplex"):
            spec.coordinator_config()

    def test_the_default_config_does_not_warn(self):
        from repro.cluster import ClusterSpec

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = CoordinatorConfig()
            spec_config = ClusterSpec().coordinator_config()
        assert config.merge_method == spec_config.merge_method == "moment"


class TestAlgorithm2:
    def test_drifted_component_gets_split_and_rehomed(self):
        coordinator = Coordinator(
            CoordinatorConfig(
                max_components=None, attach_threshold=30.0
            ),
            rng=np.random.default_rng(2),
        )
        base = site_mixture(np.zeros(2))
        coordinator.handle_message(model_update(0, 0, base))
        coordinator.handle_message(model_update(1, 0, base))
        # Site 1's model drifts far away; on its update the split check
        # should relocate its leaves out of the shared clusters.
        drifted = site_mixture(np.array([80.0, 80.0]))
        coordinator.handle_message(model_update(1, 0, drifted))
        mixture = coordinator.global_mixture()
        means = np.stack([c.mean for c in mixture.components])
        assert means[:, 0].max() > 50.0  # drifted mass separated

    def test_on_updates_counts_splits(self, coordinator: Coordinator):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)))
        )
        splits = coordinator.on_updates(0)
        assert splits >= 0  # smoke: no crash, count consistent
        assert coordinator.stats.splits >= splits


class TestAccounting:
    def test_bytes_received_accumulate(self, coordinator: Coordinator):
        message = model_update(0, 0, site_mixture(np.zeros(2)))
        coordinator.handle_message(message)
        assert coordinator.stats.bytes_received == message.payload_bytes()

    def test_memory_bytes_positive_after_updates(
        self, coordinator: Coordinator
    ):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)))
        )
        assert coordinator.memory_bytes() > 0

    def test_unsupported_message_type_rejected(
        self, coordinator: Coordinator
    ):
        from repro.core.protocol import Message

        with pytest.raises(TypeError, match="unsupported"):
            coordinator.handle_message(Message(site_id=0, model_id=0, time=0))


class TestLandmarkMixture:
    def test_spans_all_reported_models(self, coordinator: Coordinator):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)), count=3000)
        )
        coordinator.handle_message(
            model_update(0, 1, site_mixture(np.array([40.0, 0.0])), count=1000)
        )
        landmark = coordinator.landmark_mixture()
        assert landmark.n_components == 4  # 2 models x 2 components
        mass_near_origin = sum(
            w for w, c in landmark if c.mean[0] < 20.0
        )
        assert mass_near_origin == pytest.approx(0.75, abs=0.01)

    def test_empty_coordinator_rejected(self, coordinator: Coordinator):
        with pytest.raises(ValueError, match="no models"):
            coordinator.landmark_mixture()

    def test_deleted_models_excluded(self, coordinator: Coordinator):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)), count=1000)
        )
        coordinator.handle_message(
            model_update(1, 0, site_mixture(np.array([40.0, 0.0])), count=500)
        )
        coordinator.handle_message(
            DeletionMessage(site_id=1, model_id=0, time=1, count_delta=500)
        )
        landmark = coordinator.landmark_mixture()
        assert landmark.n_components == 2
