"""Tests for the NFD-like synthetic net-flow generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.streams.base import take
from repro.streams.netflow import (
    SCHEMA,
    SERVICE_PORTS,
    NetflowConfig,
    NetflowStreamGenerator,
)


class TestNetflowConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            NetflowConfig(n_regimes=0)
        with pytest.raises(ValueError):
            NetflowConfig(services_per_regime=0)
        with pytest.raises(ValueError):
            NetflowConfig(p_switch=2.0)
        with pytest.raises(ValueError):
            NetflowConfig(client_noise=0.0)


class TestGenerator:
    def test_schema_dimensionality(self):
        generator = NetflowStreamGenerator(rng=np.random.default_rng(0))
        assert generator.dim == 6
        assert len(SCHEMA) == 6
        block = take(generator, 100)
        assert block.shape == (100, 6)

    def test_records_are_normalised(self):
        generator = NetflowStreamGenerator(rng=np.random.default_rng(1))
        block = take(generator, 5000)
        assert np.all(block >= 0.0)
        assert np.all(block <= 1.0)

    def test_reproducible_under_fixed_seed(self):
        a = take(NetflowStreamGenerator(rng=np.random.default_rng(2)), 500)
        b = take(NetflowStreamGenerator(rng=np.random.default_rng(2)), 500)
        assert np.array_equal(a, b)

    def test_destination_ports_cluster_on_services(self):
        generator = NetflowStreamGenerator(
            NetflowConfig(client_noise=0.001),
            rng=np.random.default_rng(3),
        )
        block = take(generator, 2000)
        dst_ports = block[:, 3] * 65535
        service_ports = np.array(SERVICE_PORTS, dtype=float)
        distances = np.min(
            np.abs(dst_ports[:, None] - service_ports[None, :]), axis=1
        )
        # Low jitter: most flows sit within a few hundred port numbers
        # of a well-known service.
        assert np.median(distances) < 300.0

    def test_bytes_correlate_with_packets(self):
        generator = NetflowStreamGenerator(rng=np.random.default_rng(4))
        block = take(generator, 5000)
        corr = np.corrcoef(block[:, 4], block[:, 5])[0, 1]
        assert corr > 0.5

    def test_regime_switches_recorded(self):
        config = NetflowConfig(segment_length=200, p_switch=0.5)
        generator = NetflowStreamGenerator(config, np.random.default_rng(5))
        take(generator, 4000)  # 20 segments
        assert len(generator.regime_history) == 20
        regimes = [r for _, r in generator.regime_history]
        assert len(set(regimes)) > 1

    def test_p_switch_zero_keeps_one_regime(self):
        config = NetflowConfig(segment_length=200, p_switch=0.0)
        generator = NetflowStreamGenerator(config, np.random.default_rng(6))
        take(generator, 2000)
        regimes = {r for _, r in generator.regime_history}
        assert len(regimes) == 1

    def test_different_regimes_produce_different_data(self):
        config = NetflowConfig(segment_length=1000, p_switch=1.0, n_regimes=4)
        generator = NetflowStreamGenerator(config, np.random.default_rng(7))
        first = take(generator, 1000)
        # Walk forward until the regime actually changes.
        second = take(generator, 1000)
        r0 = generator.regime_history[0][1]
        r1 = generator.regime_history[1][1]
        assert r0 != r1
        # Means of the service-driven attributes should differ.
        gap = np.abs(first.mean(axis=0) - second.mean(axis=0)).max()
        assert gap > 0.01

    def test_snapshot_helper(self):
        generator = NetflowStreamGenerator(rng=np.random.default_rng(8))
        block = generator.snapshot(50)
        assert block.shape == (50, 6)
