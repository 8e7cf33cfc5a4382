"""Tests for the 1-d visual stream behind Figures 3-4."""

from __future__ import annotations

import numpy as np
import pytest

from repro.streams.visual import one_dimensional_phases


class TestVisualStreamPhases:
    def test_three_phases_by_default(self):
        phases = one_dimensional_phases()
        assert phases.n_phases == 3
        assert phases.horizon == 2000
        assert phases.total_records == 6000

    def test_phase_mixtures_are_one_dimensional_trimodal(self):
        phases = one_dimensional_phases()
        for mixture in phases.mixtures:
            assert mixture.dim == 1
            assert mixture.n_components == 3

    def test_phases_are_genuinely_different(self, rng):
        phases = one_dimensional_phases()
        data0 = phases.phase_data(0, rng)
        # Phase 0's own model should beat phase 1's model on phase 0 data.
        own = phases.mixtures[0].average_log_likelihood(data0)
        other = phases.mixtures[1].average_log_likelihood(data0)
        assert own > other

    def test_phase_data_shape(self, rng):
        phases = one_dimensional_phases(horizon=500)
        assert phases.phase_data(1, rng).shape == (500, 1)

    def test_phase_index_validated(self, rng):
        phases = one_dimensional_phases()
        with pytest.raises(IndexError):
            phases.phase_data(3, rng)

    def test_stream_concatenates_phases(self, rng):
        phases = one_dimensional_phases(horizon=100)
        records = list(phases.stream(rng))
        assert len(records) == 300
        assert records[0].shape == (1,)

    def test_repeats_cycle_the_phases(self):
        phases = one_dimensional_phases(horizon=50, repeats=2)
        assert phases.n_phases == 6
        # Phase 0 and phase 3 are the same ground-truth mixture.
        assert phases.mixtures[0] == phases.mixtures[3]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            one_dimensional_phases(horizon=0)
        with pytest.raises(ValueError):
            one_dimensional_phases(repeats=0)

    def test_phase_histograms_differ(self, rng):
        """The Figure 3 premise: the three phase histograms have
        visibly different shapes."""
        phases = one_dimensional_phases()
        edges = np.linspace(-8, 8, 33)
        hists = [
            np.histogram(phases.phase_data(i, rng).ravel(), bins=edges)[0]
            for i in range(3)
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                overlap = np.minimum(hists[i], hists[j]).sum() / 2000
                assert overlap < 0.9
