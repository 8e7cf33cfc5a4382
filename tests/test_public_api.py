"""The stable public API surface.

``repro``'s top-level namespace is the library's compatibility
contract (DESIGN.md section 10): everything in ``__all__`` must be
importable, config constructors are keyword-only, and the runtime path
that replaced the removed ``run_simulation`` / ``run_over_transport``
shims raises no deprecation warning.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro


class TestTopLevelSurface:
    def test_every_exported_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        assert repro.__version__ == "1.16.0"

    def test_packaging_reads_the_version_attribute(self):
        # One place to bump: pyproject.toml must not carry its own copy.
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        text = pyproject.read_text()
        assert 'dynamic = ["version"]' in text
        assert 'version = { attr = "repro.__version__" }' in text
        assert "\nversion = \"" not in text

    def test_installed_metadata_agrees_with_the_version(self):
        # Build metadata is never tracked: a stale src/repro.egg-info
        # once made importlib.metadata report 1.0.0 under PYTHONPATH=src.
        from importlib import metadata

        try:
            installed = metadata.version("repro")
        except metadata.PackageNotFoundError:
            return
        assert installed == repro.__version__

    def test_codec_api_is_exported(self):
        # The 1.2 additions: the wire-codec registry and its types.
        for name in (
            "WireCodec",
            "CodecConfig",
            "CodecStats",
            "CodecError",
            "get_codec",
            "register_codec",
            "available_codecs",
        ):
            assert name in repro.__all__
        assert set(repro.available_codecs()) >= {"cds1", "cds2"}
        assert isinstance(repro.get_codec("cds2"), repro.WireCodec)

    def test_runtime_layer_is_exported(self):
        assert repro.Runtime.__module__.startswith("repro.runtime")
        for channel in (
            repro.DirectChannel,
            repro.SimulatedChannel,
            repro.TransportChannel,
        ):
            assert issubclass(channel, repro.Channel)

    def test_removed_bench_names_point_at_the_replacement(self):
        with pytest.raises(AttributeError, match="benchmarks/e2e/run.py"):
            repro.run_bench
        with pytest.raises(AttributeError, match="BENCH_comm.json"):
            repro.compare_benchmarks
        assert "run_bench" not in repro.__all__

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.does_not_exist


class TestKeywordOnlyConfigs:
    @pytest.mark.parametrize(
        "qualified",
        [
            "repro.core.em:EMConfig",
            "repro.core.remote:RemoteSiteConfig",
            "repro.core.coordinator:CoordinatorConfig",
            "repro.core.cludistream:CluDistreamConfig",
            # The baselines now live under benchmarks/paper; their ids keep
            # the package path they were published under, so they stay put.
            pytest.param(
                "benchmarks.paper.baselines.sampling:SamplingEMConfig",
                id="repro.baselines.sampling:SamplingEMConfig",
            ),
            pytest.param(
                "benchmarks.paper.baselines.sem:SEMConfig",
                id="repro.baselines.sem:SEMConfig",
            ),
            pytest.param(
                "benchmarks.paper.baselines.kmeans:StreamKMeansConfig",
                id="repro.baselines.kmeans:StreamKMeansConfig",
            ),
            pytest.param(
                "benchmarks.paper.baselines.periodic:PeriodicReporterConfig",
                id="repro.baselines.periodic:PeriodicReporterConfig",
            ),
            "repro.transport.reliability:ReliabilityConfig",
            "repro.transport.lossy:FaultConfig",
            "repro.streams.synthetic:EvolvingStreamConfig",
            "repro.streams.netflow:NetflowConfig",
            "repro.streams.drift:DriftConfig",
            "repro.streams.noise:NoiseConfig",
        ],
    )
    def test_positional_arguments_rejected(self, qualified):
        module_name, _, class_name = qualified.partition(":")
        module = __import__(module_name, fromlist=[class_name])
        config_cls = getattr(module, class_name)
        with pytest.raises(TypeError):
            config_cls(1)

    def test_keyword_construction_still_works(self):
        config = repro.EMConfig(n_components=3)
        assert config.n_components == 3


def _tiny_system():
    return repro.CluDistream(
        repro.CluDistreamConfig(
            n_sites=1,
            site=repro.RemoteSiteConfig(
                dim=2,
                em=repro.EMConfig(n_components=2, n_init=1, max_iter=5),
                chunk_override=20,
            ),
        ),
        seed=0,
    )


def _tiny_streams():
    rng = np.random.default_rng(0)
    return {0: [rng.normal(size=2) for _ in range(20)]}


class TestDeprecationShims:
    def test_runtime_path_does_not_warn(self):
        system = _tiny_system()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = system.runtime(repro.DirectChannel()).run(
                _tiny_streams(), max_records_per_site=20
            )
        assert report.records == 20


def _transport_channel(**keyword):
    from repro.transport.clock import ManualClock
    from repro.transport.loopback import LoopbackTransport

    return repro.TransportChannel(LoopbackTransport(), ManualClock(), **keyword)


class TestRemovedKeywords:
    """1.14.0 warned for the top-level keywords nothing sets; 1.15.0
    deletes them, so each is an unknown keyword (DESIGN.md section
    10.3)."""

    @pytest.mark.parametrize(
        "use, name",
        [
            (lambda: repro.Coordinator(history=None), "history"),
            (
                lambda: repro.select_k(np.zeros((4, 1)), (1, 2), initial=None),
                "initial",
            ),
            (lambda: _transport_channel(drain_step=7.0), "drain_step"),
            (lambda: _transport_channel(drain_limit=7.0), "drain_limit"),
            (lambda: repro.iter_chunks([], 4, drop_last=False), "drop_last"),
        ],
        ids=["history", "initial", "drain_step", "drain_limit", "drop_last"],
    )
    def test_a_removed_name_is_an_unknown_keyword(self, use, name):
        with pytest.raises(TypeError, match=name):
            use()
