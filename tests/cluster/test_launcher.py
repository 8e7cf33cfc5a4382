"""End-to-end multi-process deployments (small trees, real TCP).

Each test spawns actual worker processes via the ``spawn`` context, so
the configs stay tiny: a handful of sites, a few hundred records.  The
acceptance-scale runs (8 sites, 1000-site soak) live in the CI smoke
job and the ``cludistream cluster`` command.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.cluster.launcher import ClusterLauncher, ClusterLaunchError
from repro.cluster.spec import build_spec


def small_spec(**overrides):
    params = dict(
        seed=3,
        dim=2,
        clusters=2,
        epsilon=0.3,
        delta=0.1,
        chunk=100,
        records_per_site=200,
        p_new=0.0,
        merge_method="moment",
    )
    params.update(overrides)
    return build_spec(4, 2, **params)


class TestLaunchAndWait:
    def test_tree_runs_to_completion(self, tmp_path):
        spec = small_spec()
        launcher = ClusterLauncher(spec, checkpoint_dir=tmp_path)
        ports = launcher.launch()
        try:
            # Ephemeral binds surfaced real ports for every aggregator.
            assert set(ports) == {a.node_id for a in spec.aggregators}
            assert all(port > 0 for port in ports.values())
            result = launcher.wait(timeout=120.0)
        finally:
            launcher.shutdown()
        assert set(result.exit_codes.values()) == {0}, result.exit_codes
        assert result.root_summary is not None
        assert result.root_summary["completed"] is True
        assert result.root_summary["components"] >= 1

        # Every aggregator checkpointed and wrote an endpoint manifest
        # carrying its actually bound port (ISSUE satellite 1).
        for agg in spec.aggregators:
            checkpoint = tmp_path / f"aggregator-{agg.node_id}.json"
            assert checkpoint.exists()
            manifest = json.loads(
                (tmp_path / f"node-{agg.node_id}.manifest.json").read_text()
            )
            assert manifest["kind"] == "cluster_node"
            assert manifest["endpoints"]["tcp"]["port"] == ports[agg.node_id]

    def test_shutdown_mid_run_is_clean(self):
        spec = small_spec(records_per_site=200_000, chunk=500)
        launcher = ClusterLauncher(spec)
        launcher.launch()
        assert len(launcher.alive()) == len(spec.nodes)
        launcher.shutdown()
        assert launcher.alive() == ()


class TestLaunchFailures:
    def test_occupied_port_raises_launch_error(self):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            spec = small_spec(base_port=port)
            launcher = ClusterLauncher(spec)
            with pytest.raises(ClusterLaunchError, match="cannot bind"):
                launcher.launch()
            assert launcher.alive() == ()
        finally:
            blocker.close()

class TestResume:
    def test_resume_restarts_from_checkpoints(self, tmp_path):
        spec = small_spec()
        first = ClusterLauncher(spec, checkpoint_dir=tmp_path)
        first.launch()
        try:
            assert set(first.wait(timeout=120.0).exit_codes.values()) == {0}
        finally:
            first.shutdown()

        # Relaunch the same spec from the checkpoints: aggregators come
        # back with their model state and continue serving.
        second = ClusterLauncher(spec, checkpoint_dir=tmp_path, resume=True)
        second.launch()
        try:
            result = second.wait(timeout=120.0)
        finally:
            second.shutdown()
        assert set(result.exit_codes.values()) == {0}, result.exit_codes
        assert result.root_summary is not None
        assert result.root_summary["components"] >= 1
