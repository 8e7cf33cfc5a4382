"""Tests for the declarative cluster topology."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.cluster.spec import (
    ClusterSpec,
    NodeSpec,
    build_spec,
    load_spec,
    save_spec,
)
from repro.cluster.tree import TransportTree
from repro.core.serde import CodecConfig

#: Written by ``cludistream cluster ... --write-spec`` with these flags
#: before the per-node overrides left: every node carries their keys as
#: null.
SPEC_1_17_0 = Path(__file__).parent / "data" / "spec_1.17.0.json"
SPEC_1_17_0_FLAGS = [
    "--sites", "6", "--fanin", "3", "--base-port", "9100",
    "--stream", "netflow", "--records", "700", "--upload-threshold", "0.2",
    "--incremental", "--wire-codec", "cds2", "--quantize", "f32",
    "--delta-encoding", "--history",
]


class TestBuildSpec:
    def test_small_tree_shape(self):
        spec = build_spec(8, 4)
        assert len(spec.site_nodes) == 8
        assert len(spec.aggregators) == 3  # root + two gateways
        assert spec.depth == 2
        assert spec.root.node_id == 0

    def test_star_when_sites_fit_fanin(self):
        spec = build_spec(4, 8)
        assert len(spec.aggregators) == 1
        assert spec.depth == 1
        assert all(n.parent_id == 0 for n in spec.site_nodes)

    def test_thousand_site_tree_is_two_levels(self):
        spec = build_spec(1000, 32)
        assert len(spec.site_nodes) == 1000
        assert spec.depth == 2
        assert len(spec.aggregators) == 1 + 32
        # Every gateway's fan-in stays near the requested value.
        fanins = [len(spec.children(a.node_id)) for a in spec.aggregators
                  if not a.is_root]
        assert max(fanins) <= 32

    def test_forced_depth_one_is_flat(self):
        spec = build_spec(64, 4, depth=1)
        assert len(spec.aggregators) == 1
        assert all(n.parent_id == 0 for n in spec.site_nodes)

    def test_base_port_assigns_consecutive_ports(self):
        spec = build_spec(8, 4, base_port=9100)
        ports = {a.node_id: a.port for a in spec.aggregators}
        assert ports == {0: 9100, 1: 9101, 2: 9102}
        assert all(n.port == 0 for n in spec.site_nodes)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError, match="sites"):
            build_spec(0, 4)
        with pytest.raises(ValueError, match="fanin"):
            build_spec(4, 1)
        with pytest.raises(ValueError, match="depth"):
            build_spec(4, 2, depth=0)


class TestValidation:
    def test_two_roots_rejected(self):
        with pytest.raises(ValueError, match="exactly one root"):
            ClusterSpec(
                nodes=(
                    NodeSpec(node_id=0, role="aggregator"),
                    NodeSpec(node_id=1, role="aggregator"),
                )
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ClusterSpec(
                nodes=(
                    NodeSpec(node_id=0, role="aggregator"),
                    NodeSpec(
                        node_id=0, role="site", parent_id=0, level=1
                    ),
                )
            )

    def test_site_needs_aggregator_parent(self):
        with pytest.raises(ValueError, match="not an aggregator"):
            ClusterSpec(
                nodes=(
                    NodeSpec(node_id=0, role="aggregator"),
                    NodeSpec(node_id=1, role="site", parent_id=0, level=1),
                    NodeSpec(node_id=2, role="site", parent_id=1, level=2),
                )
            )

    def test_level_must_follow_parent(self):
        with pytest.raises(ValueError, match="level"):
            ClusterSpec(
                nodes=(
                    NodeSpec(node_id=0, role="aggregator"),
                    NodeSpec(node_id=1, role="site", parent_id=0, level=3),
                )
            )

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="role"):
            NodeSpec(node_id=0, role="coordinator")


class TestAccessors:
    def test_derived_configs(self):
        spec = build_spec(2, 2, clusters=4, dim=3, chunk=123,
                          merge_method="moment")
        site_config = spec.site_config()
        assert site_config.dim == 3
        assert site_config.em.n_components == 4
        assert site_config.chunk_override == 123
        coord = spec.coordinator_config()
        assert coord.max_components == 8
        assert coord.merge_method == "moment"

    def test_describe_mentions_shape(self):
        text = build_spec(8, 4).describe()
        assert "8 sites" in text
        assert "depth 2" in text


class TestSerialisation:
    def test_round_trip(self):
        spec = build_spec(
            8, 4, seed=3, clusters=4, stream="netflow", dim=6,
            merge_method="moment", upload_threshold=0.2,
        )
        assert ClusterSpec.from_dict(spec.to_dict()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = build_spec(4, 2, seed=11)
        path = save_spec(spec, tmp_path / "spec.json")
        assert load_spec(path) == spec

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError, match="not a cluster spec"):
            ClusterSpec.from_dict({"kind": "something", "format": 1})

    def test_unknown_format_rejected(self):
        payload = build_spec(2, 2).to_dict()
        payload["format"] = 99
        with pytest.raises(ValueError, match="format"):
            ClusterSpec.from_dict(payload)


class TestWireCodecs:
    def test_defaults_keep_the_v1_wire_format(self):
        spec = build_spec(4, 2)
        assert spec.wire_codec == "cds1"
        assert spec.quantize == "f64"
        assert spec.delta_encoding is False
        assert spec.codec_config() == CodecConfig(quantize="f64", delta=False)

    def test_spec_wide_codec_flows_to_every_node(self):
        spec = build_spec(
            4, 2, wire_codec="cds2", quantize="f32", delta_encoding=True
        )
        assert spec.codec_config() == CodecConfig(quantize="f32", delta=True)
        tree = TransportTree.from_spec(spec)
        try:
            levels = tree.level_stats()
        finally:
            tree.close()
        assert [level.level for level in levels] == [1, 2]
        assert all(level.codecs == ("cds2",) for level in levels)

    def test_delta_needs_cds2(self):
        # delta_encoding on a cds1 edge silently stays off: the v1
        # codec cannot express deltas and the spec must stay loadable.
        spec = build_spec(4, 2, delta_encoding=True)
        assert spec.codec_config().delta is False

    def test_invalid_codec_rejected_at_build_time(self):
        with pytest.raises(ValueError, match="unknown wire codec"):
            build_spec(4, 2, wire_codec="zstd")
        with pytest.raises(ValueError, match="cds2"):
            build_spec(4, 2, quantize="f16")  # quantizing needs cds2

    def test_codec_fields_round_trip(self):
        spec = build_spec(
            4, 2, wire_codec="cds2", quantize="f32", delta_encoding=True
        )
        assert ClusterSpec.from_dict(spec.to_dict()) == spec
        payload = spec.to_dict()
        assert payload["wire_codec"] == "cds2"
        assert payload["quantize"] == "f32"
        assert payload["delta_encoding"] is True

    def test_codec_fields_default_when_absent(self):
        # Specs written before the codec fields existed must still load.
        payload = build_spec(4, 2).to_dict()
        for key in ("wire_codec", "quantize", "delta_encoding"):
            payload.pop(key, None)
        spec = ClusterSpec.from_dict(payload)
        assert spec.wire_codec == "cds1"
        assert spec.delta_encoding is False


class TestRetiredNodeOverrides:
    """Every node runs the spec-wide settings; a spec file is outside
    input, so a per-node override in it is refused, not dropped."""

    @pytest.mark.parametrize(
        ("key", "value"),
        [
            ("upload_threshold", 0.4),
            ("stream", "netflow"),
            ("records", 7),
            ("incremental", True),
            ("wire_codec", "cds2"),
            ("quantize", "f16"),
        ],
    )
    def test_a_node_override_is_refused(self, key, value):
        payload = build_spec(4, 2).to_dict()
        payload["nodes"][3][key] = value
        with pytest.raises(ValueError, match=rf"node 3\b.*'{key}'"):
            ClusterSpec.from_dict(payload)

    def test_a_1_17_0_spec_loads_as_this_build_writes_it(self, tmp_path):
        path = tmp_path / "spec.json"
        assert main(
            ["cluster", *SPEC_1_17_0_FLAGS, "--write-spec", str(path)]
        ) == 0
        old = load_spec(SPEC_1_17_0)
        assert old == load_spec(path)
        assert old.to_dict() == json.loads(path.read_text())
        assert all(
            "incremental" in raw
            for raw in json.loads(SPEC_1_17_0.read_text())["nodes"]
        )


class TestHistoryFlag:
    def test_history_defaults_off(self):
        spec = build_spec(4, 8)
        assert spec.history is False

    def test_disabled_history_is_absent_from_the_wire(self):
        # Byte-identity pin: a spec without history serialises exactly
        # as it did before the flag existed.
        spec = build_spec(4, 8)
        assert "history" not in spec.to_dict()

    def test_enabled_history_round_trips(self):
        from dataclasses import replace

        spec = replace(build_spec(4, 8), history=True)
        payload = spec.to_dict()
        assert payload["history"] is True
        clone = ClusterSpec.from_dict(payload)
        assert clone.history is True
        assert ClusterSpec.from_dict(build_spec(4, 8).to_dict()).history is False
