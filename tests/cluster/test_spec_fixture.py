"""The JSON form of a :class:`ClusterSpec` against a checked-in file.

``to_dict`` / ``from_dict`` enumerate ``dataclasses.fields`` instead of
spelling every field name; ``data/spec_nondefault.json`` was written by
the hand-spelled version, with every spec-wide field away from its
default (its nodes' retired per-node override keys since removed).
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from repro.cluster import ClusterSpec, NodeSpec, load_spec

FIXTURE = Path(__file__).parent / "data" / "spec_nondefault.json"


class TestSpecFixture:
    def test_to_dict_equals_the_fixture_key_for_key_and_in_order(self):
        payload = json.loads(FIXTURE.read_text())
        ours = load_spec(FIXTURE).to_dict()
        assert ours == payload
        assert list(ours) == list(payload)
        for node, raw in zip(ours["nodes"], payload["nodes"]):
            assert list(node) == list(raw)
        assert json.dumps(ours, indent=2) == FIXTURE.read_text()

    def test_the_fixture_leaves_no_field_at_its_default(self):
        spec = load_spec(FIXTURE)
        for field in fields(ClusterSpec):
            if field.name != "nodes":
                assert getattr(spec, field.name) != field.default, field.name
        for field in fields(NodeSpec):
            values = {getattr(node, field.name) for node in spec.nodes}
            assert len(values) > 1, field.name

    def test_a_key_this_build_does_not_know_still_loads(self):
        payload = json.loads(FIXTURE.read_text())
        payload["gossip_fanout"] = 3
        payload["nodes"][0]["rack"] = "b7"
        assert ClusterSpec.from_dict(payload) == load_spec(FIXTURE)

    def test_a_key_an_old_spec_lacks_takes_the_default(self):
        payload = json.loads(FIXTURE.read_text())
        for key in ("incremental", "wire_codec", "quantize", "delta_encoding",
                    "history", "telemetry_interval"):
            del payload[key]
        spec = ClusterSpec.from_dict(payload)
        assert (spec.incremental, spec.wire_codec, spec.quantize) == (
            False, "cds1", "f64"
        )
        assert (spec.delta_encoding, spec.history) == (False, False)
        assert spec.telemetry_interval == 2.0
