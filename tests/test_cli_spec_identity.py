"""Parameter oracle for the one deployment description.

``run``, ``site`` and ``cluster`` used to build their site, coordinator
and codec configs and their streams by hand, each in its own copy; they
now read them off the :class:`~repro.cluster.ClusterSpec` that
``cli._spec_from_flags`` builds.  The hand-built constructions are kept
here, test-only, exactly as the parent commit spelled them (the style of
``tests/core/*_oracle.py``): for representative flag sets the spec-built
configs must *equal* them and every site stream must start with the same
records -- which is what makes every seeded invocation print what it
printed before.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import _spec_from_flags, build_parser, main
from repro.cluster import build_spec, load_spec, make_stream
from repro.core.coordinator import CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.remote import RemoteSiteConfig
from repro.core.serde import CodecConfig
from repro.streams.base import take
from repro.streams.netflow import NetflowConfig, NetflowStreamGenerator
from repro.streams.synthetic import EvolvingGaussianStream, EvolvingStreamConfig


# ----------------------------------------------------------------------
# The parent's constructions, verbatim
# ----------------------------------------------------------------------
def parent_site_config(args, dim: int) -> RemoteSiteConfig:
    return RemoteSiteConfig(
        dim=dim,
        epsilon=args.epsilon,
        delta=args.delta,
        em=EMConfig(
            n_components=args.clusters,
            n_init=1,
            max_iter=40,
            incremental=args.incremental,
        ),
        chunk_override=args.chunk,
    )


def parent_stream(args, dim: int, site_id: int):
    rng = np.random.default_rng(args.seed + 100 + site_id)
    if args.stream == "netflow":
        return NetflowStreamGenerator(
            NetflowConfig(p_switch=args.p_new), rng=rng
        )
    return EvolvingGaussianStream(
        EvolvingStreamConfig(
            dim=dim,
            n_components=args.clusters,
            p_new_distribution=args.p_new,
        ),
        rng=rng,
    )


def parent_cluster_spec(args):
    return build_spec(
        args.sites if args.sites is not None else 8,
        args.fanin if args.fanin is not None else 4,
        depth=args.depth,
        base_port=args.base_port,
        host=args.host,
        seed=args.seed,
        clusters=args.clusters,
        dim=6 if args.stream == "netflow" else args.dim,
        epsilon=args.epsilon,
        delta=args.delta,
        chunk=args.chunk,
        stream=args.stream,
        records_per_site=args.records if args.records is not None else 2000,
        p_new=args.p_new,
        upload_threshold=args.upload_threshold,
        merge_method=args.merge_method,
        incremental=args.incremental,
        wire_codec=args.wire_codec,
        quantize=args.quantize,
        delta_encoding=args.delta_encoding,
    )


def same_first_records(ours, theirs, n: int = 8) -> None:
    np.testing.assert_array_equal(take(ours, n), take(theirs, n))


def parse(argv):
    return build_parser().parse_args(argv)


# ----------------------------------------------------------------------
RUN_FLAGS = [
    [],
    ["--sites", "3", "--clusters", "4", "--chunk", "300", "--seed", "3"],
    ["--stream", "netflow", "--incremental", "--p-new", "0.3", "--seed", "5",
     "--epsilon", "0.1", "--delta", "0.02"],
]


@pytest.mark.parametrize("flags", RUN_FLAGS)
def test_run_builds_what_the_parent_built(flags):
    args = parse(["run"] + flags)
    spec = _spec_from_flags(args)
    dim = 6 if args.stream == "netflow" else 4
    assert spec.site_config() == parent_site_config(args, dim)
    assert spec.coordinator_config() == CoordinatorConfig(
        max_components=2 * args.clusters
    )
    for site_id in range(args.sites):
        same_first_records(
            make_stream(spec, site_id), parent_stream(args, dim, site_id)
        )


SITE_FLAGS = [
    [],
    ["--site-id", "2", "--dim", "3", "--clusters", "2", "--seed", "9",
     "--wire-codec", "cds2", "--quantize", "f16", "--delta-encoding"],
    ["--stream", "netflow", "--dim", "3", "--incremental", "--chunk", "250",
     "--wire-codec", "cds2"],
]


@pytest.mark.parametrize("flags", SITE_FLAGS)
def test_site_builds_what_the_parent_built(flags):
    args = parse(["site", "--port", "1"] + flags)
    spec = _spec_from_flags(args)
    dim = 6 if args.stream == "netflow" else args.dim
    assert spec.site_config() == parent_site_config(args, dim)
    assert spec.wire_codec == args.wire_codec
    assert spec.codec_config() == CodecConfig(
        quantize=args.quantize, delta=args.delta_encoding
    )
    same_first_records(
        make_stream(spec, args.site_id), parent_stream(args, dim, args.site_id)
    )
    assert spec.records_per_site == args.records


CLUSTER_FLAGS = [
    [],
    ["--sites", "5", "--fanin", "2", "--seed", "4", "--wire-codec", "cds2",
     "--quantize", "f32", "--delta-encoding", "--incremental"],
    ["--sites", "6", "--fanin", "3", "--depth", "1", "--base-port", "9100",
     "--stream", "netflow", "--dim", "3", "--records", "700",
     "--merge-method", "moment", "--upload-threshold", "0.2",
     "--host", "localhost", "--clusters", "2", "--chunk", "200"],
]


@pytest.mark.parametrize("flags", CLUSTER_FLAGS)
def test_cluster_builds_what_the_parent_built(flags, tmp_path):
    path = tmp_path / "spec.json"
    assert main(["cluster"] + flags + ["--write-spec", str(path)]) == 0
    spec = load_spec(path)
    args = parse(["cluster"] + flags)
    parent = parent_cluster_spec(args)
    assert spec == parent
    assert spec.site_config() == parent_site_config(args, parent.dim)
    assert spec.coordinator_config() == CoordinatorConfig(
        max_components=2 * args.clusters, merge_method=args.merge_method
    )
    for node in spec.site_nodes:
        same_first_records(
            make_stream(spec, node.node_id),
            parent_stream(args, spec.dim, node.node_id),
        )
