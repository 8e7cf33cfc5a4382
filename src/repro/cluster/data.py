"""Per-site stream construction shared by the launcher and the soak.

Streams are seeded ``spec.seed + 100 + node_id`` -- the same convention
as the flat ``run`` command -- so a site's records are a pure function
of the spec.  That determinism is what lets the soak harness compare a
tree deployment against a flat single-coordinator reference, and lets a
crashed run replay its streams exactly on resume.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

import numpy as np

from repro.cluster.spec import ClusterSpec, NodeSpec

__all__ = ["make_stream", "site_records"]


def make_stream(spec: ClusterSpec, node: NodeSpec | int):
    """The (infinite) record stream observed by one site.

    ``node`` is a site node of ``spec`` or, for a spec read as a bare
    parameter bundle (``nodes=()``: the flat ``run`` and ``site``
    commands), just the site id.
    """
    if isinstance(node, NodeSpec):
        kind, site_id = spec.node_stream(node), node.node_id
    else:
        kind, site_id = spec.stream, node
    rng = np.random.default_rng(spec.seed + 100 + site_id)
    if kind == "netflow":
        from repro.streams.netflow import NetflowConfig, NetflowStreamGenerator

        return NetflowStreamGenerator(
            NetflowConfig(p_switch=spec.p_new), rng=rng
        )
    from repro.streams.synthetic import (
        EvolvingGaussianStream,
        EvolvingStreamConfig,
    )

    return EvolvingGaussianStream(
        EvolvingStreamConfig(
            dim=spec.dim,
            n_components=spec.clusters,
            p_new_distribution=spec.p_new,
        ),
        rng=rng,
    )


def site_records(spec: ClusterSpec, node: NodeSpec) -> Iterator[np.ndarray]:
    """The site's stream truncated to its record budget."""
    return islice(iter(make_stream(spec, node)), spec.node_records(node))
