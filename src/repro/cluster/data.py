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

from repro.cluster.spec import ClusterSpec

__all__ = ["make_stream", "site_records"]


def make_stream(spec: ClusterSpec, site_id: int):
    """The (infinite) record stream observed by site ``site_id``."""
    rng = np.random.default_rng(spec.seed + 100 + site_id)
    if spec.stream == "netflow":
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


def site_records(spec: ClusterSpec, site_id: int) -> Iterator[np.ndarray]:
    """The site's stream truncated to the spec's record budget."""
    return islice(iter(make_stream(spec, site_id)), spec.records_per_site)
