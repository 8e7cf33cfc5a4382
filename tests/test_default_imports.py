"""A clustering process loads neither SciPy nor the HTTP stack.

The density passes (EM, fit tests, incremental absorption), both wire
codecs' decoders, the transport and the in-process trees run on NumPy
alone, and ``repro.obs`` imports its telemetry server and dashboard on
first use.  A fresh interpreter runs one of each and reports what it
loaded; the deprecated simplex merge fit, which still calls LAPACK
through SciPy, is not on any of these paths.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules no default path may load.
NOT_LOADED = ("scipy", "http.server", "urllib.request")

SCRIPT = """
import json
import sys

import numpy as np

import repro.numerics.linalg as linalg
from repro.cluster.tree import TransportTree
from repro.core.cludistream import CluDistream, CluDistreamConfig
from repro.core.coordinator import CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.remote import RemoteSite, RemoteSiteConfig
from repro.core.serde import CodecConfig
from repro.runtime import DirectChannel, TransportChannel
from repro.streams.base import take
from repro.streams.synthetic import EvolvingGaussianStream, EvolvingStreamConfig
from repro.transport.clock import ManualClock
from repro.transport.loopback import LoopbackTransport

solves = []
solve = linalg._solve_factor
linalg._solve_factor = lambda *args: solves.append(1) or solve(*args)


def site_config(incremental=False):
    return RemoteSiteConfig(
        dim=2, epsilon=0.05, delta=0.05, chunk_override=100,
        em=EMConfig(n_components=2, n_init=1, max_iter=30, tol=1e-3,
                    incremental=incremental),
    )


def streams(seed):
    return {
        site: take(
            EvolvingGaussianStream(
                EvolvingStreamConfig(dim=2, n_components=2, segment_length=100,
                                     p_new_distribution=0.8),
                rng=np.random.default_rng(seed + site),
            ),
            400,
        )
        for site in range(2)
    }


def run(channel, seed):
    system = CluDistream(
        CluDistreamConfig(n_sites=2, site=site_config(),
                          coordinator=CoordinatorConfig(max_components=4)),
        seed=seed,
    )
    system.runtime(channel).run(streams(seed), 400)
    return system.coordinator.global_mixture().n_components


components = {
    "direct": run(DirectChannel(), 0),
    "cds2_f32_delta": run(
        TransportChannel(
            LoopbackTransport(), ManualClock(), wire_codec="cds2",
            codec_config=CodecConfig(quantize="f32", delta=True),
        ),
        1,
    ),
}

site = RemoteSite(0, site_config(incremental=True), rng=np.random.default_rng(2))
rng = np.random.default_rng(3)
for _ in range(4):
    site.process_chunk(rng.normal(size=(100, 2)))
components["incremental"] = site.current_model.mixture.n_components
absorbed = site.stats.n_absorbed

tree = TransportTree(site_config=site_config(),
                     coordinator_config=CoordinatorConfig(max_components=4),
                     wire_codec="cds2")
tree.add_internal(0)
tree.add_internal(1, parent_id=0)
for leaf in (10, 11):
    tree.add_leaf(leaf, parent_id=1)
    for row in np.random.default_rng(leaf).normal(size=(300, 2)):
        tree.feed(leaf, row)
tree.drain()
components["tree"] = tree.global_mixture().n_components

print(json.dumps({
    "components": components,
    "absorbed": absorbed,
    "solves": len(solves),
    "loaded": [name for name in NOT_LOADED if name in sys.modules],
}))
"""


def test_a_clustering_process_loads_no_scipy_and_no_http_stack():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", f"NOT_LOADED = {NOT_LOADED!r}\n" + SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    # Every run ended in a model, the incremental site absorbed chunks,
    # and the density passes went through the NumPy substitution.
    assert all(count >= 1 for count in report["components"].values()), report
    assert report["absorbed"] >= 1 and report["solves"] > 0, report
    assert report["loaded"] == [], report
