"""The configuration values retired in 1.12.0 (DESIGN.md section 10.3).

Each stays for one release as an inert keyword: setting it away from
its default emits exactly one ``DeprecationWarning`` that names the
replacement, and a run with it set ends in the state of a run without
it.  1.13.0 deletes the names.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.core.cludistream import CluDistream, CluDistreamConfig
from repro.core.coordinator import CoordinatorConfig
from repro.core.em import INCREMENTAL_STEPS, STEP_ALPHA, EMConfig
from repro.core.remote import RemoteSiteConfig
from repro.core.serde import BASELINE_DEPTH, CodecConfig
from repro.io.checkpoint import snapshot_coordinator, snapshot_site
from repro.runtime import TransportChannel
from repro.streams.synthetic import EvolvingGaussianStream, EvolvingStreamConfig
from repro.transport.clock import ManualClock
from repro.transport.loopback import LoopbackTransport
from tests.transport.test_wire import Harness, update

#: (config the field lives on, field, a non-default value, a phrase of
#: the replacement the warning must name).
RETIRED = [
    ("site", "reactivate_limit", 0, "c_max"),
    ("site", "auto_k", (1, 3), "select_k"),
    ("em", "step_alpha", 0.9, "STEP_ALPHA"),
    ("em", "incremental_steps", 0, "INCREMENTAL_STEPS"),
    ("codec", "coalesce_window", 1, "no replacement"),
    ("codec", "baseline_depth", 2, "BASELINE_DEPTH"),
    ("system", "incremental", False, "EMConfig(incremental"),
]


def run(retired: dict[str, dict] | None = None) -> tuple:
    """Two incremental sites over a delta-coded ARQ channel, then one
    hand-cranked codec edge; ``retired`` adds keywords to the config
    named by its key.  Returns everything both runs end with."""
    retired = retired or {}
    codec_config = CodecConfig(delta=True, **retired.get("codec", {}))
    em = EMConfig(
        n_components=2, n_init=1, max_iter=25, incremental=True,
        **retired.get("em", {}),
    )
    site = RemoteSiteConfig(
        dim=2, epsilon=0.1, delta=0.05, c_max=3, em=em, chunk_override=120,
        **retired.get("site", {}),
    )
    config = CluDistreamConfig(
        n_sites=2,
        site=site,
        coordinator=CoordinatorConfig(max_components=3, merge_method="moment"),
        **retired.get("system", {}),
    )
    system = CluDistream(config, seed=3)
    channel = TransportChannel(
        LoopbackTransport(),
        ManualClock(),
        wire_codec="cds2",
        codec_config=codec_config,
    )
    streams = {
        i: EvolvingGaussianStream(
            EvolvingStreamConfig(
                dim=2, n_components=2, segment_length=360, p_new_distribution=0.5
            ),
            rng=np.random.default_rng(40 + i),
        )
        for i in range(2)
    }
    report = system.runtime(channel).run(streams, max_records_per_site=1200)
    state = json.dumps(
        [snapshot_coordinator(system.coordinator)]
        + [snapshot_site(s) for s in system.sites],
        sort_keys=True,
    )
    return state, report.accounting, unacked_updates(codec_config)


def unacked_updates(codec_config: CodecConfig) -> tuple:
    """One acknowledged model update, then a burst nobody acknowledges:
    the channel above settles every send, so only this exercises a
    send window or a stale delta baseline."""
    edge = Harness(codec="cds2", config=codec_config)
    edge.codec_sender.send(update(1))
    edge.roundtrip()
    for model_id in range(2, 2 + BASELINE_DEPTH + 2):
        edge.codec_sender.send(update(model_id, shift=0.1 * model_id))
    frames = list(edge.uplink)
    edge.deliver_data()
    delivered = [m.model_id for m in edge.delivered]
    return frames, delivered, edge.codec_sender.stats.as_dict()


@pytest.fixture(scope="module")
def default_run():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return run()


@pytest.mark.parametrize(
    "where, name, value, replacement", RETIRED, ids=[r[1] for r in RETIRED]
)
def test_one_warning_and_the_default_run(
    default_run, where, name, value, replacement
):
    with pytest.warns(DeprecationWarning) as caught:
        retired_run = run({where: {name: value}})
    warned = [w for w in caught if issubclass(w.category, DeprecationWarning)]
    assert len(warned) == 1
    message = str(warned[0].message)
    assert name in message and replacement in message
    assert retired_run == default_run


def test_the_constants_are_the_old_defaults():
    assert (BASELINE_DEPTH, STEP_ALPHA, INCREMENTAL_STEPS) == (8, 0.7, 2)


def test_a_retired_value_is_reset_to_its_default():
    with pytest.warns(DeprecationWarning):
        config = RemoteSiteConfig(reactivate_limit=0)
    assert config == RemoteSiteConfig()
