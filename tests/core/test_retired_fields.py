"""The keywords removed in 1.13.0 (DESIGN.md section 10.3).

1.12.0 kept seven configuration values as inert keywords for one
release, and ``SimulatedChannel(bandwidth=)`` has warned since 1.8.0;
1.13.0 deletes the names, so passing one is an unknown keyword like any
other.
"""

from __future__ import annotations

import pytest

from repro.core.cludistream import CluDistreamConfig
from repro.core.em import INCREMENTAL_STEPS, STEP_ALPHA, EMConfig
from repro.core.remote import RemoteSiteConfig
from repro.core.serde import BASELINE_DEPTH, CodecConfig
from repro.runtime import SimulatedChannel

#: (class the keyword lived on, keyword, a value 1.12.0 accepted).
REMOVED = [
    (RemoteSiteConfig, "reactivate_limit", 0),
    (RemoteSiteConfig, "auto_k", (1, 3)),
    (EMConfig, "step_alpha", 0.9),
    (EMConfig, "incremental_steps", 0),
    (CodecConfig, "coalesce_window", 1),
    (CodecConfig, "baseline_depth", 2),
    (CluDistreamConfig, "incremental", False),
    (SimulatedChannel, "bandwidth", 1e6),
]


@pytest.mark.parametrize(
    "cls, name, value", REMOVED, ids=[r[1] for r in REMOVED]
)
def test_a_removed_name_is_an_unknown_keyword(cls, name, value):
    with pytest.raises(TypeError, match=name):
        cls(**{name: value})


def test_the_constants_are_the_old_defaults():
    assert (BASELINE_DEPTH, STEP_ALPHA, INCREMENTAL_STEPS) == (8, 0.7, 2)
