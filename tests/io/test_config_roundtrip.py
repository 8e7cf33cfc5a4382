"""Every configuration field survives a checkpoint.

Each field of :class:`RemoteSiteConfig`, :class:`EMConfig` and
:class:`CoordinatorConfig` is set away from its default, one at a time,
and ``restore_*(snapshot_*(x))`` must hand it back unchanged.  A field
added to one of the three classes without a non-default value here
fails the test, and so does one the checkpoint forgets to write.

A key an older checkpoint stored for a field this build no longer has
is dropped on restore, leaving the state a clean checkpoint restores to.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro.core.coordinator import Coordinator, CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.remote import RemoteSite, RemoteSiteConfig
from repro.core.testing import LikelihoodVariant
from repro.io.checkpoint import (
    restore_coordinator,
    restore_site,
    snapshot_coordinator,
    snapshot_site,
)

NON_DEFAULT = {
    RemoteSiteConfig: {
        "dim": 3,
        "epsilon": 0.05,
        "delta": 0.02,
        "c_max": 2,
        "em": EMConfig(n_components=3),
        "variant": LikelihoodVariant.MAX_COMPONENT,
        "warm_start": True,
        "adaptive_test": False,
        "handle_missing": True,
        "reference_holdout": 0.1,
        "archive_limit": 5,
        "event_limit": 7,
        "chunk_override": 150,
    },
    EMConfig: {
        "n_components": 3,
        "tol": 1e-3,
        "max_iter": 50,
        "n_init": 3,
        "diagonal": True,
        "covariance_ridge": 1e-5,
        "init": "random",
        "incremental": True,
    },
    CoordinatorConfig: {
        "max_components": 7,
        "merge_method": "simplex",
        "merge_samples": 256,
        "attach_threshold": 3.0,
        "tolerate_loss": True,
    },
}


def round_trip_site(config: RemoteSiteConfig) -> RemoteSiteConfig:
    site = RemoteSite(0, config, rng=np.random.default_rng(0))
    return restore_site(snapshot_site(site)).config


def round_trip(cls, name: str, value):
    if cls is CoordinatorConfig:
        config = CoordinatorConfig(**{name: value})
        coordinator = Coordinator(config, rng=np.random.default_rng(0))
        return config, restore_coordinator(snapshot_coordinator(coordinator)).config
    if cls is EMConfig:
        config = RemoteSiteConfig(em=EMConfig(**{name: value}))
    else:
        config = RemoteSiteConfig(**{name: value})
    return config, round_trip_site(config)


CASES = [
    pytest.param(cls, spec.name, id=f"{cls.__name__}.{spec.name}")
    for cls in NON_DEFAULT
    for spec in dataclasses.fields(cls)
]


@pytest.mark.parametrize("cls, name", CASES)
def test_a_non_default_field_survives_a_checkpoint(cls, name):
    value = NON_DEFAULT[cls][name]
    default = cls()
    assert getattr(default, name) != value
    config, restored = round_trip(cls, name, value)
    assert restored == config
    inner = restored.em if cls is EMConfig else restored
    assert getattr(inner, name) == value


#: Keys older checkpoints carry and a restore drops: (section, key, a
#: value an older build wrote).
DROPPED = [
    ("site", "reactivate_limit", 2),
    ("em", "step_alpha", 0.9),
    ("em", "incremental_steps", 3),
    ("coordinator", "index_candidates", 3),
]


def busy_site() -> RemoteSite:
    site = RemoteSite(
        0,
        RemoteSiteConfig(
            dim=2, chunk_override=60, em=EMConfig(n_components=2, n_init=1)
        ),
        rng=np.random.default_rng(0),
    )
    for record in np.random.default_rng(1).normal(size=(150, 2)):
        site.process_record(record)
    return site


@pytest.mark.parametrize(
    "section, key, value", DROPPED, ids=[f"{d[0]}.{d[1]}" for d in DROPPED]
)
def test_a_dropped_key_restores_like_a_clean_checkpoint(section, key, value):
    if section == "coordinator":
        snapshot, restore = snapshot_coordinator, restore_coordinator
        clean = snapshot(
            Coordinator(CoordinatorConfig(), rng=np.random.default_rng(0))
        )
    else:
        snapshot, restore = snapshot_site, restore_site
        clean = snapshot(busy_site())
    dirty = copy.deepcopy(clean)
    config = dirty["config"]["em"] if section == "em" else dirty["config"]
    assert key not in config
    config[key] = value
    assert snapshot(restore(dirty)) == snapshot(restore(clean))
