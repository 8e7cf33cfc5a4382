"""JSON checkpoints for sites and the coordinator.

``snapshot_*`` / ``restore_*`` convert live objects to and from plain
dictionaries; ``save_*`` / ``load_*`` wrap them with file I/O.  A
restored object continues *exactly* where the original stopped: model
ids, counters, the event table, the record buffer, and even the EM
random-generator state are preserved, so feeding the same records to
the original and the restored site produces identical behaviour.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.core.coordinator import (
    Coordinator,
    CoordinatorConfig,
    GlobalCluster,
    Leaf,
)
from repro.core.em import EMConfig
from repro.core.mixture import GaussianMixture
from repro.core.gaussian import Gaussian
from repro.core.remote import ModelEntry, RemoteSite, RemoteSiteConfig
from repro.core.suffstats import SufficientStats
from repro.core.testing import LikelihoodVariant
from repro.obs.history import ModelHistory
from repro.obs.observer import Observer

__all__ = [
    "checkpoint_found",
    "load_aggregator",
    "load_coordinator",
    "load_site",
    "restore_aggregator",
    "restore_coordinator",
    "restore_site",
    "save_aggregator",
    "save_coordinator",
    "save_site",
    "snapshot_aggregator",
    "snapshot_coordinator",
    "snapshot_site",
]

FORMAT_VERSION = 1

#: Config keys that checkpoints from older builds carry and this build
#: drops on restore, per config section.  The site's
#: ``reactivate_limit`` and the EM's ``step_alpha`` /
#: ``incremental_steps`` left in 1.13.0; the coordinator's
#: ``index_candidates`` left with the KD-tree index.
_DROPPED_KEYS = {
    "site": ("reactivate_limit",),
    "em": ("step_alpha", "incremental_steps"),
    "coordinator": ("index_candidates",),
}


def checkpoint_found(path: Path, node: str) -> bool:
    """Whether a ``--resume`` node finds its checkpoint at ``path``; a
    node without one starts fresh after one stderr line."""
    if path.exists():
        return True
    print(f"{node}: no checkpoint at {path}, starting fresh", file=sys.stderr)
    return False


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _em_config_to_dict(config: EMConfig) -> dict:
    payload = {
        "n_components": config.n_components,
        "tol": config.tol,
        "max_iter": config.max_iter,
        "n_init": config.n_init,
        "diagonal": config.diagonal,
        "covariance_ridge": config.covariance_ridge,
        "init": config.init,
    }
    # Written only when on: checkpoints with the ladder off stay
    # byte-identical to the pre-ladder format.
    if config.incremental:
        payload["incremental"] = True
    return payload


def _settings(section: str, payload: Mapping) -> dict:
    """A config section's keys, less those :data:`_DROPPED_KEYS` drops."""
    dropped = _DROPPED_KEYS[section]
    return {key: value for key, value in payload.items() if key not in dropped}


def _rng_state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


def _rng_from_state(state: Mapping) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = dict(state)
    return rng


def _finite_or_none(value: float) -> float | None:
    """JSON has no infinity; encode ``inf`` as ``None``."""
    return None if math.isinf(value) else float(value)


def _none_or_inf(value: float | None) -> float:
    return math.inf if value is None else float(value)


def _remerge_distance(leaf_raw: Mapping) -> float:
    """A leaf's owed distance; 1.16.0 checkpoints stored its reciprocal."""
    if "remerge_distance" in leaf_raw:
        return _none_or_inf(leaf_raw["remerge_distance"])
    score = leaf_raw["remerge_score"]
    return math.inf if not score else 1.0 / float(score)


def _model_entry_to_dict(entry: ModelEntry) -> dict:
    payload = {
        "model_id": entry.model_id,
        "mixture": entry.mixture.to_dict(),
        "reference_likelihood": entry.reference_likelihood,
        "reference_std": entry.reference_std,
        "reference_size": entry.reference_size,
        "count": entry.count,
        "trained_at": entry.trained_at,
    }
    if entry.stats is not None:
        payload["stats"] = entry.stats.to_dict()
    return payload


def _model_entry_from_dict(payload: Mapping) -> ModelEntry:
    return ModelEntry(
        model_id=payload["model_id"],
        mixture=GaussianMixture.from_dict(payload["mixture"]),
        reference_likelihood=payload["reference_likelihood"],
        reference_std=payload["reference_std"],
        reference_size=payload["reference_size"],
        count=payload["count"],
        trained_at=payload["trained_at"],
        stats=(
            SufficientStats.from_dict(payload["stats"])
            if payload.get("stats") is not None
            else None
        ),
    )


# ----------------------------------------------------------------------
# Remote site
# ----------------------------------------------------------------------
#: Incremental-only site counters, serialized only when non-zero (see
#: ``_em_config_to_dict`` for the rationale).
_LADDER_STAT_KEYS = ("n_absorbed", "n_warm_refits", "n_cold_refits")

#: Retention counters, likewise serialized only when non-zero:
#: checkpoints with the retention bounds off stay byte-identical to
#: the pre-retention format.
_RETENTION_STAT_KEYS = ("archive_evictions",)


def snapshot_site(site: RemoteSite) -> dict:
    """Serialise a site's full state to a JSON-compatible dict."""
    config = site.config
    config_payload = {
        "dim": config.dim,
        "epsilon": config.epsilon,
        "delta": config.delta,
        "c_max": config.c_max,
        "em": _em_config_to_dict(config.em),
        "variant": config.variant.value,
        "warm_start": config.warm_start,
        "adaptive_test": config.adaptive_test,
        "handle_missing": config.handle_missing,
        "reference_holdout": config.reference_holdout,
        "chunk_override": config.chunk_override,
    }
    if config.archive_limit is not None:
        config_payload["archive_limit"] = config.archive_limit
    if config.event_limit is not None:
        config_payload["event_limit"] = config.event_limit
    stats = vars(site.stats).copy()
    for key in _LADDER_STAT_KEYS + _RETENTION_STAT_KEYS:
        if not stats.get(key):
            stats.pop(key, None)
    payload = {
        "format": FORMAT_VERSION,
        "kind": "remote_site",
        "site_id": site.site_id,
        "config": config_payload,
        "buffer": np.frombuffer(site._rows).reshape(-1, config.dim).tolist(),
        "current": (
            _model_entry_to_dict(site.current_model)
            if site.current_model is not None
            else None
        ),
        "archive": [_model_entry_to_dict(e) for e in site.model_list],
        "next_model_id": site._next_model_id,
        "position": site.position,
        "current_started_at": site.current_started_at,
        "events": [
            [record.start, record.end, record.model_id]
            for record in site.events
        ],
        "stats": stats,
        "rng": _rng_state(site._rng),
    }
    if site.events.evictions:
        payload["event_evictions"] = site.events.evictions
    if site.history is not None:
        payload["history"] = site.history.to_dict()
    return payload


def restore_site(
    payload: Mapping, observer: Observer | None = None
) -> RemoteSite:
    """Rebuild a site from :func:`snapshot_site` output.

    ``observer`` re-attaches instrumentation (observers are process
    state, never part of a checkpoint).
    """
    if payload.get("kind") != "remote_site":
        raise ValueError("payload is not a remote-site checkpoint")
    if payload.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format {payload.get('format')}")
    raw = _settings("site", payload["config"])
    raw["em"] = EMConfig(**_settings("em", raw["em"]))
    raw["variant"] = LikelihoodVariant(raw["variant"])
    config = RemoteSiteConfig(**raw)
    site = RemoteSite(
        payload["site_id"],
        config,
        rng=_rng_from_state(payload["rng"]),
        observer=observer,
    )
    rows = payload["buffer"]
    if len(rows) >= site.chunk or any(len(row) != config.dim for row in rows):
        raise ValueError(
            f"checkpoint buffers {len(rows)} records, a chunk is {site.chunk} "
            f"records of {config.dim} values"
        )
    block = np.array(rows, dtype=float).reshape(-1, config.dim)
    site._screen_missing(block)
    site._rows = bytearray(block.tobytes())
    site._current = (
        _model_entry_from_dict(payload["current"])
        if payload["current"] is not None
        else None
    )
    site._archive = [_model_entry_from_dict(e) for e in payload["archive"]]
    site._next_model_id = payload["next_model_id"]
    site._position = payload["position"]
    site._current_started_at = payload["current_started_at"]
    for start, end, model_id in payload["events"]:
        site.events.append(start, end, model_id)
    site.events.evictions = payload.get("event_evictions", 0)
    for key, value in payload["stats"].items():
        setattr(site.stats, key, value)
    if payload.get("history") is not None:
        history = ModelHistory.from_dict(payload["history"])
        if "store" in payload["history"]:
            # A 1.17.0 pyramid: the reigns are rebuilt from the table.
            for record in site.events:
                history.replay(record.start, record.end, record.model_id, None)
            current = site.current_model
            history.replay(
                site.current_started_at, None,
                current.model_id if current is not None else None, None,
            )
        site.history = history
    return site


def save_site(site: RemoteSite, path: str | Path) -> Path:
    """Write a site checkpoint to ``path`` (JSON)."""
    path = Path(path)
    path.write_text(json.dumps(snapshot_site(site)))
    return path


def load_site(path: str | Path, observer: Observer | None = None) -> RemoteSite:
    """Read a site checkpoint written by :func:`save_site`."""
    return restore_site(json.loads(Path(path).read_text()), observer=observer)


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
def snapshot_coordinator(coordinator: Coordinator) -> dict:
    """Serialise the coordinator's full state to a JSON-compatible dict."""
    config = coordinator.config
    clusters = []
    for cluster in coordinator.clusters:
        clusters.append(
            {
                "cluster_id": cluster.cluster_id,
                "father": (
                    cluster.father.to_dict()
                    if cluster.father is not None
                    else None
                ),
                "leaves": [
                    {
                        "site_id": leaf.site_id,
                        "model_id": leaf.model_id,
                        "component_index": leaf.component_index,
                        "gaussian": leaf.gaussian.to_dict(),
                        "weight": leaf.weight,
                        "remerge_distance": _finite_or_none(leaf.remerge_distance),
                    }
                    for leaf in cluster.leaves
                ],
            }
        )
    payload = {
        "format": FORMAT_VERSION,
        "kind": "coordinator",
        "config": {
            "max_components": config.max_components,
            "merge_method": config.merge_method,
            "merge_samples": config.merge_samples,
            "attach_threshold": config.attach_threshold,
            "tolerate_loss": config.tolerate_loss,
        },
        "site_models": [
            {
                "site_id": site_id,
                "model_id": model_id,
                "mixture": mixture.to_dict(),
                "count": count,
            }
            for (site_id, model_id), (mixture, count) in (
                coordinator.site_models.items()
            )
        ],
        "clusters": clusters,
        "stats": vars(coordinator.stats).copy(),
        "rng": _rng_state(coordinator._rng),
    }
    if coordinator.history is not None:
        payload["history"] = coordinator.history.to_dict()
    return payload


def restore_coordinator(
    payload: Mapping, observer: Observer | None = None
) -> Coordinator:
    """Rebuild a coordinator from :func:`snapshot_coordinator` output.

    ``observer`` re-attaches instrumentation (observers are process
    state, never part of a checkpoint).
    """
    if payload.get("kind") != "coordinator":
        raise ValueError("payload is not a coordinator checkpoint")
    if payload.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format {payload.get('format')}")
    config = CoordinatorConfig(**_settings("coordinator", payload["config"]))
    coordinator = Coordinator(
        config, rng=_rng_from_state(payload["rng"]), observer=observer
    )
    for entry in payload["site_models"]:
        key = (entry["site_id"], entry["model_id"])
        coordinator._site_models[key] = (
            GaussianMixture.from_dict(entry["mixture"]),
            entry["count"],
        )
    max_cluster_id = -1
    for raw in payload["clusters"]:
        cluster = GlobalCluster(
            cluster_id=raw["cluster_id"],
            leaves=[
                Leaf(
                    site_id=leaf_raw["site_id"],
                    model_id=leaf_raw["model_id"],
                    component_index=leaf_raw["component_index"],
                    gaussian=Gaussian.from_dict(leaf_raw["gaussian"]),
                    weight=leaf_raw["weight"],
                    remerge_distance=_remerge_distance(leaf_raw),
                )
                for leaf_raw in raw["leaves"]
            ],
            father=(
                Gaussian.from_dict(raw["father"])
                if raw["father"] is not None
                else None
            ),
        )
        coordinator._clusters[cluster.cluster_id] = cluster
        max_cluster_id = max(max_cluster_id, cluster.cluster_id)
    coordinator._cluster_ids = itertools.count(max_cluster_id + 1)
    for key, value in payload["stats"].items():
        setattr(coordinator.stats, key, value)
    if payload.get("history") is not None:
        coordinator.history = ModelHistory.from_dict(payload["history"])
        coordinator.history.observer = coordinator._obs
    return coordinator


def save_coordinator(coordinator: Coordinator, path: str | Path) -> Path:
    """Write a coordinator checkpoint to ``path`` (JSON)."""
    path = Path(path)
    path.write_text(json.dumps(snapshot_coordinator(coordinator)))
    return path


def load_coordinator(
    path: str | Path, observer: Observer | None = None
) -> Coordinator:
    """Read a coordinator checkpoint written by :func:`save_coordinator`."""
    return restore_coordinator(
        json.loads(Path(path).read_text()), observer=observer
    )


# ----------------------------------------------------------------------
# Aggregator (tree internal node)
# ----------------------------------------------------------------------
def snapshot_aggregator(node, arq: Mapping | None = None) -> dict:
    """Serialise a :class:`~repro.cluster.hop.InternalNode`.

    The snapshot covers the wrapped coordinator, the upload gate (last
    uploaded mixture, uplink counters) and, optionally,
    the ARQ edge state under ``arq``: ``{"uplink_next_seq": int,
    "cursors": {child_id: next_expected_seq}}``.  With the ARQ state
    restored, a crashed aggregator resumes mid-deployment against peers
    that never restarted -- its parent keeps accepting its uploads and
    it keeps suppressing children's already-applied synopses.
    """
    payload = {
        "format": FORMAT_VERSION,
        "kind": "aggregator",
        "node_id": node.node_id,
        "parent_id": node.parent_id,
        "upload_threshold": node.upload_threshold,
        "coordinator": snapshot_coordinator(node.coordinator),
        "last_uploaded": (
            node._last_uploaded.to_dict()
            if node._last_uploaded is not None
            else None
        ),
        "messages_up": node.messages_up,
        "bytes_up": node.bytes_up,
    }
    if arq is not None:
        payload["arq"] = {
            "uplink_next_seq": int(arq.get("uplink_next_seq", 1)),
            "cursors": {
                str(site_id): int(expected)
                for site_id, expected in arq.get("cursors", {}).items()
            },
        }
    return payload


def restore_aggregator(payload: Mapping, observer: Observer | None = None):
    """Rebuild an ``InternalNode`` (plus ARQ state) from a snapshot.

    Returns ``(node, arq)`` where ``arq`` is the dict passed to
    :func:`snapshot_aggregator` (cursor keys back as ints), or ``None``
    when the snapshot carried no edge state.  Snapshots written when
    every upload took a fresh model id carry a ``next_model_id``; it is
    ignored.
    """
    from repro.cluster.hop import InternalNode

    if payload.get("kind") != "aggregator":
        raise ValueError("payload is not an aggregator checkpoint")
    if payload.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format {payload.get('format')}")
    node = InternalNode(
        node_id=payload["node_id"],
        coordinator=restore_coordinator(payload["coordinator"], observer=observer),
        parent_id=payload["parent_id"],
        upload_threshold=payload["upload_threshold"],
    )
    node._last_uploaded = (
        GaussianMixture.from_dict(payload["last_uploaded"])
        if payload["last_uploaded"] is not None
        else None
    )
    node.messages_up = payload["messages_up"]
    node.bytes_up = payload["bytes_up"]
    arq = payload.get("arq")
    if arq is not None:
        arq = {
            "uplink_next_seq": int(arq["uplink_next_seq"]),
            "cursors": {
                int(site_id): int(expected)
                for site_id, expected in arq["cursors"].items()
            },
        }
    return node, arq


def save_aggregator(node, path: str | Path, arq: Mapping | None = None) -> Path:
    """Write an aggregator checkpoint to ``path`` (JSON)."""
    path = Path(path)
    path.write_text(json.dumps(snapshot_aggregator(node, arq=arq)))
    return path


def load_aggregator(path: str | Path, observer: Observer | None = None):
    """Read an aggregator checkpoint written by :func:`save_aggregator`."""
    return restore_aggregator(
        json.loads(Path(path).read_text()), observer=observer
    )
