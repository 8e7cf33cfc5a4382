"""Landmark-window answers (everything since the stream began).

"The CluDistream directly fits landmark window scenarios where only
insertion exists."  A landmark answer is the union of every model the
site has trained, each weighted by its record counter -- the per-model
counters *are* the landmark bookkeeping, no extra state needed.
"""

from __future__ import annotations

from repro.core.mixture import GaussianMixture, union_by_mass
from repro.core.remote import RemoteSite

__all__ = ["landmark_mixture"]


def landmark_mixture(site: RemoteSite) -> GaussianMixture:
    """The site's model of all data seen since the landmark.

    Every stored model (archived and current) contributes its mixture
    scaled by its record counter, so the result integrates to the full
    stream's mass distribution across the distributions it visited.

    Raises
    ------
    ValueError
        If the site has not yet trained any model (fewer than ``M``
        records seen).
    """
    models = site.all_models
    if not models:
        raise ValueError("site has no trained models yet")
    combined = union_by_mass((entry.mixture, entry.count) for entry in models)
    if combined is None:
        raise ValueError("all models have non-positive counters")
    return combined
