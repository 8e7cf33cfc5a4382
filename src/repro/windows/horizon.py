"""Horizon-window answers from the event table.

A *horizon* query asks for the model of the most recent ``H`` records
("the data in a horizon of current time", section 6.2).  CluDistream
answers it without re-clustering: the event table says which model
covered which span, so the horizon model is the union of the
overlapping models weighted by their overlap lengths.  Answers are
exact up to chunk granularity (half a chunk of absolute error, per
section 7).
"""

from __future__ import annotations

from repro.core.mixture import GaussianMixture, union_by_mass
from repro.core.remote import RemoteSite

__all__ = ["horizon_mixture", "horizon_model_spans"]


def horizon_model_spans(
    site: RemoteSite, horizon: int
) -> list[tuple[int, int]]:
    """``(model_id, overlap_records)`` pairs covering the last ``horizon``
    records.

    Includes both closed event-table entries and the current model's
    still-open reign.  Pairs appear in time order; the same model id can
    appear more than once when the multi-test strategy reactivated it.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    end = site.position
    start = max(0, end - horizon)
    spans = [
        (record.model_id, min(record.end, end) - max(record.start, start))
        for record in site.events.between(start, end)
    ]
    if site.current_model is not None:
        overlap = end - max(site.current_started_at, start)
        if overlap > 0:
            spans.append((site.current_model.model_id, overlap))
    return spans


def horizon_mixture(site: RemoteSite, horizon: int) -> GaussianMixture:
    """The site's model of its most recent ``horizon`` records.

    Raises
    ------
    ValueError
        If no model overlaps the window (site still buffering its first
        chunk).
    """
    pairs = []
    for model_id, overlap in horizon_model_spans(site, horizon):
        entry = site.find_model(model_id)
        if entry is not None:  # expired via sliding-window deletion
            pairs.append((entry.mixture, overlap))
    combined = union_by_mass(pairs)
    if combined is None:
        raise ValueError("no model covers the requested horizon yet")
    return combined
