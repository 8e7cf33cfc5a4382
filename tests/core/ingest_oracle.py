"""Reference record ingest: a list of row objects, stacked per chunk.

This is ``repro.core.remote.RemoteSite``'s per-record path as it stood
before records landed in a pre-allocated ``(M, d)`` block: every record
goes through ``np.asarray(...).ravel()`` and a two-call
``np.isnan(record).any()``, is appended to a Python list (as a *view*
of the caller's array when that array is already float64), and a full
list is ``np.stack``-ed into the chunk Algorithm 1 sees; the chunk size
is read through ``config.chunk`` on every record.

It is kept here, out of ``src/``, as the oracle of
``tests/core/test_ingest_identity.py``: the block is only a different
place to keep the same rows, so driven by the same records the two
sites must raise the same errors from the same calls and emit the same
messages, hold the same counters and write the same checkpoint after
every record.  Everything past the buffer -- Algorithm 1, the models,
the event table -- is the real ``RemoteSite``.

The oracle keeps the caller's array rather than a copy, so it is only a
reference for producers that hand over a fresh array per record.
"""

from __future__ import annotations

import numpy as np

from repro.core.protocol import Message
from repro.core.remote import RemoteSite
from repro.io.checkpoint import snapshot_site

__all__ = ["OracleSite", "oracle_snapshot"]


class OracleSite(RemoteSite):
    """``RemoteSite`` with the list-of-rows record buffer."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._buffer: list[np.ndarray] = []

    def process_record(self, record: np.ndarray) -> list[Message]:
        record = np.asarray(record, dtype=float).ravel()
        if record.size != self.config.dim:
            raise ValueError(
                f"record has dimension {record.size}, site expects "
                f"{self.config.dim}"
            )
        if np.isnan(record).any() and not self.config.handle_missing:
            raise ValueError(
                "record has missing attributes; enable "
                "RemoteSiteConfig(handle_missing=True) to accept them"
            )
        self._buffer.append(record)
        self.stats.records_seen += 1
        if len(self._buffer) < self.config.chunk:
            return []
        chunk = np.stack(self._buffer)
        self._buffer = []
        self._position += chunk.shape[0]
        return self._handle_chunk(chunk)


def oracle_snapshot(site: OracleSite) -> dict:
    """``snapshot_site`` with the ``"buffer"`` rows read from the list."""
    payload = snapshot_site(site)
    payload["buffer"] = [row.tolist() for row in site._buffer]
    return payload
