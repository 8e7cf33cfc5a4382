"""SEM's whole trajectory, pinned bit for bit on three seeded streams.

``data/sem_pinned.json`` holds, per seed, the final mixture of a
``ScalableEM`` (K = 5, buffer 500) fed 6 000 records of an evolving
stream, with its ``compressed`` mass, ``memory_bytes()`` and refit
count.  JSON floats round-trip exactly, so the comparison is equality:
a change to how the discard set is stored or read that moves one bit
of one parameter fails here.

Regenerate (only for a deliberate change of SEM's arithmetic)::

    PYTHONPATH=src python tests/baselines/test_sem_pinned.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from benchmarks.paper.baselines.sem import ScalableEM, SEMConfig
from repro.core.em import EMConfig
from repro.streams.base import take
from repro.streams.synthetic import EvolvingGaussianStream, EvolvingStreamConfig

FIXTURE = Path(__file__).parent / "data" / "sem_pinned.json"
SEEDS = (0, 1, 2)
RECORDS = 6000


def pinned_run(seed: int) -> dict:
    """Feed one seeded evolving stream through SEM; its final state."""
    stream = EvolvingGaussianStream(
        EvolvingStreamConfig(p_new_distribution=0.5),
        rng=np.random.default_rng(seed),
    )
    sem = ScalableEM(
        4,
        SEMConfig(
            n_components=5,
            buffer_size=500,
            em=EMConfig(n_components=5, n_init=1, max_iter=30, tol=1e-3),
        ),
        rng=np.random.default_rng(100 + seed),
    )
    sem.process_stream(take(stream, RECORDS))
    mixture = sem.current_model()
    return {
        "weights": mixture.weights.tolist(),
        "means": [c.mean.tolist() for c in mixture.components],
        "covariances": [c.covariance.tolist() for c in mixture.components],
        "compressed": sem.compressed,
        "memory_bytes": sem.memory_bytes(),
        "refits": sem.refits,
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_final_state_is_pinned(seed):
    expected = json.loads(FIXTURE.read_text())[str(seed)]
    assert pinned_run(seed) == expected


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    doc = {str(seed): pinned_run(seed) for seed in SEEDS}
    FIXTURE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {FIXTURE}")
