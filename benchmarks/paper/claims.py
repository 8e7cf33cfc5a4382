"""The paper benches' seeded numbers, checked against one recorded file.

Every ``benchmarks/bench_*.py`` module hands its non-timing results
(byte totals, EM-run counts, log likelihoods, rank correlations, ...)
to the ``claims`` fixture once.  The fixture compares them with the
module's entry in ``benchmarks/paper_claims.json``: integers, booleans
and strings exactly, floats to a relative :data:`REL_TOL`.  Wall-clock
values never enter the file; the timing shapes stay assertions in the
benches.

After a deliberate change to a reproduced number, restamp the file
from the repository root (with no change it rewrites the file byte for
byte)::

    PYTHONPATH=src python -m benchmarks.paper.claims
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Mapping

import numpy as np
import pytest

__all__ = ["CLAIMS_PATH", "REL_TOL", "Claims", "load", "mismatches", "normalise"]

BENCH_DIR = Path(__file__).resolve().parents[1]
CLAIMS_PATH = BENCH_DIR / "paper_claims.json"

#: Relative tolerance for float claims: seeded runs repeat bit for bit
#: on one host, this only absorbs BLAS rounding between hosts.
REL_TOL = 1e-9

_RESTAMP = pytest.StashKey[dict]()


def normalise(value):
    """``value`` as a JSON scalar or a list of JSON scalars."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        items = [normalise(item) for item in value]
        if any(isinstance(item, list) for item in items):
            raise TypeError("a claim is a scalar or a flat list of scalars")
        return items
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"claim {value!r} is not finite")
        return value
    if isinstance(value, str):
        return value
    raise TypeError(f"claim of type {type(value).__name__} is not a JSON scalar")


def _same(expected, actual) -> bool:
    if isinstance(expected, float) and isinstance(actual, float):
        return math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=0.0)
    return type(expected) is type(actual) and expected == actual


def mismatches(expected: Mapping, actual: Mapping) -> list[str]:
    """One line per key that is missing, extra or different."""
    lines = [f"{key}: not recorded" for key in expected if key not in actual]
    lines += [f"{key}: not in the file" for key in actual if key not in expected]
    for key in expected.keys() & actual.keys():
        want, got = expected[key], actual[key]
        if isinstance(want, list) and isinstance(got, list):
            same = len(want) == len(got) and all(map(_same, want, got))
        else:
            same = _same(want, got)
        if not same:
            lines.append(f"{key}: recorded {want!r}, measured {got!r}")
    return sorted(lines)


def load(path: Path = CLAIMS_PATH) -> dict:
    """The recorded claims, one mapping per bench module."""
    return json.loads(path.read_text())


class Claims:
    """The ``claims`` fixture: one bench module's check (or restamp)."""

    def __init__(self, bench: str, config: pytest.Config) -> None:
        self.bench = bench
        self._config = config
        self._done = False

    def __call__(self, values: Mapping[str, object]) -> None:
        if self._done:
            raise RuntimeError(f"{self.bench} recorded its claims twice")
        self._done = True
        measured = {str(key): normalise(value) for key, value in values.items()}
        if not measured:
            raise ValueError(f"{self.bench} recorded no claims")
        restamp = self._config.stash.get(_RESTAMP, None)
        if restamp is not None:
            restamp[self.bench] = measured
            return
        recorded = load().get(self.bench)
        if recorded is None:
            pytest.fail(
                f"no claims recorded for {self.bench}; restamp with "
                "`python -m benchmarks.paper.claims`"
            )
        lines = mismatches(recorded, measured)
        if lines:
            pytest.fail(
                f"{self.bench} moved against {CLAIMS_PATH.name}:\n  "
                + "\n  ".join(lines)
            )


class _Restamp:
    """pytest plugin: collect every bench's claims instead of checking."""

    def __init__(self) -> None:
        self.claims: dict[str, dict] = {}

    def pytest_configure(self, config: pytest.Config) -> None:
        config.stash[_RESTAMP] = self.claims


def main() -> int:
    """Run every paper bench and rewrite :data:`CLAIMS_PATH`."""
    plugin = _Restamp()
    status = pytest.main(
        [
            str(BENCH_DIR),
            f"--ignore={BENCH_DIR / 'e2e'}",
            "-o", "addopts=",
            "-q",
            "-p", "no:cacheprovider",
        ],
        plugins=[plugin],
    )
    if status != 0:
        print(f"benches failed; {CLAIMS_PATH} left as it was", file=sys.stderr)
        return int(status)
    text = json.dumps(plugin.claims, indent=1, sort_keys=True, allow_nan=False)
    CLAIMS_PATH.write_text(text + "\n")
    print(f"wrote {CLAIMS_PATH} ({len(plugin.claims)} benches)")
    return 0


if __name__ == "__main__":
    # Run through the package module so the fixture and this plugin
    # share one stash key.
    from benchmarks.paper.claims import main as _main

    raise SystemExit(_main())
