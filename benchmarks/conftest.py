"""Shared infrastructure for the per-figure benchmark harness.

Every module in this directory regenerates one figure of the paper's
evaluation (section 6): it builds the figure's workload, runs the
algorithms, prints the same rows/series the paper plots, and asserts
the *shape* of the result (who wins, roughly by how much, where the
extrema fall).  Absolute numbers are not comparable -- the paper timed
C++ on a 2.4 GHz Pentium 4; we run pure Python -- but the shapes are
properties of the algorithms.

Workload sizes are scaled down from the paper's (100k updates, r=20)
to keep the whole suite runnable in minutes; EXPERIMENTS.md records the
scaling next to each figure's paper-vs-measured summary.

Each bench also hands its seeded, non-timing numbers to the ``claims``
fixture, which checks them against ``benchmarks/paper_claims.json``
(:mod:`benchmarks.paper.claims`; restamp with
``PYTHONPATH=src python -m benchmarks.paper.claims``).

Run:  PYTHONPATH=src python -m pytest benchmarks/ --ignore=benchmarks/e2e -o addopts=""
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from benchmarks.paper.claims import Claims
from repro.core.em import EMConfig
from repro.core.remote import RemoteSite, RemoteSiteConfig


def fast_em(k: int = 5, diagonal: bool = False) -> EMConfig:
    """EM settings shared by the benchmark workloads."""
    return EMConfig(
        n_components=k, n_init=1, max_iter=40, tol=1e-3, diagonal=diagonal
    )


def make_site_config(
    dim: int = 4,
    k: int = 5,
    chunk: int = 500,
    epsilon: float = 0.05,
    delta: float = 0.05,
    c_max: int = 4,
    adaptive: bool = True,
) -> RemoteSiteConfig:
    """Remote-site settings shared by the benchmark workloads."""
    return RemoteSiteConfig(
        dim=dim,
        epsilon=epsilon,
        delta=delta,
        c_max=c_max,
        em=fast_em(k),
        adaptive_test=adaptive,
        chunk_override=chunk,
    )


def print_header(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def print_series(label: str, xs, ys, fmt: str = "10.3f") -> None:
    """Print one figure series as aligned rows."""
    print(f"\n-- {label} --")
    for x, y in zip(xs, ys):
        print(f"  {x!s:>12}  {y:{fmt}}")


def ascii_bars(values, width: int = 40) -> list[str]:
    """Scale values to ASCII bars (for histogram-style figures)."""
    peak = max(max(values), 1e-12)
    return ["#" * int(width * value / peak) for value in values]


def site_claims(prefix: str, site: RemoteSite) -> dict[str, int]:
    """A site's cost counters as claims (``prefix.n_clusterings``, ...)."""
    return {
        f"{prefix}.{name}": value
        for name, value in dataclasses.asdict(site.stats).items()
    }


@pytest.fixture
def claims(request) -> Claims:
    """Check the bench's seeded numbers against ``paper_claims.json``."""
    return Claims(request.module.__name__.rpartition(".")[2], request.config)


def run_once(benchmark, func, *args, **kwargs):
    """Run a heavyweight figure computation exactly once under
    pytest-benchmark (no warmup rounds -- these are minutes-scale
    workloads, and the figure data is the point, not the wall time)."""
    if benchmark.disabled:
        return func(*args, **kwargs)
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
