"""Figure 3: histograms of the 1-d synthetic data at three time points.

The paper plots the histogram of the stream in a horizon ``H = 2k`` at
three time points, each governed by a different ground-truth mixture.
We regenerate the three histograms (printed as ASCII bars) and assert
the premise the figure illustrates: the three phases have genuinely
different shapes, and each phase's histogram matches its own generating
density far better than the other phases'.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import ascii_bars, print_header, run_once
from repro.streams.visual import one_dimensional_phases

BINS = 24
RANGE = (-8.0, 8.0)


def figure3() -> dict:
    phases = one_dimensional_phases(horizon=2000)
    rng = np.random.default_rng(33)
    edges = np.linspace(*RANGE, BINS + 1)
    centers = (edges[:-1] + edges[1:]) / 2.0
    histograms = []
    densities = []
    for phase in range(phases.n_phases):
        data = phases.phase_data(phase, rng)
        counts, _ = np.histogram(data.ravel(), bins=edges, density=True)
        histograms.append(counts)
        densities.append(
            np.column_stack(
                [
                    phases.mixtures[m].pdf(centers[:, None])
                    for m in range(phases.n_phases)
                ]
            )
        )
    return {
        "centers": centers,
        "histograms": histograms,
        "densities": densities,
        "phases": phases,
    }


def bench_fig03_histograms(benchmark, claims):
    result = run_once(benchmark, figure3)
    centers = result["centers"]
    histograms = result["histograms"]
    # L1 error of each phase's histogram against every phase's density.
    l1_errors = [
        [
            float(np.abs(counts - result["densities"][phase][:, m]).mean())
            for m in range(len(histograms))
        ]
        for phase, counts in enumerate(histograms)
    ]
    recorded = {}
    for phase, counts in enumerate(histograms):
        recorded[f"phase{phase + 1}.histogram"] = counts
        recorded[f"phase{phase + 1}.l1_to_densities"] = l1_errors[phase]
    claims(recorded)
    print_header("Figure 3: histograms of the 1-d stream (H = 2000)")
    for phase, counts in enumerate(histograms):
        print(f"\ntime point {phase + 1}:")
        for center, count, bar in zip(
            centers, counts, ascii_bars(counts)
        ):
            print(f"  {center:+6.2f}  {count:6.3f}  {bar}")

    # Each phase's histogram matches its own density best (L1 on bins).
    for phase, errors in enumerate(l1_errors):
        print(
            f"phase {phase + 1} histogram-vs-density L1 errors: "
            + ", ".join(f"{e:.4f}" for e in errors)
        )
        assert int(np.argmin(errors)) == phase

    # And the phases differ from each other.
    for i in range(3):
        for j in range(i + 1, 3):
            gap = float(np.abs(histograms[i] - histograms[j]).mean())
            assert gap > 0.005
