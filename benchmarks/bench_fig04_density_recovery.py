"""Figure 4: CluDistream recovers the per-phase densities; noise panel.

The paper shows the clustering results for the three time points of
Figure 3 (panels a-c) and that under 5% random noise the captured model
matches the clean one (panel d).  We run one remote site over the
three-phase stream, pull each phase's model out of the event table /
model list, and measure the L1 distance between the recovered density
and the ground-truth density of that phase.

Shape targets: each phase's recovered model is closer to its own
ground truth than to the other phases'; the noisy run recovers models
about as good as the clean run (small L1 gap).
"""

from __future__ import annotations

import numpy as np

import dataclasses

from benchmarks.conftest import fast_em, make_site_config, print_header, run_once
from repro.core.remote import RemoteSite
from repro.numerics.integrate import trapezoid_grid
from repro.streams.noise import NoiseConfig, NoisyStream
from repro.streams.visual import one_dimensional_phases
from repro.windows.horizon import horizon_model_spans

HORIZON = 2000
CHUNK = 500


def recovered_phase_models(site: RemoteSite, phases) -> list:
    """The model that explained the bulk of each phase's records."""
    models = []
    for phase in range(phases.n_phases):
        mid = phase * phases.horizon + phases.horizon // 2
        model_id = site.events.model_at(mid)
        if model_id is None and site.current_model is not None:
            model_id = site.current_model.model_id
        entry = site.find_model(model_id)
        models.append(entry.mixture if entry else None)
    return models


def density_l1(mixture_a, mixture_b) -> float:
    return trapezoid_grid(
        mixture_a.pdf, mixture_b.pdf, [-12.0], [12.0], points_per_dim=1201
    )


def run_site(noise: bool) -> list:
    phases = one_dimensional_phases(horizon=HORIZON)
    # Extra EM restarts: noisy 1-d chunks are prone to local optima.
    config = dataclasses.replace(
        make_site_config(dim=1, k=3, chunk=CHUNK),
        em=dataclasses.replace(fast_em(3), n_init=3),
    )
    site = RemoteSite(
        0,
        config,
        rng=np.random.default_rng(44),
    )
    stream = phases.stream(np.random.default_rng(55))
    if noise:
        stream = NoisyStream(
            stream,
            NoiseConfig(fraction=0.05, low=-10.0, high=10.0),
            rng=np.random.default_rng(66),
        )
    site.process_stream(stream)
    return recovered_phase_models(site, phases)


def figure4() -> dict:
    phases = one_dimensional_phases(horizon=HORIZON)
    clean_models = run_site(noise=False)
    noisy_models = run_site(noise=True)
    return {
        "phases": phases,
        "clean": clean_models,
        "noisy": noisy_models,
    }


def bench_fig04_density_recovery(benchmark, claims):
    result = run_once(benchmark, figure4)
    phases = result["phases"]
    for label in ("clean", "noisy"):
        for phase, model in enumerate(result[label]):
            assert model is not None, f"{label} phase {phase} has no model"
    # L1 distance of each recovered model to every phase's truth, and
    # of each clean model to its noisy twin.
    l1_errors = {
        label: [
            [density_l1(model, phases.mixtures[m]) for m in range(phases.n_phases)]
            for model in result[label]
        ]
        for label in ("clean", "noisy")
    }
    noise_gaps = [
        density_l1(result["clean"][phase], result["noisy"][phase])
        for phase in range(phases.n_phases)
    ]
    recorded = {"clean_vs_noisy_l1": noise_gaps}
    for label, rows in l1_errors.items():
        for phase, errors in enumerate(rows):
            recorded[f"{label}.phase{phase + 1}.l1_to_truth"] = errors
    claims(recorded)
    print_header("Figure 4: recovered densities per phase (L1 distances)")

    for label in ("clean", "noisy"):
        print(f"\n{label} run:")
        for phase, errors in enumerate(l1_errors[label]):
            print(
                f"  phase {phase + 1}: L1 to truth of phases 1-3 = "
                + ", ".join(f"{e:.3f}" for e in errors)
            )
            # Panels (a)-(c): recovered density matches its own phase.
            assert int(np.argmin(errors)) == phase
            assert errors[phase] < 0.6

    # Panel (d): noise leaves the captured model close to the clean one.
    for phase, gap in enumerate(noise_gaps):
        print(f"clean-vs-noisy L1, phase {phase + 1}: {gap:.3f}")
        assert gap < 0.6
