"""Motivation check: clustering incomplete records.

The paper's abstract promises that the EM framework handles "noisy or
incomplete data records"; our reproduction implements the incomplete
part exactly (marginal E-step, conditional-expectation M-step,
:mod:`repro.core.missing`).  This bench quantifies the claim as a
function of the missingness rate:

* generate a two-cluster stream and erase each attribute independently
  with probability ``rate``;
* fit (a) the exact missing-data EM, (b) the naive fallback -- impute
  attribute means, run plain EM -- and (c) plain EM on only the
  complete records (listwise deletion);
* score all three on complete holdout data.

Shape targets: at zero missingness all three agree; as the rate grows
the exact E-step degrades gracefully and dominates mean imputation
(whose covariances collapse toward the imputed means), while listwise
deletion suffers from the shrinking complete-record sample.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_header, run_once
from repro.core.em import EMConfig, fit_em
from repro.core.gaussian import Gaussian
from repro.core.missing import fit_em_missing, mean_impute
from repro.core.mixture import GaussianMixture

RATES = (0.0, 0.2, 0.4)
N_TRAIN = 3000
N_HOLDOUT = 3000
DIM = 4


def truth() -> GaussianMixture:
    base = np.diag([1.0, 0.6, 1.4, 0.8])
    return GaussianMixture(
        np.array([0.5, 0.5]),
        (
            Gaussian(np.zeros(DIM), base),
            Gaussian(np.full(DIM, 5.0), base),
        ),
    )


def knock_out(data: np.ndarray, rate: float, rng) -> np.ndarray:
    data = data.copy()
    mask = rng.random(data.shape) < rate
    full_rows = mask.all(axis=1)
    mask[full_rows, 0] = False
    data[mask] = np.nan
    return data


def one_rate(rate: float, seed: int) -> dict:
    model = truth()
    rng = np.random.default_rng(seed)
    train, _ = model.sample(N_TRAIN, rng)
    holdout, _ = model.sample(N_HOLDOUT, rng)
    masked = knock_out(train, rate, np.random.default_rng(seed + 1))
    config = EMConfig(n_components=2, n_init=2, max_iter=60, tol=1e-4)

    exact = fit_em_missing(
        masked, config, np.random.default_rng(seed + 2)
    ).mixture.average_log_likelihood(holdout)

    imputed = fit_em(
        mean_impute(masked), config, np.random.default_rng(seed + 2)
    ).mixture.average_log_likelihood(holdout)

    complete_rows = masked[~np.isnan(masked).any(axis=1)]
    if complete_rows.shape[0] >= 2 * config.n_components:
        listwise = fit_em(
            complete_rows, config, np.random.default_rng(seed + 2)
        ).mixture.average_log_likelihood(holdout)
    else:
        listwise = float("-inf")
    return {
        "exact": exact,
        "mean-impute": imputed,
        "listwise": listwise,
        "complete_rows": int(complete_rows.shape[0]),
    }


def motivation() -> dict:
    return {rate: one_rate(rate, seed=300 + int(rate * 10)) for rate in RATES}


def bench_motivation_incomplete_records(benchmark, claims):
    results = run_once(benchmark, motivation)
    claims(
        {
            f"rate={rate}.{key}": value
            for rate, row in results.items()
            for key, value in row.items()
        }
    )
    print_header(
        "Motivation: incomplete records -- exact missing-data EM vs fallbacks"
    )
    print(
        f"{'rate':>6}  {'exact EM':>9}  {'mean-impute':>12}  "
        f"{'listwise':>9}  {'complete rows':>14}"
    )
    for rate, row in results.items():
        print(
            f"{rate:>6}  {row['exact']:>9.3f}  {row['mean-impute']:>12.3f}  "
            f"{row['listwise']:>9.3f}  {row['complete_rows']:>14}"
        )

    # At zero missingness everything coincides (same data, same seeds;
    # the exact and plain code paths differ only in float ordering).
    clean = results[0.0]
    assert clean["exact"] == pytest_approx(clean["mean-impute"])

    # Under heavy missingness the exact E-step dominates both fallbacks.
    heavy = results[0.4]
    assert heavy["exact"] > heavy["mean-impute"]
    assert heavy["exact"] > heavy["listwise"]

    # Graceful degradation: heavy missingness costs the exact method a
    # bounded amount of likelihood.
    assert clean["exact"] - heavy["exact"] < 1.0


def pytest_approx(value: float):
    import pytest

    return pytest.approx(value, abs=1e-3)
