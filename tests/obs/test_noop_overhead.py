"""The disabled observer must be free: no state, no retained allocations.

Instrumented hot loops guard event emission with ``if observer.enabled:``,
and the null observer's own overrides answer the unguarded counter
bumps before anything reaches its registry, so an uninstrumented run
pays one attribute check per hook.  These tests pin that contract: the
null observer retains no memory across a hot loop, hands out a shared
timer, keeps its registry empty, and leaves results bit-identical to an
instrumented run with the same seed.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.core.em import EMConfig, fit_em
from repro.obs import NULL_OBSERVER, Observer


class TestNoopOverhead:
    def test_hot_loop_retains_no_memory(self):
        observer = NULL_OBSERVER
        # Warm up caches (method lookups, code objects) outside the
        # measured window.
        for _ in range(100):
            if observer.enabled:
                observer.event("site.chunk_test", site=0, passed=True)
            observer.inc("site.chunks", site=0)
            observer.timer("profile.em_fit")

        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(10_000):
            if observer.enabled:
                observer.event("site.chunk_test", site=0, passed=True)
            observer.inc("site.chunks", site=0)
            observer.timer("profile.em_fit")
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Nothing may be retained by the loop; allow a little slack for
        # the tracing machinery itself.
        assert after - before < 4096

    def test_enabled_guard_short_circuits_event_construction(self):
        # The guard is the documented pattern: with a disabled observer
        # the branch body (kwargs construction included) never runs.
        assert NULL_OBSERVER.enabled is False
        assert Observer().enabled is True

    def test_null_instruments_are_shared_singletons(self):
        assert NULL_OBSERVER.timer("a") is NULL_OBSERVER.timer("b")

    def test_null_registry_stays_empty_forever(self):
        NULL_OBSERVER.inc("c", 5)
        NULL_OBSERVER.gauge_set("g", 1)
        NULL_OBSERVER.gauge_max("g", 2)
        NULL_OBSERVER.observe("h", 2)
        assert len(NULL_OBSERVER.registry) == 0


class TestBehaviourUnchanged:
    def test_fit_em_results_identical_with_and_without_observer(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(120, 2))
        config = EMConfig(n_components=2, n_init=1, max_iter=20)

        plain = fit_em(data, config, rng=np.random.default_rng(7))
        observed = fit_em(
            data,
            config,
            rng=np.random.default_rng(7),
            observer=Observer(time_source=lambda: 0.0),
        )
        assert plain.log_likelihood == observed.log_likelihood
        assert plain.n_iter == observed.n_iter
        assert plain.history == observed.history
        assert np.array_equal(
            plain.mixture.weights, observed.mixture.weights
        )
