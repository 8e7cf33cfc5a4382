"""CluDistream: distributed data stream clustering with a fast EM-based
approach.

A faithful, production-quality reproduction of *"Distributed Data Stream
Clustering: A Fast EM-based Approach"* (Zhou, Cao, Yan, Sha, He --
ICDE 2007).  The library implements the paper's test-and-cluster remote
sites, merge/split coordinator and message protocol, the virtual clock
and cost meter of its experiments, and the synthetic workloads
(including an NFD-like net-flow generator) behind every figure of the
evaluation.  The baselines it is compared against (SEM, sampling EM,
periodic reporting) belong to the reproduction, not the library: they
live in ``benchmarks/paper/``.

Quickstart::

    import numpy as np
    from repro import CluDistream, CluDistreamConfig, DirectChannel
    from repro.streams import EvolvingGaussianStream

    system = CluDistream(CluDistreamConfig(n_sites=4))
    streams = {
        i: EvolvingGaussianStream(rng=np.random.default_rng(i))
        for i in range(4)
    }
    system.runtime(DirectChannel()).run(streams, max_records_per_site=10_000)
    print(system.global_mixture())

This top-level namespace is the library's *stable public API*: the
core model/site/coordinator types, the :class:`Runtime` delivery layer
with its channel backends and the :class:`Observer` instrumentation
facade.  Anything importable from ``repro`` directly follows the
deprecation policy of ``DESIGN.md`` section 10 -- removal only after at
least one release of ``DeprecationWarning``.

See ``examples/`` for full scenarios and ``benchmarks/`` for the
per-figure reproduction, whose numbers are checked against
``benchmarks/paper_claims.json``.
"""

from repro.core import (
    AnomalyDetector,
    CluDistream,
    CluDistreamConfig,
    CodecConfig,
    CodecError,
    CodecStats,
    Coordinator,
    CoordinatorConfig,
    EMConfig,
    EMResult,
    EventRecord,
    EventTable,
    FitTestResult,
    Gaussian,
    GaussianMixture,
    RemoteSite,
    RemoteSiteConfig,
    WireCodec,
    anomaly_scores,
    available_codecs,
    average_log_likelihood,
    chunk_size,
    fit_em,
    fit_test,
    get_codec,
    iter_chunks,
    membership_report,
    register_codec,
    select_k,
)
from repro.obs import NULL_OBSERVER, Observer
from repro.runtime import (
    Channel,
    ChannelFaults,
    DeliveryAccounting,
    DirectChannel,
    RunReport,
    Runtime,
    SimulatedChannel,
    TransportChannel,
)

__version__ = "1.16.0"

#: The timing suite's names, removed in 1.4.0 without a warning release
#: (DESIGN.md section 10.3 records the exception).
_REMOVED_BENCH_NAMES = (
    "BenchConfig",
    "BenchReport",
    "BenchRunner",
    "compare_benchmarks",
    "run_bench",
)


def __getattr__(name: str):
    if name in _REMOVED_BENCH_NAMES:
        raise AttributeError(
            f"repro.{name} was removed in 1.4.0 with the repro.bench "
            "timing suite: measure time with `python3 benchmarks/e2e/"
            "run.py --workload W`; the wire-byte table is BENCH_comm.json"
        )
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AnomalyDetector",
    "Channel",
    "ChannelFaults",
    "DeliveryAccounting",
    "DirectChannel",
    "NULL_OBSERVER",
    "Observer",
    "RunReport",
    "Runtime",
    "SimulatedChannel",
    "TransportChannel",
    "CluDistream",
    "CluDistreamConfig",
    "CodecConfig",
    "CodecError",
    "CodecStats",
    "Coordinator",
    "CoordinatorConfig",
    "EMConfig",
    "EMResult",
    "EventRecord",
    "EventTable",
    "FitTestResult",
    "Gaussian",
    "GaussianMixture",
    "RemoteSite",
    "RemoteSiteConfig",
    "WireCodec",
    "anomaly_scores",
    "available_codecs",
    "average_log_likelihood",
    "chunk_size",
    "fit_em",
    "fit_test",
    "get_codec",
    "iter_chunks",
    "membership_report",
    "register_codec",
    "select_k",
    "__version__",
]
