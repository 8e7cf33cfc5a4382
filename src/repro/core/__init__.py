"""Core CluDistream algorithms.

This package holds the paper's primary contribution:

* the Gaussian mixture machinery (:mod:`repro.core.gaussian`,
  :mod:`repro.core.mixture`),
* the classical EM trainer of section 3.2 (:mod:`repro.core.em`),
* the chunk-size theory of Theorems 1-2 (:mod:`repro.core.chunking`,
  :mod:`repro.core.testing`),
* remote-site processing, Algorithm 1 (:mod:`repro.core.remote`),
* coordinator merge/split maintenance, Algorithm 2
  (:mod:`repro.core.coordinator`, :mod:`repro.core.merging`),
* the event table driving evolving analysis (:mod:`repro.core.events`),
  and
* the assembled distributed system (:mod:`repro.core.cludistream`).
"""

from repro.core.chunking import chunk_size, iter_chunks
from repro.core.scoring import AnomalyDetector, anomaly_scores, membership_report
from repro.core.selection import select_k
from repro.core.serde import (
    CodecConfig,
    CodecError,
    CodecStats,
    WireCodec,
    available_codecs,
    get_codec,
    register_codec,
)
from repro.core.cludistream import CluDistream, CluDistreamConfig
from repro.core.coordinator import Coordinator, CoordinatorConfig
from repro.core.em import EMConfig, EMResult, fit_em
from repro.core.events import EventRecord, EventTable
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.remote import RemoteSite, RemoteSiteConfig
from repro.core.testing import FitTestResult, average_log_likelihood, fit_test

__all__ = [
    "AnomalyDetector",
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
]
