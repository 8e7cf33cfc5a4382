"""Synthetic NFD-like net-flow stream (substitute for the real data set).

The paper's real workload, NFD, is net-flow data from Shanghai Telecom
with six attributes: source host, destination host, source TCP port,
destination TCP port, packet count and number of data bytes.  The data
set is proprietary, so this module generates a synthetic stand-in that
preserves the properties the paper's experiments exercise:

* the exact six-attribute schema and dimensionality;
* *service structure*: traffic concentrates on a small set of popular
  server hosts and well-known ports, with ephemeral client ports --
  this is what gives the data its cluster structure;
* *heavy tails*: packet counts and byte volumes are log-normal, with
  bytes correlated to packets through a per-packet size;
* *evolution*: the traffic mix shifts between regimes (e.g. web-heavy
  versus transfer-heavy periods, occasional scan bursts), producing the
  distribution changes CluDistream's event table must track;
* *normalisation*: like the paper, every attribute is normalised (to
  ``[0, 1]`` ranges) "to reduce the data range effect".

Records are emitted as 6-d float vectors in schema order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["FlowRegime", "NetflowConfig", "NetflowStreamGenerator"]

#: Attribute order of every record.
SCHEMA = (
    "src_host",
    "dst_host",
    "src_port",
    "dst_port",
    "packet_count",
    "data_bytes",
)

#: Normalisation constants: host ids, 16-bit ports, and log-scale caps
#: for packets (~e^8 ≈ 3k packets) and bytes (~e^16 ≈ 8.9 MB).
HOST_SPACE = 4096
PORT_SPACE = 65535
LOG_PACKET_CAP = 8.0
LOG_BYTES_CAP = 16.0

#: Well-known service ports the destination-port attribute clusters on.
SERVICE_PORTS = (80, 443, 25, 53, 21, 110, 8080, 3306)


@dataclass(frozen=True)
class FlowRegime:
    """One traffic regime: a weighted set of service profiles.

    Each profile is a tuple ``(weight, server_host, service_port,
    log_packets_mean, log_packets_sigma, log_bytes_per_packet_mean)``
    describing one service's flows during the regime.
    """

    profiles: tuple[tuple[float, int, int, float, float, float], ...]

    def __post_init__(self) -> None:
        if not self.profiles:
            raise ValueError("a regime needs at least one service profile")
        if any(weight <= 0.0 for weight, *_ in self.profiles):
            raise ValueError("profile weights must be positive")

    @property
    def weights(self) -> np.ndarray:
        raw = np.array([weight for weight, *_ in self.profiles])
        return raw / raw.sum()


@dataclass(frozen=True, kw_only=True)
class NetflowConfig:
    """Generator parameters.

    Parameters
    ----------
    n_regimes:
        Size of the regime pool the stream switches between.
    services_per_regime:
        Service profiles per regime (the cluster count of the data).
    segment_length:
        Records per segment; a regime switch is considered at each
        segment boundary, mirroring the synthetic stream's evolution.
    p_switch:
        Probability of switching regimes at a boundary (the ``P_d``
        analogue).
    client_noise:
        Std-dev of the jitter applied to the normalised host/port
        attributes, modelling the many distinct client hosts and
        ephemeral ports behind one service.
    """

    n_regimes: int = 6
    services_per_regime: int = 5
    segment_length: int = 2000
    p_switch: float = 0.1
    client_noise: float = 0.03

    def __post_init__(self) -> None:
        if self.n_regimes < 1:
            raise ValueError("n_regimes must be at least 1")
        if self.services_per_regime < 1:
            raise ValueError("services_per_regime must be at least 1")
        if self.segment_length < 1:
            raise ValueError("segment_length must be at least 1")
        if not 0.0 <= self.p_switch <= 1.0:
            raise ValueError("p_switch must lie in [0, 1]")
        if self.client_noise <= 0.0:
            raise ValueError("client_noise must be positive")


class NetflowStreamGenerator:
    """Infinite stream of normalised 6-d net-flow records.

    Parameters
    ----------
    config:
        Generator parameters.
    rng:
        Randomness source; fixes both the regime pool and the record
        sequence, so runs are reproducible.

    Attributes
    ----------
    regimes:
        The sampled regime pool.
    regime_history:
        ``(segment_index, regime_index)`` pairs recorded as segments are
        generated -- the ground truth for change-detection evaluation.
    """

    def __init__(
        self,
        config: NetflowConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.config = config or NetflowConfig()
        self._rng = rng if rng is not None else np.random.default_rng(2007)
        self.regimes: tuple[FlowRegime, ...] = tuple(
            self._random_regime() for _ in range(self.config.n_regimes)
        )
        self.regime_history: list[tuple[int, int]] = []
        self._iterator = self._generate()

    @property
    def dim(self) -> int:
        """Record dimensionality (always 6, the NFD schema)."""
        return len(SCHEMA)

    def __iter__(self) -> Iterator[np.ndarray]:
        return self._iterator

    def __next__(self) -> np.ndarray:
        return next(self._iterator)

    # ------------------------------------------------------------------
    # Regime construction
    # ------------------------------------------------------------------
    def _random_regime(self) -> FlowRegime:
        profiles = []
        for _ in range(self.config.services_per_regime):
            weight = float(self._rng.uniform(0.5, 2.0))
            server = int(self._rng.integers(HOST_SPACE))
            port = int(self._rng.choice(SERVICE_PORTS))
            log_packets_mean = float(self._rng.uniform(1.0, 6.0))
            log_packets_sigma = float(self._rng.uniform(0.3, 0.8))
            log_bytes_per_packet = float(self._rng.uniform(4.0, 7.5))
            profiles.append(
                (
                    weight,
                    server,
                    port,
                    log_packets_mean,
                    log_packets_sigma,
                    log_bytes_per_packet,
                )
            )
        return FlowRegime(profiles=tuple(profiles))

    # ------------------------------------------------------------------
    # Record generation
    # ------------------------------------------------------------------
    def _sample_segment(self, regime: FlowRegime) -> np.ndarray:
        """Vectorised sampling of one segment under ``regime``."""
        cfg = self.config
        n = cfg.segment_length
        choice = self._rng.choice(
            len(regime.profiles), size=n, p=regime.weights
        )
        records = np.empty((n, len(SCHEMA)))
        for idx, profile in enumerate(regime.profiles):
            mask = choice == idx
            count = int(mask.sum())
            if not count:
                continue
            (_, server, port, lp_mean, lp_sigma, lbpp_mean) = profile
            # Clients come from anywhere; servers are fixed per service.
            src_host = self._rng.integers(HOST_SPACE, size=count) / HOST_SPACE
            dst_host = np.full(count, server / HOST_SPACE)
            src_port = (
                self._rng.integers(32768, PORT_SPACE, size=count) / PORT_SPACE
            )
            dst_port = np.full(count, port / PORT_SPACE)
            log_packets = self._rng.normal(lp_mean, lp_sigma, size=count)
            log_packets = np.clip(log_packets, 0.0, LOG_PACKET_CAP)
            log_bytes = log_packets + self._rng.normal(
                lbpp_mean, 0.3, size=count
            )
            log_bytes = np.clip(log_bytes, 0.0, LOG_BYTES_CAP)
            segment = np.column_stack(
                [
                    src_host,
                    dst_host,
                    dst_port,  # placeholder order fixed below
                    src_port,
                    log_packets / LOG_PACKET_CAP,
                    log_bytes / LOG_BYTES_CAP,
                ]
            )
            # Schema order: src_host, dst_host, src_port, dst_port, ...
            segment[:, [2, 3]] = segment[:, [3, 2]]
            records[mask] = segment
        # Jitter the categorical-derived coordinates so each service is
        # a genuine Gaussian-like cluster instead of a point mass.
        jitter = self._rng.normal(0.0, cfg.client_noise, size=records.shape)
        jitter[:, 0] *= 3.0  # client hosts are genuinely dispersed
        records = np.clip(records + jitter, 0.0, 1.0)
        return records

    def _generate(self) -> Iterator[np.ndarray]:
        regime_index = int(self._rng.integers(len(self.regimes)))
        segment_index = 0
        while True:
            if segment_index > 0 and self._rng.random() < self.config.p_switch:
                others = [
                    i for i in range(len(self.regimes)) if i != regime_index
                ]
                if others:
                    regime_index = int(self._rng.choice(others))
            self.regime_history.append((segment_index, regime_index))
            segment = self._sample_segment(self.regimes[regime_index])
            for row in segment:
                yield row
            segment_index += 1

    def snapshot(self, n: int) -> np.ndarray:
        """Materialise the next ``n`` records as an ``(n, 6)`` array."""
        rows = [next(self._iterator) for _ in range(n)]
        return np.stack(rows)
