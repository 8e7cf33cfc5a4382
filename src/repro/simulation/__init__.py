"""Discrete-event simulation substrate.

The paper drives its experiments with the C++Sim discrete-event
simulation package; this package is our from-scratch Python equivalent.
It provides:

* :mod:`repro.simulation.engine` -- a virtual clock and event queue,
* :mod:`repro.simulation.network` -- star-topology channels between
  remote sites and the coordinator with latency, bandwidth and exact
  byte-cost metering, and
* :mod:`repro.simulation.collector` -- per-second time-series
  collectors ("the total communication cost is collected every second",
  section 6).
"""

from repro.simulation.collector import TimeSeriesCollector
from repro.simulation.engine import SimulationEngine
from repro.simulation.network import NetworkChannel, StarNetwork

__all__ = [
    "NetworkChannel",
    "SimulationEngine",
    "StarNetwork",
    "TimeSeriesCollector",
]
