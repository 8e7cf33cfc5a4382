"""Virtual clock and cost meter of :class:`~repro.runtime.SimulatedChannel`.

All that remains of our stand-in for the paper's C++Sim package, since
delivery is synchronous: :mod:`repro.simulation.engine` is the virtual
clock (record ``k`` of a site at ``k / rate`` seconds) and
:mod:`repro.simulation.collector` samples the communication cost "every
second" (section 6).
"""

from repro.simulation.collector import TimeSeriesCollector
from repro.simulation.engine import SimulationEngine

__all__ = ["SimulationEngine", "TimeSeriesCollector"]
