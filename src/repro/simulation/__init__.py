"""System-level simulators.

* :class:`~repro.simulation.dynamic.DynamicSystemSimulator` — the paper's
  "dynamic simulation": a frame-by-frame multi-cell simulation with user
  mobility, power control, soft hand-off, on/off voice background load,
  bursty packet-data traffic and per-frame burst admission on both links.
* :class:`~repro.simulation.snapshot.SnapshotSimulator` — Monte-Carlo drop
  analysis used for the capacity and coverage experiments.
* :mod:`~repro.simulation.scenario` — scenario configuration shared by both.
* :mod:`~repro.simulation.metrics` — metric collectors and result containers.

Runs over several seeds go through the campaign engine
(:mod:`repro.experiments.campaign`).
"""

from repro.simulation.scenario import ScenarioConfig, TrafficConfig, MobilityConfig
from repro.simulation.metrics import MetricsCollector, SimulationResult
from repro.simulation.dynamic import DynamicSystemSimulator
from repro.simulation.snapshot import SnapshotSimulator, SnapshotResult

__all__ = [
    "ScenarioConfig",
    "TrafficConfig",
    "MobilityConfig",
    "MetricsCollector",
    "SimulationResult",
    "DynamicSystemSimulator",
    "SnapshotSimulator",
    "SnapshotResult",
]
