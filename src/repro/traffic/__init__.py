"""Traffic models for the dynamic simulation.

* :mod:`~repro.traffic.voice` — on/off voice sources; the large population of
  voice users forms the statistically multiplexed background load the paper
  discusses in the introduction.
* :mod:`~repro.traffic.data` — bursty packet-data (WWW-style packet-call)
  sources whose bursts are what the admission control schedules.
* :mod:`~repro.traffic.arrivals` — the batched renewal-arrival kernel of
  the data-traffic fleet.
"""

from repro.traffic.voice import OnOffVoiceSource, VoiceFleet
from repro.traffic.data import (
    DataTrafficFleet,
    FleetArrivals,
    PacketCall,
    PacketCallDataSource,
    TruncatedParetoSize,
)
from repro.traffic.arrivals import pull_renewal_arrivals_batch

__all__ = [
    "OnOffVoiceSource",
    "VoiceFleet",
    "PacketCallDataSource",
    "DataTrafficFleet",
    "FleetArrivals",
    "TruncatedParetoSize",
    "PacketCall",
    "pull_renewal_arrivals_batch",
]
