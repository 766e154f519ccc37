"""Wideband CDMA multi-cell network substrate.

This package provides everything the burst admission layer measures and
controls (Section 3.1 of the paper):

* base stations and mobiles (:mod:`~repro.cdma.entities`),
* vectorised local-mean link gains combining path loss and correlated
  shadowing for every mobile–cell pair (:mod:`~repro.cdma.linkgain`; the
  fast fading is averaged analytically by the VTAOC layer),
* pilot Ec/Io measurements (:mod:`~repro.cdma.pilot`),
* soft hand-off active sets and the *reduced* active set used by the SCH
  (:mod:`~repro.cdma.handoff`),
* SIR-based power control for the forward and reverse fundamental channels
  (:mod:`~repro.cdma.powercontrol`),
* forward-link power-budget and reverse-link interference bookkeeping
  (:mod:`~repro.cdma.loading`), and
* :class:`~repro.cdma.network.CdmaNetwork`, which assembles all of the above
  and exposes the measurement snapshots consumed by
  :mod:`repro.mac.measurement`.
"""

from repro.cdma.entities import BaseStation, MobileStation, UserClass
from repro.cdma.linkgain import LinkGainMap
from repro.cdma.pilot import forward_pilot_ec_io, reverse_pilot_ec_io
from repro.cdma.handoff import SoftHandoffController, ActiveSetState
from repro.cdma.powercontrol import (
    ReverseLinkPowerControl,
    ForwardLinkPowerControl,
    PowerControlResult,
)
from repro.cdma.loading import ForwardLinkLoad, ReverseLinkLoad
from repro.cdma.network import CdmaNetwork, NetworkSnapshot

__all__ = [
    "BaseStation",
    "MobileStation",
    "UserClass",
    "LinkGainMap",
    "forward_pilot_ec_io",
    "reverse_pilot_ec_io",
    "SoftHandoffController",
    "ActiveSetState",
    "ReverseLinkPowerControl",
    "ForwardLinkPowerControl",
    "PowerControlResult",
    "ForwardLinkLoad",
    "ReverseLinkLoad",
    "CdmaNetwork",
    "NetworkSnapshot",
]
