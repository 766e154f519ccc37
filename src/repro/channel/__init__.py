"""Wireless channel models (Section 2.1 of the paper).

The link between a mobile and a base station is modelled as the product of

* a distance-dependent deterministic **path loss** (:mod:`repro.channel.pathloss`),
* a slowly varying log-normal **shadowing** component ``Xl(t)``
  (:mod:`repro.channel.shadowing`), coherence on the order of seconds, and
* a fast **Rayleigh fading** component ``Xs(t)``
  (:mod:`repro.channel.fastfading`), coherence on the order of milliseconds,

combined by :class:`repro.channel.composite.CompositeChannel` according to
eq. (1) of the paper, ``X(t) = Xl(t) * Xs(t)``.  Channel state information
(CSI) estimation and its low-capacity delayed feedback to the transmitter are
modelled in :mod:`repro.channel.csi`.

These are scalar, single-link models.  The dynamic system simulator does not
run them: its channel is :class:`repro.cdma.linkgain.LinkGainMap`, which keeps
the local-mean gain (path loss from this package × shadowing) of every
mobile–cell pair as arrays.  The fast fading is left to the VTAOC physical
layer, whose throughput :mod:`repro.phy.vtaoc` averages over it analytically.
"""

from repro.channel.pathloss import LogDistancePathLoss, HataPathLoss, PathLossModel
from repro.channel.shadowing import GudmundsonShadowing, ConstantShadowing
from repro.channel.fastfading import (
    RayleighBlockFading,
    JakesFading,
    NoFading,
    rayleigh_power_samples,
)
from repro.channel.composite import CompositeChannel, ChannelSample
from repro.channel.csi import CsiEstimator, CsiFeedbackChannel

__all__ = [
    "PathLossModel",
    "LogDistancePathLoss",
    "HataPathLoss",
    "GudmundsonShadowing",
    "ConstantShadowing",
    "RayleighBlockFading",
    "JakesFading",
    "NoFading",
    "rayleigh_power_samples",
    "CompositeChannel",
    "ChannelSample",
    "CsiEstimator",
    "CsiFeedbackChannel",
]
