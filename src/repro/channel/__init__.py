"""Path-loss models (Section 2.1 of the paper).

The paper models the link between a mobile and a base station as
``X(t) = Xl(t) * Xs(t)`` (eq. (1)): a slowly varying local mean ``Xl(t)``
(distance-dependent path loss × log-normal shadowing, coherence on the order
of seconds) times a fast Rayleigh fading factor ``Xs(t)`` (coherence on the
order of milliseconds).  The dynamic simulator keeps the local mean of every
mobile–cell pair as arrays in :class:`repro.cdma.linkgain.LinkGainMap`, which
takes its path loss from this package and advances the shadowing itself.  The
fast fading is left to the VTAOC physical layer, whose throughput
:mod:`repro.phy.vtaoc` averages over it analytically.
"""

from repro.channel.pathloss import LogDistancePathLoss, PathLossModel

__all__ = [
    "PathLossModel",
    "LogDistancePathLoss",
]
