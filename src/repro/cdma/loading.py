"""Forward-link power-budget and reverse-link interference bookkeeping.

These two snapshot classes bundle exactly the quantities the measurement
sub-layer of the burst admission algorithm consumes (Figure 2 of the paper):

* forward link: the current cell loading ``P_k``, the per-mobile FCH forward
  power ``P_{j,k}``, and the traffic-power ceiling ``P_max`` of every cell;
* reverse link: the current received interference ``L_k``, the reverse pilot
  strengths ``t^{RL}_{j,k}`` from soft-hand-off cells, the forward pilot
  strengths ``t^{FL}_{j,k}`` reported in the SCRM message, the FCH-to-pilot
  power ratio ``xi_j`` and the interference ceiling ``L_max``.

Admission reads the ``(J, K)`` quantities only for the mobiles with a pending
burst request.  A load built by the network (:meth:`ForwardLinkLoad.measured`,
:meth:`ReverseLinkLoad.measured`) therefore keeps their inputs and computes
the requested rows on demand (``fch_power_rows``, ``reverse_pilot_rows``,
``forward_pilot_rows``); the whole matrix is computed on first access of its
attribute and cached.  A load built by hand keeps the matrices it is given.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cdma.pilot import forward_pilot_ec_io_rows, reverse_pilot_ec_io

__all__ = ["ForwardLinkLoad", "ReverseLinkLoad"]


def _checked(name: str, values, shape: Tuple[int, ...]) -> np.ndarray:
    """``values`` as a float array, refused unless its shape is ``shape``."""
    array = np.asarray(values, dtype=float)
    if array.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, not {array.shape}")
    return array


class ForwardLinkLoad:
    """Forward-link loading snapshot (inputs of eqs. (6)–(8)).

    Attributes
    ----------
    max_traffic_power_w:
        ``P_max`` per cell: traffic-power ceiling, shape ``(K,)``.
    current_power_w:
        ``P_k`` per cell: currently committed transmit power (common channels
        + FCH allocations + already-granted SCH bursts), shape ``(K,)``.
    fch_power_w:
        ``P_{j,k}``: full-rate-equivalent FCH forward power allocated to
        mobile ``j`` by cell ``k`` (0 when ``k`` is not serving the mobile),
        shape ``(J, K)``.  Computed on first access for a :meth:`measured`
        load.
    """

    def __init__(
        self,
        max_traffic_power_w: np.ndarray,
        current_power_w: np.ndarray,
        fch_power_w: np.ndarray,
    ) -> None:
        self._set_cells(max_traffic_power_w, current_power_w)
        fch = np.asarray(fch_power_w, dtype=float)
        # (J, K), with J the matrix's own row count.
        self._fch_power_w: Optional[np.ndarray] = _checked(
            "fch_power_w", fch, fch.shape[:1] + (self.num_cells,)
        )
        self._num_mobiles = fch.shape[0]
        self._allocation_w: Optional[np.ndarray] = None
        self._rate_divisor: Optional[np.ndarray] = None

    @classmethod
    def measured(
        cls,
        max_traffic_power_w: np.ndarray,
        current_power_w: np.ndarray,
        fch_allocation_w: np.ndarray,
        rate_factor: np.ndarray,
    ) -> "ForwardLinkLoad":
        """Load whose ``P_{j,k}`` rows are computed on demand.

        ``fch_allocation_w`` is the forward power-control allocation at the
        rate each mobile currently holds, shape ``(J, K)``, kept by reference
        (it must not change afterwards); ``rate_factor`` that rate relative
        to the full-rate FCH, shape ``(J,)``.
        """
        load = cls.__new__(cls)
        load._set_cells(max_traffic_power_w, current_power_w)
        allocation = np.asarray(fch_allocation_w, dtype=float)
        load._allocation_w = _checked(
            "fch_allocation_w", allocation, allocation.shape[:1] + (load.num_cells,)
        )
        load._num_mobiles = allocation.shape[0]
        # Eq. (6) assumes the measured P_{j,k} refers to a full-rate FCH: the
        # allocation is divided by the current rate (floored, never zero).
        rate = _checked("rate_factor", rate_factor, (load._num_mobiles,))
        load._rate_divisor = np.maximum(rate, 1e-12)
        load._fch_power_w = None
        return load

    def _set_cells(self, max_traffic_power_w, current_power_w) -> None:
        self.max_traffic_power_w = np.asarray(max_traffic_power_w, dtype=float)
        self.current_power_w = _checked(
            "current_power_w", current_power_w, (self.num_cells,)
        )

    @property
    def fch_power_w(self) -> np.ndarray:
        """``P_{j,k}`` of every mobile, shape ``(J, K)``."""
        if self._fch_power_w is None:
            self._fch_power_w = self.fch_power_rows(slice(None))
        return self._fch_power_w

    def fch_power_rows(self, mobiles) -> np.ndarray:
        """``P_{j,k}`` of the ``mobiles`` (an index array or slice), shape ``(n, K)``."""
        if self._fch_power_w is not None:
            return self._fch_power_w[mobiles]
        return self._allocation_w[mobiles] / self._rate_divisor[mobiles, np.newaxis]

    @property
    def num_cells(self) -> int:
        """Number of cells ``K``."""
        return self.max_traffic_power_w.shape[0]

    @property
    def num_mobiles(self) -> int:
        """Number of mobiles ``J``."""
        return self._num_mobiles

    def headroom_w(self) -> np.ndarray:
        """Available forward-link power per cell, ``max(P_max - P_k, 0)``."""
        return np.maximum(self.max_traffic_power_w - self.current_power_w, 0.0)

    def utilisation(self) -> np.ndarray:
        """Fraction of the traffic-power budget in use per cell."""
        return self.current_power_w / self.max_traffic_power_w


class ReverseLinkLoad:
    """Reverse-link loading snapshot (inputs of eqs. (9)–(18)).

    Attributes
    ----------
    max_interference_w:
        ``L_max`` per cell: received-interference ceiling, shape ``(K,)``.
    current_interference_w:
        ``L_k`` per cell: current total received power (noise + all users +
        granted reverse bursts), shape ``(K,)``.
    reverse_pilot_strength:
        ``t^{RL}_{j,k}``: reverse pilot Ec/Io of mobile ``j`` at cell ``k``,
        shape ``(J, K)``.  Computed on first access for a :meth:`measured`
        load.
    forward_pilot_strength:
        ``t^{FL}_{j,k}``: forward pilot Ec/Io of cell ``k`` measured and
        reported by mobile ``j`` (SCRM content), shape ``(J, K)``.  Computed
        on first access for a :meth:`measured` load.
    fch_pilot_power_ratio:
        ``xi_j``: FCH-to-pilot transmit power ratio per mobile, shape ``(J,)``.
    """

    def __init__(
        self,
        max_interference_w: np.ndarray,
        current_interference_w: np.ndarray,
        reverse_pilot_strength: np.ndarray,
        forward_pilot_strength: np.ndarray,
        fch_pilot_power_ratio: np.ndarray,
    ) -> None:
        self._set_common(
            max_interference_w, current_interference_w, fch_pilot_power_ratio
        )
        shape = (self.num_mobiles, self.num_cells)
        self._reverse_pilot: Optional[np.ndarray] = _checked(
            "reverse_pilot_strength", reverse_pilot_strength, shape
        )
        self._forward_pilot: Optional[np.ndarray] = _checked(
            "forward_pilot_strength", forward_pilot_strength, shape
        )
        self._gains: Optional[np.ndarray] = None
        self._mobile_pilot_tx_w: Optional[np.ndarray] = None
        self._bs_pilot_power_w: Optional[np.ndarray] = None
        self._mobile_received_power_w: Optional[np.ndarray] = None

    @classmethod
    def measured(
        cls,
        max_interference_w: np.ndarray,
        current_interference_w: np.ndarray,
        fch_pilot_power_ratio: np.ndarray,
        gains: np.ndarray,
        mobile_pilot_tx_power_w: np.ndarray,
        bs_pilot_power_w: np.ndarray,
        mobile_received_power_w: np.ndarray,
    ) -> "ReverseLinkLoad":
        """Load whose pilot Ec/Io rows are computed on demand.

        ``gains`` are the local-mean link gains, shape ``(J, K)``;
        ``mobile_pilot_tx_power_w`` the reverse pilot power of each mobile,
        shape ``(J,)``; ``bs_pilot_power_w`` the forward pilot power of each
        cell, shape ``(K,)``; ``mobile_received_power_w`` the total received
        power ``Io`` of each mobile, shape ``(J,)`` (see
        :func:`repro.cdma.pilot.mobile_received_power_w`).  All are kept by
        reference and must not change afterwards.
        """
        load = cls.__new__(cls)
        load._set_common(
            max_interference_w, current_interference_w, fch_pilot_power_ratio
        )
        j, k = load.num_mobiles, load.num_cells
        load._gains = _checked("gains", gains, (j, k))
        load._mobile_pilot_tx_w = _checked(
            "mobile_pilot_tx_power_w", mobile_pilot_tx_power_w, (j,)
        )
        load._bs_pilot_power_w = _checked("bs_pilot_power_w", bs_pilot_power_w, (k,))
        load._mobile_received_power_w = _checked(
            "mobile_received_power_w", mobile_received_power_w, (j,)
        )
        load._reverse_pilot = load._forward_pilot = None
        return load

    def _set_common(
        self, max_interference_w, current_interference_w, fch_pilot_power_ratio
    ) -> None:
        self.max_interference_w = np.asarray(max_interference_w, dtype=float)
        self.current_interference_w = _checked(
            "current_interference_w", current_interference_w, (self.num_cells,)
        )
        xi = np.asarray(fch_pilot_power_ratio, dtype=float)
        self.fch_pilot_power_ratio = _checked("fch_pilot_power_ratio", xi, (xi.size,))

    @property
    def reverse_pilot_strength(self) -> np.ndarray:
        """``t^{RL}_{j,k}`` of every mobile, shape ``(J, K)``."""
        if self._reverse_pilot is None:
            self._reverse_pilot = self.reverse_pilot_rows(slice(None))
        return self._reverse_pilot

    @property
    def forward_pilot_strength(self) -> np.ndarray:
        """``t^{FL}_{j,k}`` of every mobile, shape ``(J, K)``."""
        if self._forward_pilot is None:
            self._forward_pilot = self.forward_pilot_rows(slice(None))
        return self._forward_pilot

    def reverse_pilot_rows(self, mobiles) -> np.ndarray:
        """``t^{RL}`` of the ``mobiles`` (an index array or slice), shape ``(n, K)``."""
        if self._reverse_pilot is not None:
            return self._reverse_pilot[mobiles]
        return reverse_pilot_ec_io(
            self._gains[mobiles],
            self._mobile_pilot_tx_w[mobiles],
            self.current_interference_w,
        )

    def forward_pilot_rows(self, mobiles) -> np.ndarray:
        """``t^{FL}`` of the ``mobiles`` (an index array or slice), shape ``(n, K)``."""
        if self._forward_pilot is not None:
            return self._forward_pilot[mobiles]
        return forward_pilot_ec_io_rows(
            self._gains[mobiles],
            self._bs_pilot_power_w,
            self._mobile_received_power_w[mobiles],
        )

    @property
    def num_cells(self) -> int:
        """Number of cells ``K``."""
        return self.max_interference_w.shape[0]

    @property
    def num_mobiles(self) -> int:
        """Number of mobiles ``J``."""
        return self.fch_pilot_power_ratio.shape[0]

    def headroom_w(self) -> np.ndarray:
        """Available reverse-link interference margin per cell."""
        return np.maximum(self.max_interference_w - self.current_interference_w, 0.0)

    def rise_over_thermal_db(self, noise_power_w: np.ndarray) -> np.ndarray:
        """Current rise over thermal (dB) per cell given the noise floor."""
        noise = np.asarray(noise_power_w, dtype=float)
        return 10.0 * np.log10(self.current_interference_w / noise)
