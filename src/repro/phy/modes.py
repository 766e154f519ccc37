"""Transmission modes of the variable-throughput adaptive physical layer.

The paper employs a 6-mode symbol-by-symbol variable-throughput adaptive
orthogonal coding scheme (VTAOC); transmission mode ``q`` is chosen when the
fed-back CSI falls inside the adaptation interval ``[zeta_q, zeta_{q+1})``.
Each mode offers a different information throughput per modulation symbol.

The exact throughput values in the scanned paper are OCR-garbled; the
default table below uses ``bits_per_symbol = q`` for ``q = 1..6``
with a normalising ``symbol_rate_factor`` so the *relative* throughputs across
modes — which is all the burst admission layer consumes through
``delta_rho`` — span the same ×6 dynamic range regardless of the absolute
normalisation.  The table is fully configurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence

from repro import constants
from repro.utils.validation import check_positive

__all__ = ["TransmissionMode", "ModeTable"]


@dataclass(frozen=True)
class TransmissionMode:
    """One VTAOC transmission mode.

    Attributes
    ----------
    index:
        Mode number ``q`` (1-based; 0 is reserved for "no transmission").
    bits_per_symbol:
        Information bits carried per modulation symbol in this mode.
    label:
        Human-readable name used in reports.
    """

    index: int
    bits_per_symbol: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("mode index must be >= 1 (0 is the outage mode)")
        check_positive("bits_per_symbol", self.bits_per_symbol)

    @property
    def throughput(self) -> float:
        """Information throughput of the mode (bits per modulation symbol)."""
        return self.bits_per_symbol


class ModeTable:
    """Ordered collection of :class:`TransmissionMode` objects.

    Modes must have strictly increasing ``bits_per_symbol`` with increasing
    index, so that the constant-BER adaptation thresholds are strictly
    increasing as well.
    """

    def __init__(self, modes: Sequence[TransmissionMode]) -> None:
        modes = list(modes)
        if not modes:
            raise ValueError("ModeTable requires at least one mode")
        for i, mode in enumerate(modes, start=1):
            if mode.index != i:
                raise ValueError(
                    f"mode indices must be consecutive starting at 1; "
                    f"got {mode.index} at position {i}"
                )
        for prev, nxt in zip(modes, modes[1:]):
            if nxt.bits_per_symbol <= prev.bits_per_symbol:
                raise ValueError(
                    "bits_per_symbol must be strictly increasing across modes"
                )
        self._modes: List[TransmissionMode] = modes

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._modes)

    def __iter__(self) -> Iterator[TransmissionMode]:
        return iter(self._modes)

    def __getitem__(self, index: int) -> TransmissionMode:
        """Return the mode with 1-based mode index ``index``."""
        if index < 1 or index > len(self._modes):
            raise IndexError(f"mode index {index} out of range 1..{len(self._modes)}")
        return self._modes[index - 1]

    # -- convenience ----------------------------------------------------------
    @property
    def max_throughput(self) -> float:
        """Throughput of the highest mode."""
        return self._modes[-1].throughput

    @property
    def min_throughput(self) -> float:
        """Throughput of the lowest (most protected) mode."""
        return self._modes[0].throughput

    def throughputs(self) -> List[float]:
        """Per-mode throughput list (index order)."""
        return [m.throughput for m in self._modes]

    @classmethod
    def default(cls, num_modes: int = constants.VTAOC_NUM_MODES) -> "ModeTable":
        """The default 6-mode table: mode ``q`` carries ``q`` bits per symbol."""
        if num_modes < 1:
            raise ValueError("num_modes must be >= 1")
        return cls(
            [
                TransmissionMode(index=q, bits_per_symbol=float(q), label=f"mode-{q}")
                for q in range(1, num_modes + 1)
            ]
        )

    @classmethod
    def from_throughputs(cls, throughputs: Iterable[float]) -> "ModeTable":
        """Build a table from an increasing sequence of per-mode throughputs."""
        return cls(
            [
                TransmissionMode(index=i, bits_per_symbol=float(t), label=f"mode-{i}")
                for i, t in enumerate(throughputs, start=1)
            ]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ModeTable({[m.bits_per_symbol for m in self._modes]})"
