"""Deterministic random-number-generator management.

Simulations in this package involve many stochastic subsystems (placement,
shadowing, mobility, traffic).  To make every experiment reproducible and
every subsystem's stream independent, all randomness flows through
:class:`RngFactory`, which derives child generators from a single master seed
using ``numpy``'s :class:`~numpy.random.SeedSequence` spawning mechanism.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence, None]


class RngFactory:
    """Factory of independent, reproducible random generators.

    Parameters
    ----------
    seed:
        Master seed.  ``None`` draws entropy from the OS (non-reproducible);
        an integer gives a fully reproducible stream tree.

    Examples
    --------
    >>> factory = RngFactory(1234)
    >>> rng_a = factory.child("shadowing")
    >>> rng_b = factory.child("fast-fading")
    >>> float(rng_a.random()) != float(rng_b.random())
    True

    Requesting the same name twice yields *different* generators (each call
    spawns a fresh stream); callers should hold on to the generator they
    obtained.
    """

    def __init__(self, seed: SeedLike = None) -> None:
        if isinstance(seed, np.random.SeedSequence):
            self._sequence = seed
        else:
            self._sequence = np.random.SeedSequence(seed)
        self._spawned = 0

    @property
    def seed_sequence(self) -> np.random.SeedSequence:
        """The underlying :class:`numpy.random.SeedSequence`."""
        return self._sequence

    def child(self, name: Optional[str] = None) -> np.random.Generator:
        """Spawn a new independent :class:`numpy.random.Generator`.

        The ``name`` is only used for debuggability; independence is
        guaranteed by the seed-sequence spawning regardless of the name.
        """
        (child_seq,) = self._sequence.spawn(1)
        self._spawned += 1
        return np.random.default_rng(child_seq)

    def children(self, count: int) -> list[np.random.Generator]:
        """Spawn ``count`` independent generators at once."""
        if count < 0:
            raise ValueError("count must be non-negative")
        seqs = self._sequence.spawn(count)
        self._spawned += count
        return [np.random.default_rng(s) for s in seqs]

    def fork(self) -> "RngFactory":
        """Return a new factory whose streams are independent of this one."""
        (child_seq,) = self._sequence.spawn(1)
        self._spawned += 1
        return RngFactory(child_seq)

    @property
    def spawned(self) -> int:
        """Number of generators and forks spawned so far."""
        return self._spawned

