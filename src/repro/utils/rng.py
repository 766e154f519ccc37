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


class AntitheticRng:
    """Antithetic mirror of a :class:`numpy.random.Generator` stream.

    Wraps a generator seeded identically to the primary stream and reflects
    every *output* instead of perturbing the *state*: each method calls the
    same underlying generator method as the primary replication would, then
    applies the measure-preserving reflection ``F^-1(1 - F(x))`` to the
    result.  Because the underlying state consumption is identical draw for
    draw, the primary stream at replication ``2k`` and the antithetic stream
    at ``2k + 1`` stay perfectly negatively coupled for the whole run, no
    matter how many draws of which distribution the simulation interleaves.

    Reflections: ``u -> 1 - u`` (uniform), ``z -> -z`` (centred normal),
    ``x -> -scale * log1p(-exp(-x / scale))`` (exponential), and
    ``x -> low + high - 1 - x`` (integers).  Only the methods used by the
    campaign runners are provided; anything else raises ``AttributeError``
    rather than silently de-coupling the pair.
    """

    __slots__ = ("_generator",)

    def __init__(self, generator: np.random.Generator) -> None:
        self._generator = generator

    def random(self, size=None):
        return 1.0 - self._generator.random(size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return low + high - self._generator.uniform(low, high, size)

    def standard_normal(self, size=None):
        return -self._generator.standard_normal(size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return 2.0 * loc - self._generator.normal(loc, scale, size)

    def exponential(self, scale: float = 1.0, size=None):
        x = self._generator.exponential(scale, size)
        return -scale * np.log1p(-np.exp(-x / scale))

    def integers(self, low, high=None, size=None):
        if high is None:
            low, high = 0, low
        return low + high - 1 - self._generator.integers(low, high, size)

