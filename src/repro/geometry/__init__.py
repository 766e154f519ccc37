"""Cell geometry and user mobility models.

The dynamic simulation places base stations on a hexagonal grid
(:class:`~repro.geometry.hexgrid.HexagonalCellLayout`, with optional
wrap-around so that edge cells see the same interference environment as the
centre cell) and moves its users with a structure-of-arrays random-direction
fleet (:class:`~repro.geometry.mobility.RandomDirectionFleet`), as required by
the paper's "dynamic simulations which takes into account of the user
mobility".  Static drops hold their users at fixed positions
(:class:`~repro.geometry.mobility.StaticMobility`).
"""

from repro.geometry.hexgrid import HexagonalCellLayout
from repro.geometry.mobility import (
    FleetMemberMobility,
    MobilityModel,
    RandomDirectionFleet,
    StaticMobility,
)

__all__ = [
    "HexagonalCellLayout",
    "MobilityModel",
    "StaticMobility",
    "RandomDirectionFleet",
    "FleetMemberMobility",
]
