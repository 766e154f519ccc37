"""Cell geometry and user mobility models.

The dynamic simulation places base stations on a hexagonal grid
(:class:`~repro.geometry.hexgrid.HexagonalCellLayout`, with optional
wrap-around so that edge cells see the same interference environment as the
centre cell) and moves users with simple stochastic mobility models
(:mod:`~repro.geometry.mobility`), as required by the paper's "dynamic
simulations which takes into account of the user mobility".
"""

from repro.geometry.hexgrid import HexagonalCellLayout
from repro.geometry.mobility import (
    FleetMemberMobility,
    MobilityModel,
    RandomDirectionFleet,
    RandomDirectionMobility,
    StaticMobility,
)

__all__ = [
    "HexagonalCellLayout",
    "MobilityModel",
    "StaticMobility",
    "RandomDirectionMobility",
    "RandomDirectionFleet",
    "FleetMemberMobility",
]
