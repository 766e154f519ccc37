"""Shared pytest fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.experiments.campaign import clear_shared_replications
from repro.geometry.hexgrid import HexagonalCellLayout


@pytest.fixture(autouse=True)
def empty_replication_store():
    """Start every test with an empty process-wide replication store.

    Hook, trace and executor counts then never depend on which campaigns
    earlier tests ran.
    """
    clear_shared_replications()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_config() -> SystemConfig:
    """A small, fast system configuration."""
    return SystemConfig.small_test_system()


@pytest.fixture
def seven_cell_layout() -> HexagonalCellLayout:
    """The 7-cell (one ring) hexagonal layout used in most tests."""
    return HexagonalCellLayout(num_rings=1, cell_radius_m=1000.0, wraparound=True)
