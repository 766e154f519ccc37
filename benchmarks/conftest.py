"""Shared configuration of the benchmark harness.

Every benchmark regenerates one experiment of the paper at a reduced —
but still representative — scale, prints the paper-style table (run pytest
with ``-s`` to see it) and checks the expected qualitative shape.  The
full-scale figures are produced by ``python -m repro.experiments.report``.
"""

from __future__ import annotations

import pytest

from repro.experiments.campaign import clear_shared_replications


def pytest_configure(config):  # pragma: no cover - harness glue
    # The experiment functions dominate the run time; a single round is both
    # representative and affordable.
    config.option.benchmark_min_rounds = 1
    config.option.benchmark_warmup = False


@pytest.fixture(autouse=True)
def empty_replication_store():
    """Start every benchmark with an empty process-wide replication store.

    The T1, T2 and F5 harnesses then time their own experiment instead of
    replications an earlier F2/F3 harness left behind.
    """
    clear_shared_replications()


@pytest.fixture
def show(capsys):
    """Print a table so it survives pytest's capture (visible with -s)."""

    def _show(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _show
