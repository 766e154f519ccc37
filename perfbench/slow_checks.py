"""Full-scale checks of the benchmark (about three minutes).

Not collected by the default test run; invoke explicitly::

    PYTHONPATH=src python -m pytest perfbench/slow_checks.py
"""

import time

import pytest

from perfbench import run
from perfbench.test_perfbench import RegionBlindScheduler
from perfbench.workloads import WORKLOADS, Fleet20k, PaperQuick


def _measure(workload):
    result, diagnostics = run.measure(workload.name, workload.seed, 20, False,
                                      time.perf_counter(), workload=workload)
    return result, diagnostics["problems"]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_check_passes_on_the_held_out_seed(name):
    result, problems = _measure(WORKLOADS[name](run.HELD_OUT_SEED, 20))
    assert result["correct"], problems


def test_paper_quick_check_passes_on_the_fleet_path():
    result, problems = _measure(PaperQuick(run.DEFAULT_SEED, 20, fleet_path=True))
    assert result["correct"], problems


def test_fleet_check_fails_with_a_scheduler_that_ignores_the_region():
    result, problems = _measure(
        Fleet20k(run.DEFAULT_SEED, 1, scheduler_factory=RegionBlindScheduler)
    )
    assert not result["correct"] and result["failed"] > 0, problems
