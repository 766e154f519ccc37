"""Campaign engine: determinism, checkpoint resume, seed-tree independence."""

import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.config import SystemConfig
from repro.experiments.campaign import (
    Campaign,
    MetricSummary,
    replication_seed,
    seed_sequence_to_int,
)
from repro.experiments.coverage import build_coverage_campaign
from repro.experiments.delay_vs_load import build_delay_campaign
from repro.simulation.scenario import ScenarioConfig


def _toy_runner(params, seed):
    """Cheap deterministic replication: statistics of 256 uniform draws."""
    rng = np.random.default_rng(seed)
    draws = rng.random(256)
    return {
        "mean_draw": float(draws.mean()) + float(params["offset"]),
        "max_draw": float(draws.max()),
    }


def _distinct_prefixes(streams, prefix=8):
    """Number of distinct leading ``prefix``-draw prefixes among the streams."""
    return len({tuple(row[:prefix]) for row in streams})


def _max_abs_correlation(streams):
    """Largest ``|r|`` between two distinct rows of ``streams``."""
    off_diagonal = ~np.eye(len(streams), dtype=bool)
    return float(np.max(np.abs(np.corrcoef(streams)[off_diagonal])))


def _chi_square_pvalue(sample, bins):
    """Chi-square p-value of ``sample`` against U(0, 1) over ``bins`` bins."""
    counts, _ = np.histogram(sample, bins=bins, range=(0.0, 1.0))
    return scipy_stats.chisquare(counts).pvalue


_FAIL_COUNTER = {"calls": 0, "fail_after": None}


def _failing_runner(params, seed):
    """Toy runner that dies after a configured number of calls (kill test)."""
    if (
        _FAIL_COUNTER["fail_after"] is not None
        and _FAIL_COUNTER["calls"] >= _FAIL_COUNTER["fail_after"]
    ):
        raise RuntimeError("simulated crash")
    _FAIL_COUNTER["calls"] += 1
    return _toy_runner(params, seed)


def toy_campaign(replications=3, root_seed=123, seed_groups=None, runner=_toy_runner):
    points = [{"offset": 0.0}, {"offset": 10.0}, {"offset": 20.0}]
    return Campaign(
        "toy",
        runner,
        points,
        replications=replications,
        root_seed=root_seed,
        seed_groups=seed_groups,
    )


class TestSeedTree:
    def test_leaves_are_deterministic_and_coordinate_addressed(self):
        a = replication_seed(42, 3, 7)
        b = replication_seed(42, 3, 7)
        assert seed_sequence_to_int(a) == seed_sequence_to_int(b)
        assert np.array_equal(
            np.random.default_rng(a).random(16), np.random.default_rng(b).random(16)
        )

    def test_distinct_coordinates_distinct_streams(self):
        ints = {
            seed_sequence_to_int(replication_seed(42, g, r))
            for g in range(20)
            for r in range(20)
        }
        assert len(ints) == 400  # no collisions over the 20x20 grid

    def test_invalid_coordinates_rejected(self):
        with pytest.raises(ValueError):
            replication_seed(0, -1, 0)
        with pytest.raises(ValueError):
            replication_seed(0, 0, -1)

    def test_replication_streams_pass_independence_battery(self):
        # The statistical certificate of the determinism contract: streams
        # from distinct seed-tree leaves behave like independent U(0,1)
        # sources — no seed collisions, no cross-stream correlation.
        n_streams, n_samples = 40, 512
        leaves = [replication_seed(2024, g, r) for g in range(8) for r in range(5)]
        streams = np.vstack(
            [np.random.default_rng(leaf).random(n_samples) for leaf in leaves]
        )
        assert streams.shape == (n_streams, n_samples)

        # 1. No two streams share even a short leading prefix.
        assert _distinct_prefixes(streams) == n_streams

        # 2. Worst pairwise correlation is at noise level (expected max |r|
        #    over 780 pairs of 512 samples is ~0.16).
        assert _max_abs_correlation(streams) < 0.25

        # 3. Each stream individually is uniform (Bonferroni-safe threshold).
        for row in streams:
            assert scipy_stats.kstest(row, "uniform").pvalue >= 1e-4 / n_streams

        # 4. The pooled sample is uniform across bins.
        assert _chi_square_pvalue(streams.ravel(), bins=32) >= 1e-6

        # 5. Spot-check pairs with the exact correlation test.
        for i, j in [(0, 1), (0, 39), (17, 23), (5, 30)]:
            assert scipy_stats.pearsonr(streams[i], streams[j]).pvalue >= 1e-5

    def test_battery_detects_violations(self):
        # The battery has power: each check rejects the defect it looks for.
        rng = np.random.default_rng(0)
        uniform = rng.random(2000)
        skewed = uniform**3
        assert scipy_stats.kstest(skewed, "uniform").pvalue < 1e-6
        assert _chi_square_pvalue(skewed, bins=16) < 1e-6
        noisy_copy = uniform + 0.01 * rng.standard_normal(2000)
        assert scipy_stats.pearsonr(uniform, noisy_copy).pvalue < 1e-6
        assert _max_abs_correlation(np.vstack([uniform, noisy_copy])) >= 0.25
        colliding = np.vstack([uniform[:64], uniform[:64], rng.random(64)])
        assert _distinct_prefixes(colliding) == 2


class TestMetricSummary:
    def test_known_values(self):
        summary = MetricSummary.from_samples([1.0, 2.0, 3.0])
        assert summary.count == 3
        assert summary.mean == pytest.approx(2.0)
        assert summary.std == pytest.approx(1.0)
        assert summary.min == 1.0 and summary.max == 3.0
        # t(0.975, df=2) * sem = 4.302653 / sqrt(3)
        assert summary.ci_half_width == pytest.approx(
            4.302652729911275 / math.sqrt(3.0), rel=1e-9
        )

    def test_empty_and_single(self):
        empty = MetricSummary.from_samples([])
        assert empty.count == 0 and math.isnan(empty.mean)
        single = MetricSummary.from_samples([5.0])
        assert single.count == 1
        assert math.isnan(single.ci_half_width)

    def test_nan_samples_excluded(self):
        summary = MetricSummary.from_samples([1.0, math.nan, 3.0])
        assert summary.count == 2
        assert summary.mean == pytest.approx(2.0)
        assert summary.non_finite == 1


class TestCampaignDeterminism:
    def test_workers_do_not_change_results(self):
        results = {}
        for workers in (1, 4):
            outcome = toy_campaign().run(workers=workers)
            results[workers] = [
                (point.index, sorted(point.replications.items()))
                for point in outcome.points
            ]
        assert results[1] == results[4]  # bit-identical, not approximately

    def test_replications_are_distinct_but_reproducible(self):
        outcome = toy_campaign().run()
        point = outcome.points[0]
        draws = [point.replications[r]["mean_draw"] for r in sorted(point.replications)]
        assert len(set(draws)) == len(draws)
        again = toy_campaign().run()
        assert again.points[0].replications == point.replications

    def test_seed_groups_share_streams(self):
        # Common-random-numbers: points in one seed group replay the same
        # draws, so their metrics differ exactly by the configured offset.
        outcome = toy_campaign(seed_groups=[0, 0, 1]).run()
        a, b, c = outcome.points
        for rep in range(outcome.replications):
            assert b.replications[rep]["mean_draw"] - a.replications[rep][
                "mean_draw"
            ] == pytest.approx(10.0, abs=1e-12)
            assert b.replications[rep]["max_draw"] == a.replications[rep]["max_draw"]
            assert c.replications[rep]["max_draw"] != a.replications[rep]["max_draw"]

    def test_validation(self):
        with pytest.raises(ValueError):
            Campaign("x", _toy_runner, [])
        with pytest.raises(ValueError):
            Campaign("x", _toy_runner, [{"offset": 0.0}], replications=0)
        with pytest.raises(ValueError):
            Campaign("x", _toy_runner, [{"offset": 0.0}], seed_groups=[0, 1])
        with pytest.raises(ValueError):
            toy_campaign().run(workers=0)


class TestCheckpointResume:
    def test_killed_campaign_resumes_without_recompute(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        clean = toy_campaign().run()

        _FAIL_COUNTER.update(calls=0, fail_after=4)
        with pytest.raises(RuntimeError, match="simulated crash"):
            toy_campaign(runner=_failing_runner).run(workers=1, checkpoint_path=path)
        with open(path) as handle:
            assert len(json.load(handle)["completed"]) == 4

        _FAIL_COUNTER.update(calls=0, fail_after=None)
        resumed = toy_campaign(runner=_failing_runner).run(
            workers=1, checkpoint_path=path
        )
        # Only the 5 missing replications ran on resume...
        assert _FAIL_COUNTER["calls"] == 5
        assert resumed.reused_replications == 4
        # ...and the merged outcome is bit-identical to an uninterrupted run.
        assert [p.replications for p in resumed.points] == [
            p.replications for p in clean.points
        ]

    def test_finished_checkpoint_reruns_nothing(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        toy_campaign().run(workers=1, checkpoint_path=path)
        _FAIL_COUNTER.update(calls=0, fail_after=0)  # any call would raise
        outcome = toy_campaign(runner=_failing_runner).run(
            workers=1, checkpoint_path=path
        )
        assert outcome.reused_replications == 9
        assert outcome.completed_replications == 9

    def test_mismatched_checkpoint_refused(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        toy_campaign(root_seed=1).run(workers=1, checkpoint_path=path)
        with pytest.raises(ValueError, match="different campaign"):
            toy_campaign(root_seed=2).run(workers=1, checkpoint_path=path)

    def test_fingerprint_stable_for_callable_specs(self):
        # A restarted process rebuilds factory objects at new addresses; the
        # fingerprint must depend on their qualified name, not their repr,
        # or checkpoints with callable scheduler specs become unresumable.
        def build():
            def factory():
                return None

            return Campaign(
                "x", _toy_runner, [{"offset": 0.0, "scheduler_spec": factory}]
            )

        first = build()
        second = build()
        assert first.points[0]["scheduler_spec"] is not second.points[0][
            "scheduler_spec"
        ]
        assert first.fingerprint() == second.fingerprint()

    def test_checkpoint_is_atomic_json(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        toy_campaign().run(workers=1, checkpoint_path=path)
        assert not os.path.exists(path + ".tmp")
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["campaign"] == "toy"
        assert payload["root_seed"] == 123
        assert len(payload["completed"]) == 9

    def test_corrupt_checkpoint_quarantined_and_recomputed(self, tmp_path):
        # A checkpoint truncated mid-write (crash during save) must not kill
        # the resume: it is moved aside and the campaign recomputes cleanly.
        path = str(tmp_path / "ckpt.json")
        clean = toy_campaign().run(workers=1, checkpoint_path=path)
        with open(path) as handle:
            full = handle.read()
        with open(path, "w") as handle:
            handle.write(full[: len(full) // 2])

        with pytest.warns(RuntimeWarning, match="corrupt"):
            rerun = toy_campaign().run(workers=1, checkpoint_path=path)

        assert os.path.exists(path + ".corrupt")
        assert rerun.reused_replications == 0
        assert rerun.completed_replications == 9
        assert [p.replications for p in rerun.points] == [
            p.replications for p in clean.points
        ]
        # The recomputed run rewrote a valid checkpoint in the original slot.
        with open(path) as handle:
            assert len(json.load(handle)["completed"]) == 9

    def test_corrupt_checkpoint_warns_on_non_json_garbage(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        with open(path, "w") as handle:
            handle.write("[1, 2, 3]")  # valid JSON, wrong shape
        with pytest.warns(RuntimeWarning, match="corrupt"):
            outcome = toy_campaign().run(workers=1, checkpoint_path=path)
        assert outcome.completed_replications == 9
        assert os.path.exists(path + ".corrupt")


_SIGTERM_SCRIPT = """
import sys, time
sys.path.insert(0, {src!r})
import numpy as np
from repro.experiments.campaign import Campaign


def slow_runner(params, seed):
    time.sleep(1.0)
    rng = np.random.default_rng(seed)
    draws = rng.random(256)
    return {{
        "mean_draw": float(draws.mean()) + float(params["offset"]),
        "max_draw": float(draws.max()),
    }}


points = [{{"offset": 0.0}}, {{"offset": 10.0}}, {{"offset": 20.0}}]
campaign = Campaign("toy", slow_runner, points, replications=3, root_seed=123)
campaign.run(workers=2, checkpoint_path={ckpt!r})
"""


class TestSignalInterrupt:
    def _completed_entries(self, path):
        # Mid-run, completed replications live in the fsync'd WAL; the JSON
        # only materialises at compaction (periodic or on close/interrupt).
        # A resumable snapshot is therefore JSON ∪ valid WAL prefix.
        completed = {}
        if os.path.exists(path):
            try:
                with open(path) as handle:
                    completed.update(json.load(handle).get("completed", {}))
            except json.JSONDecodeError:  # pragma: no cover - atomic writes
                pass
        wal = path + ".wal"
        if os.path.exists(wal):
            try:
                with open(wal, "rb") as handle:
                    raw = handle.read()
            except OSError:  # pragma: no cover - race with compaction
                return completed
            for line in raw.splitlines(keepends=True):
                if not line.endswith(b"\n"):
                    break  # torn tail
                try:
                    body = json.loads(line.decode("utf-8").split(" ", 1)[1])
                except (ValueError, IndexError, UnicodeDecodeError):
                    break
                if "key" in body:
                    completed[body["key"]] = body.get("metrics", {})
        return completed

    def test_sigterm_flushes_checkpoint_and_resume_matches(self, tmp_path):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        ckpt = str(tmp_path / "ckpt.json")
        script = tmp_path / "campaign_script.py"
        script.write_text(
            textwrap.dedent(
                _SIGTERM_SCRIPT.format(src=os.path.abspath(src), ckpt=ckpt)
            )
        )

        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if len(self._completed_entries(ckpt)) >= 2:
                    break
                if proc.poll() is not None:
                    pytest.fail(
                        "campaign subprocess exited before the kill: "
                        f"{proc.stderr.read()}"
                    )
                time.sleep(0.05)
            else:
                pytest.fail("checkpoint never reached 2 completed replications")

            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait()

        # The interrupted run died by signal, after flushing its progress.
        assert proc.returncode != 0
        completed = self._completed_entries(ckpt)
        assert 2 <= len(completed) < 9

        # The checkpoint resumes in a fresh campaign object (the fingerprint
        # covers the grid, not the runner) and the merged outcome is
        # bit-identical to an uninterrupted run.
        clean = toy_campaign().run()
        resumed = toy_campaign().run(workers=1, checkpoint_path=ckpt)
        assert resumed.reused_replications == len(completed)
        assert [p.replications for p in resumed.points] == [
            p.replications for p in clean.points
        ]


_COORDINATOR_KILL_SCRIPT = """
import os, sys
sys.path.insert(0, {src!r})
import numpy as np
from repro.experiments.campaign import Campaign


def runner(params, seed):
    rng = np.random.default_rng(seed)
    draws = rng.random(256)
    return {{
        "mean_draw": float(draws.mean()) + float(params["offset"]),
        "max_draw": float(draws.max()),
    }}


def die_after(done, total):
    # SIGKILL stand-in: no unwind, no journal.close(), no compaction —
    # whatever survives is exactly the fsync'd WAL prefix.
    if done >= 3:
        os._exit(3)


points = [{{"offset": 0.0}}, {{"offset": 10.0}}, {{"offset": 20.0}}]
campaign = Campaign("toy", runner, points, replications=3, root_seed=123)
campaign.run(workers={workers}, checkpoint_path={ckpt!r}, progress=die_after)
"""


class TestCoordinatorKillResume:
    """A coordinator killed at any point resumes from the WAL, no recompute."""

    def _killed_run(self, tmp_path, workers=1):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        ckpt = str(tmp_path / "ckpt.json")
        script = tmp_path / "killed_campaign.py"
        script.write_text(
            textwrap.dedent(
                _COORDINATOR_KILL_SCRIPT.format(
                    src=os.path.abspath(src), ckpt=ckpt, workers=workers
                )
            )
        )
        # Forked workers inherit the stderr pipe, so its EOF means every
        # process of the killed campaign has exited.  The child leads its own
        # process group, which a timeout kills whole.
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("a process of the killed campaign outlived it by 60 s")
        assert proc.returncode == 3, stderr
        return ckpt

    def test_kill_mid_run_leaves_wal_only_and_resumes(self, tmp_path):
        ckpt = self._killed_run(tmp_path)
        # Died before the first compaction: durability is the WAL alone.
        assert not os.path.exists(ckpt)
        assert os.path.exists(ckpt + ".wal")

        clean = toy_campaign().run()
        resumed = toy_campaign().run(checkpoint_path=ckpt)
        assert resumed.reused_replications == 3
        assert [p.replications for p in resumed.points] == [
            p.replications for p in clean.points
        ]
        # The resume closed cleanly: compacted JSON, WAL gone.
        assert os.path.exists(ckpt)
        assert not os.path.exists(ckpt + ".wal")
        with open(ckpt) as handle:
            assert len(json.load(handle)["completed"]) == 9

    def test_killed_resilient_coordinator_leaves_no_worker_and_resumes(self, tmp_path):
        ckpt = self._killed_run(tmp_path, workers=2)
        assert not os.path.exists(ckpt)
        assert os.path.exists(ckpt + ".wal")

        clean = toy_campaign().run()
        resumed = toy_campaign().run(checkpoint_path=ckpt)
        assert resumed.reused_replications == 3
        assert [p.replications for p in resumed.points] == [
            p.replications for p in clean.points
        ]

    def test_kill_mid_append_torn_tail_is_discarded(self, tmp_path):
        ckpt = self._killed_run(tmp_path)
        with open(ckpt + ".wal", "ab") as handle:
            handle.write(b'deadbeef {"key": "2/2", "metrics"')  # torn record

        clean = toy_campaign().run()
        resumed = toy_campaign().run(checkpoint_path=ckpt)
        assert resumed.reused_replications == 3  # the torn tail reused nothing
        assert [p.replications for p in resumed.points] == [
            p.replications for p in clean.points
        ]

    def test_kill_mid_compaction_replays_idempotently(self, tmp_path):
        # Crash window: compaction published the JSON but died before the
        # WAL reset — resume sees every record twice and must merge.
        ckpt = self._killed_run(tmp_path)
        with open(ckpt + ".wal", "rb") as handle:
            stale_wal = handle.read()
        toy_campaign().run(checkpoint_path=ckpt)  # completes: JSON, WAL gone
        with open(ckpt + ".wal", "wb") as handle:
            handle.write(stale_wal)  # resurrect the pre-compaction WAL

        clean = toy_campaign().run()
        resumed = toy_campaign().run(checkpoint_path=ckpt)
        assert resumed.reused_replications == 9  # nothing recomputed
        assert [p.replications for p in resumed.points] == [
            p.replications for p in clean.points
        ]


class TestExperimentCampaigns:
    """The ported paper experiments on the engine (tiny configurations)."""

    def test_coverage_campaign_worker_parity(self):
        def aggregates(workers):
            campaign = build_coverage_campaign(
                loads=[2],
                num_drops=2,
                config=SystemConfig.small_test_system(),
                scheduler_factories={"JABA-SD(J1)": "JABA-SD(J1)", "FCFS": "FCFS"},
                num_replications=2,
                seed=11,
            )
            outcome = campaign.run(workers=workers)
            return [sorted(p.replications.items()) for p in outcome.points]

        assert aggregates(1) == aggregates(4)

    def test_dynamic_campaign_worker_parity(self):
        def aggregates(workers):
            campaign = build_delay_campaign(
                loads=[2],
                scenario=ScenarioConfig.fast_test(),
                scheduler_factories={"FCFS": "FCFS"},
                num_seeds=2,
            )
            outcome = campaign.run(workers=workers)
            return [sorted(p.replications.items()) for p in outcome.points]

        assert aggregates(1) == aggregates(2)

    def test_coverage_scheduler_points_share_drops(self):
        # Paired comparisons: at one load every scheduler sees the same
        # drops, so per-drop outage (scheduler-independent) must agree.
        campaign = build_coverage_campaign(
            loads=[2],
            num_drops=2,
            config=SystemConfig.small_test_system(),
            scheduler_factories={"JABA-SD(J1)": "JABA-SD(J1)", "FCFS": "FCFS"},
            num_replications=2,
            seed=11,
        )
        outcome = campaign.run()
        jaba, fcfs = outcome.points
        for rep in range(2):
            assert jaba.replications[rep]["fch_outage"] == pytest.approx(
                fcfs.replications[rep]["fch_outage"], abs=1e-12
            )
