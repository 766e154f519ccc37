"""Variance reduction: paired CRN deltas and sequential stopping."""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.experiments.campaign import (
    Campaign,
    CampaignResult,
    MetricSummary,
    PointResult,
)
from repro.experiments.common import ExperimentResult, flag_degraded
from repro.experiments.compare import compare_schedulers, run_scheduler_comparison
from repro.experiments.executors import ResilientExecutor
from repro.experiments.journal import CheckpointJournal
from repro.utils.stats import (
    Histogram,
    confidence_interval,
    paired_confidence_interval,
    unpaired_confidence_interval,
)


# ---------------------------------------------------------------------------
# module-level toy runners (picklable, so worker processes can run them)
# ---------------------------------------------------------------------------
def _crn_runner(params, seed):
    """Metric proportional to the shared draws: CRN makes points correlated."""
    rng = np.random.default_rng(seed)
    draws = rng.random(128)
    return {"value": (1.0 + float(params["gain"])) * float(draws.mean())}


def _nan_on_first_runner(params, seed):
    """Replication 0 of every point produces a non-finite metric."""
    rep = int(seed.spawn_key[1])
    rng = np.random.default_rng(seed)
    value = float(rng.random(16).mean())
    return {"value": math.nan if rep == 0 else value}


def _sequential_toy_campaign(ci_target=1e-9, max_replications=8, **kwargs):
    """Two shared-seed-group points; default target is unreachable -> waves."""
    return Campaign(
        "seqtoy",
        _crn_runner,
        [{"gain": 0.0}, {"gain": 0.3}],
        replications=2,
        root_seed=77,
        seed_groups=[0, 0],
        ci_target=ci_target,
        ci_metric="value",
        max_replications=max_replications,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# stats helpers: paired-t, Welch, percentile(0), n=1 half-width
# ---------------------------------------------------------------------------
class TestPairedConfidenceInterval:
    def test_analytic_case(self):
        # d = [0.5, 1.0, 1.5, 2.0]: mean 1.25, sd 0.645497, t(0.975, 3)
        mean, half = paired_confidence_interval(
            [1.0, 2.0, 3.0, 4.0], [0.5, 1.0, 1.5, 2.0]
        )
        assert mean == pytest.approx(1.25)
        sd = float(np.std([0.5, 1.0, 1.5, 2.0], ddof=1))
        expected = scipy_stats.t.ppf(0.975, 3) * sd / 2.0
        assert half == pytest.approx(expected)
        assert half == pytest.approx(1.02713, abs=1e-5)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_confidence_interval([1.0, 2.0], [1.0])

    def test_identical_samples_are_certainly_zero(self):
        mean, half = paired_confidence_interval([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert mean == 0.0 and half == 0.0

    def test_single_pair_is_nan(self):
        mean, half = paired_confidence_interval([2.0], [1.0])
        assert mean == 1.0 and math.isnan(half)


class TestUnpairedConfidenceInterval:
    def test_matches_scipy_welch(self):
        a, b = [1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 4.0, 6.0]
        mean, half = unpaired_confidence_interval(a, b)
        ci = scipy_stats.ttest_ind(a, b, equal_var=False).confidence_interval(0.95)
        assert mean == pytest.approx(np.mean(a) - np.mean(b))
        assert half == pytest.approx((ci.high - ci.low) / 2.0)

    def test_small_sides_are_nan(self):
        mean, half = unpaired_confidence_interval([1.0], [2.0, 3.0])
        assert mean == pytest.approx(-1.5) and math.isnan(half)
        mean, half = unpaired_confidence_interval([], [])
        assert math.isnan(mean) and math.isnan(half)

    def test_zero_variance_is_zero(self):
        mean, half = unpaired_confidence_interval([2.0, 2.0], [1.0, 1.0])
        assert mean == 1.0 and half == 0.0


class TestHistogramPercentileMin:
    def test_percentile_zero_returns_exact_min(self):
        h = Histogram(upper=10.0, bins=10)
        h.add_many([3.7, 5.2, 9.1])
        # The rank-1 order statistic is tracked exactly — not the upper edge
        # of the first occupied bin (which would report 4.0 here).
        assert h.percentile(0) == 3.7

    def test_single_value_all_percentiles(self):
        h = Histogram(upper=10.0, bins=4)
        h.add(1.3)
        assert h.percentile(0) == 1.3
        assert h.percentile(100) >= 1.3

    def test_min_below_first_bin_edge(self):
        h = Histogram(upper=100.0, bins=2)  # bins of width 50
        h.add_many([0.25, 80.0])
        assert h.percentile(0) == 0.25


class TestSingleSampleEndToEnd:
    def test_metric_summary_n1_half_width_is_nan(self):
        summary = MetricSummary.from_samples([2.0])
        assert summary.count == 1
        assert summary.mean == 2.0
        assert math.isnan(summary.ci_half_width)

    def test_single_replication_campaign_reports_nan_ci(self):
        campaign = Campaign(
            "one", _crn_runner, [{"gain": 0.0}], replications=1, root_seed=5
        )
        summary = campaign.run().points[0].summary()["value"]
        assert summary.count == 1 and math.isnan(summary.ci_half_width)
        # n=1 used to report a spuriously certain 0.0 half-width.
        mean, half = confidence_interval([summary.mean])
        assert math.isnan(half)


# ---------------------------------------------------------------------------
# non-finite samples: counted, surfaced, flagged
# ---------------------------------------------------------------------------
class TestNonFiniteSurfacing:
    def test_from_samples_counts_all_non_finite_kinds(self):
        summary = MetricSummary.from_samples([1.0, math.nan, math.inf, 2.0])
        assert summary.count == 2
        assert summary.non_finite == 2

    def test_flag_degraded_adds_column_and_note(self):
        campaign = Campaign(
            "nan-toy",
            _nan_on_first_runner,
            [{"gain": 0.0}, {"gain": 1.0}],
            replications=3,
            root_seed=11,
        )
        outcome = campaign.run()
        result = ExperimentResult(experiment_id="X", title="toy")
        for point in outcome.points:
            result.add(value=point.summary()["value"].mean)
        flagged = flag_degraded(result, outcome)
        assert [r["n_nonfinite"] for r in flagged.records] == [1, 1]
        assert "non-finite" in flagged.notes
        assert outcome.points[0].non_finite_replications() == [0]

    def test_clean_campaign_stays_unflagged(self):
        campaign = Campaign(
            "clean-toy", _crn_runner, [{"gain": 0.0}], replications=2, root_seed=11
        )
        outcome = campaign.run()
        result = ExperimentResult(experiment_id="X", title="toy")
        result.add(value=1.0)
        flagged = flag_degraded(result, outcome)
        assert "n_nonfinite" not in flagged.records[0]
        assert flagged.notes == ""


# ---------------------------------------------------------------------------
# paired CRN deltas
# ---------------------------------------------------------------------------
class TestComparePoints:
    def _campaign(self):
        return Campaign(
            "crn",
            _crn_runner,
            [{"gain": 0.0}, {"gain": 0.3}],
            replications=8,
            root_seed=9,
            seed_groups=[0, 0],
        )

    def test_paired_strictly_tighter_than_unpaired(self):
        delta = self._campaign().run().compare_points(0, 1)["value"]
        assert delta.count == 8
        assert delta.delta == pytest.approx(delta.mean_a - delta.mean_b)
        assert delta.unpaired_ci_half_width > 0.0
        assert delta.ci_half_width < delta.unpaired_ci_half_width

    def test_different_seed_groups_refused(self):
        campaign = Campaign(
            "crn",
            _crn_runner,
            [{"gain": 0.0}, {"gain": 0.3}],
            replications=2,
            root_seed=9,
            seed_groups=[0, 1],
        )
        with pytest.raises(ValueError, match="seed group"):
            campaign.run().compare_points(0, 1)

    def test_non_finite_pairs_dropped_and_counted(self):
        campaign = Campaign(
            "nan-crn",
            _nan_on_first_runner,
            [{"gain": 0.0}, {"gain": 1.0}],
            replications=4,
            root_seed=13,
            seed_groups=[0, 0],
        )
        delta = campaign.run().compare_points(0, 1)["value"]
        assert delta.count == 3
        assert delta.non_finite == 1


class TestF5PairedAcceptance:
    """The headline acceptance: CRN pairing tightens the F5 J1-vs-J2 delta."""

    def test_paired_tighter_on_objectives_comparison(self):
        from repro.experiments.common import paper_scenario
        from repro.experiments.objectives_tradeoff import build_objectives_campaign

        campaign = build_objectives_campaign(
            penalty_scales=[0.0, 2.0],
            load=12,
            scenario=paper_scenario(duration_s=1.0, warmup_s=0.25),
            num_seeds=4,
        )
        delta = campaign.run(workers=2).compare_points(0, 1)["mean_delay_s"]
        assert delta.count == 4
        assert delta.unpaired_ci_half_width > 0.0
        assert delta.ci_half_width < delta.unpaired_ci_half_width


class TestCompareSchedulers:
    def _fake_result(self):
        rng = np.random.default_rng(5)
        base = {6: rng.random(4), 12: rng.random(4)}
        points = []
        for index, (sched, load) in enumerate(
            [("A", 6), ("B", 6), ("A", 12), ("B", 12)]
        ):
            shift = 0.0 if sched == "A" else 0.1
            points.append(
                PointResult(
                    index=index,
                    params={"scheduler": sched, "load": load},
                    replications={
                        rep: {"mean_delay_s": float(base[load][rep] + shift)}
                        for rep in range(4)
                    },
                    seed_group=0,
                )
            )
        return CampaignResult(
            name="fake",
            root_seed=1,
            replications=4,
            points=points,
            seed_groups=[0, 0, 0, 0],
        )

    def test_rows_per_load_with_both_half_widths(self):
        result = compare_schedulers(self._fake_result(), "A", "B")
        rows = result.filtered(metric="mean_delay_s")
        assert [r["data_users_per_cell"] for r in rows] == [6, 12]
        for row in rows:
            # A constant shift: the paired delta is exactly -0.1 with zero
            # paired variance, while the unpaired interval stays wide.
            assert row["delta"] == pytest.approx(-0.1)
            assert row["paired_ci"] == pytest.approx(0.0, abs=1e-12)
            assert row["unpaired_ci"] > 0.0
            assert row["n_pairs"] == 4

    def test_unknown_label_and_metric_rejected(self):
        with pytest.raises(ValueError, match="not in the campaign grid"):
            compare_schedulers(self._fake_result(), "A", "nope")
        with pytest.raises(ValueError, match="not shared"):
            compare_schedulers(self._fake_result(), "A", "B", metrics=["bogus"])

    def test_run_scheduler_comparison_small_grid(self):
        from repro.experiments.common import paper_scenario

        result = run_scheduler_comparison(
            "JABA-SD(J1)",
            "FCFS",
            loads=[4],
            scenario=paper_scenario(duration_s=1.0, warmup_s=0.25),
            num_seeds=2,
            workers=1,
        )
        rows = result.filtered(metric="mean_delay_s")
        assert len(rows) == 1
        assert rows[0]["n_pairs"] == 2
        assert rows[0]["unpaired_ci"] >= rows[0]["paired_ci"]

    def test_identical_labels_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            run_scheduler_comparison("FCFS", "FCFS")


# ---------------------------------------------------------------------------
# sequential stopping
# ---------------------------------------------------------------------------
class TestSequentialStopping:
    def test_unreachable_target_grows_to_cap(self):
        outcome = _sequential_toy_campaign().run()
        assert outcome.realised_replications == [8, 8]
        assert outcome.waves == 4  # 2 -> 4 -> 6 -> 8, then capped
        assert outcome.ci_target == 1e-9 and outcome.ci_metric == "value"
        assert all(len(p.replications) == 8 for p in outcome.points)

    def test_generous_target_converges_in_first_wave(self):
        outcome = _sequential_toy_campaign(ci_target=10.0).run()
        assert outcome.realised_replications == [2, 2]
        assert outcome.waves == 1

    def test_unknown_ci_metric_names_alternatives(self):
        campaign = _sequential_toy_campaign()
        campaign.ci_metric = "bogus"
        with pytest.raises(ValueError, match="value"):
            campaign.run()

    def test_configure_validation(self):
        with pytest.raises(ValueError, match="positive"):
            _sequential_toy_campaign(ci_target=-1.0)
        with pytest.raises(ValueError, match="ci_metric"):
            Campaign(
                "x", _crn_runner, [{"gain": 0.0}], replications=2, root_seed=1,
                ci_target=0.5,
            )
        with pytest.raises(ValueError, match="max_replications"):
            _sequential_toy_campaign(max_replications=1)

    def test_bit_identical_across_executors(self):
        def run_with(executor, workers):
            outcome = _sequential_toy_campaign().run(
                workers=workers, executor=executor
            )
            return (
                [sorted(p.replications.items()) for p in outcome.points],
                outcome.realised_replications,
                outcome.waves,
            )

        serial = run_with(None, 1)
        resilient = run_with(ResilientExecutor(workers=4), 4)
        assert serial == resilient
        assert serial[1] == [8, 8]

    def test_fixed_checkpoint_resumes_into_sequential(self, tmp_path):
        # The fingerprint deliberately excludes the stopping rule: a fixed
        # 2-replication checkpoint seeds wave 1 of the sequential run.
        ckpt = str(tmp_path / "ckpt.json")
        fixed = Campaign(
            "seqtoy", _crn_runner, [{"gain": 0.0}, {"gain": 0.3}],
            replications=2, root_seed=77, seed_groups=[0, 0],
        )
        fixed.run(checkpoint_path=ckpt)
        outcome = _sequential_toy_campaign().run(checkpoint_path=ckpt)
        assert outcome.reused_replications == 4
        assert outcome.realised_replications == [8, 8]
        clean = _sequential_toy_campaign().run()
        assert [p.replications for p in outcome.points] == [
            p.replications for p in clean.points
        ]

    def test_wave_notes_land_in_checkpoint(self, tmp_path):
        ckpt = str(tmp_path / "ckpt.json")
        _sequential_toy_campaign().run(checkpoint_path=ckpt)
        import json

        with open(ckpt) as handle:
            notes = json.load(handle)["notes"]
        assert [note["wave"] for note in notes] == [1, 2, 3, 4]
        assert notes[-1]["realised"] == [8, 8]
        assert notes[-1]["converged"] is True


_SEQUENTIAL_KILL_SCRIPT = """
import os, sys
sys.path.insert(0, {src!r})
import numpy as np
from repro.experiments.campaign import Campaign


def runner(params, seed):
    rng = np.random.default_rng(seed)
    draws = rng.random(128)
    return {{"value": (1.0 + float(params["gain"])) * float(draws.mean())}}


def die_after(done, total):
    # SIGKILL stand-in mid-wave-2: no unwind, no compaction — durability is
    # exactly the fsync'd WAL prefix (completed tasks + wave notes).
    if done >= 6:
        os._exit(3)


campaign = Campaign(
    "seqtoy", runner, [{{"gain": 0.0}}, {{"gain": 0.3}}],
    replications=2, root_seed=77, seed_groups=[0, 0],
    ci_target=1e-9, ci_metric="value", max_replications=8,
)
campaign.run(checkpoint_path={ckpt!r}, progress=die_after)
"""


class TestSequentialKillResume:
    def test_mid_wave_kill_resumes_bit_identically(self, tmp_path):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        ckpt = str(tmp_path / "ckpt.json")
        script = tmp_path / "killed_sequential.py"
        script.write_text(
            textwrap.dedent(
                _SEQUENTIAL_KILL_SCRIPT.format(src=os.path.abspath(src), ckpt=ckpt)
            )
        )
        proc = subprocess.run(
            [sys.executable, str(script)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 3, proc.stderr

        clean = _sequential_toy_campaign().run()
        resumed = _sequential_toy_campaign().run(checkpoint_path=ckpt)
        assert resumed.reused_replications == 6
        assert resumed.realised_replications == clean.realised_replications == [8, 8]
        assert [p.replications for p in resumed.points] == [
            p.replications for p in clean.points
        ]


class TestJournalNotes:
    def test_notes_survive_wal_replay_and_compaction(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        journal = CheckpointJournal(path, fingerprint="f" * 16)
        journal.load()
        journal.append("0/0", {"value": 1.0})
        journal.append_note({"wave": 0, "realised": [4]})
        # No close(): only the WAL survives, as after a coordinator kill.
        journal._handle.close()

        replayed = CheckpointJournal(path, fingerprint="f" * 16)
        completed = replayed.load()
        assert completed == {"0/0": {"value": 1.0}}
        assert replayed.notes == [{"wave": 0, "realised": [4]}]
        replayed.close()  # compacts: notes land in the JSON

        compacted = CheckpointJournal(path, fingerprint="f" * 16)
        compacted.load()
        assert compacted.notes == [{"wave": 0, "realised": [4]}]
        compacted.close()
