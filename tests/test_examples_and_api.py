"""Smoke tests for the example scripts and the public package API."""

import importlib
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _load_example(name):
    """Import an example script as a module without executing ``main()``."""
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(name.replace(".py", ""), path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_examples_exist(self):
        expected = {
            "quickstart.py",
            "adaptive_phy_demo.py",
            "multicell_dynamic_simulation.py",
            "scheduler_comparison.py",
            "campaign_coverage_sweep.py",
        }
        present = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        assert expected.issubset(present)

    def test_quickstart_runs(self, capsys):
        module = _load_example("quickstart.py")
        module.main()
        out = capsys.readouterr().out
        assert "JABA-SD" in out
        assert "FCFS" in out
        assert "headroom" in out.lower()

    def test_adaptive_phy_demo_runs(self, capsys):
        module = _load_example("adaptive_phy_demo.py")
        module.main()
        out = capsys.readouterr().out
        assert "threshold" in out.lower()
        assert "Adaptive gain" in out
        # Compared on the same per-frame channel, adaptation never loses.
        for seed in range(10):
            assert module.main(seed) >= 1.0, f"seed {seed}"

    def test_trace_dynamic_run_records_valid_events(self, tmp_path, monkeypatch, capsys):
        module = _load_example("trace_dynamic_run.py")
        monkeypatch.chdir(tmp_path)
        assert module.main([]) == 0
        out = capsys.readouterr().out
        assert "events (0 invalid)" in out
        assert (tmp_path / "trace_dynamic_run.jsonl").exists()
        assert "per-stage profile over 60 frames" in out

    def test_multicell_dynamic_simulation_runs(self, capsys):
        module = _load_example("multicell_dynamic_simulation.py")
        # 4 s of warm-up + 1 s: 250 frames, so one progress line.
        module.main(["--load", "2", "--duration", "1"])
        out = capsys.readouterr().out
        assert out.count("pending=") == 1
        assert "Dynamic simulation summary" in out

    def test_dynamic_examples_importable(self):
        # The long-running examples are only imported (their main() is covered
        # by the dynamic-simulation integration tests at reduced scale).
        for name in (
            "scheduler_comparison.py",
            "campaign_coverage_sweep.py",
            "paired_scheduler_comparison.py",
            "policy_sweep.py",
        ):
            module = _load_example(name)
            assert hasattr(module, "main")


class TestPackageApi:
    def test_version_and_paper(self):
        import repro

        assert repro.__version__
        assert "Kwok" in repro.PAPER and "Lau" in repro.PAPER

    def test_top_level_reexports(self):
        import repro

        config = repro.SystemConfig()
        assert config.phy.num_modes == 6
        assert repro.PhyConfig is type(config.phy)
        assert repro.RadioConfig is type(config.radio)
        assert repro.MacConfig is type(config.mac)

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.channel",
            "repro.phy",
            "repro.geometry",
            "repro.cdma",
            "repro.traffic",
            "repro.mac",
            "repro.mac.schedulers",
            "repro.opt",
            "repro.simulation",
            "repro.experiments",
            "repro.utils",
        ],
    )
    def test_subpackage_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__") and module.__all__
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_docstrings_on_public_entry_points(self):
        from repro.mac import BurstAdmissionController, JabaSdScheduler
        from repro.phy import VtaocCodec
        from repro.simulation import DynamicSystemSimulator

        for obj in (BurstAdmissionController, JabaSdScheduler, VtaocCodec,
                    DynamicSystemSimulator):
            assert obj.__doc__ and len(obj.__doc__.strip()) > 40
