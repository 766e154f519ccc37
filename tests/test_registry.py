"""Tests of the component registry and the declarative scenario-spec layer.

Covers the registry core (duplicate / unknown-name errors with suggestions),
component spec strings, scenario-spec round-trips and fingerprints, the
placement zoo, campaign policy-sweep determinism across worker counts, and
the golden-compatibility guarantee (a registry-built default scenario
reproduces the checked-in golden snapshots bit-for-bit).
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.experiments.campaign import Campaign
from repro.experiments.common import paper_scenario, scheduler_from_spec
from repro.experiments.coverage import build_coverage_campaign
from repro.geometry.hexgrid import HexagonalCellLayout
from repro.registry import (
    BuiltScenario,
    ComponentRegistry,
    DuplicateComponentError,
    SpecError,
    UnknownComponentError,
    build_scenario,
    component_names,
    create,
    describe_components,
    load_scenario_spec,
    parse_component_spec,
    spec_fingerprint,
    spec_from_scenario,
    validate_spec,
)
from repro.simulation import DynamicSystemSimulator
from repro.simulation.placement import (
    HotspotPlacement,
    UniformPlacement,
    placement_from_config,
)
from repro.simulation.scenario import PlacementConfig, ScenarioConfig

from test_simulation_golden import (
    GOLDEN_FLEET_PATH,
    SUMMARY_FIELDS,
    _jsonable,
    golden_scenario,
)


class TestRegistryCore:
    def test_duplicate_registration_rejected(self):
        local = ComponentRegistry()
        local.add("scheduler", "x", lambda: None)
        with pytest.raises(DuplicateComponentError, match="already registered"):
            local.add("scheduler", "x", lambda: None)

    def test_decorator_registers_and_returns_factory(self):
        local = ComponentRegistry()

        @local.register("traffic", "toy", summary="a toy mix")
        class Toy:
            pass

        assert local.names("traffic") == ["toy"]
        assert isinstance(local.create("traffic", "toy"), Toy)
        assert local.describe()["traffic"]["toy"] == "a toy mix"

    def test_unknown_name_error_suggests_alternatives(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            create("scheduler", "proportional-fairr")
        message = str(excinfo.value)
        assert "did you mean" in message
        assert "proportional-fair" in message
        assert "jaba-sd" in message  # full list of alternatives

    def test_unknown_kind_error(self):
        with pytest.raises(UnknownComponentError, match="unknown component kind"):
            create("schedulerz", "fcfs")

    def test_unknown_kwarg_rejected_with_accepted_list(self):
        with pytest.raises(SpecError, match="accepted"):
            create("scheduler", "proportional-fair", time_constant=3)

    def test_defaults_are_applied_and_overridable(self):
        default = create("scheduler", "jaba-sd")
        assert "J1" in default.name
        override = create("scheduler", "jaba-sd", objective="J2")
        assert "J2" in override.name

    def test_zoo_is_populated(self):
        names = component_names("scheduler")
        assert {"jaba-sd", "fcfs", "equal-share", "proportional-fair",
                "max-min"} <= set(names)
        assert "web-video" in component_names("traffic")
        assert "hotspot" in component_names("placement")
        described = describe_components()
        for kind in ("scheduler", "traffic", "mobility", "channel", "placement"):
            assert described[kind], f"no registered {kind} components"

    def test_unknown_component_error_is_a_key_error(self):
        # Callers that guarded the old literal dict with KeyError keep working.
        with pytest.raises(KeyError):
            create("scheduler", "nope")


class TestComponentSpecStrings:
    def test_parse_plain_name(self):
        assert parse_component_spec("fcfs") == ("fcfs", {})

    def test_parse_typed_kwargs(self):
        name, kwargs = parse_component_spec(
            "jaba-sd:objective=J1,max_nodes=200,warm_start=True"
        )
        assert name == "jaba-sd"
        assert kwargs == {"objective": "J1", "max_nodes": 200, "warm_start": True}

    @pytest.mark.parametrize("bad", ["", "name:key", "name:=3", "name:,"])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(SpecError):
            parse_component_spec(bad)

    def test_scheduler_from_spec_accepts_all_spellings(self):
        for spec in ("proportional-fair",
                     "jaba-sd:objective=J2",
                     {"name": "max-min"},
                     "JABA-SD(J1)"):  # legacy label
            assert hasattr(scheduler_from_spec(spec), "assign")

    def test_scheduler_from_spec_unknown_name_lists_legacy_labels(self):
        with pytest.raises(UnknownComponentError, match="legacy labels"):
            scheduler_from_spec("JABA-SD(J9)")


class TestScenarioSpecs:
    def test_empty_spec_builds_paper_default(self):
        built = build_scenario({})
        assert isinstance(built, BuiltScenario)
        assert built.scenario == ScenarioConfig()
        assert "JABA-SD(J1" in built.scheduler.name
        assert built.scheduler_section == {"name": "jaba-sd", "objective": "J1"}

    def test_round_trip_is_lossless(self):
        for config in (paper_scenario(),
                       golden_scenario(),
                       ScenarioConfig(placement=PlacementConfig(
                           kind="hotspot", hotspot_fraction=0.7))):
            rebuilt = build_scenario(spec_from_scenario(config)).scenario
            assert rebuilt == config

    def test_named_components_compose(self):
        built = build_scenario({
            "scheduler": {"name": "proportional-fair", "time_constant_frames": 8},
            "traffic": {"name": "web-video"},
            "mobility": {"name": "pedestrian"},
            "placement": {"name": "hotspot", "fraction": 0.6},
            "channel": {"name": "dense-urban"},
            "scenario": {"num_data_users_per_cell": 12, "seed": 7},
        })
        assert built.scenario.traffic.packet_call_max_bits == 6_000_000.0
        assert built.scenario.placement.kind == "hotspot"
        assert built.scenario.placement.hotspot_fraction == 0.6
        assert built.scenario.system.radio.cell_radius_m == 500.0
        assert built.scenario.num_data_users_per_cell == 12
        assert "ProportionalFair" in built.scheduler.name

    def test_unknown_section_and_field_errors(self):
        with pytest.raises(SpecError, match="unknown scenario-spec section"):
            build_scenario({"schedular": {"name": "fcfs"}})
        with pytest.raises(SpecError, match="unknown scenario field"):
            build_scenario({"scenario": {"num_data_users": 3}})
        with pytest.raises(SpecError, match="dedicated"):
            build_scenario({"scenario": {"traffic": {}}})

    @pytest.mark.parametrize("value", [True, False])
    def test_saved_spec_with_batched_fleet_loads_with_a_warning(self, value, tmp_path):
        # Specs saved before the per-user layer became fleet-only carry a
        # batched_fleet key in their scenario section.
        self._assert_retired_key_loads_with_a_warning("batched_fleet", value, tmp_path)

    @pytest.mark.parametrize(
        "key, value",
        [
            *[
                (key, value)
                for key in (
                    "batched_admission",
                    "warm_start_power_control",
                    "warm_start_solver",
                )
                for value in (True, False)
            ],
            ("power_control_tolerance", None),
            ("power_control_tolerance", 1e-9),
        ],
    )
    def test_saved_spec_with_retired_key_loads_with_a_warning(
        self, key, value, tmp_path
    ):
        # Specs saved while a since-retired ScenarioConfig field existed
        # carry its key in their scenario section.
        self._assert_retired_key_loads_with_a_warning(key, value, tmp_path)

    @staticmethod
    def _assert_retired_key_loads_with_a_warning(key, value, tmp_path):
        current = spec_from_scenario(golden_scenario(), {"name": "fcfs"})
        saved = tmp_path / "saved.json"
        saved.write_text(json.dumps(
            {**current, "scenario": {**current["scenario"], key: value}}
        ))
        with pytest.warns(DeprecationWarning, match=key):
            built = build_scenario(load_scenario_spec(str(saved)))
        assert built.scenario == build_scenario(current).scenario == golden_scenario()
        assert key not in built.spec["scenario"]
        assert built.fingerprint == spec_fingerprint(current)

    def test_parent_era_dump_builds_and_fingerprints_like_the_new_one(self):
        # A spec_from_scenario dump written before the warm-start, batched
        # admission and tolerance-override fields were retired: every
        # retired key at its default.
        current = spec_from_scenario(paper_scenario(), {"name": "jaba-sd"})
        parent = {
            **current,
            "scenario": {
                **current["scenario"],
                "warm_start_power_control": False,
                "warm_start_solver": False,
                "power_control_tolerance": None,
                "batched_admission": True,
            },
        }
        with pytest.warns(DeprecationWarning, match="is ignored"):
            built = build_scenario(parent)
        assert built.scenario == build_scenario(current).scenario == paper_scenario()
        assert built.fingerprint == spec_fingerprint(current)

    def test_saved_system_radio_with_doppler_loads_with_a_warning(self, tmp_path):
        # A spec_from_scenario dump of a non-default system, written while
        # RadioConfig had a doppler_hz field, carries it in system.radio.
        config = replace(golden_scenario(), system=SystemConfig().with_overrides(
            radio=replace(SystemConfig().radio, num_rings=2)))
        current = spec_from_scenario(config, {"name": "fcfs"})
        parent = json.loads(json.dumps(current))
        parent["system"]["radio"]["doppler_hz"] = 10.0
        saved = tmp_path / "saved.json"
        saved.write_text(json.dumps(parent))
        with pytest.warns(DeprecationWarning, match="doppler_hz"):
            built = build_scenario(load_scenario_spec(str(saved)))
        assert built.scenario == build_scenario(current).scenario == config
        assert "doppler_hz" not in built.spec["system"]["radio"]
        assert built.fingerprint == spec_fingerprint(current)

    def test_channel_section_with_doppler_loads_with_a_warning(self):
        parent = {"channel": {"name": "dense-urban", "doppler_hz": 5.0}}
        with pytest.warns(DeprecationWarning, match="doppler_hz"):
            built = build_scenario(parent)
        assert parent["channel"]["doppler_hz"] == 5.0  # the caller's spec is untouched
        current = build_scenario({"channel": {"name": "dense-urban"}})
        assert built.scenario == current.scenario
        assert built.scenario.system.radio.cell_radius_m == 500.0
        assert built.fingerprint == current.fingerprint

    def test_numeric_power_control_tolerance_ignored_with_a_warning(self):
        # Power control solves for its exact fixed point, so no tolerance
        # changes the numerics any more: a numeric override is dropped.
        current = spec_from_scenario(golden_scenario())
        spec = {**current, "scenario": {**current["scenario"],
                                        "power_control_tolerance": 1e-9}}
        with pytest.warns(DeprecationWarning, match="power_control_tolerance"):
            built = build_scenario(spec)
        assert built.scenario == golden_scenario()
        assert built.fingerprint == spec_fingerprint(current)

    def test_saved_system_radio_with_power_control_keys_loads_with_a_warning(
        self, tmp_path
    ):
        # A spec_from_scenario dump of a non-default system, written while
        # RadioConfig had the Yates stopping rule, carries both of its keys.
        config = replace(golden_scenario(), system=SystemConfig().with_overrides(
            radio=replace(SystemConfig().radio, num_rings=2)))
        current = spec_from_scenario(config, {"name": "fcfs"})
        parent = json.loads(json.dumps(current))
        parent["system"]["radio"].update(
            power_control_iterations=25, power_control_tolerance=1e-6
        )
        saved = tmp_path / "saved.json"
        saved.write_text(json.dumps(parent))
        with pytest.warns(DeprecationWarning, match="power_control_"):
            built = build_scenario(load_scenario_spec(str(saved)))
        assert built.scenario == build_scenario(current).scenario == config
        assert "power_control_tolerance" not in built.spec["system"]["radio"]
        assert built.fingerprint == spec_fingerprint(current)

    @pytest.mark.parametrize(
        "key, value", [("warm_start", True), ("batched", False), ("refine_nodes", 8)]
    )
    def test_retired_scheduler_parameters_refused(self, key, value):
        with pytest.raises(SpecError, match="accepted"):
            build_scenario({"scheduler": {"name": "jaba-sd", key: value}})

    def test_channel_profile_that_cannot_build_a_network_refused(self):
        # A base station without common-channel power has no room for its
        # pilot; the spec is refused before any simulator is built.
        spec = {"channel": {"name": "dense-urban", "bs_common_channel_fraction": 0}}
        with pytest.raises(SpecError, match="bs_common_channel_fraction"):
            build_scenario(spec)

    def test_unknown_scenario_key_still_rejected(self):
        spec = spec_from_scenario(golden_scenario())
        spec["scenario"]["batched_fleets"] = True
        with pytest.raises(SpecError, match="unknown scenario field"):
            build_scenario(spec)

    def test_version_gate(self):
        with pytest.raises(SpecError, match="version"):
            validate_spec({"version": 99})

    def test_fingerprint_invariant_to_spelling(self):
        spec = spec_from_scenario(paper_scenario())
        reordered = dict(reversed(list(spec.items())))
        assert spec_fingerprint(spec) == spec_fingerprint(reordered)
        # tuple-vs-list spelling (TOML/JSON provenance) does not matter
        mobility = dict(spec["mobility"])
        mobility["speed_range_m_s"] = tuple(mobility["speed_range_m_s"])
        assert spec_fingerprint({**spec, "mobility": mobility}) == spec_fingerprint(spec)

    def test_fingerprint_changes_with_values(self):
        spec = spec_from_scenario(paper_scenario())
        changed = {**spec, "scenario": {**spec["scenario"], "seed": 999}}
        assert spec_fingerprint(changed) != spec_fingerprint(spec)

    def test_load_spec_toml_and_json_agree(self, tmp_path):
        toml_file = tmp_path / "s.toml"
        toml_file.write_text(
            'version = 1\n[scheduler]\nname = "max-min"\n'
            "[scenario]\nnum_data_users_per_cell = 5\n"
        )
        json_file = tmp_path / "s.json"
        json_file.write_text(json.dumps({
            "version": 1,
            "scheduler": {"name": "max-min"},
            "scenario": {"num_data_users_per_cell": 5},
        }))
        toml_built = build_scenario(load_scenario_spec(str(toml_file)))
        json_built = build_scenario(load_scenario_spec(str(json_file)))
        assert toml_built.fingerprint == json_built.fingerprint
        assert toml_built.scenario == json_built.scenario


class TestPlacement:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PlacementConfig(kind="gaussian")
        with pytest.raises(ValueError):
            PlacementConfig(kind="hotspot", hotspot_fraction=1.5)
        with pytest.raises(ValueError):
            PlacementConfig(kind="hotspot", hotspot_radius_fraction=0.0)
        with pytest.raises(ValueError):
            PlacementConfig(kind="hotspot", hotspot_cell=-1)

    def test_uniform_matches_layout_stream(self):
        # Bit-identical RNG consumption is what keeps the goldens valid.
        layout = HexagonalCellLayout(num_rings=1)
        a = UniformPlacement().position(layout, 2, np.random.default_rng(5))
        b = layout.random_position_in_cell(2, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_hotspot_concentrates_users(self):
        layout = HexagonalCellLayout(num_rings=1)
        model = HotspotPlacement(fraction=1.0, radius_fraction=0.2, cell=0)
        rng = np.random.default_rng(11)
        centre = layout.position_of(0)
        for _ in range(50):
            position = model.position(layout, 0, rng)
            assert np.linalg.norm(position - centre) <= 0.2 * layout.cell_radius_m
        # Users of other cells stay uniform (not forced into the hotspot).
        other = model.position(layout, 3, rng)
        assert np.linalg.norm(other - layout.position_of(3)) <= layout.cell_radius_m

    def test_hotspot_cell_must_exist(self):
        layout = HexagonalCellLayout(num_rings=0)  # single cell
        model = HotspotPlacement(cell=3)
        with pytest.raises(ValueError, match="does not exist"):
            model.position(layout, 0, np.random.default_rng(0))

    def test_from_config_round_trip(self):
        config = PlacementConfig(kind="hotspot", hotspot_fraction=0.25,
                                 hotspot_radius_fraction=0.4, hotspot_cell=2)
        assert placement_from_config(config).to_config() == config
        assert isinstance(
            placement_from_config(PlacementConfig()), UniformPlacement
        )


def _policy_sweep_campaign() -> Campaign:
    """A tiny coverage campaign swept over a scheduler axis of registry specs."""
    policies = ["jaba-sd:objective=J1", "proportional-fair", "max-min"]
    return build_coverage_campaign(
        loads=[3],
        num_drops=2,
        burst_size_bits=100_000.0,
        num_voice_users_per_cell=2,
        scheduler_factories={name: name for name in policies},
        seed=11,
        num_replications=2,
    )


class TestPolicySweepCampaign:
    def test_coverage_grid_pairs_schedulers(self):
        campaign = build_coverage_campaign(
            loads=[6, 12], scheduler_factories={name: name for name in "abc"}
        )
        assert len(campaign.points) == 6
        # All schedulers at one load share a seed group; loads differ.
        assert campaign.seed_groups == [0, 0, 0, 1, 1, 1]

    def test_workers_do_not_change_policy_sweep(self):
        results = {}
        for workers in (1, 4):
            outcome = _policy_sweep_campaign().run(workers=workers)
            results[workers] = [
                (point.index, sorted(point.replications.items()))
                for point in outcome.points
            ]
        assert results[1] == results[4]  # bit-identical, not approximately

    def test_schedulers_share_drops_within_a_load(self):
        # CRN pairing: every policy replays the same drops, so differences
        # between rows are policy effects, not seed noise.
        outcome = _policy_sweep_campaign().run()
        coverages = [point.summary()["coverage"].mean for point in outcome.points]
        assert len(coverages) == 3
        assert all(0.0 <= value <= 1.0 for value in coverages)


class TestGoldenCompatibility:
    def test_registry_built_scenario_reproduces_golden(self):
        built = build_scenario(spec_from_scenario(golden_scenario()))
        assert built.scenario == golden_scenario()
        simulator = DynamicSystemSimulator(built.scenario, built.scheduler)
        events = []
        original_decide = simulator.controller.decide

        def recording_decide(snapshot, requests, link):
            decision, grants = original_decide(snapshot, requests, link)
            events.append({
                "time_s": float(snapshot.time_s),
                "link": link.value,
                "queue": [int(r.mobile_index) for r in requests],
                "assignment": [int(m) for m in decision.assignment],
                "objective": _jsonable(float(decision.objective_value)),
            })
            return decision, grants

        simulator.controller.decide = recording_decide
        result = simulator.run()
        summary = {
            field: _jsonable(getattr(result, field)) for field in SUMMARY_FIELDS
        }
        golden = json.loads(GOLDEN_FLEET_PATH.read_text())
        assert summary == golden["summary"]
        assert events == golden["events"]
