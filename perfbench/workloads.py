"""The benchmark's three workloads, each a set-up plus one timed section.

``prepare()`` generates the inputs from the seed and builds the simulator or
the drops; it is what ``setup_s`` times.  ``execute()`` runs the timed
section and returns a :class:`Section`.  The same ``execute()`` serves the
untraced run and the traced one (``tracer`` given).  Times are kept as
(start, end) clock readings, so that the section's gauge can scale them.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields, replace
from typing import List, Optional

import numpy as np

from perfbench import checks
from perfbench.gauge import Gauge
from perfbench.tracer import ROOT_SPAN, Patches, Tracer, clock
from repro.cdma.entities import MobileStation, UserClass
from repro.cdma.network import CdmaNetwork
from repro.config import SystemConfig
from repro.experiments import campaign as campaign_module
from repro.experiments.capacity import run_capacity
from repro.experiments.common import paper_scenario, paper_traffic
from repro.experiments.coverage import run_coverage
from repro.experiments.delay_vs_load import run_delay_vs_load
from repro.experiments.handoff_ablation import run_handoff_ablation
from repro.experiments.objectives_tradeoff import run_objectives_tradeoff
from repro.experiments.phy_throughput import run_phy_throughput
from repro.experiments.solver_ablation import run_solver_ablation
from repro.geometry.hexgrid import HexagonalCellLayout
from repro.mac.admission import BurstAdmissionController
from repro.mac.requests import BurstRequest, LinkDirection
from repro.mac.schedulers import JabaSdScheduler
from repro.simulation import DynamicSystemSimulator, ScenarioConfig
from repro.simulation.scenario import TrafficConfig
from repro.traffic.data import TruncatedParetoSize
from repro.traffic.voice import OnOffVoiceSource


@dataclass
class Section:
    """What one timed section produced; intervals are (start, end) clock readings."""

    gauge: Gauge
    start: float = 0.0  # the whole section, the interval the traced run's root span covers
    end: float = 0.0
    cpu_s: float = 0.0
    measured: List[tuple] = field(default_factory=list)  # what wall_s adds up
    frames: List[tuple] = field(default_factory=list)
    decisions: List[tuple] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    outputs: list = field(default_factory=list)  # compared between traced and untraced runs
    units: int = 0  # frames, or decisions on admission-heavy
    extra: dict = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.end - self.start


@contextmanager
def timed(section: Section, tracer: Optional[Tracer]):
    """The timed section: wall and CPU clocks, gauge samples on both sides, and the
    traced run's root span."""
    gc.collect()
    section.gauge.sample(force=True)
    root = tracer.open(ROOT_SPAN) if tracer is not None else None
    cpu, section.start = time.process_time(), clock()
    try:
        yield
    finally:
        section.end = clock()
        section.cpu_s = time.process_time() - cpu
        if root is not None:
            tracer.close(root)
        section.gauge.sample(force=True)


def timed_decision(controller: BurstAdmissionController, link: LinkDirection) -> bool:
    """Whether a decision counts towards the decision percentiles.

    Only forward-link decisions of the paper's controller, JABA-SD: the
    baselines of paper-quick decide in about half the time, and on fleet-20k
    the reverse queue is a few requests long while the forward one grows to
    tens, so a median over either mixture falls between two populations and
    jumps with a seed-dependent mix.
    """
    return link is LinkDirection.FORWARD and isinstance(controller.scheduler, JabaSdScheduler)


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def on_fleet_path(scenario: ScenarioConfig) -> ScenarioConfig:
    """``scenario`` on the batched fleet path, while ``ScenarioConfig`` has that switch."""
    if "batched_fleet" in {f.name for f in fields(ScenarioConfig)}:
        return replace(scenario, batched_fleet=True)
    return scenario


class Probe:
    """Frame and decision clocks of the dynamic workloads, in both runs.

    A frame is the interval between two consecutive returns of
    ``CdmaNetwork.advance`` on one network: ``advance`` is the last call of
    every frame of ``DynamicSystemSimulator.run``.  A network's first frame
    has no start mark and is not timed.  :func:`timed_decision` says which
    decisions are timed.  The gauge is sampled between frames, outside the
    frame clock, and so, with ``check_snapshots``, is every snapshot checked.
    """

    def __init__(self, gauge: Gauge, tracer: Optional[Tracer] = None,
                 check_snapshots: bool = False) -> None:
        self.gauge = gauge
        self.tracer = tracer
        self.check_snapshots = check_snapshots
        self.frames: List[tuple] = []  # (number of mobiles, start, end)
        self.decisions: List[tuple] = []  # (frame index, start, end)
        self.frame_count = 0
        self.replications = 0
        self.failed_replications = 0
        self.problems: List[str] = []
        self.outputs: list = []
        self._last = None
        self._taken = None

    def install(self, patches: Patches) -> None:
        patches.replace(CdmaNetwork, "advance", self._advance)
        patches.replace(BurstAdmissionController, "decide", self._decide)
        patches.replace(campaign_module, "_execute_task", self._replication)
        if self.check_snapshots:
            patches.replace(CdmaNetwork, "snapshot", self._snapshot)

    def _advance(self, fn):
        def advance(network, dt_s):
            fn(network, dt_s)
            end = clock()
            if self._last is not None and self._last[0] is network:
                self.frames.append((network.num_mobiles, self._last[1], end))
            self.frame_count += 1
            if self._taken is not None:
                self._check(network, self._taken)
                self._taken = None
            if self.tracer is not None:
                self.tracer.unit = self.frame_count
            self.gauge.sample()
            self._last = (network, clock())

        return advance

    def _snapshot(self, fn):
        def snapshot(network):
            self._taken = fn(network)
            return self._taken

        return snapshot

    def _check(self, network, snapshot) -> None:
        with _span(self.tracer, "bench.check"):
            bs_max_w = np.array([bs.max_tx_power_w for bs in network.base_stations])
            for problem in checks.snapshot_problems(snapshot, bs_max_w):
                self.problems.append(f"frame {self.frame_count}: {problem}")
            self.outputs.append((
                float(snapshot.forward_pc.total_power_w.sum()),
                float(snapshot.reverse_pc.total_power_w.sum()),
                snapshot.fch_outage_fraction(),
            ))

    def _decide(self, fn):
        def decide(controller, snapshot, requests, link):
            start = clock()
            result = fn(controller, snapshot, requests, link)
            end = clock()
            if timed_decision(controller, link):
                self.decisions.append((self.frame_count, start, end))
            return result

        return decide

    def _replication(self, fn):
        def execute_task(payload):
            self.replications += 1
            try:
                return fn(payload)
            except Exception:
                self.failed_replications += 1
                raise

        return execute_task


# -- paper-quick ----------------------------------------------------------------------


class PaperQuick:
    """The seven experiments of ``report --quick`` at their CLI scale, serially.

    The work is one whole report whatever ``seconds`` says.  Units of work
    are the campaign replications plus the three experiments run without a
    campaign (F1, F6, T3).  Frames are timed at the report's largest
    population (16 data users per cell, J=168, where F2/F3 compares the
    schedulers): its 8-user frames are a second, cheaper population, and a
    median over both would fall between them.
    """

    name = "paper-quick"

    def __init__(self, seed: int, seconds: float, fleet_path: bool = False) -> None:
        self.seed = seed
        self.fleet_path = fleet_path

    def prepare(self) -> ScenarioConfig:
        scenario = paper_scenario(duration_s=6.0, warmup_s=1.0, seed=self.seed)
        return on_fleet_path(scenario) if self.fleet_path else scenario

    def _experiments(self, scenario: ScenarioConfig):
        seed = self.seed
        return [
            ("F1", lambda: run_phy_throughput(seed=seed)),
            ("F2F3", lambda: run_delay_vs_load(
                loads=[8, 16], scenario=scenario, num_seeds=2, executor="serial")),
            ("T1", lambda: run_capacity(
                loads=[8, 16], scenario=scenario, delay_target_s=1.0, executor="serial")),
            ("F4", lambda: run_coverage(
                loads=[8, 16], num_drops=3, num_replications=2, seed=seed, executor="serial")),
            ("F5", lambda: run_objectives_tradeoff(
                penalty_scales=[0.0, 2.0], load=16, scenario=scenario, executor="serial")),
            ("F6", lambda: run_solver_ablation(
                request_counts=[4, 8], instances_per_count=2, seed=seed)),
            ("T3", lambda: run_handoff_ablation(num_drops=6, seed=seed)),
        ]

    def execute(self, scenario: ScenarioConfig, tracer: Optional[Tracer] = None) -> Section:
        section, results, other_failures = Section(Gauge(tracer)), [], 0
        probe, patches = Probe(section.gauge, tracer), Patches()
        probe.install(patches)
        try:
            with timed(section, tracer):
                for experiment_id, run in self._experiments(scenario):
                    section.gauge.sample()
                    failed_before, start = probe.failed_replications, clock()
                    try:
                        with _span(tracer, f"experiments.{experiment_id}"):
                            results.append(run())
                    except Exception as exc:
                        section.problems.append(f"{experiment_id}: {exc!r}")
                        if probe.failed_replications == failed_before:
                            other_failures += 1
                    section.extra[f"{experiment_id}_s"] = clock() - start
        finally:
            patches.restore()
        section.extra["missing_calls"] = patches.missing
        section.measured = [(section.start, section.end)]
        largest = max((users for users, _, _ in probe.frames), default=0)
        section.frames = [(a, b) for users, a, b in probe.frames if users == largest]
        section.decisions = [(a, b) for _, a, b in probe.decisions]
        section.attempted = probe.replications + 3
        section.failed = probe.failed_replications + other_failures
        section.units = probe.frame_count
        section.problems += checks.quick_report_problems(results)
        section.outputs = [_table_outputs(result) for result in results]
        return section


#: F6 reports solver run times next to its results; they are not outputs.
_TIMING_COLUMNS = {"optimal_ms", "near_optimal_ms", "greedy_ms"}


def _table_outputs(result) -> tuple:
    rows = [{k: v for k, v in r.items() if k not in _TIMING_COLUMNS} for r in result.records]
    return result.experiment_id, repr(rows), result.notes


# -- fleet-20k ------------------------------------------------------------------------

#: Measured frames per second of ``--seconds``: about the rate of a J=2e4
#: frame on a 2-vCPU x86 VM, so the run lasts about as long as asked while
#: the work stays the same on every commit.
FLEET_FRAMES_PER_S = 5.5
#: Frames run before the clock starts: frame 0 switches every mobile's FCH on.
FLEET_WARMUP_FRAMES = 5
#: Mean reading time per user at the J=200 load level, as in bench_fleet.py.
FLEET_BASE_READING_S, FLEET_BASE_POPULATION = 4.0, 200


class Fleet20k:
    """Complete dynamic frames under JABA-SD(J1) with J~2e4 users on K=19 cells."""

    name = "fleet-20k"

    def __init__(
        self, seed: int, seconds: float, num_users: int = 20_000, num_rings: int = 2,
        warmup_frames: int = FLEET_WARMUP_FRAMES, scheduler_factory=None,
    ) -> None:
        self.seed = seed
        self.num_users = num_users
        self.num_rings = num_rings
        self.warmup_frames = warmup_frames
        self.frames = warmup_frames + max(2, round(seconds * FLEET_FRAMES_PER_S))
        self.scheduler_factory = scheduler_factory or (lambda: JabaSdScheduler("J1"))

    def _scenario(self) -> ScenarioConfig:
        system = SystemConfig()
        system = system.with_overrides(radio=replace(system.radio, num_rings=self.num_rings))
        per_cell = max(1, round(self.num_users / (2 * system.num_cells)))
        population = 2 * per_cell * system.num_cells
        frame_s = system.mac.frame_duration_s
        return on_fleet_path(ScenarioConfig(
            system=system,
            num_data_users_per_cell=per_cell,
            num_voice_users_per_cell=per_cell,
            # Half a frame short of the frame count, so the simulator's ceil()
            # gives exactly ``self.frames`` frames.
            duration_s=(self.frames - 0.5) * frame_s,
            warmup_s=0.0,
            seed=self.seed,
            traffic=TrafficConfig(
                mean_reading_time_s=FLEET_BASE_READING_S
                * max(1.0, population / FLEET_BASE_POPULATION),
                packet_call_min_bits=24_000.0,
                packet_call_max_bits=200_000.0,
            ),
        ))

    def prepare(self) -> DynamicSystemSimulator:
        return DynamicSystemSimulator(self._scenario(), self.scheduler_factory())

    def execute(self, simulator: DynamicSystemSimulator,
                tracer: Optional[Tracer] = None) -> Section:
        section = Section(Gauge(tracer))
        probe, patches = Probe(section.gauge, tracer, check_snapshots=True), Patches()
        probe.install(patches)
        try:
            with timed(section, tracer):
                try:
                    simulator.run()
                except Exception as exc:
                    section.problems.append(f"frame {probe.frame_count}: {exc!r}")
        finally:
            patches.restore()
        section.extra["missing_calls"] = patches.missing
        # Interval i ends frame i + 1; frame 0 has no interval.
        section.frames = [(a, b) for _, a, b in probe.frames[self.warmup_frames - 1:]]
        section.measured = section.frames
        section.decisions = [(a, b) for frame, a, b in probe.decisions
                             if frame >= self.warmup_frames]
        section.attempted = self.frames - self.warmup_frames
        section.failed = section.attempted - len(section.frames)
        section.units = probe.frame_count
        section.problems += probe.problems
        section.outputs = probe.outputs
        return section


# -- admission-heavy ------------------------------------------------------------------

#: Admission frames (one forward and one reverse decision of one drop) per
#: second of ``--seconds``, about the rate on a 2-vCPU x86 VM.
ADMISSION_FRAMES_PER_S = 150.0
#: Pending-queue lengths are spread log-uniformly over this range.
QUEUE_MIN, QUEUE_MAX = 16, 256
#: Requests have waited up to this long, so the MAC set-up penalties of eq. (23) vary.
MAX_WAIT_S = 1.5
#: Voice users per cell of every drop, each active with the voice activity factor.
ADMISSION_VOICE_USERS_PER_CELL = 8


class AdmissionHeavy:
    """Heavy-load admission decisions, back to back, on static K=7 drops.

    An admission frame decides one drop's forward queue and then its reverse
    queue with one controller (JABA-SD J1 or J2, near-optimal solver), as the
    controller does once per 20 ms frame.  The frames cycle over a fixed list
    drawn from the seed; their count is set by ``seconds``.
    """

    name = "admission-heavy"

    def __init__(
        self, seed: int, seconds: float, num_drops: int = 32, data_users_per_cell: int = 40,
        distinct_frames: int = 384, scheduler_factory=None,
    ) -> None:
        self.seed = seed
        self.num_drops = num_drops
        self.data_users_per_cell = data_users_per_cell
        self.distinct_frames = distinct_frames
        self.frames = max(1, round(seconds * ADMISSION_FRAMES_PER_S))
        self.scheduler_factory = scheduler_factory or JabaSdScheduler

    def _drop(self, config: SystemConfig, rng: np.random.Generator):
        """A static drop built through the public network API, and its snapshot."""
        radio = config.radio
        layout = HexagonalCellLayout(
            num_rings=radio.num_rings,
            cell_radius_m=radio.cell_radius_m,
            wraparound=radio.wraparound,
        )
        voice_activity = OnOffVoiceSource().activity_factor
        mobiles = []
        for cell in range(layout.num_cells):
            for _ in range(self.data_users_per_cell):
                # Requesting data users hold the low-rate dedicated control channel.
                mobiles.append(MobileStation.static(
                    len(mobiles), layout.random_position_in_cell(cell, rng),
                    user_class=UserClass.DATA,
                    fch_pilot_power_ratio=radio.fch_pilot_power_ratio,
                    fch_rate_factor=radio.control_channel_rate_fraction,
                ))
            for _ in range(ADMISSION_VOICE_USERS_PER_CELL):
                mobile = MobileStation.static(
                    len(mobiles), layout.random_position_in_cell(cell, rng),
                    user_class=UserClass.VOICE,
                    fch_pilot_power_ratio=radio.fch_pilot_power_ratio,
                )
                mobile.fch_active = bool(rng.random() < voice_activity)
                mobiles.append(mobile)
        network = CdmaNetwork(config, mobiles, rng, layout)
        return network.snapshot(), network.data_mobile_indices()

    def prepare(self) -> list:
        """The distinct admission frames: (controller, snapshot, [(link, queue), ...])."""
        rng = np.random.default_rng(self.seed)
        config = SystemConfig()
        drops = [self._drop(config, rng) for _ in range(self.num_drops)]
        controllers = [
            BurstAdmissionController(config, self.scheduler_factory(objective))
            for objective in ("J1", "J2")
        ]
        traffic = paper_traffic()
        sizes = TruncatedParetoSize(
            shape=traffic.packet_call_shape,
            minimum_bits=traffic.packet_call_min_bits,
            maximum_bits=traffic.packet_call_max_bits,
        )
        # Log-uniform lengths on a fixed grid, in a seeded order: every seed
        # decides the same mix of queue lengths.
        slots = 2 * self.distinct_frames
        grid = (rng.permutation(slots) + 0.5) / slots
        lengths = np.rint(QUEUE_MIN * (QUEUE_MAX / QUEUE_MIN) ** grid).astype(int)
        frames = []
        for i in range(self.distinct_frames):
            snapshot, data_users = drops[i % self.num_drops]
            queues = []
            for link, length in zip((LinkDirection.FORWARD, LinkDirection.REVERSE),
                                    lengths[2 * i: 2 * i + 2]):
                mobiles = rng.choice(data_users, size=length)
                size_bits = sizes.sample(rng, size=length)
                waits = rng.uniform(0.0, MAX_WAIT_S, size=length)
                queues.append((link, [
                    BurstRequest(mobile_index=int(j), link=link, size_bits=float(s),
                                 arrival_time_s=snapshot.time_s - float(w))
                    for j, s, w in zip(mobiles, size_bits, waits)
                ]))
            frames.append((controllers[(i // self.num_drops) % 2], snapshot, queues))
        return frames

    def execute(self, frames: list, tracer: Optional[Tracer] = None) -> Section:
        section = Section(Gauge(tracer))
        decided = []  # (controller, snapshot, link, requests, assignment) of the first pass
        with timed(section, tracer):
            for k in range(self.frames):
                controller, snapshot, queues = frames[k % len(frames)]
                section.gauge.sample()
                frame_start = clock()
                for link, requests in queues:
                    section.attempted += 1
                    if tracer is not None:
                        tracer.unit = section.attempted
                    start = clock()
                    try:
                        decision, _ = controller.decide(snapshot, requests, link)
                    except Exception as exc:
                        section.failed += 1
                        section.problems.append(f"decision {section.attempted}: {exc!r}")
                        continue
                    end = clock()
                    if timed_decision(controller, link):
                        section.decisions.append((start, end))
                    if k < len(frames):
                        decided.append((controller, snapshot, link, requests,
                                        decision.assignment))
                section.frames.append((frame_start, clock()))
        section.measured = [(section.start, section.end)]
        section.units = section.attempted
        for controller, snapshot, link, requests, assignment in decided:
            problem = controller.build_input(snapshot, requests, link)
            objective = controller.scheduler.objective
            weights = objective.weights(
                problem.delta_rho, problem.priorities, problem.waiting_times_s, problem.config
            )
            greedy = JabaSdScheduler(objective, solver="greedy").assign(problem).assignment
            section.problems += checks.decision_problems(problem, assignment, weights, greedy)
            section.outputs.append(tuple(np.asarray(assignment).tolist()))
        return section


WORKLOADS = {w.name: w for w in (PaperQuick, Fleet20k, AdmissionHeavy)}
