"""Pluggable campaign executors and the attempt ledger they share.

The campaign engine (:mod:`repro.experiments.campaign`) reduces an experiment
to a list of *tasks* — pure functions of their ``(point, replication)``
coordinates, thanks to the deterministic seed tree — and hands the list to an
**executor**.  :class:`SerialExecutor` runs them in-process and propagates
exceptions (``workers=1``); :class:`ResilientExecutor` runs them on managed
worker processes over pipes (the ``workers > 1`` default); and
:class:`~repro.experiments.swarm.SwarmExecutor` leases them to workers over
a shared-directory file queue.

The two fault-tolerant executors keep their policy in one
:class:`AttemptLedger` and only report what became of each attempt:

* **failed** — the runner raised, or the attempt overran its time budget.
  Retry ``r`` waits ``min(backoff_base_s * 2**(r-1),`` :data:`BACKOFF_MAX_S`
  ``)``, stretched by up to :data:`BACKOFF_JITTER` of jitter seeded by
  ``(backoff_seed, task, r)``.  Once ``max_retries`` retries are spent and
  no other copy runs, the task is **quarantined**: reported as a failed
  :class:`TaskOutcome` instead of killing the campaign.  The pipe transport
  reports a dead worker or a timeout as failed: its one task is the suspect;
* **lost** — the attempt will never report; it is re-issued at once, costs
  no retry, and only :data:`MAX_REISSUES` bounds it.  The file transport
  reports an expired lease or a dead worker as lost, because leases also
  expire when messages are lost;
* **succeeded** — the first completion wins; later ones are discarded;
* **stragglers** — the sole running copy of a task older than
  ``max(straggler_factor × mean completion time,`` :data:`STRAGGLER_FLOOR_S`
  ``)`` gets one extra copy, only into idle capacity with no ripe work
  queued and once :data:`STRAGGLER_MIN_COMPLETIONS` tasks have completed.

Every task is a pure function of its coordinates, so a retried, re-issued or
duplicated task returns exactly the bytes of the original attempt: a campaign
run with faults injected aggregates bit-identically to a fault-free serial
run (the chaos suite locks this).
"""

from __future__ import annotations

import random
import signal
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.utils.hooks import SimHooks

__all__ = [
    "TaskSpec",
    "TaskOutcome",
    "ExecutorStats",
    "Executor",
    "SerialExecutor",
    "ResilientExecutor",
    "AttemptLedger",
    "reset_worker_signals",
    "retry_backoff_delay",
]

MetricDict = Dict[str, float]
ExecuteFn = Callable[[object], MetricDict]

#: Cap of a retry's exponential backoff before its jitter stretch (seconds).
BACKOFF_MAX_S = 30.0
#: Largest jitter stretch of a retry backoff, as a fraction of the backoff.
BACKOFF_JITTER = 0.25
#: Lost attempts one task may suffer before quarantine: the guard against a
#: task that reliably kills its worker without ever reporting a failure.
MAX_REISSUES = 20
#: Completed tasks needed before the mean completion time picks stragglers.
STRAGGLER_MIN_COMPLETIONS = 3
#: Floor of the straggler threshold (seconds): keeps sub-millisecond task
#: mixes from branding every running attempt a straggler.
STRAGGLER_FLOOR_S = 0.05


def retry_backoff_delay(task_index: int, retry: int, *, base_s: float, seed: int) -> float:
    """Backoff before retry ``retry`` (1-based) of task ``task_index``.

    Exponential in the retry number with a deterministic jitter stretch:
    the jitter RNG is seeded from ``(seed, task_index, retry)`` only, so the
    schedule is reproducible across runs and processes, while distinct
    tasks (and distinct campaign root seeds, which the campaign engine
    threads through as ``seed``) de-synchronise — a retry storm cannot
    re-align itself onto one instant.
    """
    if retry < 1:
        raise ValueError("retry is 1-based")
    base = min(base_s * 2.0 ** (retry - 1), BACKOFF_MAX_S)
    mix = (seed * 1_000_003 + task_index) * 9_973 + retry
    return base * (1.0 + BACKOFF_JITTER * random.Random(mix).random())


def fork_context():
    """The ``fork`` multiprocessing context where available (else the default).

    Forked workers need no importable execute function.
    """
    import multiprocessing as mp

    return mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)


@dataclass(frozen=True)
class TaskSpec:
    """One unit of campaign work: coordinates plus the picklable payload."""

    point_index: int
    replication: int
    payload: object

    @property
    def key(self) -> str:
        """The ``point/replication`` key used by checkpoints and results."""
        return f"{self.point_index}/{self.replication}"


@dataclass
class TaskOutcome:
    """Result of one task: metrics on success, an error string on failure.

    ``attempts`` counts the executions of the task: every attempt that
    failed or was lost, plus the one that succeeded (1 = the first try
    succeeded).  ``metrics`` is ``None`` exactly when the task was
    quarantined, in which case ``error`` describes the last failure.
    """

    task: TaskSpec
    metrics: Optional[MetricDict]
    error: Optional[str] = None
    attempts: int = 1
    duration_s: float = 0.0


@dataclass
class ExecutorStats:
    """Fault-tolerance accounting of one executor (cumulative over runs)."""

    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    workers_respawned: int = 0
    speculative_reissues: int = 0
    duplicates_discarded: int = 0
    quarantined: int = 0
    # Lease-protocol accounting (swarm executor; zero elsewhere).
    leases_issued: int = 0
    leases_expired: int = 0
    work_stolen: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (recorded on :class:`CampaignResult`)."""
        return asdict(self)


class AttemptLedger:
    """Per-task fault-tolerance state of one executor run (see module docs).

    The transport reports each attempt as :meth:`issued`, then
    :meth:`succeeded`, :meth:`failed` or :meth:`lost`.  The ledger records the
    ``task_*`` events, keeps the ``retries``, ``quarantined`` and
    ``duplicates_discarded`` stats and collects the :attr:`outcomes`.
    """

    def __init__(
        self,
        tasks: Sequence[TaskSpec],
        *,
        max_retries: int,
        backoff_base_s: float,
        backoff_seed: Optional[int],
        straggler_factor: Optional[float],
        stats: ExecutorStats,
        hooks: Optional[SimHooks],
    ) -> None:
        self.tasks = tasks
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_seed = backoff_seed or 0
        self.straggler_factor = straggler_factor
        self.stats = stats
        self.hooks = hooks
        total = len(tasks)
        now = time.monotonic()
        #: ``(not_before, task index)`` entries awaiting (re-)issue, FIFO.
        self._queue: List[Tuple[float, int]] = [(now, index) for index in range(total)]
        self._failures = [0] * total  # the retry budget
        self._losses = [0] * total  # bounded by MAX_REISSUES only
        self._running = [0] * total  # copies in flight (> 1: a straggler copy)
        self._finished = [False] * total
        self._copied = [False] * total  # a straggler gets one extra copy
        self._completions = 0
        self._completion_time_s = 0.0
        #: Outcomes waiting to be yielded; :meth:`drain` hands them over.
        self.outcomes: List[TaskOutcome] = []
        #: Tasks with neither a result nor a quarantine verdict yet.
        self.unfinished = total

    # -- transitions the transport reports ---------------------------------------
    def issued(self, index: int) -> None:
        """An attempt of task ``index`` went out to a worker."""
        self._running[index] += 1
        if self.hooks is not None:
            self.hooks.record(
                "task_issued", key=self.tasks[index].key, attempt=self._executions(index) + 1
            )

    def succeeded(
        self, index: int, metrics: MetricDict, duration_s: float, live: bool = True
    ) -> None:
        """An attempt returned ``metrics``; ``live=False``: one already lost."""
        if live:
            self._running[index] -= 1
        if self._finished[index]:
            self.stats.duplicates_discarded += 1
            return
        self._completions += 1
        self._completion_time_s += duration_s
        attempts = self._executions(index) + 1
        if self.hooks is not None:
            self.hooks.record(
                "task_completed",
                key=self.tasks[index].key,
                attempts=attempts,
                duration_s=duration_s,
            )
        self._finish(index, TaskOutcome(self.tasks[index], metrics, None, attempts, duration_s))

    def failed(self, index: int, reason: str, live: bool = True) -> None:
        """The runner raised, or the attempt overran its time budget."""
        if live:
            self._running[index] -= 1
        if self._finished[index]:
            self.stats.duplicates_discarded += 1
            return
        self._failures[index] += 1
        retry = self._failures[index]
        if retry <= self.max_retries:
            self.stats.retries += 1
            delay = retry_backoff_delay(
                index, retry, base_s=self.backoff_base_s, seed=self.backoff_seed
            )
            self._queue.append((time.monotonic() + delay, index))
            if self.hooks is not None:
                self.hooks.record(
                    "task_retry",
                    key=self.tasks[index].key,
                    attempt=retry,
                    delay_s=delay,
                    reason=reason,
                )
        elif not self._running[index]:
            self._quarantine(index, reason)

    def lost(self, index: int, reason: str) -> None:
        """The attempt will never report: re-issue at once, budget untouched."""
        self._running[index] -= 1
        if self._finished[index] or self._running[index]:
            return
        self._losses[index] += 1
        if self._losses[index] > MAX_REISSUES:
            self._quarantine(
                index,
                f"attempt lost {MAX_REISSUES} times without a report (the task "
                f"keeps losing its worker); last: {reason}",
            )
        elif self._failures[index] > self.max_retries:
            # The budget was spent while this copy ran: the deferred verdict.
            self._quarantine(index, reason)
        else:
            self._queue.append((time.monotonic(), index))

    def stale_report(self) -> None:
        """A report of an attempt issued by an earlier run (``keep_alive``)."""
        self.stats.duplicates_discarded += 1

    # -- what runs next ----------------------------------------------------------
    def ripe_count(self, now: float) -> int:
        """Queued tasks that may be issued at ``now``."""
        return sum(
            1 for not_before, index in self._queue
            if not_before <= now and not self._finished[index]
        )

    def take_ripe(self, now: float, limit: int) -> List[int]:
        """Dequeue up to ``limit`` ripe tasks in FIFO order."""
        if limit <= 0:
            return []
        taken: List[int] = []
        keep: List[Tuple[float, int]] = []
        for not_before, index in self._queue:
            if self._finished[index]:
                continue  # a stale entry of a finished task
            if not_before <= now and len(taken) < limit:
                taken.append(index)
            else:
                keep.append((not_before, index))
        self._queue = keep
        return taken

    def pick_stragglers(
        self, running: Iterable[Tuple[float, int]], slots: int, now: float
    ) -> List[int]:
        """Up to ``slots`` stragglers for the caller to copy, oldest first.

        ``running`` holds ``(last progress, task index)`` per attempt in flight.
        """
        if (
            self.straggler_factor is None
            or slots <= 0
            or self._completions < STRAGGLER_MIN_COMPLETIONS
            or self.ripe_count(now)
        ):
            return []
        threshold = max(
            self.straggler_factor * self._completion_time_s / self._completions,
            STRAGGLER_FLOOR_S,
        )
        candidates = sorted(
            (since, index)
            for since, index in running
            if not self._finished[index]
            and self._running[index] == 1
            and not self._copied[index]
            and now - since > threshold
        )
        picked = [index for _, index in candidates[:slots]]
        for index in picked:
            self._copied[index] = True
        return picked

    def sleep_s(self, now: float, cap: float) -> float:
        """Sleep until the next retry ripens, at most ``cap``.

        Ripe entries do not count: they wait for a worker, not for the clock.
        """
        ripening = [
            not_before - now
            for not_before, index in self._queue
            if not_before > now and not self._finished[index]
        ]
        return min([cap] + ripening)

    def drain(self) -> List[TaskOutcome]:
        """Hand over the outcomes collected since the last drain."""
        outcomes, self.outcomes = self.outcomes, []
        return outcomes

    # -- internals ---------------------------------------------------------------
    def _executions(self, index: int) -> int:
        return self._failures[index] + self._losses[index]

    def _quarantine(self, index: int, reason: str) -> None:
        attempts = self._executions(index)
        self.stats.quarantined += 1
        if self.hooks is not None:
            self.hooks.record(
                "task_quarantined", key=self.tasks[index].key, attempts=attempts, reason=reason
            )
        self._finish(index, TaskOutcome(self.tasks[index], None, reason, attempts))

    def _finish(self, index: int, outcome: TaskOutcome) -> None:
        self._finished[index] = True
        self.unfinished -= 1
        self.outcomes.append(outcome)


class Executor:
    """Executor contract: stream :class:`TaskOutcome` for a task list.

    ``run`` is a generator so the engine can checkpoint after every result;
    ``stop`` must promptly release any worker processes (idempotent, used by
    the engine's signal handling).  The serial executor propagates task
    exceptions — aborting the campaign — which keeps its path overhead-free.

    :attr:`hooks` is an optional :class:`repro.utils.hooks.SimHooks`
    observer (assigned by the campaign engine) that records task issue,
    completion, retry and quarantine (``task_*`` events); ``None`` keeps
    every dispatch point a single ``is not None`` branch.

    :attr:`keep_alive` (default ``False``) keeps worker processes running
    when ``run`` finishes, so a caller issuing tasks in waves — the
    campaign engine's sequential-stopping mode — pays the fleet spawn cost
    once instead of once per wave.  ``stop()`` always tears the fleet down
    regardless, so the engine's ``finally: backend.stop()`` remains the
    single cleanup point.
    """

    name = "base"

    def __init__(self) -> None:
        self.stats = ExecutorStats()
        self.hooks: Optional[SimHooks] = None
        self.keep_alive = False

    def run(self, execute: ExecuteFn, tasks: Sequence[TaskSpec]) -> Iterator[TaskOutcome]:
        raise NotImplementedError

    def stop(self) -> None:  # pragma: no cover - default no-op
        """Release worker processes promptly (idempotent)."""


class SerialExecutor(Executor):
    """In-process execution: no worker processes, no pickling, exceptions propagate."""

    name = "serial"

    def __init__(self) -> None:
        super().__init__()
        self._stop_requested = False

    def run(self, execute: ExecuteFn, tasks: Sequence[TaskSpec]) -> Iterator[TaskOutcome]:
        self._stop_requested = False
        hooks = self.hooks
        for task in tasks:
            if self._stop_requested:
                return
            if hooks is not None:
                hooks.record("task_issued", key=task.key, attempt=1)
            started = time.perf_counter()
            metrics = execute(task.payload)
            duration = time.perf_counter() - started
            if hooks is not None:
                hooks.record("task_completed", key=task.key, attempts=1, duration_s=duration)
            yield TaskOutcome(task=task, metrics=metrics, duration_s=duration)

    def stop(self) -> None:
        self._stop_requested = True


def reset_worker_signals() -> None:
    """Restore the default action of SIGINT and SIGTERM in a forked worker.

    A worker forked while :meth:`Campaign.run` has its interrupt handler
    installed inherits that Python-level handler.  Python runs it only
    between bytecodes, so a worker that receives a SIGTERM while blocked in
    a lock or a system call never runs it and waits forever.  With the
    default action the kernel ends the worker at once.  Called first thing
    in every worker the executors fork.
    """
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.SIG_DFL)


# ---------------------------------------------------------------------------
# Resilient executor
# ---------------------------------------------------------------------------
def _resilient_worker(conn) -> None:
    """Worker loop: receive ``(ticket, execute, payload)``, send the result.

    A ``None`` message is the shutdown signal.  All exceptions — including
    injected faults — are reported back as ``(ticket, False, reason)``; a
    crash (``os._exit``, signal) simply never answers, which the parent
    detects through process liveness.
    """
    reset_worker_signals()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        ticket, execute, payload = message
        try:
            metrics = execute(payload)
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            reply = (ticket, False, f"{type(exc).__name__}: {exc}")
        else:
            reply = (ticket, True, metrics)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


class _WorkerHandle:
    """A managed worker process and its duplex pipe."""

    __slots__ = ("process", "conn", "ticket")

    def __init__(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_resilient_worker, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.ticket: Optional[int] = None  # ticket of the in-flight attempt


class ResilientExecutor(Executor):
    """Fault-tolerant executor with managed workers (see module docstring).

    Parameters
    ----------
    workers:
        Managed worker processes (each a fresh process with its own pipe).
    task_timeout_s:
        Wall-clock budget per attempt; exceeding it kills the worker and
        counts as a failed attempt.  ``None`` disables timeouts.
    max_retries:
        Failed attempts re-issued before a task is quarantined; a task may
        execute ``max_retries + 1`` times in total.
    backoff_base_s:
        Backoff before a task's first retry; it doubles per retry up to
        :data:`BACKOFF_MAX_S`.
    straggler_factor:
        A sole in-flight attempt older than this many mean completion times
        (and at least :data:`STRAGGLER_FLOOR_S`) is copied onto an idle
        worker; first result wins.  ``None`` disables speculation.
    poll_interval_s:
        Monitor tick used when no worker message is pending.
    backoff_seed:
        Jitter seed; ``None`` means "derive from the campaign root seed"
        (the campaign engine fills it in at resolve time, so chaos runs
        reproduce and distinct campaigns de-synchronise their storms).
    """

    name = "resilient"

    def __init__(
        self,
        workers: int,
        task_timeout_s: Optional[float] = None,
        max_retries: int = 2,
        backoff_base_s: float = 0.25,
        straggler_factor: Optional[float] = 4.0,
        poll_interval_s: float = 0.05,
        backoff_seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if task_timeout_s is not None and task_timeout_s <= 0.0:
            raise ValueError("task_timeout_s must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if straggler_factor is not None and straggler_factor <= 1.0:
            raise ValueError("straggler_factor must exceed 1 (or be None)")
        self.workers = int(workers)
        self.task_timeout_s = task_timeout_s
        self.max_retries = int(max_retries)
        self.backoff_base_s = float(backoff_base_s)
        self.straggler_factor = straggler_factor
        self.poll_interval_s = float(poll_interval_s)
        self.backoff_seed = None if backoff_seed is None else int(backoff_seed)
        self._live: List[_WorkerHandle] = []
        self._stop_requested = False
        self._spawned_initial = False
        # Tickets must stay unique for the executor's lifetime, not per run:
        # with ``keep_alive`` a speculative duplicate from one wave can
        # report mid-way through the next, and a reused ticket number would
        # attribute that stale result to the wrong task.
        self._next_ticket = 0

    def _spawn(self, ctx) -> _WorkerHandle:
        worker = _WorkerHandle(ctx)
        self._live.append(worker)
        if self._spawned_initial:
            self.stats.workers_respawned += 1
        return worker

    @staticmethod
    def _kill(worker: _WorkerHandle) -> None:
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=1.0)
        if worker.process.is_alive():  # pragma: no cover - stuck in kernel
            worker.process.kill()
            worker.process.join(timeout=1.0)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def _shutdown(self) -> None:
        workers, self._live = self._live, []
        for worker in workers:
            if worker.ticket is None and worker.process.is_alive():
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for worker in workers:
            worker.process.join(timeout=0.2)
        for worker in workers:
            self._kill(worker)

    def stop(self) -> None:
        self._stop_requested = True
        self._shutdown()

    # -- main loop ---------------------------------------------------------------
    def run(self, execute: ExecuteFn, tasks: Sequence[TaskSpec]) -> Iterator[TaskOutcome]:
        tasks = list(tasks)
        if not tasks:
            return
        from multiprocessing import connection as mp_connection

        ctx = fork_context()
        ledger = AttemptLedger(
            tasks,
            max_retries=self.max_retries,
            backoff_base_s=self.backoff_base_s,
            backoff_seed=self.backoff_seed,
            straggler_factor=self.straggler_factor,
            stats=self.stats,
            hooks=self.hooks,
        )
        #: ticket -> (task index, start time) of every attempt in flight.
        in_flight: Dict[int, Tuple[int, float]] = {}
        self._stop_requested = False
        self._spawned_initial = bool(self._live)

        def reap(worker: _WorkerHandle, reason: str) -> None:
            """Remove a dead or hung worker; its in-flight attempt failed."""
            self._live.remove(worker)
            if worker.ticket is not None:
                attempt = in_flight.pop(worker.ticket, None)
                if attempt is None:  # a previous wave's ticket (keep_alive)
                    ledger.stale_report()
                else:
                    ledger.failed(attempt[0], reason)
            self._kill(worker)

        def dispatch(worker: _WorkerHandle, index: int) -> None:
            ticket = self._next_ticket
            self._next_ticket += 1
            in_flight[ticket] = (index, time.monotonic())
            worker.ticket = ticket
            ledger.issued(index)
            worker.conn.send((ticket, execute, tasks[index].payload))

        try:
            while ledger.unfinished and not self._stop_requested:
                now = time.monotonic()

                # 1. A dead worker or an attempt over its timeout budget
                # fails the one in-flight task (the worker is killed).
                for worker in list(self._live):
                    attempt = in_flight.get(worker.ticket)
                    if not worker.process.is_alive():
                        self.stats.worker_crashes += 1
                        reap(worker, f"worker died (exit code {worker.process.exitcode})")
                    elif (
                        attempt is not None
                        and self.task_timeout_s is not None
                        and now - attempt[1] > self.task_timeout_s
                    ):
                        self.stats.timeouts += 1
                        reap(
                            worker,
                            f"task timed out after {now - attempt[1]:.1f} s "
                            f"(budget {self.task_timeout_s:.1f} s)",
                        )

                # 2. Keep the fleet at strength while work remains.
                while len(self._live) < min(self.workers, ledger.unfinished):
                    self._spawn(ctx)
                self._spawned_initial = True

                # 3. Ripe work to idle workers, then straggler copies into
                # the capacity that is left.
                idle = [w for w in self._live if w.ticket is None]
                ready = ledger.take_ripe(now, len(idle))
                for worker, index in zip(idle, ready):
                    dispatch(worker, index)
                idle = idle[len(ready):]
                if idle:
                    running = [(started, index) for index, started in in_flight.values()]
                    for worker, index in zip(
                        idle, ledger.pick_stragglers(running, len(idle), now)
                    ):
                        self.stats.speculative_reissues += 1
                        dispatch(worker, index)

                # 4. Wait for worker messages (or for the next retry to ripen).
                busy = {w.conn: w for w in self._live if w.ticket is not None}
                if busy:
                    timeout = ledger.sleep_s(now, self.poll_interval_s)
                    for conn in mp_connection.wait(list(busy), timeout=timeout):
                        try:
                            ticket, ok, payload = conn.recv()
                        except (EOFError, OSError):
                            # Death will be reaped at the top of the next
                            # iteration (liveness, not EOF, is authoritative).
                            continue
                        busy[conn].ticket = None
                        attempt = in_flight.pop(ticket, None)
                        if attempt is None:  # a previous wave's speculative copy
                            ledger.stale_report()
                        elif ok:
                            index, started = attempt
                            ledger.succeeded(index, payload, time.monotonic() - started)
                        else:
                            ledger.failed(attempt[0], str(payload))
                elif not ledger.outcomes:
                    if not ledger.ripe_count(float("inf")):  # pragma: no cover - defensive
                        raise RuntimeError(
                            "resilient executor stalled: tasks outstanding but "
                            "nothing running, pending or dispatchable"
                        )
                    time.sleep(ledger.sleep_s(now, self.poll_interval_s))

                yield from ledger.drain()
        finally:
            if not self.keep_alive:
                self._shutdown()
