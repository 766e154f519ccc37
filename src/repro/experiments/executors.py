"""Pluggable campaign executors: serial, pooled and fault-tolerant back-ends.

The campaign engine (:mod:`repro.experiments.campaign`) reduces an experiment
to a list of *tasks* — pure functions of their ``(point, replication)``
coordinates, thanks to the deterministic seed tree — and hands the list to an
**executor**.  Three back-ends implement the same small contract:

:class:`SerialExecutor`
    In-process loop, no pickling requirements, exceptions propagate (abort on
    first failure).  The ``workers=1`` behaviour the engine always had.
:class:`PoolExecutor`
    ``multiprocessing.Pool`` sharding with ``imap_unordered`` — the historic
    ``workers > 1`` path.  Fast, but brittle by construction: one worker
    exception aborts the whole campaign and a hung task stalls it forever.
:class:`ResilientExecutor`
    Owns its worker processes (one duplex pipe each) and adds the
    fault-tolerance layer production campaigns need:

    * **per-task timeouts** — a task running longer than ``task_timeout_s``
      has its worker killed and is re-issued;
    * **retry with exponential backoff + deterministic jitter** — a failed
      attempt is re-scheduled after ``backoff_base_s * 2**(attempt-1)``
      seconds (capped, jittered by a seeded RNG so schedules are
      reproducible);
    * **dead-worker detection and respawn** — a crashed worker (segfault,
      ``os._exit``, OOM kill) loses only its in-flight task, which is
      re-issued to a fresh process;
    * **speculative straggler re-issue** — a task running longer than
      ``straggler_factor`` times the running mean completion time is
      duplicated onto an idle worker; the first result wins, and the seed
      tree guarantees duplicates are bit-identical, so first-wins cannot
      change any aggregate;
    * **poisoned-task quarantine** — a task that fails ``max_retries + 1``
      attempts is reported as a failed :class:`TaskOutcome` instead of
      killing the campaign; the engine records the failure per point and the
      reducers flag the degraded cell.

Because every task is a pure function of its coordinates, re-execution in
any of these forms is provably safe: a retried, re-issued or duplicated task
returns exactly the bytes the original attempt would have returned, so a
campaign run under the resilient executor with faults injected aggregates
bit-identically to a fault-free serial run (the chaos suite locks this).
"""

from __future__ import annotations

import random
import signal
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.utils.hooks import SimHooks

__all__ = [
    "TaskSpec",
    "TaskOutcome",
    "ExecutorStats",
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "ResilientExecutor",
    "reset_worker_signals",
    "retry_backoff_delay",
]

MetricDict = Dict[str, float]
ExecuteFn = Callable[[object], MetricDict]


def retry_backoff_delay(
    task_index: int,
    retry: int,
    *,
    base_s: float,
    max_s: float,
    jitter: float,
    seed: int,
) -> float:
    """Backoff before retry ``retry`` (1-based) of task ``task_index``.

    Exponential in the retry number with a deterministic jitter stretch:
    the jitter RNG is seeded from ``(seed, task_index, retry)`` only, so the
    schedule is reproducible across runs and processes, while distinct
    tasks (and distinct campaign root seeds, which the campaign engine
    threads through as ``seed``) de-synchronise — a retry storm cannot
    re-align itself onto one instant.  Shared by the resilient and swarm
    executors.
    """
    if retry < 1:
        raise ValueError("retry is 1-based")
    base = min(base_s * 2.0 ** (retry - 1), max_s)
    mix = (seed * 1_000_003 + task_index) * 9_973 + retry
    return base * (1.0 + jitter * random.Random(mix).random())


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

    ``attempts`` counts executions (1 = first try succeeded); ``metrics`` is
    ``None`` exactly when the task was quarantined after exhausting its
    retries, in which case ``error`` describes the last failure.
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


class Executor:
    """Executor contract: stream :class:`TaskOutcome` for a task list.

    ``run`` is a generator so the engine can checkpoint after every result;
    ``stop`` must promptly release any worker processes (idempotent, used by
    the engine's signal handling).  Executors other than the resilient one
    propagate task exceptions — aborting the campaign — which is the historic
    behaviour and keeps their no-failure fast path overhead-free.

    :attr:`hooks` is an optional :class:`repro.utils.hooks.SimHooks`
    observer (assigned by the campaign engine) notified of task issue,
    completion, retry and quarantine; ``None`` keeps every dispatch point a
    single ``is not None`` branch.

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
    """In-process execution: no pool, no pickling, exceptions propagate."""

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
                hooks.task_issued(task.key, attempt=1)
            started = time.perf_counter()
            metrics = execute(task.payload)
            duration = time.perf_counter() - started
            if hooks is not None:
                hooks.task_completed(task.key, attempts=1, duration_s=duration)
            yield TaskOutcome(task=task, metrics=metrics, duration_s=duration)

    def stop(self) -> None:
        self._stop_requested = True


def reset_worker_signals() -> None:
    """Restore the default action of SIGINT and SIGTERM in a forked worker.

    A worker forked while :meth:`Campaign.run` has its interrupt handler
    installed inherits that Python-level handler.  Python runs it only
    between bytecodes, so a pool worker that receives ``Pool.terminate()``'s
    SIGTERM just before it blocks on the task-queue lock never runs it and
    waits forever.  With the default action the kernel ends the worker at
    once.  Called first thing in every worker the executors fork.
    """
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.SIG_DFL)


def _pool_entry(payload: Tuple[ExecuteFn, int, object]) -> Tuple[int, MetricDict]:
    """Module-level pool trampoline (pickles by reference)."""
    execute, index, task_payload = payload
    return index, execute(task_payload)


class PoolExecutor(Executor):
    """``multiprocessing.Pool`` sharding — the historic ``workers > 1`` path.

    A worker exception propagates and aborts the campaign (completed results
    survive in the checkpoint); there is no timeout or retry.  Use
    :class:`ResilientExecutor` when fault tolerance matters more than the
    last percent of throughput.
    """

    name = "pool"

    def __init__(self, workers: int) -> None:
        super().__init__()
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = int(workers)
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing as mp

            method = "fork" if "fork" in mp.get_all_start_methods() else None
            self._pool = mp.get_context(method).Pool(
                processes=self.workers, initializer=reset_worker_signals
            )
        return self._pool

    def run(self, execute: ExecuteFn, tasks: Sequence[TaskSpec]) -> Iterator[TaskOutcome]:
        tasks = list(tasks)
        if not tasks:
            return
        payloads = [(execute, index, task.payload) for index, task in enumerate(tasks)]
        hooks = self.hooks
        if hooks is not None:
            # The pool hands tasks out internally; issue is observable only
            # at submission granularity.
            for task in tasks:
                hooks.task_issued(task.key, attempt=1)
        pool = self._ensure_pool()
        try:
            for index, metrics in pool.imap_unordered(
                _pool_entry, payloads, chunksize=1
            ):
                if hooks is not None:
                    hooks.task_completed(
                        tasks[index].key, attempts=1, duration_s=0.0
                    )
                yield TaskOutcome(task=tasks[index], metrics=metrics)
        finally:
            if not self.keep_alive:
                self.stop()

    def stop(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()


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


@dataclass
class _Attempt:
    """Bookkeeping of one in-flight execution of one task."""

    task_index: int
    started_at: float = 0.0


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
    backoff_base_s / backoff_max_s / backoff_jitter:
        Retry ``r`` of a task waits ``min(backoff_base_s * 2**(r-1),
        backoff_max_s)`` seconds, stretched by up to ``backoff_jitter``
        (fraction) of deterministic per-``(task, attempt)`` jitter.
    straggler_factor / straggler_min_completions:
        A sole in-flight attempt older than ``straggler_factor`` times the
        mean completion time (once ``straggler_min_completions`` tasks have
        finished) is speculatively duplicated onto an idle worker; first
        result wins.  ``straggler_factor=None`` disables speculation.
    poll_interval_s:
        Monitor tick used when no worker message is pending.
    """

    name = "resilient"

    def __init__(
        self,
        workers: int,
        task_timeout_s: Optional[float] = None,
        max_retries: int = 2,
        backoff_base_s: float = 0.25,
        backoff_max_s: float = 30.0,
        backoff_jitter: float = 0.25,
        straggler_factor: Optional[float] = 4.0,
        straggler_min_completions: int = 3,
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
        self.backoff_max_s = float(backoff_max_s)
        self.backoff_jitter = float(backoff_jitter)
        self.straggler_factor = straggler_factor
        self.straggler_min_completions = int(straggler_min_completions)
        self.poll_interval_s = float(poll_interval_s)
        #: Jitter seed; ``None`` means "derive from the campaign root seed"
        #: (the campaign engine fills it in at resolve time, so chaos runs
        #: reproduce and distinct campaigns de-synchronise their storms).
        self.backoff_seed = None if backoff_seed is None else int(backoff_seed)
        self._live: List[_WorkerHandle] = []
        self._stop_requested = False
        self._spawned_initial = False
        # Tickets must stay unique for the executor's lifetime, not per run:
        # with ``keep_alive`` a speculative duplicate from one wave can
        # report mid-way through the next, and a reused ticket number would
        # attribute that stale result to the wrong task.
        self._next_ticket = 0

    # -- scheduling helpers ------------------------------------------------------
    def retry_delay(self, task_index: int, retry: int) -> float:
        """Backoff before retry ``retry`` (1-based) of task ``task_index``.

        Exponential in the retry number with a deterministic jitter stretch:
        the jitter RNG is seeded from ``(backoff_seed, task_index, retry)``
        only, so the schedule is reproducible across runs and processes.
        """
        return retry_backoff_delay(
            task_index,
            retry,
            base_s=self.backoff_base_s,
            max_s=self.backoff_max_s,
            jitter=self.backoff_jitter,
            seed=self.backoff_seed or 0,
        )

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
        import multiprocessing as mp
        from multiprocessing import connection as mp_connection

        method = "fork" if "fork" in mp.get_all_start_methods() else None
        ctx = mp.get_context(method)

        total = len(tasks)
        now = time.monotonic()
        #: (not_before, task_index) entries awaiting (re-)dispatch, FIFO.
        pending: List[Tuple[float, int]] = [(now, index) for index in range(total)]
        failed_attempts = [0] * total  # attempts that already failed
        running_copies = [0] * total  # in-flight attempts (>1 = speculation)
        finished = [False] * total
        speculated = [False] * total
        durations: List[float] = []
        attempts: Dict[int, _Attempt] = {}  # ticket -> in-flight bookkeeping
        emitted = 0
        self._stop_requested = False
        self._spawned_initial = bool(self._live)

        def register_failure(index: int, reason: str) -> Optional[TaskOutcome]:
            """Schedule a retry, or quarantine once the budget is exhausted."""
            failed_attempts[index] += 1
            if failed_attempts[index] <= self.max_retries:
                self.stats.retries += 1
                delay = self.retry_delay(index, failed_attempts[index])
                pending.append((time.monotonic() + delay, index))
                if self.hooks is not None:
                    self.hooks.task_retry(
                        tasks[index].key,
                        attempt=failed_attempts[index],
                        delay_s=delay,
                        reason=reason,
                    )
                return None
            if running_copies[index] > 0:
                # A speculative duplicate is still in flight and may yet
                # succeed; defer the verdict until it reports.
                return None
            finished[index] = True
            self.stats.quarantined += 1
            if self.hooks is not None:
                self.hooks.task_quarantined(
                    tasks[index].key, attempts=failed_attempts[index], reason=reason
                )
            return TaskOutcome(
                task=tasks[index],
                metrics=None,
                error=reason,
                attempts=failed_attempts[index],
            )

        def reap(worker: _WorkerHandle, reason: str) -> Optional[TaskOutcome]:
            """Remove a dead/hung worker, re-issuing its in-flight task."""
            self._live.remove(worker)
            outcome = None
            if worker.ticket is not None:
                # A ticket from a previous wave (keep_alive) is not in this
                # wave's books; the task it carried was already resolved.
                attempt = attempts.pop(worker.ticket, None)
                if attempt is None:
                    self.stats.duplicates_discarded += 1
                elif finished[attempt.task_index]:
                    running_copies[attempt.task_index] -= 1
                    self.stats.duplicates_discarded += 1
                else:
                    running_copies[attempt.task_index] -= 1
                    outcome = register_failure(attempt.task_index, reason)
            self._kill(worker)
            return outcome

        def dispatch(worker: _WorkerHandle, index: int) -> None:
            ticket = self._next_ticket
            self._next_ticket += 1
            attempts[ticket] = _Attempt(task_index=index, started_at=time.monotonic())
            running_copies[index] += 1
            worker.ticket = ticket
            if self.hooks is not None:
                self.hooks.task_issued(
                    tasks[index].key, attempt=failed_attempts[index] + 1
                )
            worker.conn.send((ticket, execute, tasks[index].payload))

        try:
            while emitted < total and not self._stop_requested:
                now = time.monotonic()
                fresh: List[TaskOutcome] = []

                # 1. Dead workers lose only their in-flight task.
                for worker in list(self._live):
                    if worker.process.is_alive():
                        continue
                    code = worker.process.exitcode
                    self.stats.worker_crashes += 1
                    outcome = reap(worker, f"worker died (exit code {code})")
                    if outcome is not None:
                        fresh.append(outcome)

                # 2. Attempts over the timeout budget: kill + re-issue.
                if self.task_timeout_s is not None:
                    for worker in list(self._live):
                        if worker.ticket is None or worker.ticket not in attempts:
                            continue
                        elapsed = now - attempts[worker.ticket].started_at
                        if elapsed <= self.task_timeout_s:
                            continue
                        self.stats.timeouts += 1
                        outcome = reap(
                            worker,
                            f"task timed out after {elapsed:.1f} s "
                            f"(budget {self.task_timeout_s:.1f} s)",
                        )
                        if outcome is not None:
                            fresh.append(outcome)

                # 3. Keep the fleet at strength while work remains.
                unfinished = total - sum(finished)
                while len(self._live) < min(self.workers, unfinished):
                    self._spawn(ctx)
                self._spawned_initial = True

                # 4. Dispatch ready work to idle workers, FIFO.
                idle = [w for w in self._live if w.ticket is None]
                for worker in idle:
                    chosen = None
                    for slot, (not_before, index) in enumerate(pending):
                        if finished[index]:
                            chosen = slot  # stale retry of a finished task
                            break
                        if not_before <= now:
                            chosen = slot
                            break
                    if chosen is None:
                        break
                    _, index = pending.pop(chosen)
                    if finished[index]:
                        continue
                    dispatch(worker, index)

                # 5. Speculative straggler re-issue (only into spare capacity).
                idle = [w for w in self._live if w.ticket is None]
                ready_exists = any(
                    not_before <= now and not finished[index]
                    for not_before, index in pending
                )
                if (
                    self.straggler_factor is not None
                    and idle
                    and not ready_exists
                    and len(durations) >= self.straggler_min_completions
                ):
                    threshold = self.straggler_factor * (
                        sum(durations) / len(durations)
                    )
                    candidates = sorted(
                        (
                            attempt
                            for attempt in attempts.values()
                            if not finished[attempt.task_index]
                            and running_copies[attempt.task_index] == 1
                            and not speculated[attempt.task_index]
                            and now - attempt.started_at > threshold
                        ),
                        key=lambda attempt: attempt.started_at,
                    )
                    for worker, attempt in zip(idle, candidates):
                        speculated[attempt.task_index] = True
                        self.stats.speculative_reissues += 1
                        dispatch(worker, attempt.task_index)

                # 6. Wait for worker messages (or for the next retry to ripen).
                busy = [w for w in self._live if w.ticket is not None]
                if busy:
                    ready_conns = mp_connection.wait(
                        [w.conn for w in busy], timeout=self.poll_interval_s
                    )
                    by_conn = {w.conn: w for w in busy}
                    for conn in ready_conns:
                        worker = by_conn[conn]
                        try:
                            ticket, ok, payload = conn.recv()
                        except (EOFError, OSError):
                            # Death will be reaped at the top of the next
                            # iteration (liveness, not EOF, is authoritative).
                            continue
                        worker.ticket = None
                        attempt = attempts.pop(ticket, None)
                        if attempt is None:
                            # Stale result from a previous wave's speculative
                            # duplicate (keep_alive): the task was resolved.
                            self.stats.duplicates_discarded += 1
                            continue
                        index = attempt.task_index
                        running_copies[index] -= 1
                        if finished[index]:
                            self.stats.duplicates_discarded += 1
                            continue
                        if ok:
                            finished[index] = True
                            duration = time.monotonic() - attempt.started_at
                            durations.append(duration)
                            if self.hooks is not None:
                                self.hooks.task_completed(
                                    tasks[index].key,
                                    attempts=failed_attempts[index] + 1,
                                    duration_s=duration,
                                )
                            fresh.append(
                                TaskOutcome(
                                    task=tasks[index],
                                    metrics=payload,
                                    attempts=failed_attempts[index] + 1,
                                    duration_s=duration,
                                )
                            )
                        else:
                            outcome = register_failure(index, str(payload))
                            if outcome is not None:
                                fresh.append(outcome)
                elif not fresh:
                    ripen = [
                        not_before
                        for not_before, index in pending
                        if not finished[index]
                    ]
                    if not ripen:  # pragma: no cover - defensive
                        raise RuntimeError(
                            "resilient executor stalled: tasks outstanding but "
                            "nothing running, pending or dispatchable"
                        )
                    time.sleep(
                        min(self.poll_interval_s, max(0.0, min(ripen) - now))
                    )

                for outcome in fresh:
                    emitted += 1
                    yield outcome
        finally:
            if not self.keep_alive:
                self._shutdown()
