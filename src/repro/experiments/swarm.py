"""Crash-tolerant distributed campaign executor: a leased worker swarm.

:class:`SwarmExecutor` runs the fault-tolerance policy of
:class:`~repro.experiments.executors.AttemptLedger` — the one
:class:`~repro.experiments.executors.ResilientExecutor` runs over pipes —
across independently spawned worker *processes* that share nothing with the
coordinator but a directory.  The protocol is deliberately boring — atomic
files over a shared filesystem — because boring survives: it works between
processes on one machine, between machines over NFS, and it is trivially
observable and fault-injectable
(:class:`~repro.experiments.faults.MessageFaultPlan`).

Protocol
--------
The coordinator owns a *swarm directory*::

    <dir>/job.pkl            the job: execute fn, tuning, coordinator identity
    <dir>/inbox/<wid>/       lease messages addressed to worker ``wid``
    <dir>/results/           result messages from every worker
    <dir>/heartbeats/<wid>.hb  the worker's latest heartbeat (atomic JSON)
    <dir>/stop               created by the coordinator: all workers exit

* The coordinator hands out **leases**: an attempt id plus a batch of tasks
  and an implicit deadline.  A lease is *live* while evidence of it keeps
  arriving — heartbeats listing the attempt id, or results from it — and
  **expires** ``lease_timeout_s`` after the last evidence.  The unresolved
  tasks of an expired lease, or of a spawned worker that died, are reported
  to the ledger as *lost*: they are re-issued under a fresh attempt id
  without burning their retry budget (only a failure the runner itself
  reported does; :data:`~repro.experiments.executors.MAX_REISSUES` guards
  against a task that keeps killing its workers).
* Workers **heartbeat** (atomic JSON, one file per worker) and stream one
  result message per finished task.  Delivery is **at-least-once**: crashes,
  expired-but-alive leases and injected message duplication all produce
  duplicate completions, which the ledger dedupes by task — the first
  completion wins.  The deterministic seed tree makes every re-execution
  bit-identical, so first-wins can never change an aggregate: the swarm is
  bit-identical to :class:`SerialExecutor` for any worker topology,
  join/leave schedule or fault pattern.
* Near the tail the coordinator **steals work** from slow workers: the
  ledger's stragglers (a sole in-flight task with no progress for
  ``steal_factor`` times the mean completion time) are re-leased to idle
  workers.

Workers are either spawned by the coordinator (``workers=N``) or attached
from outside — any machine that shares the directory can run
``python -m repro.experiments.worker --swarm-dir <dir>`` and the coordinator
adopts it on its first heartbeat.  Spawned workers use the ``fork`` start
method where available, so the execute function needs no importability;
external workers unpickle the job file and need it importable (the
coordinator ships its ``sys.path`` to help).
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import socket
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.experiments.executors import (
    AttemptLedger,
    ExecuteFn,
    Executor,
    TaskOutcome,
    TaskSpec,
    fork_context,
    reset_worker_signals,
)
from repro.experiments.faults import MessageFaultPlan

__all__ = ["SwarmExecutor", "SwarmLayout", "FileMailbox", "drain_mailbox"]

#: Exit code of a worker that noticed its coordinator died (orphan guard).
ORPHAN_EXIT_CODE = 75
#: Inbox poll of a spawned worker (seconds): every lease hand-off waits for
#: one coordinator tick plus one worker poll.
SPAWNED_WORKER_POLL_S = 0.001


class SwarmLayout:
    """Paths inside one swarm directory (shared coordinator/worker vocab)."""

    def __init__(self, root: str) -> None:
        self.root = str(root)
        self.job_path = os.path.join(self.root, "job.pkl")
        self.stop_path = os.path.join(self.root, "stop")
        self.results_dir = os.path.join(self.root, "results")
        self.heartbeats_dir = os.path.join(self.root, "heartbeats")

    def inbox_dir(self, worker_id: str) -> str:
        return os.path.join(self.root, "inbox", worker_id)

    def heartbeat_path(self, worker_id: str) -> str:
        return os.path.join(self.heartbeats_dir, f"{worker_id}.hb")

    def ensure(self) -> None:
        os.makedirs(self.results_dir, exist_ok=True)
        os.makedirs(self.heartbeats_dir, exist_ok=True)


def _atomic_publish(path: str, data: bytes) -> None:
    """Write ``data`` at ``path`` via temp + rename (no partial reads)."""
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".tmp-{name}")
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


class FileMailbox:
    """Sender half of one message channel: a directory of atomic files.

    Messages are pickled envelopes published under monotonically increasing
    sequence names (``<seq>-<sender>.msg``), so the single consumer drains
    them in send order by sorting.  An optional
    :class:`~repro.experiments.faults.MessageFaultPlan` is consulted per
    logical send: drops skip the write, duplicates publish twice, delays
    stamp a ``not_before`` the consumer honours, and reorders hold the
    message back until after the *next* send (or :meth:`flush`).
    """

    def __init__(
        self,
        directory: str,
        sender: str,
        channel: str,
        faults: Optional[MessageFaultPlan] = None,
    ) -> None:
        self.directory = str(directory)
        self.sender = str(sender)
        self.channel = str(channel)
        self.faults = faults
        os.makedirs(self.directory, exist_ok=True)
        self._file_seq = 0
        self._msg_seq = 0
        self._held: Optional[Tuple[dict, float]] = None

    def _write(self, body: dict, not_before: float) -> None:
        name = f"{self._file_seq:08d}-{self.sender}.msg"
        self._file_seq += 1
        data = pickle.dumps({"not_before": not_before, "body": body})
        _atomic_publish(os.path.join(self.directory, name), data)

    def _flush_held(self) -> None:
        if self._held is not None:
            body, not_before = self._held
            self._held = None
            self._write(body, not_before)

    def send(self, body: dict, message_id: str) -> None:
        """Send one logical message (its injected fate decides the rest)."""
        if self.faults is not None:
            fate = self.faults.fate(self.channel, message_id, self._msg_seq)
        else:
            fate = None
        self._msg_seq += 1
        if fate is not None and fate.dropped:
            self._flush_held()
            return
        not_before = 0.0
        if fate is not None and fate.delay_s > 0.0:
            not_before = time.time() + fate.delay_s
        if fate is not None and fate.reordered:
            # Deliver after the sender's next message: hold it back; the
            # held slot is flushed by the next send (which then carries an
            # earlier sequence name than this message gets).
            self._flush_held()
            self._held = (body, not_before)
            return
        self._write(body, not_before)
        if fate is not None and fate.duplicated:
            self._write(body, not_before)
        self._flush_held()

    def flush(self) -> None:
        """Release any reorder-held message (call when the channel idles)."""
        self._flush_held()


def drain_mailbox(directory: str) -> List[dict]:
    """Consume every ripe message in ``directory`` (single-consumer).

    Messages whose ``not_before`` is in the future stay for a later drain;
    unreadable files (should not happen — publishes are atomic — but a
    hostile filesystem may) are discarded, which the lease protocol treats
    exactly like a dropped message.
    """
    try:
        names = sorted(os.listdir(directory))
    except FileNotFoundError:
        return []
    now = time.time()
    messages: List[dict] = []
    for name in names:
        # ".tmp-*" are in-flight atomic publishes (they end in ".msg" too):
        # touching one would race the sender's rename.
        if not name.endswith(".msg") or name.startswith(".tmp-"):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
            if not isinstance(envelope, dict):
                raise ValueError("message envelope is not a dict")
        except FileNotFoundError:
            continue
        except Exception:  # noqa: BLE001 - corrupt message == dropped message
            try:
                os.remove(path)
            except OSError:
                pass
            continue
        if float(envelope.get("not_before", 0.0)) > now:
            continue
        try:
            os.remove(path)
        except OSError:  # pragma: no cover - defensive (single consumer)
            continue
        messages.append(envelope["body"])
    return messages


def pid_alive(pid: int) -> bool:
    """Best-effort liveness of ``pid`` on this machine."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    return True


def _forked_worker_main(swarm_dir: str, worker_id: str) -> int:
    """Entry point of a worker the coordinator forks (external workers keep their handlers).

    An orphan (its coordinator died without unwinding) removes the swarm
    directory when ``job.pkl`` marks it private: nobody else knows its
    name.  An explicit ``swarm_dir`` is never removed.
    """
    reset_worker_signals()
    # Imported lazily: worker.py imports this module at import time.
    from repro.experiments.worker import worker_main

    # Read before the run: a fellow orphan may have removed the job by the end.
    private = _job_is_private(SwarmLayout(swarm_dir))
    code = worker_main(swarm_dir, worker_id, SPAWNED_WORKER_POLL_S)
    if code == ORPHAN_EXIT_CODE and private:
        shutil.rmtree(swarm_dir, ignore_errors=True)
    return code


def _job_is_private(layout: SwarmLayout) -> bool:
    """Whether the coordinator created the swarm directory itself."""
    try:
        with open(layout.job_path, "rb") as handle:
            return bool(pickle.load(handle).get("private"))
    except OSError:  # the directory is already gone
        return False


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------
@dataclass
class _SwarmWorker:
    """Coordinator-side record of one worker (spawned or adopted)."""

    worker_id: str
    process: Optional[object] = None  # multiprocessing handle when spawned
    mailbox: Optional[FileMailbox] = None
    last_seen: Optional[float] = None  # monotonic; None until first heartbeat
    hb_seq: int = -1
    attempts: Set[str] = field(default_factory=set)
    joined: bool = False  # worker_joined hook fired (spawn or first beat)


@dataclass
class _SwarmLease:
    """One outstanding lease: attempt id + unresolved tasks + deadline."""

    attempt_id: str
    worker_id: str
    unresolved: Set[int]
    deadline: float
    #: Last time a result from this lease arrived (stealing compares the
    #: time since *progress* against the mean task duration — a multi-task
    #: batch is only a straggler when its current task is stuck, not merely
    #: because the whole batch takes batch_size x the mean).
    last_progress: float


class SwarmExecutor(Executor):
    """Lease-based multi-process executor over a shared-directory protocol.

    Parameters
    ----------
    workers:
        Worker processes the coordinator spawns and keeps at strength
        (crashed workers are respawned while work remains).  ``0`` spawns
        none — external workers must attach via
        ``python -m repro.experiments.worker`` (requires ``swarm_dir``).
    swarm_dir:
        The shared protocol directory.  ``None`` uses a private temporary
        directory, removed on shutdown or, when the coordinator dies without
        unwinding, by its orphaned spawned workers; pass an explicit path
        (never removed by a worker) to let workers on other machines join.
    lease_timeout_s:
        A lease with no evidence (heartbeat or result) for this long is
        reclaimed and its tasks re-issued.  The floor for detecting a dead
        worker; keep well above ``heartbeat_interval_s``.
    heartbeat_interval_s:
        Worker heartbeat period (default ``lease_timeout_s / 4``).
    batch_size:
        Tasks per lease.  ``None`` sizes batches automatically —
        ``ripe / (2 * idle workers)``, clamped to ``[1, 32]`` — which keeps
        batches large far from the tail and singleton near it.
    max_retries:
        Runner-reported failures tolerated per task before quarantine
        (lease reclaims do not count; :data:`~repro.experiments.executors.
        MAX_REISSUES` bounds those).
    backoff_base_s / backoff_seed:
        Retry backoff, as for
        :class:`~repro.experiments.executors.ResilientExecutor`
        (``backoff_seed=None``: the campaign engine fills in its root seed).
    steal_factor:
        The ledger's ``straggler_factor``: stragglers (measured from their
        lease's last progress) are re-leased to idle workers, first
        completion wins.  ``None`` disables stealing.
    poll_interval_s:
        Coordinator tick when nothing is happening.
    message_faults:
        Optional :class:`~repro.experiments.faults.MessageFaultPlan` both
        sides consult (chaos testing).
    """

    name = "swarm"

    def __init__(
        self,
        workers: int = 4,
        swarm_dir: Optional[str] = None,
        lease_timeout_s: float = 15.0,
        heartbeat_interval_s: Optional[float] = None,
        batch_size: Optional[int] = None,
        max_retries: int = 2,
        backoff_base_s: float = 0.25,
        backoff_seed: Optional[int] = None,
        steal_factor: Optional[float] = 4.0,
        poll_interval_s: float = 0.002,
        message_faults: Optional[MessageFaultPlan] = None,
    ) -> None:
        super().__init__()
        if workers < 0:
            raise ValueError("workers must be non-negative")
        if workers == 0 and swarm_dir is None:
            raise ValueError("workers=0 (external workers only) needs a swarm_dir")
        if lease_timeout_s <= 0.0:
            raise ValueError("lease_timeout_s must be positive")
        if heartbeat_interval_s is not None and heartbeat_interval_s <= 0.0:
            raise ValueError("heartbeat_interval_s must be positive (or None)")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be positive (or None for auto)")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if steal_factor is not None and steal_factor <= 1.0:
            raise ValueError("steal_factor must exceed 1 (or be None)")
        self.workers = int(workers)
        self.swarm_dir = None if swarm_dir is None else str(swarm_dir)
        self.lease_timeout_s = float(lease_timeout_s)
        self.heartbeat_interval_s = (
            float(heartbeat_interval_s)
            if heartbeat_interval_s is not None
            else max(0.05, self.lease_timeout_s / 4.0)
        )
        self.batch_size = batch_size
        self.max_retries = int(max_retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_seed = None if backoff_seed is None else int(backoff_seed)
        self.steal_factor = steal_factor
        self.poll_interval_s = float(poll_interval_s)
        self.message_faults = message_faults
        self._layout: Optional[SwarmLayout] = None
        self._owns_dir = False
        self._workers: Dict[str, _SwarmWorker] = {}
        self._spawn_counter = 0
        self._spawned_initial = False
        self._stop_requested = False
        self._torn_down = True
        # Attempt ids must stay unique for the executor's lifetime, not per
        # run: workers dedupe re-delivered leases by attempt id for *their*
        # lifetime, so with ``keep_alive`` a reused id from a later wave
        # would be silently dropped as a duplicate.
        self._attempt_counter = 0

    # -- lifecycle helpers -------------------------------------------------------
    def _spawn(self, ctx) -> _SwarmWorker:
        worker_id = f"w{self._spawn_counter}"
        self._spawn_counter += 1
        process = ctx.Process(
            target=_forked_worker_main,
            args=(self._layout.root, worker_id),
            daemon=True,
        )
        process.start()
        record = _SwarmWorker(worker_id=worker_id, process=process, joined=True)
        self._workers[worker_id] = record
        if self.hooks is not None:
            # A spawned worker is a swarm member from birth; only external
            # workers join through their first heartbeat.
            self.hooks.record("worker_joined", worker_id=worker_id)
        if self._spawned_initial:
            self.stats.workers_respawned += 1
        return record

    def _mailbox_for(self, record: _SwarmWorker) -> FileMailbox:
        if record.mailbox is None:
            record.mailbox = FileMailbox(
                self._layout.inbox_dir(record.worker_id),
                sender="coordinator",
                channel=f"lease:{record.worker_id}",
                faults=self.message_faults,
            )
        return record.mailbox

    def _teardown(self) -> None:
        if self._torn_down:
            return
        self._torn_down = True
        layout = self._layout
        if layout is not None:
            try:
                with open(layout.stop_path, "w", encoding="utf-8"):
                    pass
            except OSError:  # pragma: no cover - directory already gone
                pass
        spawned = [r.process for r in self._workers.values() if r.process is not None]
        self._workers = {}
        for process in spawned:
            process.join(timeout=1.5)
        for process in spawned:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for process in spawned:
            if process.is_alive():  # pragma: no cover - stuck in kernel
                process.kill()
                process.join(timeout=1.0)
        if layout is not None and self._owns_dir:
            shutil.rmtree(layout.root, ignore_errors=True)

    def stop(self) -> None:
        self._stop_requested = True
        self._teardown()

    # -- main loop ---------------------------------------------------------------
    def run(self, execute: ExecuteFn, tasks: Sequence[TaskSpec]) -> Iterator[TaskOutcome]:
        tasks = list(tasks)
        if not tasks:
            return
        ctx = fork_context()

        self._stop_requested = False
        if self._torn_down:
            self._spawned_initial = False
            self._workers = {}
            self._owns_dir = self.swarm_dir is None
            root = (
                tempfile.mkdtemp(prefix="repro-swarm-")
                if self._owns_dir
                else self.swarm_dir
            )
            os.makedirs(root, exist_ok=True)
            self._layout = layout = SwarmLayout(root)
            layout.ensure()
            if os.path.exists(layout.stop_path):  # stale stop from a prior run
                os.remove(layout.stop_path)
            # Two-stage pickle: the outer layer is plain data an external
            # worker can always load; it carries the coordinator's sys.path,
            # which the worker applies *before* unpickling the inner blob
            # (the execute function and fault plan, which pickle by
            # reference).
            inner = pickle.dumps(
                {"execute": execute, "message_faults": self.message_faults}
            )
            job = {
                "payload": inner,
                "lease_timeout_s": self.lease_timeout_s,
                "heartbeat_interval_s": self.heartbeat_interval_s,
                "coordinator": {"pid": os.getpid(), "host": socket.gethostname()},
                "sys_path": list(sys.path),
                "private": self._owns_dir,
            }
            _atomic_publish(layout.job_path, pickle.dumps(job))
            self._torn_down = False
        else:
            # keep_alive wave boundary: the fleet, the shared directory and
            # the published job survive from the previous run.  Any attempt
            # ids still on the records belong to leases of the finished
            # wave — late results for them drain as unknown keys below; the
            # records must start this wave dispatchable.
            layout = self._layout
            self._spawned_initial = bool(self._workers)
            for record in self._workers.values():
                record.attempts.clear()

        ledger = AttemptLedger(
            tasks,
            max_retries=self.max_retries,
            backoff_base_s=self.backoff_base_s,
            backoff_seed=self.backoff_seed,
            straggler_factor=self.steal_factor,
            stats=self.stats,
            hooks=self.hooks,
        )
        leases: Dict[str, _SwarmLease] = {}
        index_by_key = {task.key: index for index, task in enumerate(tasks)}

        def expire_lease(lease: _SwarmLease, reason: str) -> None:
            """Reclaim a lease: its unresolved attempts are lost."""
            self.stats.leases_expired += 1
            if self.hooks is not None:
                self.hooks.record(
                    "lease_expired",
                    worker_id=lease.worker_id,
                    attempt=lease.attempt_id,
                    reason=reason,
                )
            leases.pop(lease.attempt_id, None)
            record = self._workers.get(lease.worker_id)
            if record is not None:
                record.attempts.discard(lease.attempt_id)
            for index in lease.unresolved:
                ledger.lost(index, reason)

        def issue_lease(record: _SwarmWorker, batch: List[int]) -> None:
            attempt_id = f"a{self._attempt_counter}"
            self._attempt_counter += 1
            issued_at = time.monotonic()
            leases[attempt_id] = _SwarmLease(
                attempt_id=attempt_id,
                worker_id=record.worker_id,
                unresolved=set(batch),
                deadline=issued_at + self.lease_timeout_s,
                last_progress=issued_at,
            )
            record.attempts.add(attempt_id)
            self.stats.leases_issued += 1
            if self.hooks is not None:
                self.hooks.record(
                    "lease_granted",
                    worker_id=record.worker_id,
                    attempt=attempt_id,
                    num_tasks=len(batch),
                )
            for index in batch:
                ledger.issued(index)
            self._mailbox_for(record).send(
                {
                    "kind": "lease",
                    "attempt": attempt_id,
                    "tasks": [
                        (index, tasks[index].key, tasks[index].payload)
                        for index in batch
                    ],
                },
                message_id=f"lease-{attempt_id}",
            )

        # Heartbeats change at heartbeat_interval_s; rescanning them on every
        # result-driven loop iteration is pure overhead (the scan reads one
        # JSON file per worker).  Half the beat period keeps the staleness
        # bound far inside lease_timeout_s.
        hb_scan_interval = self.heartbeat_interval_s / 2.0
        last_hb_scan = float("-inf")
        try:
            while ledger.unfinished and not self._stop_requested:
                now = time.monotonic()
                progressed = False

                # 1. Heartbeats: adopt new workers, refresh lease evidence.
                if now - last_hb_scan >= hb_scan_interval:
                    last_hb_scan = now
                    try:
                        hb_names = os.listdir(layout.heartbeats_dir)
                    except FileNotFoundError:  # pragma: no cover - torn down
                        hb_names = []
                else:
                    hb_names = []
                for hb_name in hb_names:
                    if not hb_name.endswith(".hb"):
                        continue
                    worker_id = hb_name[: -len(".hb")]
                    try:
                        with open(
                            os.path.join(layout.heartbeats_dir, hb_name),
                            "r",
                            encoding="utf-8",
                        ) as handle:
                            beat = json.load(handle)
                    except (OSError, json.JSONDecodeError):
                        continue
                    record = self._workers.get(worker_id)
                    if record is None:  # an external worker attached
                        record = _SwarmWorker(worker_id=worker_id)
                        self._workers[worker_id] = record
                    if beat.get("seq", -1) == record.hb_seq:
                        continue
                    if not record.joined and self.hooks is not None:
                        self.hooks.record("worker_joined", worker_id=worker_id)
                    record.joined = True
                    record.hb_seq = beat.get("seq", -1)
                    record.last_seen = now
                    for attempt_id in beat.get("current", []):
                        lease = leases.get(attempt_id)
                        if lease is not None and lease.worker_id == worker_id:
                            lease.deadline = now + self.lease_timeout_s

                # 2. Spawned-process deaths: reclaim leases immediately.
                for record in list(self._workers.values()):
                    process = record.process
                    if process is None or process.is_alive():
                        continue
                    code = process.exitcode
                    self.stats.worker_crashes += 1
                    progressed = True
                    reason = f"worker {record.worker_id} died (exit code {code})"
                    if self.hooks is not None:
                        self.hooks.record(
                            "worker_left", worker_id=record.worker_id, reason=reason
                        )
                    for attempt_id in list(record.attempts):
                        lease = leases.get(attempt_id)
                        if lease is not None:
                            expire_lease(lease, reason)
                    del self._workers[record.worker_id]
                    try:  # a stale heartbeat must not resurrect the worker
                        os.remove(layout.heartbeat_path(record.worker_id))
                    except OSError:
                        pass

                # 3. Keep the spawned fleet at strength while work remains.
                spawned_live = sum(
                    1 for r in self._workers.values() if r.process is not None
                )
                while spawned_live < min(self.workers, ledger.unfinished):
                    self._spawn(ctx)
                    spawned_live += 1
                self._spawned_initial = True

                # 4. Expired leases: reclaim and re-issue.
                for lease in list(leases.values()):
                    if now > lease.deadline:
                        progressed = True
                        expire_lease(
                            lease,
                            f"no heartbeat or result for {self.lease_timeout_s:.1f} s",
                        )

                # 5. Drain results; dedupe at-least-once completions.
                for message in drain_mailbox(layout.results_dir):
                    progressed = True
                    worker_id = message.get("worker_id")
                    record = self._workers.get(worker_id)
                    if record is not None:
                        record.last_seen = now  # results are liveness evidence
                    attempt_id = message.get("attempt")
                    # Results are attributed by task *key*, not by the lease's
                    # positional index: with ``keep_alive`` a late duplicate
                    # from a previous wave carries an index into that wave's
                    # task list, which would silently land on the wrong task
                    # here.  An unknown key is exactly such a stale duplicate.
                    index = index_by_key.get(message.get("key"))
                    if index is None:
                        ledger.stale_report()
                        continue
                    lease = leases.get(attempt_id)
                    live = lease is not None and index in lease.unresolved
                    if live:
                        lease.unresolved.discard(index)
                        if not lease.unresolved:
                            leases.pop(attempt_id, None)
                            if record is not None:
                                record.attempts.discard(attempt_id)
                        else:
                            lease.deadline = now + self.lease_timeout_s
                            lease.last_progress = now
                    if message.get("ok"):
                        ledger.succeeded(
                            index,
                            message.get("metrics"),
                            float(message.get("duration_s", 0.0)),
                            live=live,
                        )
                    else:
                        ledger.failed(index, str(message.get("error")), live=live)

                # 6. Ripe work to idle workers in batches, then stolen copies
                # of stragglers into the idle capacity that is left.  Spawned
                # workers are dispatchable from birth (their inbox buffers the
                # lease while they boot, and a worker that never comes up is
                # caught by lease expiry); external workers only exist to the
                # coordinator once their first heartbeat lands.
                idle = [
                    record
                    for record in self._workers.values()
                    if (record.last_seen is not None or record.process is not None)
                    and not record.attempts
                ]
                ripe = ledger.ripe_count(now) if idle else 0
                if ripe:
                    size = self.batch_size or max(1, min(32, -(-ripe // (2 * len(idle)))))
                    ready = ledger.take_ripe(now, size * len(idle))
                    batches = [ready[at:at + size] for at in range(0, len(ready), size)]
                    for record, batch in zip(idle, batches):
                        issue_lease(record, batch)
                    idle = idle[len(batches):]
                    progressed = True
                if idle:
                    owners = {
                        index: lease
                        for lease in leases.values()
                        for index in lease.unresolved
                    }
                    running = [
                        (lease.last_progress, index) for index, lease in owners.items()
                    ]
                    for record, index in zip(
                        idle, ledger.pick_stragglers(running, len(idle), now)
                    ):
                        self.stats.work_stolen += 1
                        if self.hooks is not None:
                            self.hooks.record(
                                "work_stolen",
                                key=tasks[index].key,
                                from_worker=owners[index].worker_id,
                                to_worker=record.worker_id,
                            )
                        issue_lease(record, [index])
                        progressed = True

                # 7. Let reorder-held lease messages age out.
                for record in self._workers.values():
                    if record.mailbox is not None:
                        record.mailbox.flush()

                yield from ledger.drain()

                if not progressed and ledger.unfinished:
                    time.sleep(
                        max(0.001, ledger.sleep_s(time.monotonic(), self.poll_interval_s))
                    )
        finally:
            if not self.keep_alive:
                self._teardown()
