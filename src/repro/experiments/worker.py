"""Swarm worker: the process half of the lease protocol.

``python -m repro.experiments.worker --swarm-dir <dir>`` attaches one worker
to a running :class:`~repro.experiments.swarm.SwarmExecutor` coordinator —
from the same machine or any machine sharing the directory.  The coordinator
also spawns workers through :func:`worker_main` directly.

The worker loop is deliberately simple; all the fault-tolerance intelligence
lives in the coordinator:

* read the job file (execute function, tuning, coordinator identity);
* heartbeat from a daemon thread — an atomic JSON file carrying a sequence
  number and the attempt ids currently being executed, so the coordinator
  can keep those leases alive even while a long task blocks the main loop;
* drain the private inbox for lease messages, deduplicate re-delivered
  leases by attempt id, execute each task and stream one result message per
  task (success metrics or the failure reason — a crash simply never
  answers, which the coordinator detects through lease expiry);
* exit when the coordinator writes the ``stop`` file, or — on the
  coordinator's own machine — when the coordinator process disappears
  (orphan guard: a SIGKILL'd coordinator must not leave workers spinning).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pickle
import socket
import sys
import threading
import time
from typing import List, Optional

from repro.experiments.faults import MessageFaultPlan
from repro.experiments.swarm import (
    ORPHAN_EXIT_CODE,
    FileMailbox,
    SwarmLayout,
    _atomic_publish,
    drain_mailbox,
    pid_alive,
)

__all__ = ["worker_main", "main"]


class _HeartbeatState:
    """Shared state between the worker loop and its heartbeat thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._current: List[str] = []
        self.done = 0
        self.seq = -1  # pre-incremented by snapshot(): first beat is seq 0

    def begin(self, attempt_id: str) -> None:
        with self._lock:
            self._current.append(attempt_id)

    def finish(self, attempt_id: str) -> None:
        with self._lock:
            if attempt_id in self._current:
                self._current.remove(attempt_id)

    def task_done(self) -> None:
        with self._lock:
            self.done += 1

    def snapshot(self) -> dict:
        with self._lock:
            self.seq += 1
            return {"seq": self.seq, "current": list(self._current), "done": self.done}

    def wait(self, interval_s: float) -> None:
        self._stop.wait(interval_s)

    def stop(self) -> None:
        self._stop.set()

    @property
    def stopped(self) -> bool:
        return self._stop.is_set()


def _heartbeat_loop(
    layout: SwarmLayout,
    worker_id: str,
    interval_s: float,
    faults: Optional[MessageFaultPlan],
    state: _HeartbeatState,
) -> None:
    path = layout.heartbeat_path(worker_id)
    channel = f"heartbeat:{worker_id}"
    while True:
        snap = state.snapshot()
        body = {
            "worker_id": worker_id,
            "pid": os.getpid(),
            "time": time.time(),
            **snap,
        }
        dropped = False
        if faults is not None:
            # The sequence number advances even for dropped beats, so stall
            # windows (``stall_after``/``stall_for``) measure real time.
            dropped = faults.fate(channel, f"hb-{worker_id}-{snap['seq']}", snap["seq"]).dropped
        if not dropped:
            try:
                _atomic_publish(path, json.dumps(body).encode("utf-8"))
            except OSError:  # pragma: no cover - swarm dir being torn down
                pass
        if state.stopped:
            return
        state.wait(interval_s)


def worker_main(
    swarm_dir: str,
    worker_id: Optional[str] = None,
    poll_interval_s: float = 0.005,
) -> int:
    """Run one swarm worker until the coordinator stops (or disappears)."""
    layout = SwarmLayout(swarm_dir)
    if worker_id is None:
        worker_id = f"x{socket.gethostname()}-{os.getpid()}"
    while not os.path.exists(layout.job_path):
        if os.path.exists(layout.stop_path) or not os.path.isdir(layout.root):
            return 0
        time.sleep(0.05)
    with open(layout.job_path, "rb") as handle:
        job = pickle.load(handle)
    for entry in reversed(job.get("sys_path", [])):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    inner = pickle.loads(job["payload"])
    execute = inner["execute"]
    faults: Optional[MessageFaultPlan] = inner.get("message_faults")
    heartbeat_interval_s = float(job.get("heartbeat_interval_s", 1.0))
    coordinator = job.get("coordinator", {})
    watch_pid = (
        int(coordinator["pid"])
        if coordinator.get("host") == socket.gethostname()
        and coordinator.get("pid") is not None
        else None
    )

    layout.ensure()
    inbox = layout.inbox_dir(worker_id)
    os.makedirs(inbox, exist_ok=True)
    results = FileMailbox(
        layout.results_dir,
        sender=worker_id,
        channel=f"result:{worker_id}",
        faults=faults,
    )
    state = _HeartbeatState()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(layout, worker_id, heartbeat_interval_s, faults, state),
        daemon=True,
    )
    beat.start()

    seen_attempts = set()
    # A coordinator that dies unreaped (its parent hasn't called wait() yet)
    # stays a zombie and still passes the pid_alive signal-0 probe.  A worker
    # the coordinator forked has a second, zombie-proof signal: the kernel
    # reparents it the instant the coordinator dies, so its ppid changes.
    # The fork records the coordinator's pid, so a worker that boots after
    # its coordinator died still knows whose child it was.
    parent = multiprocessing.parent_process()
    child_of_coordinator = parent is not None and parent.pid == watch_pid
    last_liveness = time.monotonic()
    try:
        while True:
            if os.path.exists(layout.stop_path):
                return 0
            now = time.monotonic()
            if watch_pid is not None and now - last_liveness >= min(
                1.0, heartbeat_interval_s
            ):
                last_liveness = now
                if not pid_alive(watch_pid) or (
                    child_of_coordinator and os.getppid() != watch_pid
                ):
                    return ORPHAN_EXIT_CODE
            messages = drain_mailbox(inbox)
            if not messages:
                time.sleep(poll_interval_s)
                continue
            for message in messages:
                if message.get("kind") != "lease":
                    continue
                attempt_id = message.get("attempt")
                if attempt_id in seen_attempts:
                    continue  # a duplicated lease message: execute once
                seen_attempts.add(attempt_id)
                state.begin(attempt_id)
                try:
                    for index, key, payload in message.get("tasks", []):
                        if os.path.exists(layout.stop_path):
                            return 0
                        started = time.perf_counter()
                        try:
                            metrics = execute(payload)
                        except BaseException as exc:  # noqa: BLE001 - reported
                            body = {
                                "worker_id": worker_id,
                                "attempt": attempt_id,
                                "task_index": index,
                                "key": key,
                                "ok": False,
                                "error": f"{type(exc).__name__}: {exc}",
                                "duration_s": time.perf_counter() - started,
                            }
                        else:
                            body = {
                                "worker_id": worker_id,
                                "attempt": attempt_id,
                                "task_index": index,
                                "key": key,
                                "ok": True,
                                "metrics": metrics,
                                "duration_s": time.perf_counter() - started,
                            }
                        try:
                            results.send(
                                body, message_id=f"result-{attempt_id}-{index}"
                            )
                        except OSError:
                            # A late duplicate (stolen or re-issued copy) can
                            # race the coordinator tearing the directory down
                            # after the campaign completed — that is a normal
                            # shutdown, not an error.
                            if os.path.exists(layout.stop_path) or not os.path.isdir(
                                layout.root
                            ):
                                return 0
                            raise
                        state.task_done()
                finally:
                    state.finish(attempt_id)
            results.flush()
    finally:
        state.stop()
        # The last beat lands before the caller may remove the directory.
        beat.join(timeout=1.0)
        try:
            results.flush()
        except OSError:  # pragma: no cover - swarm dir being torn down
            pass


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - CLI
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.worker",
        description="Attach one worker to a running campaign swarm.",
    )
    parser.add_argument(
        "--swarm-dir",
        required=True,
        help="swarm directory of the coordinator (shared filesystem path)",
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        help="stable worker name (default: derived from host and pid)",
    )
    parser.add_argument(
        "--poll-interval",
        type=float,
        default=0.005,
        help="inbox poll interval in seconds (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    return worker_main(args.swarm_dir, args.worker_id, args.poll_interval)


if __name__ == "__main__":  # pragma: no cover - CLI
    raise SystemExit(main())
