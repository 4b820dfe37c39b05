"""A fault-tolerant fork-based worker pool for deterministic sampling.

The heavy objects a task needs — automata, adversary families, state
predicates — are closures and are not picklable.  On platforms with the
``fork`` start method (Linux, the only place parallelism matters here)
they do not need to be: the pool stashes an execution context in a
module global *before* forking, and every worker inherits it through
the copied address space.  Only the small task descriptors (index +
derived seed) and the plain-data results cross the process boundary.

Unlike a bare ``Pool.map``, :func:`run_tasks` survives a hostile
runtime.  Each task runs in its own forked worker wired to the parent
by a pipe, and the parent's submission loop

* detects **crashed workers** (process death with no result on the
  pipe) and retries the task on a fresh fork, with exponential backoff,
  up to ``RunPolicy.retries`` times;
* enforces a per-task **wall-clock timeout**, terminating hung workers
  and retrying the same way;
* verifies every result against a SHA-256 **integrity digest** computed
  in the worker, rejecting and retrying corrupted payloads;
* **degrades to inline serial execution** when worker losses pile up —
  the pool is clearly not viable, and every task is a pure function of
  its seed, so running it in the parent gives the identical result;
* **checkpoints** each completed result (``RunPolicy.checkpoint``) and
  skips already-completed tasks on resume.

None of this perturbs results: a task's RNG stream is a pure function
of its derived seed (:mod:`repro.parallel.seeds`), so a retried,
resumed, or degraded run is bit-identical to an undisturbed
``workers=1`` run.  Failure exhausting the retry budget raises the
taxonomy in :mod:`repro.errors` (:class:`~repro.errors.WorkerCrashError`,
:class:`~repro.errors.TaskTimeoutError`, ...) — after merging the
metrics of every task that did complete, so no completed work is
silently dropped from ``repro stats``.

When the parent has a recording registry installed, each worker records
into a fresh registry of its own and returns a snapshot of its metrics
and spans; the parent merges the winning attempt's snapshot per task,
in task order (:mod:`repro.parallel.merge`), so ``repro stats`` counts
every sample exactly once and ``repro profile`` sees worker spans with
task/attempt attribution.  When a progress reporter is installed
(``--progress``), the submission loop feeds it task completions,
retries, and degradation events through :mod:`repro.obs.progress`.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro import obs
from repro.obs import progress
from repro.errors import (
    CheckpointError,
    ResultCorruptionError,
    TaskExecutionError,
    TaskTimeoutError,
    VerificationError,
    WorkerCrashError,
)
from repro.parallel.checkpoint import Checkpoint
from repro.parallel.faults import CORRUPT, CRASH, HANG, FaultPlan
from repro.parallel.merge import (
    WorkerSnapshot,
    merge_worker_snapshot,
    worker_snapshot,
)

Task = TypeVar("Task")
Result = TypeVar("Result")

# (execute, context, capture_obs) — set in the parent immediately before
# forking, inherited by every worker, cleared when the pool is done.
_WORKER_STATE: Optional[Tuple[Callable, object, bool]] = None

# Exit status of an injected worker crash; any nonzero status (a real
# segfault, the OOM killer) takes the same recovery path.
_CRASH_EXIT_CODE = 73

# An injected hang sleeps this long; the parent's timeout reclaims the
# worker far earlier (RunPolicy.validate requires a timeout with hangs).
_HANG_SECONDS = 3600.0

# How long the parent blocks waiting for worker pipes per loop turn;
# bounds how stale deadline checks can get.
_POLL_SECONDS = 0.02

# Seam for connection.wait, patchable in interruption tests.
_wait_ready = mp_connection.wait

_degraded_warned = False


def available_cpus() -> int:
    """The CPUs usable for worker processes (at least 1)."""
    return os.cpu_count() or 1


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _warn_degraded(message: str) -> None:
    """Warn (once per process) that parallelism was lost, and gauge it."""
    global _degraded_warned
    obs.gauge("pool.degraded", 1)
    if not _degraded_warned:
        _degraded_warned = True
        print(f"repro: warning: {message}", file=sys.stderr)


def resolve_workers(workers: Optional[int]) -> int:
    """Validate and normalise a worker count.

    ``None`` means one worker per available CPU.  On platforms without
    ``fork`` every count collapses to 1: sampling results are identical
    by construction, only the speedup is lost — the collapse is
    surfaced through a one-time warning and the ``pool.degraded``
    gauge rather than silently.
    """
    if workers is None:
        workers = available_cpus()
    if workers < 1:
        raise VerificationError(f"workers must be >= 1, got {workers}")
    if workers > 1 and not fork_available():
        _warn_degraded(
            f"the 'fork' start method is unavailable on this platform; "
            f"workers={workers} degraded to sequential execution "
            f"(results are identical, only the speedup is lost)"
        )
        return 1
    return workers


@dataclass(frozen=True)
class RunPolicy:
    """Fault-tolerance configuration for one :func:`run_tasks` call.

    The default policy reproduces the pre-hardening behaviour: no
    timeout, no retries, no checkpoint, no injected faults — any
    worker loss is fatal on first occurrence.
    """

    timeout: Optional[float] = None
    retries: int = 0
    backoff: float = 0.05
    faults: Optional[FaultPlan] = None
    checkpoint: Optional[Checkpoint] = None
    resume: bool = False
    degrade_after: Optional[int] = None

    def validate(self) -> None:
        """Reject self-contradictory configurations up front."""
        if self.timeout is not None and self.timeout <= 0:
            raise VerificationError(
                f"timeout must be positive, got {self.timeout}"
            )
        if self.retries < 0:
            raise VerificationError(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.backoff < 0:
            raise VerificationError(
                f"backoff must be >= 0, got {self.backoff}"
            )
        if self.resume and self.checkpoint is None:
            raise VerificationError(
                "resume=True requires a checkpoint to resume from"
            )
        if (
            self.faults is not None
            and self.faults.hang > 0
            and self.timeout is None
        ):
            raise VerificationError(
                "hang injection requires a per-task timeout "
                "(the parent must be able to reclaim hung workers)"
            )
        if self.degrade_after is not None and self.degrade_after < 1:
            raise VerificationError(
                f"degrade_after must be >= 1, got {self.degrade_after}"
            )

    def degrade_threshold(self, workers: int) -> int:
        """Worker losses tolerated before abandoning the pool."""
        if self.degrade_after is not None:
            return self.degrade_after
        return max(4, 2 * workers)


DEFAULT_POLICY = RunPolicy()


def _payload_digest(payload: object) -> str:
    """An integrity digest of a worker's result payload.

    Computed over ``repr`` in the worker and recomputed by the parent
    on the unpickled payload: the payloads are plain data (dataclasses
    of ints/Fractions, snapshot dicts) whose reprs round-trip through
    pickle unchanged, so any mismatch means the bytes were mangled in
    transit.
    """
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def _describe_error(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def _child_main(conn, task, fault: Optional[str]) -> None:
    """Run one task inside a freshly forked worker and ship the result.

    Installs a fresh recording registry when the parent asked for
    metrics capture, so the worker's copy of the parent registry
    (inherited via fork) never accumulates counts that would be lost.
    Task exceptions are reported over the pipe (they are deterministic
    — the parent must not retry them); injected faults enact the
    requested failure mode instead.  SIGTERM is reset to its default
    first: a fork inherits the parent's handler (a served job's worker
    only flags a graceful stop), and the parent's ``reap`` must be able
    to kill a hung task.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if fault == CRASH:
        os._exit(_CRASH_EXIT_CODE)
    if fault == HANG:
        time.sleep(_HANG_SECONDS)
        os._exit(_CRASH_EXIT_CODE)
    execute, context, capture = _WORKER_STATE
    try:
        if capture:
            with obs.recording() as registry:
                result = execute(context, task)
            snapshot = worker_snapshot(registry)
        else:
            result = execute(context, task)
            snapshot = None
    except BaseException as error:
        conn.send(("error", _describe_error(error)))
        conn.close()
        return
    payload = (result, snapshot)
    digest = _payload_digest(payload)
    if fault == CORRUPT:
        payload = ("\x00corrupted-payload", None)
    conn.send(("ok", payload, digest))
    conn.close()


@dataclass
class _Running:
    """One live worker process and the task attempt it carries."""

    position: int
    attempt: int
    process: object
    conn: object
    deadline: Optional[float]


class _PooledRun:
    """State machine for one fault-tolerant pooled execution."""

    def __init__(
        self, tasks, positions, workers, policy, mp_context,
        on_result=None,
    ):
        self.tasks = tasks
        self.workers = workers
        self.policy = policy
        self.mp_context = mp_context
        # Called with (position, result) the moment a result is
        # accepted — checkpointing hooks in here so a run killed midway
        # has already persisted everything it completed.
        self.on_result = on_result
        # (position, attempt, eligible_at) triples awaiting a worker.
        self.pending: List[Tuple[int, int, float]] = [
            (position, 1, 0.0) for position in positions
        ]
        self.running: Dict[int, _Running] = {}
        self.results: Dict[int, object] = {}
        self.snapshots: Dict[int, Optional[WorkerSnapshot]] = {}
        # Which attempt delivered each accepted snapshot, for span
        # attribution on retried tasks.
        self.attempts: Dict[int, int] = {}
        self.losses = 0
        self.degraded = False

    # -- lifecycle -----------------------------------------------------

    def spawn_eligible(self) -> None:
        now = time.monotonic()
        while len(self.running) < self.workers:
            slot = next(
                (
                    i for i, (_, _, eligible) in enumerate(self.pending)
                    if eligible <= now
                ),
                None,
            )
            if slot is None:
                return
            position, attempt, _ = self.pending.pop(slot)
            self.spawn(position, attempt)

    def spawn(self, position: int, attempt: int) -> None:
        task = self.tasks[position]
        fault = None
        if self.policy.faults is not None:
            fault = self.policy.faults.decide(
                getattr(task, "seed", position), attempt
            )
        parent_conn, child_conn = self.mp_context.Pipe(duplex=False)
        process = self.mp_context.Process(
            target=_child_main, args=(child_conn, task, fault), daemon=True
        )
        process.start()
        child_conn.close()
        deadline = (
            time.monotonic() + self.policy.timeout
            if self.policy.timeout is not None
            else None
        )
        self.running[position] = _Running(
            position=position, attempt=attempt, process=process,
            conn=parent_conn, deadline=deadline,
        )

    def reap(self, run: _Running) -> None:
        """Terminate and fully reclaim one worker process."""
        if run.process.is_alive():
            run.process.terminate()
        run.process.join()
        run.conn.close()
        self.running.pop(run.position, None)

    def shutdown(self) -> None:
        """Reclaim every live worker (interruption-safe teardown)."""
        for run in list(self.running.values()):
            self.reap(run)

    # -- event handling ------------------------------------------------

    def deliver(self, run: _Running, message) -> None:
        if message[0] == "error":
            self.fail_run(
                TaskExecutionError(
                    f"task {run.position} raised in its worker: "
                    f"{message[1]}"
                )
            )
        _, payload, digest = message
        if _payload_digest(payload) != digest:
            obs.incr("pool.corrupted")
            self.reap(run)
            self.handle_loss(
                run,
                ResultCorruptionError(
                    f"task {run.position} returned a corrupted result "
                    f"(integrity digest mismatch)"
                ),
            )
            return
        self.reap(run)
        result, snapshot = payload
        self.results[run.position] = result
        self.snapshots[run.position] = snapshot
        self.attempts[run.position] = run.attempt
        progress.task_done(result)
        if self.on_result is not None:
            self.on_result(run.position, result)

    def fail_run(self, error: Exception) -> None:
        """Abort: merge completed work, tear down, raise the taxonomy."""
        self.shutdown()
        self.merge_snapshots()
        raise error

    def handle_loss(self, run: _Running, error: Exception) -> None:
        """One worker loss: retry with backoff, degrade, or abort."""
        self.losses += 1
        if run.attempt > self.policy.retries:
            self.fail_run(error)
        obs.incr("pool.retries")
        progress.task_retried()
        if self.losses >= self.policy.degrade_threshold(self.workers):
            self.degrade()
            self.pending.append((run.position, run.attempt + 1, 0.0))
            return
        eligible = (
            time.monotonic()
            + self.policy.backoff * (2 ** (run.attempt - 1))
        )
        self.pending.append((run.position, run.attempt + 1, eligible))

    def degrade(self) -> None:
        """Abandon the pool: remaining tasks will run in the parent."""
        self.degraded = True
        progress.pool_degraded()
        _warn_degraded(
            f"worker pool lost {self.losses} workers; degrading to "
            f"inline serial execution for the remaining tasks "
            f"(results are unaffected)"
        )
        for run in list(self.running.values()):
            self.reap(run)
            self.pending.append((run.position, run.attempt + 1, 0.0))

    def check_timeouts(self) -> None:
        now = time.monotonic()
        for run in list(self.running.values()):
            if run.deadline is not None and now >= run.deadline:
                obs.incr("pool.timeouts")
                self.reap(run)
                self.handle_loss(
                    run,
                    TaskTimeoutError(
                        f"task {run.position} exceeded its "
                        f"{self.policy.timeout}s wall-clock timeout "
                        f"(attempt {run.attempt})"
                    ),
                )

    def crash(self, run: _Running) -> None:
        """One worker died without delivering a result."""
        obs.incr("pool.crashes")
        self.reap(run)  # joins, so the exit status is final
        exitcode = run.process.exitcode
        self.handle_loss(
            run,
            WorkerCrashError(
                f"worker for task {run.position} died with exit "
                f"status {exitcode} before delivering a result "
                f"(attempt {run.attempt})"
            ),
        )

    def merge_snapshots(self) -> None:
        """Merge completed workers' recordings, in task order, exactly once.

        Only snapshots delivered by a *winning* attempt are present (a
        lost attempt never delivers one), so a retried task contributes
        its metrics exactly once; its spans carry the attempt number
        that actually produced them.
        """
        if not obs.enabled():
            self.snapshots.clear()
            return
        registry = obs.get_registry()
        for position in sorted(self.snapshots):
            snapshot = self.snapshots[position]
            if snapshot is not None:
                merge_worker_snapshot(
                    registry,
                    snapshot,
                    task=position,
                    attempt=self.attempts.get(position),
                )
        self.snapshots.clear()

    # -- main loop -----------------------------------------------------

    def execute_degraded(self, execute, context) -> None:
        for position, _, _ in self.pending:
            if position in self.results:
                # A stale retry entry for a task that already delivered
                # (e.g. re-queued by a loss raced with its delivery) —
                # running it again would double-count its metrics.
                continue
            result = execute(context, self.tasks[position])
            self.results[position] = result
            progress.task_done(result)
            if self.on_result is not None:
                self.on_result(position, result)
        self.pending.clear()

    def run(self, execute, context) -> Dict[int, object]:
        while self.pending or self.running:
            if self.degraded:
                self.execute_degraded(execute, context)
                break
            self.spawn_eligible()
            conns = {run.conn: run for run in self.running.values()}
            ready = (
                _wait_ready(list(conns), timeout=_POLL_SECONDS)
                if conns else ()
            )
            for conn in ready:
                run = conns[conn]
                if self.running.get(run.position) is not run:
                    # The run was reaped while draining this batch (a
                    # mid-batch degrade or timeout): its pipe is closed
                    # and its task already re-queued.  Treating the
                    # dead conn as a crash would queue the task a
                    # second time and double-count its metrics.
                    continue
                try:
                    message = run.conn.recv()
                except (EOFError, OSError):
                    # EOF with no message: the worker died before (or
                    # while) sending — a crash, injected or real.
                    self.crash(run)
                    continue
                self.deliver(run, message)
            self.check_timeouts()
            if not ready and not self.running and self.pending:
                # Nothing live and nothing delivered: we are waiting
                # out a retry backoff.
                time.sleep(_POLL_SECONDS)
        self.merge_snapshots()
        return self.results


def _checkpoint_result(
    policy: RunPolicy,
    scope: str,
    task: object,
    result: object,
    encode: Optional[Callable],
) -> None:
    if policy.checkpoint is None:
        return
    seed = getattr(task, "seed", None)
    if seed is None:
        raise CheckpointError(
            f"task {task!r} has no seed attribute to key its "
            f"checkpoint record by"
        )
    policy.checkpoint.append(scope, seed, encode(result))


def _sigterm_to_exception():
    """Route SIGTERM through SystemExit so ``finally`` cleanup runs.

    Only installed when this is the main thread and no one else claimed
    the signal; returns the previous handler to restore (or ``None``
    when nothing was installed).
    """
    if threading.current_thread() is not threading.main_thread():
        return None
    if signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL:
        return None

    def raise_exit(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, raise_exit)
    return signal.SIG_DFL


def run_tasks(
    execute: Callable[[object, Task], Result],
    context: object,
    tasks: Sequence[Task],
    workers: int = 1,
    *,
    policy: Optional[RunPolicy] = None,
    scope: str = "",
    encode: Optional[Callable[[Result], dict]] = None,
    decode: Optional[Callable[[dict, Task], Result]] = None,
) -> List[Result]:
    """Execute every task and return results in task order.

    ``execute(context, task)`` must depend only on its arguments (plus
    read-only globals) and return picklable plain data.  With one
    worker — or one task — everything runs inline in the parent, where
    metrics flow into the active registry directly; with more, tasks
    fan out over forked workers under the fault-tolerant submission
    loop, and worker metrics are merged back in task order.

    ``policy`` configures timeouts, retries, fault injection, and
    checkpointing; ``scope`` fingerprints everything a checkpointed
    result depends on besides the task seed; ``encode``/``decode``
    translate results to and from checkpoint JSON (required when the
    policy carries a checkpoint — tasks must then expose a ``seed``
    attribute).
    """
    policy = policy if policy is not None else DEFAULT_POLICY
    policy.validate()
    if policy.checkpoint is not None and (encode is None or decode is None):
        raise CheckpointError(
            "checkpointing these tasks needs encode/decode codecs"
        )
    global _WORKER_STATE
    workers = resolve_workers(workers)
    tasks = list(tasks)
    completed: Dict[int, Result] = {}
    todo: List[int] = list(range(len(tasks)))
    if policy.resume and policy.checkpoint is not None:
        stored = policy.checkpoint.completed(scope)
        remaining: List[int] = []
        for position in todo:
            seed = getattr(tasks[position], "seed", None)
            if seed is not None and seed in stored:
                completed[position] = decode(stored[seed], tasks[position])
            else:
                remaining.append(position)
        todo = remaining
        if completed:
            obs.incr("checkpoint.tasks_skipped", len(completed))
    progress.add_total(len(todo))
    if workers <= 1 or len(todo) <= 1:
        for position in todo:
            result = execute(context, tasks[position])
            completed[position] = result
            progress.task_done(result)
            _checkpoint_result(
                policy, scope, tasks[position], result, encode
            )
        return [completed[position] for position in range(len(tasks))]
    mp_context = multiprocessing.get_context("fork")
    _WORKER_STATE = (execute, context, obs.enabled())

    def on_result(position: int, result: object) -> None:
        # Persist immediately: a run killed after this point resumes
        # past this task even though run_tasks never returned.
        _checkpoint_result(policy, scope, tasks[position], result, encode)

    pooled = _PooledRun(
        tasks, todo, workers, policy, mp_context, on_result=on_result
    )
    previous_sigterm = _sigterm_to_exception()
    try:
        fresh = pooled.run(execute, context)
    finally:
        pooled.shutdown()
        _WORKER_STATE = None
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
    completed.update(fresh)
    return [completed[position] for position in range(len(tasks))]
