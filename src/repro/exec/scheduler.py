"""The unified priority/deadline work scheduler.

One :class:`WorkScheduler` replaces the two dispatch loops the code base
used to carry — the wave loop of the parallel value-correspondence
front-end (:mod:`repro.core.parallel`) and the ad-hoc batch dispatch of
:class:`~repro.service.MigrationService`.  Both are now *clients* of this
module: they submit :class:`TaskHandle`\\ s and map settled states back to
their own result shapes, while ordering, dispatch, deadline enforcement,
cancellation plumbing and executor lifecycle live here once.

Scheduling model:

* **Priority** — pending tasks are held in a heap ordered by
  ``(priority, deadline, submission order)``: lower priority values dispatch
  first, earlier deadlines break priority ties, submission order breaks the
  rest.  With equal priorities the scheduler is strictly FIFO, which is what
  keeps the parallel front-end's wave determinism intact (wave tasks are
  submitted in enumeration order with ``priority=index``).
* **Deadline** — an absolute ``time.time()`` instant (wall clock, comparable
  across processes).  A task whose deadline has passed when it reaches the
  front of the queue is marked :attr:`TaskState.EXPIRED` without being
  dispatched.  A *running* task is expected to self-limit (clients thread
  the deadline into the work payload); the scheduler adds a cooperative
  nudge — past the deadline it raises the task's cancel signal, and past
  ``deadline + grace`` it stops waiting and marks the task EXPIRED (the
  worker process winds down via the cancel signal rather than being killed).
* **Cancellation** — :meth:`TaskHandle.cancel` removes a pending task from
  contention and raises the cooperative cancel signal of a running one,
  across the process boundary as a ``cancel`` frame when it runs on a
  worker.
* **Events** — tasks submitted with an ``on_event`` subscriber stream their
  typed events live through the channel transport matching the execution
  mode: :class:`~repro.exec.channel.DirectChannel` inline,
  :class:`~repro.exec.remote.SocketChannel` on workers.  A task only
  settles after its event stream is fully drained, so a ``DONE`` handle
  never has events still in flight.

Execution modes mirror the clients' needs: ``max_workers <= 1`` runs tasks
inline on the draining thread (closures allowed, zero transport overhead);
every other mode runs them on socket-connected workers behind one drain
loop and one wire protocol (work functions must be module-level picklables
taking ``(payload, ctx)``).  ``max_workers > 1`` alone builds a
:class:`~repro.exec.remote.LocalFleet` of forked workers that the scheduler
owns and closes; ``fleet=`` drives a
:class:`~repro.exec.remote.RemoteFleet` instead.  Clients see the identical
handle, event and settle semantics over every backend.

Crash recovery: a worker that dies or goes silent mid-task fails just its
own leases with :class:`~repro.exec.remote.WorkerLost`.  The scheduler
requeues each affected task with its priority and deadline preserved and
a jittered backoff; a task that has lost more than
``retry.quarantine_after`` workers settles :attr:`TaskState.QUARANTINED`
instead, while the rest of the queue keeps running.  A local fleet
replaces the lost worker.  Only when workers cannot be *started* at all
does :meth:`WorkScheduler.drain` raise :class:`ExecutorUnavailable`, with
every unsettled task back in PENDING state so the client can fall back to
inline execution.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import threading
import time
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Union

from repro.exec.channel import DirectChannel
from repro.exec.compat import TIMEOUT_ERRORS  # noqa: F401  (re-exported surface)
from repro.exec.policy import RetryPolicy, TimeoutPolicy
from repro.exec.remote import FleetUnavailable, LocalFleet, RemoteFleet, WorkerLost

#: Seconds a running task is granted past its deadline before the scheduler
#: stops waiting for it (the task's own deadline handling normally wins the
#: race; the grace only matters for wedged workers).
DEADLINE_GRACE = 5.0

#: Seconds past a task's deadline before the scheduler raises its cancel
#: signal.  Tasks are expected to self-limit *at* the deadline (clients fold
#: it into the session time limit); the delay keeps the self-limit path —
#: which reports a truthful "timed out" — from racing the cooperative nudge,
#: whose cancel signal would read as a cancellation instead.
NUDGE_DELAY = 1.0


class ExecutorUnavailable(RuntimeError):
    """Worker processes cannot be started or have collectively failed."""


@dataclass
class SchedulerStats:
    """Lifetime counters of one :class:`WorkScheduler`."""

    tasks_submitted: int = 0
    tasks_done: int = 0
    tasks_failed: int = 0
    tasks_cancelled: int = 0
    tasks_expired: int = 0
    #: Requeues caused by lost workers (crash recovery).
    task_retries: int = 0
    #: Poison tasks settled QUARANTINED after repeatedly killing workers.
    tasks_quarantined: int = 0
    #: Degradation-ladder steps taken (remote fleet -> local workers).
    degradations: int = 0
    #: Workers, local or remote, declared lost (connection drop / lease
    #: expiry) while this scheduler drove them.
    workers_lost: int = 0
    #: Priority boosts applied by the anti-starvation aging sweep
    #: (``age_after``): one count per task per boost.
    tasks_aged: int = 0


class TaskState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"        # the work function raised; see ``error`` / ``exception``
    CANCELLED = "cancelled"  # cancelled before producing a result
    EXPIRED = "expired"      # deadline passed before dispatch or before settling
    QUARANTINED = "quarantined"  # poison task: killed too many workers


#: States in which a task will never run (again).
SETTLED_STATES = (
    TaskState.DONE,
    TaskState.FAILED,
    TaskState.CANCELLED,
    TaskState.EXPIRED,
    TaskState.QUARANTINED,
)


class TaskHandle:
    """One scheduled unit of work: state, result, and cancellation control."""

    def __init__(
        self,
        scheduler: "WorkScheduler",
        task_id: int,
        fn: Callable,
        payload: Any,
        *,
        name: str = "",
        priority: int = 0,
        deadline: Optional[float] = None,
        on_event: Optional[Callable[[Any], None]] = None,
        on_start: Optional[Callable[[], None]] = None,
        on_retry: Optional[Callable[["TaskHandle"], None]] = None,
    ):
        self._scheduler = scheduler
        self.task_id = task_id
        self.fn = fn
        self.payload = payload
        self.name = name or f"task-{task_id}"
        self.priority = priority
        self.deadline = deadline
        self.on_event = on_event
        self.on_start = on_start
        self.on_retry = on_retry
        #: Crash retries charged to this task.
        self.retries = 0
        #: Workers this task was leased to that were then lost (drives
        #: poison-task quarantine).
        self.worker_losses = 0
        self.state = TaskState.PENDING
        self.result: Any = None
        self.error: str = ""
        #: The exception object a FAILED task's work function raised (already
        #: unpickled on the parent side for tasks run on workers).
        self.exception: Optional[BaseException] = None
        self._cancel_requested = False
        self._nudged = False  # deadline passed: cancel signal already raised
        self._not_before = 0.0  # retry backoff: earliest re-dispatch instant
        self._enqueued = time.time()  # aging reference instant
        self._age_credits = 0  # aging boosts already applied
        self._port = None
        self._future = None

    @property
    def done(self) -> bool:
        return self.state in SETTLED_STATES

    @property
    def cancel_requested(self) -> bool:
        return self._cancel_requested

    def cancel(self) -> None:
        """Request cancellation: pending tasks are skipped, running ones get
        their cooperative cancel signal raised (cross-process on workers)."""
        with self._scheduler._lock:
            self._cancel_requested = True
            # Under the lock: _settle() clears _port under it too, so a
            # settled task never sends a stale cancel.
            if self._port is not None:
                self._port.cancel()

    def _sort_key(self) -> tuple:
        deadline = float("inf") if self.deadline is None else self.deadline
        return (self.priority, deadline, self.task_id)


# ---------------------------------------------------------------- scheduler
class WorkScheduler:
    """Priority/deadline scheduler over inline or worker execution.

    Usage::

        with WorkScheduler(max_workers=4) as scheduler:
            handles = [scheduler.submit(fn, payload, priority=i) for i, payload in ...]
            scheduler.drain()
        # every handle is now settled: DONE / FAILED / CANCELLED / EXPIRED

    ``drain`` may be called repeatedly (the parallel front-end drains once
    per wave over one long-lived scheduler, keeping its workers warm
    across waves).
    """

    def __init__(
        self,
        *,
        max_workers: int = 0,
        deadline_grace: float = DEADLINE_GRACE,
        fleet: Union[RemoteFleet, Sequence[str], None] = None,
        retry: Optional[RetryPolicy] = None,
        timeout: Optional[TimeoutPolicy] = None,
        degrade: bool = False,
        degrade_workers: int = 2,
        on_degrade: Optional[Callable[[str, str, str], None]] = None,
        age_after: Optional[float] = None,
        age_step: int = 1,
    ):
        # The unified policies are the source of truth; the bare
        # ``deadline_grace`` knob survives as shorthand for a one-field policy.
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout = (
            timeout if timeout is not None else TimeoutPolicy(deadline_grace=deadline_grace)
        )
        self.max_workers = max_workers
        self.deadline_grace = self.timeout.deadline_grace
        #: Walk the remote -> local degradation ladder on ExecutorUnavailable
        #: instead of raising (opt-in: clients that degrade themselves —
        #: parallel's sequential fallback, the service's inline fallback —
        #: keep the raise).
        self.degrade = degrade
        self.degrade_workers = max(1, degrade_workers)
        self.on_degrade = on_degrade
        #: Anti-starvation aging: every ``age_after`` seconds a still-pending
        #: task waits, its priority improves by ``age_step`` (lower sorts
        #: first), so low-weight tenants behind a firehose of high-priority
        #: work eventually reach the front.  ``None`` disables the sweep.
        self.age_after = age_after
        self.age_step = max(1, age_step)
        self._last_age_sweep = 0.0
        self.stats = SchedulerStats()
        self._retry_rng = self.retry.rng()
        self._next_ready: Optional[float] = None
        # The remote backend: a list of "host:port" addresses builds a fleet
        # this scheduler owns (and closes); a RemoteFleet instance is
        # borrowed from the caller.  Without one, max_workers > 1 builds a
        # LocalFleet on first dispatch, owned like the address-list fleet.
        if fleet is not None and not isinstance(fleet, RemoteFleet):
            fleet = RemoteFleet(
                workers=tuple(fleet),
                start_timeout=self.timeout.start_timeout,
                retry=self.retry,
            )
            self._owns_fleet = True
        else:
            self._owns_fleet = False
        self._fleet: Optional[RemoteFleet] = fleet
        # Loss counter baseline: a borrowed fleet outlives schedulers, so this
        # scheduler only reports workers lost on *its* watch.
        self._fleet_lost_baseline = 0 if fleet is None else fleet.workers_lost
        self._local: Optional[LocalFleet] = None
        self._lock = threading.Lock()
        self._heap: list[tuple[tuple, TaskHandle]] = []
        self._ids = itertools.count(1)
        self._closed = False

    @property
    def pooled(self) -> bool:
        """Whether tasks run on workers rather than inline."""
        return self.max_workers > 1 or self._fleet is not None

    @property
    def fleet(self) -> Optional[RemoteFleet]:
        """The remote-fleet backend, or ``None`` when running locally."""
        return self._fleet

    def _slots(self, fleet: RemoteFleet) -> int:
        """Concurrent dispatch width: the fleet's live capacity (clamped by
        ``max_workers`` when set), re-read each fill pass so a shrinking
        fleet stops receiving new leases."""
        capacity = fleet.capacity
        if self.max_workers > 0:
            capacity = min(capacity, self.max_workers)
        return capacity

    # ------------------------------------------------------------ submission
    def submit(
        self,
        fn: Callable,
        payload: Any = None,
        *,
        priority: int = 0,
        deadline: Optional[float] = None,
        on_event: Optional[Callable[[Any], None]] = None,
        on_start: Optional[Callable[[], None]] = None,
        on_retry: Optional[Callable[[TaskHandle], None]] = None,
        name: str = "",
    ) -> TaskHandle:
        """Queue ``fn(payload, ctx)`` for execution; returns its handle.

        *deadline* is an absolute ``time.time()`` instant.  *on_event*
        subscribes to the task's live event stream; *on_start* fires on the
        draining thread when the task is dispatched; *on_retry* fires on the
        draining thread when a lost worker requeues the task (so stream
        consumers can unwind the crashed attempt's buffered events).
        On workers *fn* and *payload* must be picklable (*fn* by
        module-level reference).
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            handle = TaskHandle(
                self,
                next(self._ids),
                fn,
                payload,
                name=name,
                priority=priority,
                deadline=deadline,
                on_event=on_event,
                on_start=on_start,
                on_retry=on_retry,
            )
            heapq.heappush(self._heap, (handle._sort_key(), handle))
            self.stats.tasks_submitted += 1
        return handle

    # -------------------------------------------------------------- draining
    def drain(self, *, wait_deadline: Optional[float] = None) -> None:
        """Run every queued task to a settled state.

        *wait_deadline* (absolute ``time.time()``) bounds the drain itself:
        when it passes, still-running tasks get their cancel signal raised
        and are marked EXPIRED once abandoned, and still-pending tasks are
        marked EXPIRED without dispatch.

        A worker lost mid-drain is handled internally: its tasks are
        re-leased, and settle QUARANTINED once they have lost more than
        ``retry.quarantine_after`` workers — no exception surfaces.  Raises
        :class:`ExecutorUnavailable` only when workers cannot be *started*
        at all; every unsettled task is returned to PENDING state first, so
        the caller can retry on a fresh scheduler or fall back to inline
        execution.

        With ``degrade=True`` an unavailable *remote fleet* does not surface
        at all: the scheduler steps down the degradation ladder (remote
        fleet -> local workers), notifies ``on_degrade`` and finishes the
        drain on the next rung.  Only when the bottom rung is also
        unavailable does :class:`ExecutorUnavailable` escape (clients own
        the final sequential/inline step — running their work functions
        in-process is a client decision, not a scheduler one).
        """
        while True:
            try:
                if self.pooled:
                    self._drain_pooled(wait_deadline)
                else:
                    self._drain_inline(wait_deadline)
                return
            except ExecutorUnavailable as error:
                if not self._degrade_step(error):
                    raise

    def _degrade_step(self, error: BaseException) -> bool:
        """Take one step down the ladder; True when the drain should retry.

        The scheduler's ladder has exactly one step: swap the remote fleet
        for a local one (reported as ``"pool"``, the name stored event
        streams and ``degraded`` records carry).  The local -> inline or
        sequential rung belongs to the clients: the service must not run
        worker entrypoints in its own process (they mutate process globals),
        and the parallel front-end's sequential fallback re-plans the whole
        wave rather than replaying worker tasks one by one.
        """
        if not self.degrade or self._fleet is None:
            return False
        fleet = self._fleet
        reason = str(error) or type(error).__name__
        with self._lock:
            # Fold the fleet's loss counter now (close() won't see it).
            self.stats.workers_lost += fleet.workers_lost - self._fleet_lost_baseline
            self._fleet = None
            self.stats.degradations += 1
            if self.max_workers <= 1:
                self.max_workers = self.degrade_workers
        if self._owns_fleet:
            fleet.close()
            self._owns_fleet = False
        if self.on_degrade is not None:
            try:
                self.on_degrade("fleet", "pool" if self.pooled else "inline", reason)
            except Exception:  # noqa: BLE001 - observer isolation
                pass
        return True

    # ---------------------------------------------------------------- inline
    def _pop_dispatchable(
        self, wait_deadline: Optional[float], *, respect_backoff: bool = True
    ) -> Optional[TaskHandle]:
        """Pop the next PENDING task, settling cancelled/expired ones en route.

        Tasks still inside their retry-backoff window are skipped over (and
        pushed back) rather than dispatched; ``self._next_ready`` records
        the earliest such instant so the drain loop can sleep toward it
        instead of spinning.  Inline drains pass ``respect_backoff=False``
        (no workers to protect, and an inline drain must always terminate).
        """
        if self.age_after is not None:
            self._age_pending()
        deferred: list[TaskHandle] = []
        found: Optional[TaskHandle] = None
        with self._lock:
            while self._heap:
                _key, task = heapq.heappop(self._heap)
                if task.state is not TaskState.PENDING:
                    continue
                now = time.time()
                if task._cancel_requested:
                    task.state = TaskState.CANCELLED
                    self.stats.tasks_cancelled += 1
                    continue
                if task.deadline is not None and now >= task.deadline:
                    task.state = TaskState.EXPIRED
                    self.stats.tasks_expired += 1
                    continue
                if wait_deadline is not None and now >= wait_deadline:
                    task.state = TaskState.EXPIRED
                    self.stats.tasks_expired += 1
                    continue
                if respect_backoff and task._not_before > now:
                    deferred.append(task)
                    continue
                found = task
                break
            for task in deferred:
                heapq.heappush(self._heap, (task._sort_key(), task))
            self._next_ready = (
                min(task._not_before for task in deferred) if deferred else None
            )
        return found

    def _age_pending(self) -> None:
        """Boost the priority of tasks that have waited ≥ ``age_after``.

        One ``age_step`` boost per full ``age_after`` interval waited
        (tracked per task, so repeated sweeps never double-credit).  The
        sweep itself is throttled to half an interval, and the heap is
        rebuilt only when some priority actually moved — the common case
        (nothing aged) is one timestamp comparison.
        """
        now = time.time()
        if now - self._last_age_sweep < self.age_after / 2.0:
            return
        with self._lock:
            self._last_age_sweep = now
            moved = False
            for _key, task in self._heap:
                if task.state is not TaskState.PENDING:
                    continue
                earned = int((now - task._enqueued) / self.age_after)
                if earned > task._age_credits:
                    task.priority -= (earned - task._age_credits) * self.age_step
                    self.stats.tasks_aged += earned - task._age_credits
                    task._age_credits = earned
                    moved = True
            if moved:
                self._heap = [(task._sort_key(), task) for _key, task in self._heap]
                heapq.heapify(self._heap)

    def _drain_inline(self, wait_deadline: Optional[float]) -> None:
        channel = DirectChannel()
        while True:
            task = self._pop_dispatchable(wait_deadline, respect_backoff=False)
            if task is None:
                return
            port = channel.bind(task.task_id, task.on_event)
            with self._lock:
                task._port = port
                task.state = TaskState.RUNNING
                if task._cancel_requested:  # raced with cancel() during bind
                    port.cancel()
            if task.on_start is not None:
                task.on_start()
            try:
                value = task.fn(task.payload, port.context)
            except Exception as error:  # noqa: BLE001 - task isolation boundary
                self._settle(task, TaskState.FAILED, exception=error)
            else:
                self._settle(task, TaskState.DONE, value=value)

    # --------------------------------------------------------------- workers
    def _ensure_executor(self) -> RemoteFleet:
        """The started fleet that runs this drain: remote, or local."""
        fleet = self._fleet
        if fleet is None:
            if self._local is None:
                self._local = LocalFleet(self.max_workers)
            fleet = self._local
        try:
            fleet.ensure_started()
        except FleetUnavailable as error:
            # The client keeps its degrade-to-inline fallback.
            raise ExecutorUnavailable(str(error)) from error
        return fleet

    def _drain_pooled(self, wait_deadline: Optional[float]) -> None:
        inflight: dict[Any, TaskHandle] = {}
        try:
            fleet = self._ensure_executor()
            self._drain_pooled_loop(fleet, inflight, wait_deadline)
        except ExecutorUnavailable:
            # Workers cannot be (re)started at all: hand every unsettled task
            # back as PENDING so the client can fall back inline.
            for task in inflight.values():
                self._requeue(task)
            raise

    def _retry_budget_left(self) -> bool:
        """Whether the scheduler-wide retry budget still allows a requeue."""
        budget = self.retry.retry_budget
        return budget is None or self.stats.task_retries < budget

    def _charge_retry(self, task: TaskHandle) -> None:
        """Charge one crash retry and requeue with its backoff window set."""
        self.stats.task_retries += 1
        task._not_before = time.time() + self.retry.backoff_delay(
            task.retries, self._retry_rng
        )
        self._requeue(task)

    def _retry_lost(self, task: TaskHandle, error: BaseException) -> None:
        """Re-lease one task whose worker vanished.

        Abandon the stale channel binding, charge a crash retry and requeue
        with priority and deadline preserved — per task: losing one worker
        must not disturb the survivors.

        A task that keeps killing its workers is poison, not unlucky: past
        ``retry.quarantine_after`` lost workers (or once the scheduler-wide
        retry budget is spent) it settles QUARANTINED instead of being
        handed yet another worker to take down.
        """
        self._abandon_port(task)
        task.retries += 1
        task.worker_losses += 1
        if task.worker_losses > self.retry.quarantine_after or not self._retry_budget_left():
            self._settle(task, TaskState.QUARANTINED, exception=error)
            return
        self._charge_retry(task)
        if task.on_retry is not None:
            try:
                task.on_retry(task)
            except Exception:  # noqa: BLE001 - observer isolation
                pass

    def _abandon_port(self, task: TaskHandle) -> None:
        """Detach a task from its (dead) channel binding without settling it."""
        with self._lock:
            port = task._port
            task._port = None
            task._future = None
        if port is not None:
            port.release()

    def _drain_pooled_loop(
        self, fleet: RemoteFleet, inflight: dict, wait_deadline: Optional[float]
    ) -> None:
        channel = fleet.channel
        while True:
            # Fill free slots in (priority, deadline, submission) order.
            while len(inflight) < self._slots(fleet):
                task = self._pop_dispatchable(wait_deadline)
                if task is None:
                    break
                port = channel.bind(task.task_id, task.on_event)
                try:
                    future = fleet.submit(
                        task.task_id,
                        port.streaming,
                        task.fn,
                        task.payload,
                        name=task.name,
                        deadline=task.deadline,
                    )
                except FleetUnavailable:
                    # The roster emptied since _slots() read it: requeue
                    # without a retry charge (this task never ran) and let
                    # the capacity wait below decide.
                    port.release()
                    self._requeue(task)
                    break
                with self._lock:
                    task._port = port
                    task._future = future
                    task.state = TaskState.RUNNING
                    if task._cancel_requested:  # raced with cancel()
                        port.cancel()
                if task.on_start is not None:
                    task.on_start()
                inflight[future] = task
            if not inflight:
                with self._lock:
                    if not self._heap:
                        return
                    next_ready = self._next_ready
                if next_ready is not None:
                    # Everything pending is inside its backoff window: sleep
                    # toward the earliest re-dispatch instead of spinning.
                    time.sleep(min(0.25, max(0.01, next_ready - time.time())))
                    continue
                if fleet.capacity == 0:
                    # Work is queued but every worker is gone: wait for a
                    # (re)connection or replacement rather than spinning;
                    # give up loudly on the same timeout registration uses.
                    if not fleet.wait_for_capacity(fleet.start_timeout):
                        raise ExecutorUnavailable(
                            "fleet lost every worker with tasks still queued"
                        )
                continue  # heap still holds tasks (all popped ones settled)

            now = time.time()
            timeout = self._wait_timeout(inflight.values(), wait_deadline, now)
            done, _pending = futures_wait(
                set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
            )
            for future in done:
                self._settle_pooled(inflight.pop(future), future)
            self._enforce_deadlines(inflight, wait_deadline)

    @staticmethod
    def _cutoff(task: TaskHandle, wait_deadline: Optional[float]) -> Optional[float]:
        """The instant a running task overruns: its deadline or the drain's."""
        cutoff = task.deadline
        if wait_deadline is not None:
            cutoff = wait_deadline if cutoff is None else min(cutoff, wait_deadline)
        return cutoff

    def _wait_timeout(
        self, tasks, wait_deadline: Optional[float], now: float
    ) -> Optional[float]:
        """How long to block in ``wait()``: until the next deadline of interest.

        For a task not yet nudged that is cutoff + nudge delay (so the
        cooperative nudge fires on time); for an already-nudged task it is
        the further grace before abandoning it.
        """
        horizon: Optional[float] = None
        for task in tasks:
            cutoff = self._cutoff(task, wait_deadline)
            if cutoff is None:
                continue
            cutoff += self.timeout.nudge_delay
            if task._nudged:
                cutoff += self.deadline_grace
            horizon = cutoff if horizon is None else min(horizon, cutoff)
        if horizon is None:
            return None
        return max(0.05, horizon - now)

    def _enforce_deadlines(
        self, inflight: dict, wait_deadline: Optional[float]
    ) -> None:
        """Nudge and, past the grace, abandon running tasks that overran."""
        now = time.time()
        for future, task in list(inflight.items()):
            cutoff = self._cutoff(task, wait_deadline)
            if cutoff is None or now < cutoff + self.timeout.nudge_delay:
                continue
            if not task._nudged:
                task._nudged = True
                if task._port is not None:
                    task._port.cancel()  # cooperative nudge across the process boundary
            if now >= cutoff + self.timeout.nudge_delay + self.deadline_grace:
                del inflight[future]
                if future.done():
                    # It finished while we decided: keep the real outcome.
                    self._settle_pooled(task, future)
                    continue
                port = task._port
                with self._lock:
                    task._port = None
                    task.state = TaskState.EXPIRED
                    task.error = "deadline expired"
                    self.stats.tasks_expired += 1
                if port is not None:
                    port.release()

    def _settle_pooled(self, task: TaskHandle, future) -> None:
        error = future.exception(timeout=0)
        if isinstance(error, WorkerLost):
            # Scoped to one worker's leases: charge a retry and re-lease
            # (the fleet already dropped the dead link).
            self._retry_lost(task, error)
        elif error is not None:
            self._settle(task, TaskState.FAILED, exception=error)
        else:
            self._settle(task, TaskState.DONE, value=future.result())

    # ------------------------------------------------------------- settling
    def _settle(
        self,
        task: TaskHandle,
        state: TaskState,
        *,
        value: Any = None,
        exception: Optional[BaseException] = None,
    ) -> None:
        port = task._port
        if port is not None and state in (TaskState.DONE, TaskState.FAILED):
            # The work function ran to an outcome: deliver the tail of its
            # event stream before the task reads as settled — a DONE handle
            # must never have events still in flight.  (A task cancelled
            # before it started never opened a stream.)
            port.wait_drained(timeout=self.deadline_grace)
        with self._lock:
            task._port = None
            task._future = None
            task.state = state
            task.result = value
            if exception is not None:
                task.exception = exception
                task.error = f"{type(exception).__name__}: {exception}"
            if state is TaskState.DONE:
                self.stats.tasks_done += 1
            elif state is TaskState.FAILED:
                self.stats.tasks_failed += 1
            elif state is TaskState.CANCELLED:
                self.stats.tasks_cancelled += 1
            elif state is TaskState.EXPIRED:
                self.stats.tasks_expired += 1
            elif state is TaskState.QUARANTINED:
                self.stats.tasks_quarantined += 1
        if port is not None:
            port.release()

    def _requeue(self, task: TaskHandle) -> None:
        """Return an unsettled task to PENDING (executor-failure unwind)."""
        with self._lock:
            port = task._port
            task._port = None
            task._future = None
            task.state = TaskState.PENDING
            heapq.heappush(self._heap, (task._sort_key(), task))
        if port is not None:
            port.release()

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._fleet is not None:
            self.stats.workers_lost += self._fleet.workers_lost - self._fleet_lost_baseline
            if self._owns_fleet:
                self._fleet.close()
        if self._local is not None:
            self._local.close()
            self.stats.workers_lost += self._local.workers_lost

    def __enter__(self) -> "WorkScheduler":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
