"""Wave-parallel exploration of value correspondences (the scale driver).

Algorithm 1 explores value correspondences strictly in order of likelihood;
on the larger benchmarks the first few correspondences are close in weight
and each costs an independent sketch completion, which makes them ideal
parallel work units.  This module is the **parallel driver** behind
:class:`~repro.core.session.SynthesisSession`: with
``config.parallel_workers > 1`` the session delegates its run to
:func:`drive_parallel_session`, which dispatches the top-k candidate
correspondences to worker processes in *waves* through the shared
:class:`~repro.exec.WorkScheduler`:

* every worker receives a snapshot of the cross-sketch counterexample pool,
  so failing inputs discovered on earlier waves screen candidates
  everywhere;
* when a wave finishes, every counterexample discovered by any worker —
  including the failed attempts — is merged back into the shared pool before
  the next wave is dispatched;
* the result is deterministic: within a wave the success with the smallest
  enumeration index (i.e. the most likely correspondence) wins, regardless
  of which worker finished first.

Since API v2 the parallel driver **streams**: each worker publishes its
per-attempt typed events through the :class:`~repro.exec.WorkContext`
channel the scheduler hands it, and the parent merges the per-task streams
into one deterministically ordered stream with an
:class:`~repro.exec.OrderedEventMerger` — events appear in enumeration-index
order (the order the sequential driver would produce), the
lowest-unfinished-index attempt streams *live*, and higher-index attempts
buffer until every earlier attempt has ended.  Event order is therefore a
pure function of the trajectory, not of worker timing; with
``parallel_wave_size=1`` and pooling off the merged stream is byte-equal to
the sequential session's (pinned by tests/test_session.py).

Each worker executes its attempt through the same
:class:`~repro.core.session.SessionCore` unit that the sequential driver
uses — the parallel path is a different *scheduler* over the identical
per-attempt behaviour, not a separate code path.  Waves are submitted with
``priority=index`` (so dispatch order equals enumeration order) and the
run's wall-clock budget as each task's deadline, and workers honour the
cross-process cooperative cancel signal (a ``cancel`` frame) the scheduler
raises past the deadline (or that :meth:`SynthesisSession.cancel` raises
mid-wave).  Workers are forked local processes, or a remote fleet with
``config.execution_fleet``; both speak the same socket protocol.  Workers
rebuild the core from the pickled configuration; programs, schemas and
invocation sequences are plain picklable dataclasses and tuples.  An
attempt whose workers keep dying settles quarantined and is recorded as a
failed attempt.  If the platform cannot start worker processes at all, the
driver degrades to a sequential session over the remaining budget
(forwarding its events into the same stream).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional

from repro.core.config import SynthesisConfig
from repro.core.result import AttemptRecord, SynthesisResult
from repro.core.session import (
    BudgetExhausted,
    BudgetTimeout,
    Cancelled,
    ExecutionDegraded,
    SessionCore,
    SessionEvent,
)
from repro.correspondence.enumerator import ValueCorrespondenceEnumerator, VcEnumerationError
from repro.correspondence.value_corr import ValueCorrespondence
from repro.datamodel.schema import Schema
from repro.equivalence.invocation import InvocationSequence
from repro.exec import (
    ExecutorUnavailable,
    OrderedEventMerger,
    TaskState,
    WorkScheduler,
)
from repro.exec import faults
from repro.exec.compat import FuturesTimeoutError as FuturesTimeout  # noqa: F401  (compat re-export)
from repro.lang.ast import Program
from repro.testing_cache import (
    CounterexamplePool,
    SourceOutputCache,
    TestingCacheStats,
)


@dataclass(frozen=True)
class AttemptStreamEnd:
    """Worker-emitted marker: one attempt's event stream is complete.

    Internal to the parallel driver — it travels through the same channel as
    the typed session events (so ordering with respect to them is exact) but
    is consumed by the parent-side merge and never reaches subscribers.
    """

    index: int


@dataclass
class _WorkerTask:
    """One value-correspondence attempt shipped to a worker process."""

    index: int
    source_program: Program
    target_schema: Schema
    correspondence: ValueCorrespondence
    vc_weight: int
    config: SynthesisConfig
    pool_snapshot: list[InvocationSequence]
    #: Absolute wall-clock deadline (``time.time()`` base, comparable across
    #: processes).  A relative budget would restart from the worker's own
    #: start time, letting tasks queued behind busy workers overshoot the
    #: synthesis time limit by a full extra budget.
    wall_deadline: Optional[float]


@dataclass
class _WorkerOutcome:
    """What one worker sends back for the merge."""

    index: int
    attempt: AttemptRecord
    program: Optional[Program] = None
    correspondence: Optional[ValueCorrespondence] = None
    iterations: int = 0
    verify_time: float = 0.0
    counterexamples: list[InvocationSequence] = field(default_factory=list)
    cache: TestingCacheStats = field(default_factory=TestingCacheStats)


#: Per-worker-process source-output cache, shared across the tasks a worker
#: executes so the source program is not re-run on the same sequences for
#: every value correspondence (keys include the program fingerprint, so
#: reuse across tasks is sound).
_worker_source_cache: Optional[SourceOutputCache] = None

#: Per-worker-process program compiler (compiled execution backend): the
#: per-function compiled-closure cache survives across tasks, so candidates
#: of later waves that share function ASTs with earlier ones skip
#: recompilation.  Caching is keyed by (schema signature, function value), so
#: reuse across tasks works even though each pickled task carries fresh
#: program and schema objects.
_worker_compiler = None


def _worker_cache(max_entries: int) -> SourceOutputCache:
    global _worker_source_cache
    if _worker_source_cache is None:
        _worker_source_cache = SourceOutputCache(max_entries)
    elif max_entries > _worker_source_cache.max_entries:
        # Capacity only grows (put() reads max_entries live), mirroring the
        # in-process service: replacing the cache on a smaller request would
        # throw away the cross-task reuse this process global exists for.
        _worker_source_cache.max_entries = max_entries
    return _worker_source_cache


def _worker_program_compiler(config: SynthesisConfig):
    global _worker_compiler
    if config.execution_backend != "compiled":
        return None
    if _worker_compiler is None:
        from repro.engine.compiler import ProgramCompiler

        _worker_compiler = ProgramCompiler()
    return _worker_compiler


def _explore_correspondence(task: _WorkerTask, ctx) -> _WorkerOutcome:
    """Worker entry point: run one session-core attempt for one correspondence.

    *ctx* is the :class:`~repro.exec.WorkContext` the scheduler provides:
    its cancel signal is threaded into the attempt (so a deadline nudge or a
    caller-side cancel stops the completion loop mid-sketch), and its
    ``emit`` publishes the attempt's typed events to the parent-side merge
    when the session is observed (``ctx.streaming``), terminated by one
    :class:`AttemptStreamEnd` marker.
    """
    config = task.config
    pool = CounterexamplePool(config.pool_max_size) if config.counterexample_pool else None
    if pool is not None:
        pool.merge(task.pool_snapshot)
        # Stats must reflect this worker's own discoveries, not the snapshot.
        pool.stats.added = 0
        pool.stats.duplicates = 0
    source_cache = _worker_cache(config.source_cache_max_entries)
    compiler = _worker_program_compiler(config)

    deadline: Optional[float] = None
    if task.wall_deadline is not None:
        remaining = task.wall_deadline - time.time()
        if remaining <= 0:
            if ctx.streaming:
                ctx.emit(AttemptStreamEnd(task.index))
            return _WorkerOutcome(
                task.index,
                AttemptRecord(vc_weight=task.vc_weight, failure_reason="time limit reached"),
            )
        # Convert the cross-process wall-clock deadline into this process's
        # perf_counter base; the core threads it through completion and
        # testing, so even one long enumeration self-limits.
        deadline = time.perf_counter() + remaining

    core = SessionCore(
        task.source_program,
        task.target_schema,
        config,
        pool=pool,
        source_cache=source_cache,
        compiler=compiler,
    )
    try:
        outcome = core.attempt(
            task.correspondence,
            task.vc_weight,
            task.index,
            deadline=deadline,
            cancel=ctx.cancel_event,
            emit=ctx.emit if ctx.streaming else None,
        )
    finally:
        if ctx.streaming:
            ctx.emit(AttemptStreamEnd(task.index))

    fresh: list[InvocationSequence] = []
    if pool is not None:
        # Ship back only sequences this worker discovered (the snapshot is
        # already in the parent's pool).
        seen = set(task.pool_snapshot)
        fresh = [sequence for sequence in pool.snapshot() if sequence not in seen]
    return _WorkerOutcome(
        task.index,
        outcome.record,
        program=outcome.program,
        correspondence=task.correspondence if outcome.program is not None else None,
        iterations=outcome.iterations,
        verify_time=outcome.verify_time,
        counterexamples=fresh,
        cache=core.cache_stats(),
    )


# --------------------------------------------------------------- the driver
def drive_parallel_session(
    session, emit: Callable[[SessionEvent], None]
) -> Iterator[None]:
    """Drive one :class:`SynthesisSession` run with wave-parallel exploration.

    Generator protocol (consumed by ``SynthesisSession._drive_parallel``):
    mutates ``session.result`` exactly like the sequential driver does,
    pushes merged typed events through *emit* (live, in deterministic
    enumeration order — see the module docstring), and yields once whenever
    the session's buffered events are ready to flush to generator consumers
    (after each wave settles, and after the terminal event).

    On :class:`~repro.exec.ExecutorUnavailable` the driver degrades to a
    fresh sequential session over the remaining budget, forwarding its
    events into the same stream and adopting its result wholesale (matching
    the caller's single time budget, not one per strategy).
    """
    config: SynthesisConfig = session.config
    result: SynthesisResult = session.result
    started = time.perf_counter()
    if config.execution_fleet:
        # Remote fleet: parallel_workers only caps concurrent leases (0 = the
        # fleet's live capacity decides); the scheduler owns the fleet it
        # builds from the address list and closes it with itself.
        workers = max(0, config.parallel_workers)
        wave_size = config.parallel_wave_size or max(2, workers)
    else:
        workers = max(2, config.parallel_workers)
        wave_size = config.parallel_wave_size or workers
    observed: bool = session._observed

    result.parallel_workers_used = workers
    pool = CounterexamplePool(config.pool_max_size) if config.counterexample_pool else None
    merged_cache = TestingCacheStats()

    def remaining_budget() -> Optional[float]:
        if config.time_limit is None:
            return None
        return config.time_limit - (time.perf_counter() - started)

    def finalize_times() -> None:
        result.synthesis_time = max(
            0.0, time.perf_counter() - started - result.verification_time
        )

    try:
        enumerator = ValueCorrespondenceEnumerator(
            session.source_program,
            session.target_schema,
            alpha=config.alpha,
            engine=config.vc_engine,
            max_fanout=config.max_mapping_fanout,
        )
    except VcEnumerationError:
        emit(BudgetExhausted(reason="no value correspondences"))
        finalize_times()
        result.cache = merged_cache
        yield
        return

    merger = OrderedEventMerger(emit) if observed else None

    def subscriber_for(index: int):
        """Route one task's channel traffic into the ordered merge."""
        if merger is None:
            return None

        def deliver(event, _index=index):
            if isinstance(event, AttemptStreamEnd):
                merger.end(_index)
            else:
                merger.deliver(_index, event)

        return deliver

    def retry_hook_for(index: int):
        if merger is None:
            return None
        return lambda _task, _index=index: merger.restart(_index)

    terminal: Optional[SessionEvent] = None
    degrade = False
    degrade_from = "pool"
    degrade_reason = "worker processes unavailable"
    resilience = config.resilience
    with WorkScheduler(
        max_workers=workers,
        fleet=tuple(config.execution_fleet) if config.execution_fleet else None,
        retry=resilience.retry,
        timeout=resilience.timeout,
        # The scheduler walks the remote -> local rung itself; the final
        # local -> sequential rung stays here (the sequential fallback
        # re-plans the run rather than replaying worker tasks).
        degrade=resilience.degrade_ladder,
        degrade_workers=resilience.degrade_workers,
        on_degrade=lambda from_mode, to_mode, reason: emit(
            ExecutionDegraded(from_mode=from_mode, to_mode=to_mode, reason=reason)
        ),
    ) as scheduler:
        inflight: list = []

        def cancel_inflight() -> None:
            # session.cancel() raises the cross-process cancel signal of
            # every task currently running (and skips the still-pending
            # ones); the wave-top check below then ends the run.
            for handle in list(inflight):
                handle.cancel()

        session._cancel_hooks.append(cancel_inflight)
        try:
            exhausted_reason: Optional[str] = None
            while True:
                if session.cancelled:
                    result.cancelled = True
                    terminal = Cancelled()
                    break
                budget = remaining_budget()
                if budget is not None and budget <= 0:
                    result.timed_out = True
                    terminal = BudgetTimeout(elapsed=time.perf_counter() - started)
                    break
                wall_deadline = None if budget is None else time.time() + budget

                wave: list[_WorkerTask] = []
                while len(wave) < wave_size and exhausted_reason is None:
                    if result.value_correspondences_tried >= config.max_value_correspondences:
                        exhausted_reason = "max_value_correspondences reached"
                        break
                    candidate_vc = enumerator.next_value_corr()
                    if candidate_vc is None:
                        exhausted_reason = "value correspondences exhausted"
                        break
                    result.value_correspondences_tried += 1
                    wave.append(
                        _WorkerTask(
                            index=result.value_correspondences_tried,
                            source_program=session.source_program,
                            target_schema=session.target_schema,
                            correspondence=candidate_vc.correspondence,
                            vc_weight=candidate_vc.weight,
                            config=config,
                            pool_snapshot=pool.snapshot() if pool is not None else [],
                            wall_deadline=wall_deadline,
                        )
                    )
                if not wave:
                    break

                # One wave = one scheduler drain.  priority=index makes
                # dispatch order equal enumeration order, so wave determinism
                # (smallest successful index wins below) does not depend on
                # worker timing.  The merger is primed in the same order, so
                # the event stream is index-ordered too.  Worker processes
                # spawn lazily at dispatch, so a platform that cannot start
                # processes surfaces as ExecutorUnavailable here.
                if merger is not None:
                    for task in wave:
                        merger.expect(task.index)
                handles = [
                    scheduler.submit(
                        _explore_correspondence,
                        task,
                        priority=task.index,
                        deadline=wall_deadline,
                        on_event=subscriber_for(task.index),
                        on_retry=retry_hook_for(task.index),
                        name=f"vc-{task.index}",
                    )
                    for task in wave
                ]
                inflight[:] = handles
                if session.cancelled:
                    # cancel() raced the wave build/submit window: its hook
                    # saw an empty inflight list, so raise the flags now —
                    # otherwise the whole wave would run to completion.
                    cancel_inflight()
                try:
                    scheduler.drain(wait_deadline=wall_deadline)
                finally:
                    inflight[:] = []
                if merger is not None:
                    # Deliver whatever expired/failed producers left behind
                    # (tasks that ended cleanly have already flushed live).
                    merger.flush_pending()

                winner: Optional[_WorkerOutcome] = None
                interrupted_mid_wave = False
                for task, handle in zip(wave, handles):  # submission order == likelihood order
                    if handle.state is TaskState.DONE:
                        outcome: _WorkerOutcome = handle.result
                    elif handle.state is TaskState.FAILED:
                        raise handle.exception  # worker bug: do not mask it
                    elif handle.state is TaskState.QUARANTINED:
                        # Poison attempt: it kept killing workers, so it is
                        # recorded as a failed attempt and the run moves on —
                        # quarantine bounds the damage to one correspondence.
                        result.attempts.append(
                            AttemptRecord(
                                vc_weight=task.vc_weight,
                                failure_reason=f"quarantined: {handle.error}",
                            )
                        )
                        continue
                    else:  # EXPIRED / CANCELLED: the budget or a cancel cut the wave
                        interrupted_mid_wave = True
                        continue
                    result.attempts.append(outcome.attempt)
                    result.iterations += outcome.iterations
                    result.verification_time += outcome.verify_time
                    merged_cache.merge(outcome.cache)
                    if pool is not None:
                        pool.merge(outcome.counterexamples)
                    if winner is None and outcome.program is not None:
                        winner = outcome

                if winner is not None:
                    result.program = winner.program
                    result.correspondence = winner.correspondence
                    break
                if interrupted_mid_wave:
                    if session.cancelled:
                        result.cancelled = True
                        terminal = Cancelled()
                    else:
                        result.timed_out = True
                        terminal = BudgetTimeout(elapsed=time.perf_counter() - started)
                    break
                if exhausted_reason is not None:
                    break
                yield  # wave settled: let the session flush buffered events

            if terminal is None and result.program is None:
                budget = remaining_budget()
                if session.cancelled:
                    result.cancelled = True
                    terminal = Cancelled()
                elif budget is not None and budget <= 0:
                    # Mirror the sequential driver's check order: a run cut
                    # short by the budget reports a timeout, not exhaustion.
                    result.timed_out = True
                    terminal = BudgetTimeout(elapsed=time.perf_counter() - started)
                elif exhausted_reason is not None:
                    terminal = BudgetExhausted(reason=exhausted_reason)
        except ExecutorUnavailable as error:
            degrade = True
            degrade_from = "fleet" if scheduler.fleet is not None else "pool"
            degrade_reason = str(error) or type(error).__name__
        finally:
            session._cancel_hooks.remove(cancel_inflight)
            if scheduler.fleet is not None:
                # Report the fleet width that actually served the run, not
                # the lease cap (0 = uncapped would read as "no parallelism").
                result.parallel_workers_used = scheduler.fleet.worker_count

    # The with-block folded worker losses into the scheduler's lifetime
    # counters: surface them on the result so crash retries are visible,
    # not silent.
    result.scheduler = dataclasses.asdict(scheduler.stats)
    result.degradations = scheduler.stats.degradations
    injector = faults.active()
    if injector is not None:
        result.faults_injected = injector.faults_injected

    if degrade:
        # The last rung of the ladder: tell the stream the run is stepping
        # down to sequential, then keep going — the audit trail is the event
        # (and, for service batches, the job store's degrade record), not a
        # different answer.
        emit(
            ExecutionDegraded(
                from_mode=degrade_from, to_mode="sequential", reason=degrade_reason
            )
        )
        result.degradations += 1
        _degrade_into_sequential(session, emit, remaining_budget(), started)
        if injector is not None:
            # The sequential fallback ran under the same plan: re-read the
            # counter so the result reflects the whole run's injections.
            result.faults_injected = injector.faults_injected
        yield
        return

    if terminal is not None:
        emit(terminal)
    finalize_times()
    if pool is not None:
        merged_cache.pool_size = len(pool)
        # Unique counterexamples across the whole run (worker-local counts in
        # merged_cache may double-count a sequence found by two workers).
        merged_cache.pool_added = pool.stats.added
    result.cache = merged_cache
    yield


def _degrade_into_sequential(
    session, emit: Callable[[SessionEvent], None], remaining: Optional[float], started: float
) -> None:
    """Worker processes unavailable: rerun sequentially on the leftover budget.

    The inner session's events forward into the parent stream and its result
    is adopted wholesale — the caller asked for one time limit, not one per
    strategy, and the degraded run *is* the run.  If the workers died
    *mid*-run (rather than failing to start), events of the abandoned waves were
    already emitted, so the stream restarts from enumeration index 1 at the
    degrade point: a documented anomaly of this already-pathological path —
    the post-restart events are the ones the adopted result's
    ``AttemptRecord`` list corroborates.
    """
    from repro.core.session import SynthesisSession

    result: SynthesisResult = session.result
    if remaining is not None and remaining <= 0:
        result.timed_out = True
        emit(BudgetTimeout(elapsed=time.perf_counter() - started))
        result.synthesis_time = max(
            0.0, time.perf_counter() - started - result.verification_time
        )
        result.parallel_workers_used = 0
        return

    inner = SynthesisSession(
        session.source_program,
        session.target_schema,
        # execution_fleet must clear too: an unreachable fleet would route
        # the fallback session straight back into the parallel driver.
        replace(
            session.config,
            parallel_workers=0,
            execution_fleet=None,
            time_limit=remaining,
        ),
        # Forward events only when someone observes the parent session —
        # otherwise the fallback keeps the quiet no-per-event-cost profile
        # a blocking migrate() had in 1.x.
        on_event=emit if session._observed else None,
    )
    session._cancel_hooks.append(inner.cancel)
    try:
        if session.cancelled:
            inner.cancel()
        inner.run()
    finally:
        session._cancel_hooks.remove(inner.cancel)

    fallback = inner.result
    result.program = fallback.program
    result.correspondence = fallback.correspondence
    result.value_correspondences_tried = fallback.value_correspondences_tried
    result.iterations = fallback.iterations
    result.synthesis_time = fallback.synthesis_time
    result.verification_time = fallback.verification_time
    result.attempts = list(fallback.attempts)
    result.timed_out = fallback.timed_out
    result.cancelled = fallback.cancelled
    result.cache = fallback.cache
    result.parallel_workers_used = 0
