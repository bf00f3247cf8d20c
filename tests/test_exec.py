"""Tests for the unified execution layer (repro.exec).

Covers backpressure on the local worker fleet (a slow subscriber still
gets every event, in order), the ordered per-key stream merge, the
priority/deadline scheduler in both execution modes (inline and local
workers), cross-process cancellation, crash recovery (a task that kills
its worker is re-leased, and QUARANTINED after ``quarantine_after`` lost
workers), worker-process hygiene across close(), cross-transport stream
equivalence at the scheduler level, the FuturesTimeout compat shim, and
the parallel front-end's sequential fallback when worker processes are
unavailable.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import replace

import pytest

from repro import SynthesisConfig, migrate
from repro.exec import (
    TIMEOUT_ERRORS,
    ExecutorUnavailable,
    FuturesTimeoutError,
    OrderedEventMerger,
    RetryPolicy,
    TaskState,
    WorkScheduler,
)
from repro.exec.remote import LocalFleet
from repro.workloads import get_benchmark


# ------------------------------------------------------------ worker bodies
# Module-level so the local workers can unpickle them by reference.
def _double(payload, ctx):
    return payload * 2


def _crash_once(payload, ctx):
    # Kill the worker process outright on the first run (simulating a hard
    # crash — no exception, no cleanup); succeed on the retry.
    if not os.path.exists(payload):
        open(payload, "w").close()
        os._exit(1)
    return "recovered"


def _always_crash(payload, ctx):
    os._exit(1)


def _boom(payload, ctx):
    raise ValueError(f"boom {payload}")


def _emit_range(payload, ctx):
    for i in range(payload):
        ctx.emit(i)
    return payload


def _emit_and_poll(payload, ctx):
    for i in range(payload):
        ctx.emit(i)
        if ctx.cancel_event.is_set():
            return ("cancelled", i)
    return ("done", payload)


def _run_until_cancelled(payload, ctx):
    deadline = time.time() + payload
    ticks = 0
    while time.time() < deadline:
        if ctx.cancel_event.is_set():
            return ("cancelled", ticks)
        time.sleep(0.005)
        ticks += 1
    return ("timed-out", ticks)


# ------------------------------------------------------------- backpressure
class TestBackpressure:
    def test_bounded_queue_still_delivers_everything(self):
        # A consumer slower than the producer: the worker's sends block on
        # TCP flow control instead of dropping, and delivery is complete
        # and in order.
        events: list = []

        def slow(event):
            time.sleep(0.002)
            events.append(event)

        with WorkScheduler(max_workers=2) as scheduler:
            handle = scheduler.submit(_emit_range, 80, on_event=slow)
            scheduler.drain()
        assert handle.state is TaskState.DONE
        assert events == list(range(80))
        assert scheduler.stats.workers_lost == 0


class TestOrderedEventMerger:
    def test_head_streams_live_and_successors_buffer(self):
        out: list = []
        merger = OrderedEventMerger(out.append)
        for key in (1, 2, 3):
            merger.expect(key)
        merger.deliver(2, "b1")
        merger.deliver(1, "a1")  # head: passes through immediately
        assert out == ["a1"]
        merger.deliver(3, "c1")
        merger.deliver(2, "b2")
        merger.end(2)  # out of order: nothing moves until 1 ends
        merger.deliver(1, "a2")
        assert out == ["a1", "a2"]
        merger.end(1)  # promotes 2 (already ended) then 3
        assert out == ["a1", "a2", "b1", "b2", "c1"]
        merger.deliver(3, "c2")  # 3 is now the live head
        assert out[-1] == "c2"

    def test_restart_discards_buffered_prefix(self):
        out: list = []
        merger = OrderedEventMerger(out.append)
        merger.expect(1)
        merger.expect(2)
        merger.deliver(2, "stale")
        merger.restart(2)  # crashed producer: unwind its buffered events
        merger.deliver(2, "fresh")
        merger.end(1)
        assert out == ["fresh"]

    def test_flush_pending_delivers_in_declared_order(self):
        out: list = []
        merger = OrderedEventMerger(out.append)
        merger.expect(1)
        merger.expect(2)
        merger.deliver(2, "b")
        merger.deliver(1, "a")  # live
        # Neither producer sent its end marker (expired tasks); the caller
        # force-flushes after the drain.
        merger.flush_pending()
        assert out == ["a", "b"]
        # Late traffic for flushed keys is dropped, not misordered.
        merger.deliver(2, "late")
        assert out == ["a", "b"]


# --------------------------------------------------------- inline scheduler
class TestInlineScheduler:
    def test_priority_orders_execution(self):
        order: list = []

        def record(payload, ctx):
            order.append(payload)
            return payload

        with WorkScheduler(max_workers=0) as scheduler:
            handles = [
                scheduler.submit(record, name, priority=priority)
                for name, priority in [("low", 5), ("high", 1), ("mid", 3)]
            ]
            scheduler.drain()
        assert order == ["high", "mid", "low"]
        assert all(handle.state is TaskState.DONE for handle in handles)

    def test_equal_priority_is_fifo(self):
        order: list = []

        def record(payload, ctx):
            order.append(payload)

        with WorkScheduler(max_workers=0) as scheduler:
            for i in range(4):
                scheduler.submit(record, i)
            scheduler.drain()
        assert order == [0, 1, 2, 3]

    def test_failure_is_isolated(self):
        with WorkScheduler(max_workers=0) as scheduler:
            bad = scheduler.submit(_boom, 1)
            good = scheduler.submit(_double, 21)
            scheduler.drain()
        assert bad.state is TaskState.FAILED
        assert "boom 1" in bad.error
        assert isinstance(bad.exception, ValueError)
        assert good.state is TaskState.DONE and good.result == 42

    def test_cancel_pending_task_skips_it(self):
        box: dict = {}
        with WorkScheduler(max_workers=0) as scheduler:
            first = scheduler.submit(
                _emit_range, 3, on_event=lambda _event: box["second"].cancel()
            )
            box["second"] = scheduler.submit(_double, 4)
            scheduler.drain()
        assert first.state is TaskState.DONE
        assert box["second"].state is TaskState.CANCELLED
        assert box["second"].result is None

    def test_cancel_running_task_from_event_callback(self):
        box: dict = {}
        with WorkScheduler(max_workers=0) as scheduler:
            box["h"] = scheduler.submit(
                _emit_and_poll,
                100,
                on_event=lambda event: box["h"].cancel() if event == 3 else None,
            )
            scheduler.drain()
        # The work function observed the cooperative signal mid-run.
        assert box["h"].state is TaskState.DONE
        assert box["h"].result == ("cancelled", 3)

    def test_past_deadline_expires_without_running(self):
        with WorkScheduler(max_workers=0) as scheduler:
            handle = scheduler.submit(_double, 2, deadline=time.time() - 1.0)
            alive = scheduler.submit(_double, 3)
            scheduler.drain()
        assert handle.state is TaskState.EXPIRED
        assert alive.state is TaskState.DONE and alive.result == 6


# ---------------------------------------------------------- priority aging
class TestPriorityAging:
    """The anti-starvation backstop under the server's stride priorities: a
    task stuck behind a stream of better priorities gains ``age_step`` of
    priority per ``age_after`` seconds waited, so it eventually dispatches."""

    def test_starved_task_overtakes_after_aging(self):
        order: list = []

        def record(payload, ctx):
            order.append(payload)

        with WorkScheduler(max_workers=0, age_after=0.05, age_step=100) as scheduler:
            starved = scheduler.submit(record, "starved", priority=50)
            # Backdate the enqueue instant instead of sleeping: 10 aging
            # periods of waiting are owed, worth 1000 priority points.
            starved._enqueued -= 0.5
            for index in range(3):
                scheduler.submit(record, f"fresh-{index}", priority=0)
            scheduler.drain()
        assert order[0] == "starved"
        assert scheduler.stats.tasks_aged >= 1

    def test_aging_off_by_default(self):
        order: list = []

        def record(payload, ctx):
            order.append(payload)

        with WorkScheduler(max_workers=0) as scheduler:
            handle = scheduler.submit(record, "low", priority=50)
            handle._enqueued -= 500.0
            scheduler.submit(record, "high", priority=0)
            scheduler.drain()
        assert order == ["high", "low"]
        assert scheduler.stats.tasks_aged == 0

    def test_aging_preserves_results_and_states(self):
        with WorkScheduler(max_workers=0, age_after=0.01, age_step=5) as scheduler:
            handles = [
                scheduler.submit(_double, index, priority=index) for index in range(6)
            ]
            for handle in handles:
                handle._enqueued -= 1.0
            scheduler.drain()
        assert [h.state for h in handles] == [TaskState.DONE] * 6
        assert [h.result for h in handles] == [index * 2 for index in range(6)]


# --------------------------------------------------------- pooled scheduler
class TestPooledScheduler:
    def test_results_and_failures_cross_the_boundary(self):
        with WorkScheduler(max_workers=2) as scheduler:
            good = scheduler.submit(_double, 5)
            bad = scheduler.submit(_boom, 2)
            scheduler.drain()
        assert good.state is TaskState.DONE and good.result == 10
        assert bad.state is TaskState.FAILED
        assert isinstance(bad.exception, ValueError) and "boom 2" in bad.error

    def test_events_stream_live_and_complete(self):
        events: list = []
        with WorkScheduler(max_workers=2) as scheduler:
            handle = scheduler.submit(_emit_range, 8, on_event=events.append)
            scheduler.drain()
        # Settling waits for the stream drain: nothing arrives late.
        assert handle.state is TaskState.DONE and handle.result == 8
        assert events == list(range(8))

    def test_cross_process_cancel_stops_running_task(self):
        with WorkScheduler(max_workers=2) as scheduler:
            handle = scheduler.submit(_run_until_cancelled, 20.0)
            cancelled_from = []

            def cancel_soon(event=None):
                handle.cancel()
                cancelled_from.append(True)

            # Cancel shortly after dispatch, from the draining thread's
            # perspective an external thread.
            import threading

            timer = threading.Timer(0.3, cancel_soon)
            timer.start()
            try:
                scheduler.drain()
            finally:
                timer.cancel()
        assert handle.state is TaskState.DONE
        assert handle.result[0] == "cancelled"

    def test_deadline_nudges_cooperative_cancel(self):
        # The work function ignores its payload budget for 8 s but polls the
        # cancel signal; the scheduler's deadline nudge must stop it early.
        started = time.perf_counter()
        with WorkScheduler(max_workers=2) as scheduler:
            handle = scheduler.submit(
                _run_until_cancelled, 8.0, deadline=time.time() + 0.4
            )
            scheduler.drain()
        elapsed = time.perf_counter() - started
        assert handle.state is TaskState.DONE
        assert handle.result[0] == "cancelled"
        assert elapsed < 6.0, f"deadline nudge too slow: {elapsed:.1f}s"

    def test_cross_transport_streams_are_identical(self):
        def run(workers: int):
            events: list = []
            with WorkScheduler(max_workers=workers) as scheduler:
                handle = scheduler.submit(_emit_and_poll, 6, on_event=events.append)
                scheduler.drain()
            return events, handle.result, handle.state

        direct = run(0)
        local = run(2)
        assert direct == local
        assert direct[0] == list(range(6))


# ------------------------------------------------------------ crash recovery
class TestCrashRetry:
    def test_killed_worker_task_is_requeued_and_recovers(self, tmp_path):
        # The task hard-kills its worker process on the first run and
        # succeeds on the re-lease; a peer task on the other worker is
        # untouched and completes.
        marker = str(tmp_path / "crash-once")
        with WorkScheduler(max_workers=2) as scheduler:
            crash = scheduler.submit(_crash_once, marker, name="crash-once")
            peer = scheduler.submit(_double, 21)
            scheduler.drain()
            stats = scheduler.stats
        assert crash.state is TaskState.DONE
        assert crash.result == "recovered"
        assert crash.retries >= 1
        assert peer.state is TaskState.DONE and peer.result == 42
        assert stats.task_retries >= 1
        assert stats.workers_lost >= 1
        assert stats.tasks_done == 2 and stats.tasks_failed == 0

    def test_retries_exhaust_to_failed_without_wholesale_fallback(self):
        # A task that kills its worker every time must settle QUARANTINED
        # after quarantine_after lost workers — not raise
        # ExecutorUnavailable — and must not poison the scheduler: a task
        # submitted afterwards on the same scheduler runs on a replacement
        # worker and completes.
        with WorkScheduler(
            max_workers=2, retry=RetryPolicy(quarantine_after=1)
        ) as scheduler:
            doomed = scheduler.submit(_always_crash, None, name="doomed")
            scheduler.drain()  # must NOT raise
            later = scheduler.submit(_double, 21)
            scheduler.drain()
            stats = scheduler.stats
        assert doomed.state is TaskState.QUARANTINED
        assert doomed.retries == 2  # first loss + one re-lease, then give up
        assert "WorkerLost" in doomed.error and "'doomed'" in doomed.error
        assert later.state is TaskState.DONE and later.result == 42
        assert stats.tasks_quarantined == 1 and stats.tasks_done == 1
        assert stats.task_retries == 1
        assert stats.workers_lost == 2

    def test_on_retry_hook_fires_per_incident(self, tmp_path):
        marker = str(tmp_path / "crash-once")
        retried: list = []
        with WorkScheduler(max_workers=2) as scheduler:
            handle = scheduler.submit(
                _crash_once, marker, on_retry=lambda task: retried.append(task.name),
                name="watched",
            )
            scheduler.drain()
        assert handle.state is TaskState.DONE
        assert retried == ["watched"]


# ---------------------------------------------------------- worker hygiene
def _live_children() -> list:
    return [child for child in multiprocessing.active_children() if child.is_alive()]


class TestLocalWorkerLifecycle:
    def test_close_leaves_no_live_child_process(self):
        before = set(_live_children())
        with WorkScheduler(max_workers=2) as scheduler:
            handles = [scheduler.submit(_double, index) for index in range(4)]
            scheduler.drain()
            assert len(set(_live_children()) - before) == 2
            threads = list(scheduler._local._threads)
        assert [handle.result for handle in handles] == [0, 2, 4, 6]
        assert set(_live_children()) - before == set()
        assert [thread.name for thread in threads if thread.is_alive()] == []

    def test_killed_worker_is_replaced_and_reaped(self):
        before = set(_live_children())
        with WorkScheduler(max_workers=2) as scheduler:
            scheduler.submit(_double, 1)
            scheduler.drain()
            fleet = scheduler._local
            victim = next(iter(fleet._processes.values()))
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.time() + 10.0
            while victim.name in fleet._processes and time.time() < deadline:
                time.sleep(0.01)
            assert fleet.wait_for_capacity(10.0, workers=2)
            later = scheduler.submit(_double, 21)
            scheduler.drain()
            assert len(set(_live_children()) - before) == 2
        assert later.state is TaskState.DONE and later.result == 42
        assert scheduler.stats.workers_lost == 1
        assert not victim.is_alive()
        assert set(_live_children()) - before == set()


# ----------------------------------------------------- executor degradation
class TestExecutorUnavailable:
    def test_drain_raises_and_requeues(self, monkeypatch):
        def broken(*_args, **_kwargs):
            raise OSError("no worker processes on this platform")

        monkeypatch.setattr(LocalFleet, "_start_worker", broken)
        with WorkScheduler(max_workers=2) as scheduler:
            handle = scheduler.submit(_double, 1)
            with pytest.raises(ExecutorUnavailable):
                scheduler.drain()
            assert handle.state is TaskState.PENDING  # ready for a fallback path

    def test_parallel_synthesis_degrades_to_sequential(self, monkeypatch):
        def broken(*_args, **_kwargs):
            raise OSError("no worker processes on this platform")

        monkeypatch.setattr(LocalFleet, "_start_worker", broken)
        bench = get_benchmark("Oracle-1")
        config = SynthesisConfig()
        config.verifier_random_sequences = 10
        parallel = migrate(
            bench.source_program,
            bench.target_schema,
            replace(config, parallel_workers=2, parallel_wave_size=1),
        )
        sequential = migrate(bench.source_program, bench.target_schema, config)
        assert parallel.succeeded
        # The degraded run is the sequential run: same trajectory, and it
        # reports itself as sequential.
        assert parallel.parallel_workers_used == 0
        assert parallel.attempts == sequential.attempts


class TestWorkerCache:
    def test_worker_source_cache_capacity_only_grows(self):
        import repro.core.parallel as parallel_module
        from repro.core.parallel import _worker_cache

        saved = parallel_module._worker_source_cache
        parallel_module._worker_source_cache = None
        try:
            first = _worker_cache(100)
            assert first.max_entries == 100
            # A smaller request keeps the shared cache (and its entries)...
            assert _worker_cache(50) is first
            assert first.max_entries == 100
            # ... and a larger one grows it in place.
            assert _worker_cache(200) is first
            assert first.max_entries == 200
        finally:
            parallel_module._worker_source_cache = saved


# ------------------------------------------------------------------- compat
class TestTimeoutCompat:
    def test_both_spellings_are_caught(self):
        import concurrent.futures

        with pytest.raises(TIMEOUT_ERRORS):
            raise concurrent.futures.TimeoutError()
        with pytest.raises(TIMEOUT_ERRORS):
            raise TimeoutError()

    def test_parallel_module_reexports_shim(self):
        from repro.core.parallel import FuturesTimeout

        assert FuturesTimeout is FuturesTimeoutError
