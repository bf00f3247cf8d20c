"""Tests for the streaming session API (repro.core.session).

Covers the event taxonomy, event-stream/final-result consistency,
cancellation mid-completion, the run-wide deadline threaded into sketch
completion, re-entrant consumption, sequential-vs-parallel trajectory
equivalence through the shared session core, and result serialization.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import replace

import pytest

from repro import SynthesisConfig, format_program, migrate
from repro.api import (
    TERMINAL_EVENTS,
    BudgetExhausted,
    BudgetTimeout,
    Cancelled,
    CandidateRejected,
    SketchGenerated,
    Solved,
    SynthesisSession,
    Synthesizer,
    VcSelected,
)
from repro.workloads import benchmark_names, get_benchmark


def _config(**overrides) -> SynthesisConfig:
    config = SynthesisConfig()
    config.verifier_random_sequences = 10
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def _comparable(result) -> tuple:
    """Everything except wall-clock fields, for byte-identical comparisons."""
    cache = dataclasses.asdict(result.cache)
    cache.pop("screening_time")
    return (
        result.succeeded,
        result.timed_out,
        result.cancelled,
        result.value_correspondences_tried,
        result.iterations,
        result.attempts,
        None if result.program is None else format_program(result.program),
        result.correspondence,
        cache,
    )


class TestEventStream:
    def test_successful_run_event_shape(self, course_program, course_target_schema):
        session = SynthesisSession(course_program, course_target_schema, _config())
        events = list(session.events())
        assert session.finished
        # The stream starts by selecting the first correspondence and ends
        # with exactly one terminal event.
        assert isinstance(events[0], VcSelected)
        assert events[0].index == 1
        assert any(isinstance(event, SketchGenerated) for event in events)
        terminals = [event for event in events if isinstance(event, TERMINAL_EVENTS)]
        assert len(terminals) == 1
        assert isinstance(events[-1], Solved)

    def test_event_stream_matches_result(self, course_program, course_target_schema):
        session = SynthesisSession(course_program, course_target_schema, _config())
        events = list(session.events())
        result = session.result
        assert result.succeeded
        # One VcSelected per attempted correspondence, in index order.
        selections = [event for event in events if isinstance(event, VcSelected)]
        assert [event.index for event in selections] == list(
            range(1, result.value_correspondences_tried + 1)
        )
        # Candidate rejections + the solved candidate account for the
        # completion iterations of the recorded attempts.
        rejections = [event for event in events if isinstance(event, CandidateRejected)]
        solved = [event for event in events if isinstance(event, Solved)]
        assert solved[0].iterations == result.attempts[-1].iterations
        assert len(rejections) <= result.iterations
        # The per-attempt summaries reflect the same stream.
        assert result.attempts[-1].events[-1].startswith("solved")

    def test_budget_exhausted_when_no_solution(self, people_program):
        from repro.datamodel import DataType as T, make_schema

        target = make_schema("bad", {"Person": {"PersonId": T.INT, "Age": T.INT}})
        session = SynthesisSession(people_program, target, _config())
        events = list(session.events())
        assert not session.result.succeeded
        assert isinstance(events[-1], BudgetExhausted)

    def test_on_event_callback_sees_every_event(self, course_program, course_target_schema):
        streamed: list = []
        session = SynthesisSession(
            course_program, course_target_schema, _config(), on_event=streamed.append
        )
        pulled = list(session.events())
        assert streamed == pulled

    def test_reentrant_consumption(self):
        # Events are delivered at attempt granularity, so a multi-attempt
        # workload (Ambler-5 tries 10 correspondences) can be paused midway:
        # the first attempt's events arrive while later attempts are pending.
        bench = get_benchmark("Ambler-5")
        session = SynthesisSession(bench.source_program, bench.target_schema, _config())
        stream = session.events()
        first = next(stream)
        assert isinstance(first, VcSelected)
        assert not session.finished
        assert session.result.value_correspondences_tried < 10
        # run() resumes the same stream instead of restarting the run.
        result = session.run()
        assert session.finished
        assert result.succeeded
        assert result.value_correspondences_tried == 10


class TestByteIdenticalWithMigrate:
    #: Small-but-representative slice for every tier-1 run; the full registry
    #: sweep rides behind REPRO_FULL_EQUIV=1 (it synthesizes all 20 twice).
    QUICK = ["Oracle-1", "Oracle-2", "Ambler-3", "Ambler-5"]

    @pytest.mark.parametrize("name", QUICK)
    def test_session_matches_migrate(self, name):
        bench = get_benchmark(name)
        blocking = migrate(bench.source_program, bench.target_schema, _config())
        session = SynthesisSession(bench.source_program, bench.target_schema, _config())
        streamed = session.run()
        assert _comparable(blocking) == _comparable(streamed)

    @pytest.mark.skipif(
        os.environ.get("REPRO_FULL_EQUIV", "") in ("", "0", "false"),
        reason="full 20-workload sweep; set REPRO_FULL_EQUIV=1",
    )
    def test_all_registry_workloads_match(self):
        for name in benchmark_names():
            bench = get_benchmark(name)
            blocking = migrate(bench.source_program, bench.target_schema, SynthesisConfig())
            streamed = SynthesisSession(
                bench.source_program, bench.target_schema, SynthesisConfig()
            ).run()
            assert _comparable(blocking) == _comparable(streamed), name


class TestCancellation:
    def test_cancel_before_start(self, course_program, course_target_schema):
        session = SynthesisSession(course_program, course_target_schema, _config())
        session.cancel()
        events = list(session.events())
        result = session.result
        assert result.cancelled and not result.succeeded and not result.timed_out
        assert isinstance(events[-1], Cancelled)
        assert result.attempts == []
        assert result.status == "CANCELLED"

    def test_cancel_mid_completion(self):
        # Ambler-3's first sketch rejects several candidates before solving;
        # cancelling from the rejection callback stops the completion loop
        # at its next iteration — mid-sketch, not between correspondences.
        bench = get_benchmark("Ambler-3")

        def on_event(event):
            if isinstance(event, CandidateRejected):
                session.cancel()

        session = SynthesisSession(
            bench.source_program, bench.target_schema, _config(), on_event=on_event
        )
        result = session.run()
        assert result.cancelled and not result.succeeded
        assert result.attempts, "the interrupted attempt must still be recorded"
        assert result.attempts[-1].failure_reason == "cancelled"
        baseline = migrate(bench.source_program, bench.target_schema, _config())
        assert result.iterations < baseline.iterations

    def test_cancelled_attempt_events_summary(self):
        bench = get_benchmark("Ambler-3")

        def on_event(event):
            if isinstance(event, CandidateRejected):
                session.cancel()

        session = SynthesisSession(
            bench.source_program, bench.target_schema, _config(), on_event=on_event
        )
        result = session.run()
        assert any("candidate_rejected" in entry for entry in result.attempts[-1].events)
        assert not any("solved" in entry for entry in result.attempts[-1].events)


class TestDeadline:
    def test_zero_time_limit_flags_timeout(self, course_program, course_target_schema):
        session = SynthesisSession(
            course_program, course_target_schema, _config(time_limit=0.0)
        )
        events = list(session.events())
        assert session.result.timed_out and not session.result.succeeded
        assert isinstance(events[-1], BudgetTimeout)

    def test_deadline_stops_long_sketch_mid_completion(self):
        # The enumerative strategy on Oracle-2 without iteration caps churns
        # through thousands of candidates on one sketch; before the deadline
        # redesign the global time_limit was only checked *between* VCs, so
        # this run would overshoot its budget by the whole sketch.
        bench = get_benchmark("Oracle-2")
        config = _config(
            completion_strategy="enumerative",
            counterexample_pool=False,
            final_verification=False,
            max_iterations_per_sketch=None,
            time_limit=1.0,
        )
        started = time.perf_counter()
        result = SynthesisSession(bench.source_program, bench.target_schema, config).run()
        elapsed = time.perf_counter() - started
        assert result.timed_out and not result.succeeded
        assert elapsed < 5.0, f"deadline overshot: {elapsed:.1f}s for a 1s budget"
        assert result.attempts[-1].failure_reason == "time limit reached"

    def test_deadline_stops_deep_verification_pass(self, monkeypatch):
        # A budget landing inside the verification pass must interrupt it
        # instead of letting the run overshoot by the whole pass.  The clock
        # jumps past the deadline on the verifier's first interrupt poll, so
        # the deadline lands inside verification however fast the pass is.
        from repro.equivalence import BoundedVerifier, TestingInterrupted

        skew = [0.0]
        real_clock = time.perf_counter
        monkeypatch.setattr(time, "perf_counter", lambda: real_clock() + skew[0])
        polls, interrupted = [], []
        original_verify = BoundedVerifier.verify

        def verify(self, source, candidate):
            deadline_check = self.interrupt

            def poll():
                polls.append(candidate)
                skew[0] = 3600.0
                return deadline_check()

            self.interrupt = poll
            try:
                return original_verify(self, source, candidate)
            except TestingInterrupted:
                interrupted.append(candidate)
                raise
            finally:
                self.interrupt = deadline_check

        monkeypatch.setattr(BoundedVerifier, "verify", verify)
        bench = get_benchmark("coachup")
        config = _config(
            verifier_max_updates=3, verifier_random_sequences=300, time_limit=600.0
        )
        session = SynthesisSession(bench.source_program, bench.target_schema, config)
        events = list(session.events())
        assert len(polls) == 1 and interrupted == polls
        assert session.result.timed_out and not session.result.succeeded
        assert isinstance(events[-1], BudgetTimeout)

    def test_verifier_interrupt_hook(self, course_program):
        from repro.equivalence import BoundedVerifier, TestingInterrupted

        verifier = BoundedVerifier(max_updates=2, random_sequences=10)
        verifier.interrupt = lambda: True
        with pytest.raises(TestingInterrupted):
            verifier.verify(course_program, course_program)
        # The state-pair search polls once per query batch and per expansion.
        verifier = BoundedVerifier(max_updates=2, random_sequences=0)
        polls = []

        def count_poll():
            polls.append(None)
            return False

        verifier.interrupt = count_poll
        verdict = verifier.verify(course_program, course_program)
        assert verdict.equivalent and verifier.stats.ordered_fallbacks == 0
        assert 0 < len(polls) < verdict.sequences_checked
        verifier.interrupt = lambda: True
        with pytest.raises(TestingInterrupted):
            verifier.verify(course_program, course_program)


def _crash_explore_once(task, ctx):
    """Fork-safe crash injection for the kill-a-worker retry test.

    Hard-kills the worker the first time it runs vc-1 (marker file keeps it
    once-only across the replacement worker), then delegates to the real
    worker entry point.  Module-level so workers unpickle it by reference.
    """
    import repro.core.parallel as parallel_module

    marker = os.environ.get("REPRO_TEST_CRASH_MARKER", "")
    if marker and task.index == 1 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return parallel_module._real_explore_for_test(task, ctx)


class TestParallelStreamingSession:
    """API v2: one session over every execution mode, streaming everywhere."""

    #: Small-but-representative slice for every tier-1 run; the full registry
    #: sweep rides behind REPRO_FULL_EQUIV=1.
    QUICK = ["Oracle-1", "Ambler-3", "Ambler-5"]

    @staticmethod
    def _seq_config(**overrides) -> SynthesisConfig:
        # Pooling off: the counterexample pool is a *shared accelerator*
        # whose per-attempt observations depend on scheduling, so the
        # pinned cross-mode stream equality holds for pool-free runs (the
        # same configuration the 1.x trajectory-equivalence tests pinned).
        return _config(counterexample_pool=False, **overrides)

    @classmethod
    def _par_config(cls, **overrides) -> SynthesisConfig:
        return replace(
            cls._seq_config(**overrides), parallel_workers=2, parallel_wave_size=1
        )

    def _streams(self, name: str):
        bench = get_benchmark(name)
        sequential = SynthesisSession(
            bench.source_program, bench.target_schema, self._seq_config()
        )
        seq_events = list(sequential.events())
        parallel = SynthesisSession(
            bench.source_program, bench.target_schema, self._par_config()
        )
        par_events = list(parallel.events())
        return (seq_events, sequential.result), (par_events, parallel.result)

    def _assert_equivalent(self, name: str) -> None:
        (seq_events, seq), (par_events, par) = self._streams(name)
        # Same ordered typed event stream (workers publish through channel
        # transports; the merge is deterministic)...
        assert seq_events == par_events, name
        # ... and the same pinned trajectory on the results.
        assert seq.attempts == par.attempts, name
        assert seq.value_correspondences_tried == par.value_correspondences_tried, name
        assert (seq.program is None) == (par.program is None), name
        if seq.program is not None:
            assert format_program(seq.program) == format_program(par.program), name
        assert par.parallel_workers_used == 2, name

    def test_merged_stream_matches_sequential_on_slice(self):
        for name in self.QUICK:
            self._assert_equivalent(name)

    @pytest.mark.skipif(
        os.environ.get("REPRO_FULL_EQUIV", "") in ("", "0", "false"),
        reason="full 20-workload sweep; set REPRO_FULL_EQUIV=1",
    )
    def test_merged_stream_matches_sequential_on_all_workloads(self):
        for name in benchmark_names():
            self._assert_equivalent(name)

    def test_exhausted_run_stream_matches_sequential(self, people_program):
        from repro.datamodel import DataType as T, make_schema

        target = make_schema("bad", {"Person": {"PersonId": T.INT, "Age": T.INT}})
        seq_session = SynthesisSession(people_program, target, self._seq_config())
        seq_events = list(seq_session.events())
        par_session = SynthesisSession(people_program, target, self._par_config())
        par_events = list(par_session.events())
        assert seq_events == par_events
        assert isinstance(par_events[-1], BudgetExhausted)
        assert not par_session.result.succeeded

    def test_on_event_fires_live_in_parallel_mode(self):
        bench = get_benchmark("Ambler-5")
        streamed: list = []
        session = SynthesisSession(
            bench.source_program,
            bench.target_schema,
            self._par_config(),
            on_event=streamed.append,
        )
        pulled = list(session.events())
        assert streamed == pulled
        assert isinstance(pulled[0], VcSelected) and pulled[0].index == 1
        assert isinstance(pulled[-1], Solved)

    def test_migrate_is_a_session_drain_in_parallel_mode(self):
        # migrate() has no parallel special-case left: it drains the same
        # session the streaming path runs.
        bench = get_benchmark("Ambler-5")
        blocking = migrate(bench.source_program, bench.target_schema, self._par_config())
        session = SynthesisSession(
            bench.source_program, bench.target_schema, self._par_config()
        )
        streamed = session.run()
        assert blocking.attempts == streamed.attempts
        assert format_program(blocking.program) == format_program(streamed.program)
        assert blocking.parallel_workers_used == streamed.parallel_workers_used == 2

    def test_parallel_cancel_mid_completion(self):
        bench = get_benchmark("Ambler-3")
        box: dict = {}

        def on_event(event):
            if isinstance(event, CandidateRejected):
                box["session"].cancel()

        box["session"] = SynthesisSession(
            bench.source_program, bench.target_schema, self._par_config(), on_event=on_event
        )
        result = box["session"].run()
        assert result.cancelled and not result.succeeded
        assert result.attempts, "the interrupted attempt must still be recorded"
        assert result.attempts[-1].failure_reason == "cancelled"
        assert result.status == "CANCELLED"

    def test_parallel_cancel_before_start(self):
        bench = get_benchmark("Oracle-1")
        session = SynthesisSession(
            bench.source_program, bench.target_schema, self._par_config()
        )
        session.cancel()
        events = list(session.events())
        assert session.result.cancelled and not session.result.succeeded
        assert isinstance(events[-1], Cancelled)
        assert session.result.attempts == []

    def test_parallel_zero_time_limit_flags_timeout(self):
        bench = get_benchmark("Oracle-1")
        session = SynthesisSession(
            bench.source_program,
            bench.target_schema,
            self._par_config(time_limit=0.0),
        )
        events = list(session.events())
        assert session.result.timed_out and not session.result.succeeded
        assert isinstance(events[-1], BudgetTimeout)

    def test_killed_worker_is_retried_with_same_trajectory(self, monkeypatch, tmp_path):
        # Kill the vc-1 worker once mid-wave: the scheduler's crash recovery
        # re-leases just that task to a live worker, and the run finishes
        # with the exact sequential trajectory (no wholesale fallback).
        import repro.core.parallel as parallel_module

        marker = tmp_path / "worker-crashed"
        monkeypatch.setenv("REPRO_TEST_CRASH_MARKER", str(marker))
        monkeypatch.setattr(
            parallel_module,
            "_real_explore_for_test",
            parallel_module._explore_correspondence,
            raising=False,
        )
        monkeypatch.setattr(
            parallel_module, "_explore_correspondence", _crash_explore_once
        )
        bench = get_benchmark("Oracle-1")
        result = SynthesisSession(
            bench.source_program, bench.target_schema, self._par_config()
        ).run()
        assert marker.exists(), "the crash injection never fired"
        assert result.succeeded
        assert result.parallel_workers_used == 2
        sequential = migrate(bench.source_program, bench.target_schema, self._seq_config())
        assert result.attempts == sequential.attempts
        assert format_program(result.program) == format_program(sequential.program)


class TestParallelTrajectoryEquivalence:
    def test_wave_size_one_matches_sequential(self):
        # With one-VC waves and the pool disabled, the parallel driver feeds
        # the shared session core exactly the sequential schedule, so the
        # whole trajectory — every AttemptRecord including its event summary,
        # and the winning program — must match the sequential run.
        bench = get_benchmark("Ambler-5")
        config = _config(counterexample_pool=False)
        sequential = Synthesizer(config).synthesize(bench.source_program, bench.target_schema)
        parallel = Synthesizer(
            replace(config, parallel_workers=2, parallel_wave_size=1)
        ).synthesize(bench.source_program, bench.target_schema)
        assert sequential.attempts == parallel.attempts
        assert format_program(sequential.program) == format_program(parallel.program)
        assert sequential.iterations == parallel.iterations
        assert parallel.parallel_workers_used == 2

    def test_single_vc_workload_matches_with_pool(self):
        # A first-correspondence success exercises the pool-carrying path:
        # the worker starts from an empty snapshot exactly like the
        # sequential core, so trajectories coincide even with pooling on.
        bench = get_benchmark("Oracle-2")
        config = _config()
        sequential = Synthesizer(config).synthesize(bench.source_program, bench.target_schema)
        parallel = Synthesizer(
            replace(config, parallel_workers=2, parallel_wave_size=1)
        ).synthesize(bench.source_program, bench.target_schema)
        assert sequential.attempts == parallel.attempts
        assert format_program(sequential.program) == format_program(parallel.program)


class TestSerialization:
    def test_result_to_dict_round_trips_json(self, course_program, course_target_schema):
        result = migrate(course_program, course_target_schema, _config())
        payload = json.loads(result.to_json())
        assert payload["succeeded"] is True
        assert payload["status"] == "OK"
        assert payload["source_program"] == course_program.name
        assert payload["program"] == format_program(result.program)
        assert payload["iterations"] == result.iterations
        assert payload["attempts"][0]["vc_weight"] == result.attempts[0].vc_weight
        assert payload["attempts"][0]["events"] == list(result.attempts[0].events)
        assert payload["cache"]["pool_hits"] == result.cache.pool_hits

    def test_to_dict_can_exclude_program(self, course_program, course_target_schema):
        result = migrate(course_program, course_target_schema, _config())
        payload = result.to_dict(include_program=False)
        assert payload["program"] is None
        assert payload["succeeded"] is True

    def test_failed_result_serializes(self, people_program):
        from repro.datamodel import DataType as T, make_schema

        target = make_schema("bad", {"Person": {"PersonId": T.INT, "Age": T.INT}})
        result = migrate(people_program, target, _config())
        payload = json.loads(result.to_json())
        assert payload["succeeded"] is False
        assert payload["program"] is None
        assert payload["status"] == "FAILED"

    def test_attempt_record_is_keyword_only(self):
        from repro.core.result import AttemptRecord

        with pytest.raises(TypeError):
            AttemptRecord(1, 2, 3, 4, False, "")  # positional construction is fragile
        record = AttemptRecord(vc_weight=1, succeeded=True)
        assert record.sketch_holes == 0 and record.events == ()
