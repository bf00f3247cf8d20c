"""Chaos suite: fault injection, unified retry policies, and the ladder.

Layers under test:

* :mod:`repro.exec.faults` — plan serialization, matching and firing
  arithmetic, deterministic replay from (seed, plan) alone;
* :mod:`repro.exec.policy` — jittered-backoff determinism and bounds;
* the fleet under injected chaos (in-thread workers over real sockets):
  kill-mid-result with exactly-once settlement, corrupted result frames,
  heartbeat loss via ``REPRO_FAULT_PLAN`` in subprocess workers, and
  poison-task quarantine;
* the graceful-degradation ladder — scheduler (remote fleet -> local
  workers, reported as ``"pool"``), the ``migrate`` front-end (identical
  results + ``ExecutionDegraded`` events), and the service (journalled
  ``degraded`` records, full fleet -> pool -> inline walk);
* the CI chaos smoke (``REPRO_CHAOS_SMOKE=1``): a seeded fault-plan
  matrix over real subprocess workers, trajectories pinned against the
  undisturbed sequential baseline.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from remote_tasks import echo_task, sleepy_task
from repro.api import (
    ExecutionDegraded,
    FaultPlan,
    FaultSpec,
    MigrationJob,
    MigrationService,
    RemoteFleet,
    ResilienceConfig,
    RetryPolicy,
    SynthesisConfig,
    TimeoutPolicy,
)
from repro.core.session import SynthesisSession
from repro.exec import ExecutorUnavailable, TaskState, WorkScheduler, faults, wire
from repro.jobstore import JobStore
from repro.worker import WorkerAgent
from repro.workloads import get_benchmark

ROOT = Path(__file__).resolve().parents[1]
WORKER_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
}

#: A dead address: nothing listens on the discard port in the test env.
DEAD_FLEET = ("127.0.0.1:9",)


# ------------------------------------------------------------------ plans
class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=42,
            faults=(
                FaultSpec(site="wire.send", kind="drop", match={"type": "result"}),
                FaultSpec(site="worker.task", kind="slow", seconds=0.5, count=0),
                FaultSpec(
                    site="wire.send", kind="corrupt", after=3, offset=12, mask=0x40
                ),
                FaultSpec(site="wire.send", kind="truncate", cut=9),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_site_or_kind_rejected(self):
        with pytest.raises(ValueError, match="site"):
            FaultSpec(site="wire.nope", kind="drop")
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(site="wire.send", kind="explode")

    def test_match_is_subset_semantics(self):
        spec = FaultSpec(site="wire.send", kind="drop", match={"type": "result"})
        assert spec.matches({"type": "result", "task": 3})
        assert not spec.matches({"type": "heartbeat"})
        assert not spec.matches(None)
        unconditional = FaultSpec(site="wire.send", kind="drop")
        assert unconditional.matches(None)

    def test_after_and_count_arithmetic(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(site="worker.task", kind="drop", after=2, count=2),
            )
        )
        injector = faults.FaultInjector(plan)
        outcomes = []
        for index in range(6):
            try:
                injector.before_task({"task": index})
                outcomes.append("ran")
            except RuntimeError:
                outcomes.append("dropped")
        # Two matching passes let through, two firings, then exhausted.
        assert outcomes == ["ran", "ran", "dropped", "dropped", "ran", "ran"]
        assert injector.faults_injected == 2
        assert [site for site, _, _ in injector.fired] == ["worker.task"] * 2

    def test_activation_scoping(self):
        assert faults.active() is None
        plan = FaultPlan(faults=(FaultSpec(site="wire.recv", kind="delay"),))
        with faults.activate(plan) as injector:
            assert faults.active() is injector
        assert faults.active() is None


class TestRetryPolicy:
    def test_backoff_is_deterministic_per_seed(self):
        policy = RetryPolicy(seed=7)
        first = [policy.backoff_delay(n, policy.rng()) for n in range(1, 5)]
        second = [policy.backoff_delay(n, policy.rng()) for n in range(1, 5)]
        assert first == second

    def test_backoff_disabled_and_bounded(self):
        assert RetryPolicy(backoff_base=0.0).backoff_delay(3) == 0.0
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=10.0, backoff_max=1.0, backoff_jitter=0.5
        )
        for attempt in range(1, 8):
            delay = policy.backoff_delay(attempt, policy.rng())
            assert 0.0 <= delay <= 1.0 * 1.5

    def test_effective_heartbeat_jitter(self):
        # jitter=0 keeps the configured interval exactly (the handshake pin).
        assert wire.effective_heartbeat(0.5, 0.0, "w0") == 0.5
        spread = {
            wire.effective_heartbeat(1.0, 0.25, f"worker-{i}") for i in range(8)
        }
        assert len(spread) > 1, "jitter must de-synchronize distinct workers"
        for value in spread:
            assert 0.75 <= value <= 1.25
        # Deterministic per worker id: the coordinator and the worker agree.
        assert wire.effective_heartbeat(1.0, 0.25, "worker-3") == wire.effective_heartbeat(
            1.0, 0.25, "worker-3"
        )


# ------------------------------------------------------------ fleet chaos
@pytest.fixture()
def chaos_fleet():
    """A listening fleet served by two in-process worker threads.

    Thread workers share the test process, so ``faults.activate`` in the
    test instruments the workers' sends too — injected result-frame drops
    happen exactly where a real worker crash would surface.
    """
    fleet = RemoteFleet(listen="127.0.0.1:0", min_workers=2, start_timeout=15.0)
    host, port = wire.parse_address(fleet.bound_address)
    threads = []
    for index in range(2):
        agent = WorkerAgent(worker_id=f"chaos-w{index}")
        thread = threading.Thread(target=agent.connect, args=(host, port), daemon=True)
        thread.start()
        threads.append(thread)
    try:
        yield fleet
    finally:
        fleet.close()
        for thread in threads:
            thread.join(timeout=5)


class TestFleetChaos:
    def test_kill_mid_result_settles_exactly_once(self, chaos_fleet):
        """Dropping the first result frame re-leases the task exactly once."""
        plan = FaultPlan(
            seed=1,
            faults=(
                FaultSpec(site="wire.send", kind="drop", match={"type": "result"}),
            ),
        )
        with faults.activate(plan) as injector:
            with WorkScheduler(fleet=chaos_fleet) as scheduler:
                handle = scheduler.submit(echo_task, "payload", name="mid-result")
                scheduler.drain()
        assert handle.state is TaskState.DONE
        assert handle.result == ("echo", "payload")
        assert handle.retries == 1
        assert scheduler.stats.task_retries == 1
        assert scheduler.stats.workers_lost == 1
        assert scheduler.stats.tasks_done == 1
        assert injector.faults_injected == 1

    def test_corrupted_result_frame_recovers(self, chaos_fleet):
        """A bit-flipped result frame is a FrameError, not a wrong result."""
        plan = FaultPlan(
            seed=2,
            faults=(
                FaultSpec(site="wire.send", kind="corrupt", match={"type": "result"}),
            ),
        )
        with faults.activate(plan) as injector:
            with WorkScheduler(fleet=chaos_fleet) as scheduler:
                handle = scheduler.submit(echo_task, 99, name="corrupted")
                scheduler.drain()
        assert handle.state is TaskState.DONE
        assert handle.result == ("echo", 99)
        assert scheduler.stats.workers_lost == 1
        assert injector.faults_injected == 1

    def test_poison_task_is_quarantined(self, chaos_fleet):
        """A task that keeps killing its workers settles QUARANTINED."""
        plan = FaultPlan(
            seed=3,
            faults=(
                FaultSpec(
                    site="wire.send",
                    kind="drop",
                    match={"type": "result", "name": "poison"},
                    count=0,  # every result this task ever produces
                ),
            ),
        )
        retry = RetryPolicy(quarantine_after=1, backoff_base=0.0)
        with faults.activate(plan):
            with WorkScheduler(fleet=chaos_fleet, retry=retry) as scheduler:
                good = scheduler.submit(echo_task, "fine", name="good")
                poison = scheduler.submit(echo_task, "bad", name="poison")
                scheduler.drain()
        assert good.state is TaskState.DONE
        assert poison.state is TaskState.QUARANTINED
        assert poison.worker_losses == 2
        stats = scheduler.stats
        assert stats.tasks_quarantined == 1
        # Settlement invariant: every submitted task settled exactly once.
        assert stats.tasks_submitted == (
            stats.tasks_done
            + stats.tasks_failed
            + stats.tasks_cancelled
            + stats.tasks_expired
            + stats.tasks_quarantined
        )

    def test_heartbeat_drop_via_plan_env_expires_lease(self):
        """A worker whose plan (via REPRO_FAULT_PLAN) eats every heartbeat
        goes silent without dropping its connection — the monitor must
        expire its lease and re-lease the work."""
        plan = FaultPlan(
            seed=4,
            faults=(FaultSpec(site="worker.heartbeat", kind="drop", count=0),),
        )
        fleet = RemoteFleet(
            listen="127.0.0.1:0",
            min_workers=2,
            heartbeat_interval=0.15,
            lease_ttl=1.0,
        )
        silent = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.worker",
                "--connect",
                fleet.bound_address,
                "--id",
                "hb-silent",
            ],
            env={**WORKER_ENV, faults.PLAN_ENV: plan.to_json()},
        )
        healthy = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.worker",
                "--connect",
                fleet.bound_address,
                "--id",
                "hb-healthy",
            ],
            env=WORKER_ENV,
        )
        try:
            fleet.ensure_started()
            with WorkScheduler(fleet=fleet) as scheduler:
                handles = [
                    scheduler.submit(sleepy_task, 2.0, name=f"hb-{index}")
                    for index in range(2)
                ]
                scheduler.drain()
            assert [handle.state for handle in handles] == [TaskState.DONE] * 2
            assert scheduler.stats.workers_lost == 1
            assert scheduler.stats.task_retries == 1
        finally:
            fleet.close()
            for process in (silent, healthy):
                if process.poll() is None:
                    process.kill()
                process.wait(timeout=10)


# ------------------------------------------------------ degradation ladder
class TestDegradationLadder:
    def test_scheduler_degrades_fleet_to_pool(self):
        """A dead fleet degrades to local workers; tasks still complete."""
        steps = []
        with WorkScheduler(
            fleet=DEAD_FLEET,
            timeout=TimeoutPolicy(start_timeout=0.5),
            degrade=True,
            degrade_workers=2,
            on_degrade=lambda *step: steps.append(step),
        ) as scheduler:
            handles = [
                scheduler.submit(echo_task, index, name=f"ladder-{index}")
                for index in range(3)
            ]
            scheduler.drain()
        assert [handle.state for handle in handles] == [TaskState.DONE] * 3
        assert [handle.result for handle in handles] == [
            ("echo", index) for index in range(3)
        ]
        assert scheduler.stats.degradations == 1
        assert len(steps) == 1
        assert steps[0][:2] == ("fleet", "pool")

    def test_scheduler_default_still_raises(self):
        """Without opt-in the dead fleet surfaces ExecutorUnavailable."""
        with WorkScheduler(
            fleet=DEAD_FLEET, timeout=TimeoutPolicy(start_timeout=0.3)
        ) as scheduler:
            handle = scheduler.submit(echo_task, 1, name="no-ladder")
            with pytest.raises(ExecutorUnavailable):
                scheduler.drain()
            assert handle.state is TaskState.PENDING

    def test_migrate_against_dead_fleet_matches_sequential(self):
        """The ladder completes a run against a dead fleet with identical
        results and an auditable ExecutionDegraded trail."""
        benchmark = get_benchmark("Oracle-1")
        seq_events: list = []
        sequential = SynthesisSession(
            benchmark.source_program,
            benchmark.target_schema,
            SynthesisConfig(counterexample_pool=False),
            on_event=seq_events.append,
        ).run()

        chaos_events: list = []
        degraded = SynthesisSession(
            benchmark.source_program,
            benchmark.target_schema,
            SynthesisConfig(
                counterexample_pool=False,
                execution_fleet=DEAD_FLEET,
                parallel_wave_size=1,
                resilience=ResilienceConfig(
                    timeout=TimeoutPolicy(start_timeout=0.5)
                ),
            ),
            on_event=chaos_events.append,
        ).run()

        rungs = [e for e in chaos_events if isinstance(e, ExecutionDegraded)]
        assert rungs and rungs[0].from_mode == "fleet"
        assert degraded.degradations >= 1
        # Identical synthesis outcome, event for event (ladder steps aside).
        assert degraded.attempts == sequential.attempts
        assert (degraded.program is None) == (sequential.program is None)
        assert [type(e).__name__ for e in chaos_events if not isinstance(e, ExecutionDegraded)] == [
            type(e).__name__ for e in seq_events
        ]
        resilience = degraded.to_dict()["resilience"]
        assert resilience["degradations"] == degraded.degradations
        assert set(resilience) >= {"retries", "quarantined_tasks", "degradations"}

    def test_service_ladder_journals_degraded_record(self, tmp_path):
        """A service batch against a dead fleet completes on local workers
        and journals the ladder step next to the job records."""
        store_path = tmp_path / "chaos.jsonl"
        fleet = RemoteFleet(workers=DEAD_FLEET, start_timeout=0.5)
        events: list = []
        jobs = []
        for name in ("Oracle-1", "Ambler-3"):
            benchmark = get_benchmark(name)
            jobs.append(
                MigrationJob(
                    name=name,
                    source_program=benchmark.source_program,
                    target_schema=benchmark.target_schema,
                )
            )
        try:
            with MigrationService(
                workers=fleet,
                job_store=str(store_path),
                default_config=SynthesisConfig(counterexample_pool=False),
                on_event=lambda job, event: events.append((job, event)),
            ) as service:
                handles = service.submit_batch(jobs)
                service.run()
        finally:
            fleet.close()
        for handle in handles:
            assert handle.status.value == "done", handle.job.name

        records = [
            json.loads(line)
            for line in store_path.read_text().splitlines()
            if line.strip()
        ]
        degraded = [r for r in records if r["type"] == "degraded"]
        assert degraded and degraded[0]["from"] == "fleet"
        assert set(degraded[0]["jobs"]) == {"Oracle-1", "Ambler-3"}
        # The batch-wide annotation must not create a phantom job standing.
        standings = JobStore.load(store_path)
        assert set(standings) == {"Oracle-1", "Ambler-3"}
        assert all(entry.settled for entry in standings.values())
        settled = [r for r in records if r["type"] == "settled"]
        assert sorted(r["job"] for r in settled) == ["Ambler-3", "Oracle-1"]
        # Every still-running job heard about the rung it fell down.
        rungs = [(job, e) for job, e in events if isinstance(e, ExecutionDegraded)]
        assert {job for job, _ in rungs} == {"Oracle-1", "Ambler-3"}

    def test_service_walks_full_ladder_to_inline(self, tmp_path, monkeypatch):
        """Dead fleet + no local workers: the batch still completes, inline,
        with both rungs journalled."""

        def no_pool(self):
            raise ExecutorUnavailable("worker processes disabled for this test")

        monkeypatch.setattr(WorkScheduler, "_ensure_executor", no_pool)
        store_path = tmp_path / "ladder.jsonl"
        fleet = RemoteFleet(workers=DEAD_FLEET, start_timeout=0.5)
        events: list = []
        benchmark = get_benchmark("Oracle-1")
        job = MigrationJob(
            name="Oracle-1",
            source_program=benchmark.source_program,
            target_schema=benchmark.target_schema,
        )
        try:
            with MigrationService(
                workers=fleet,
                job_store=str(store_path),
                default_config=SynthesisConfig(counterexample_pool=False),
                on_event=lambda job_name, event: events.append(event),
            ) as service:
                (handle,) = service.submit_batch([job])
                service.run()
        finally:
            fleet.close()
        assert handle.status.value == "done"
        records = [
            json.loads(line)
            for line in store_path.read_text().splitlines()
            if line.strip()
        ]
        walked = [(r["from"], r["to"]) for r in records if r["type"] == "degraded"]
        assert walked == [("fleet", "pool"), ("pool", "inline")]
        rungs = [e for e in events if isinstance(e, ExecutionDegraded)]
        assert [(e.from_mode, e.to_mode) for e in rungs] == [
            ("fleet", "pool"),
            ("pool", "inline"),
        ]


# --------------------------------------------------------- CI chaos smoke
@pytest.mark.skipif(
    os.environ.get("REPRO_CHAOS_SMOKE", "") in ("", "0", "false"),
    reason="chaos smoke only in its dedicated CI job (REPRO_CHAOS_SMOKE=1)",
)
class TestChaosSmoke:
    """The CI smoke: a seeded fault-plan matrix over subprocess workers.

    Each plan perturbs one seam (dropped results, corrupted frames, slow
    tasks); every run must produce the undisturbed sequential trajectory.
    """

    BENCHMARKS = ["Oracle-1", "Ambler-3"]
    PLANS = {
        "result-drop": FaultPlan(
            seed=11,
            faults=(
                FaultSpec(site="wire.send", kind="drop", match={"type": "result"}),
            ),
        ),
        "result-corrupt": FaultPlan(
            seed=12,
            faults=(
                FaultSpec(site="wire.send", kind="corrupt", match={"type": "result"}),
            ),
        ),
        "slow-tasks": FaultPlan(
            seed=13,
            faults=(
                FaultSpec(site="worker.task", kind="slow", seconds=0.1, count=3),
            ),
        ),
    }

    @staticmethod
    def _spawn_listen_worker(worker_id: str, plan: FaultPlan | None):
        env = dict(WORKER_ENV)
        if plan is not None:
            env[faults.PLAN_ENV] = plan.to_json()
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.worker",
                "--listen",
                "127.0.0.1:0",
                "--id",
                worker_id,
            ],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = process.stdout.readline()
        assert "listening on " in line, f"worker banner missing: {line!r}"
        return process, line.strip().rpartition("listening on ")[2]

    def test_fault_matrix_preserves_trajectories(self):
        baselines = {}
        for name in self.BENCHMARKS:
            benchmark = get_benchmark(name)
            baselines[name] = SynthesisSession(
                benchmark.source_program,
                benchmark.target_schema,
                SynthesisConfig(counterexample_pool=False),
            ).run()
        for plan_name, plan in self.PLANS.items():
            for name in self.BENCHMARKS:
                benchmark = get_benchmark(name)
                # One faulty worker, one clean: a single seeded casualty per
                # plan with a survivor to re-lease onto.
                faulty, faulty_addr = self._spawn_listen_worker(
                    f"smoke-{plan_name}-f", plan
                )
                clean, clean_addr = self._spawn_listen_worker(
                    f"smoke-{plan_name}-c", None
                )
                try:
                    result = SynthesisSession(
                        benchmark.source_program,
                        benchmark.target_schema,
                        SynthesisConfig(
                            counterexample_pool=False,
                            execution_fleet=(faulty_addr, clean_addr),
                            parallel_wave_size=1,
                        ),
                    ).run()
                finally:
                    for process in (faulty, clean):
                        if process.poll() is None:
                            process.kill()
                        process.wait(timeout=10)
                baseline = baselines[name]
                label = f"{plan_name}/{name}"
                assert result.attempts == baseline.attempts, label
                assert (result.program is None) == (baseline.program is None), label
                assert result.iterations == baseline.iterations, label
                assert result.to_dict()["resilience"] is not None, label
