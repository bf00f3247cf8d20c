"""The stable, versioned public API of the repro synthesizer.

``repro.api`` is the compatibility surface for programmatic consumers (the
examples, the eval harness, and service deployments): everything exported
here follows the ``API_VERSION`` contract — additive changes bump the minor
version, breaking changes bump the major version and are called out in
EXPERIMENTS.md.  Internals (``repro.core.*``, ``repro.completion.*``, …)
may be refactored freely between releases; import from this module instead.

Three levels of entry:

* :func:`migrate` — the one-call blocking convenience: a thin drain of a
  session in **every** configuration (sequential or parallel), returning
  byte-identical results to the streaming path.
* :class:`SynthesisSession` — one run as a re-entrant stream of typed
  progress events with cooperative cancellation and a run-wide deadline,
  over **every execution mode**: with ``config.parallel_workers > 1`` the
  session drives the wave-parallel front-end through the unified execution
  layer (:mod:`repro.exec`) and merges the workers' per-attempt event
  streams into one deterministically ordered stream — same event taxonomy,
  same pinned trajectories as the sequential driver.
* :class:`MigrationService` / :class:`MigrationJob` — batches of jobs
  scheduled through the unified execution layer with cross-job artifact
  sharing, priorities, deadlines, live cross-process event streaming and
  mid-job cancellation — plus a persistent :class:`JobStore` (JSONL
  lifecycle log) enabling :meth:`MigrationService.resume`: an interrupted
  batch restarts running only its unfinished jobs.

Version 2.0.0 — "streaming everywhere".  Breaking (the major bump):

* ``SynthesisSession`` no longer ignores ``config.parallel_workers`` — a
  session over a parallel configuration now runs the wave front-end and
  streams merged events (1.x sessions silently ran such configs
  sequentially);
* the separate parallel entry point is gone: ``migrate()`` /
  ``Synthesizer.synthesize`` drain a session in all configurations, and
  ``repro.core.synthesize_parallel`` no longer exists;
* in parallel mode ``on_event`` fires from the event-router thread rather
  than the consuming thread (sequential behaviour is unchanged).

Additive in 2.0.0: ``JobStore`` + ``MigrationService(job_store=...)`` +
``MigrationService.resume(path)`` + ``JobHandle.restored``; queue-transport
backpressure (a bounded event queue with high-water/drop counters, removed
again in 3.0.0); scheduler crash recovery (bounded per-task retries instead
of wholesale sequential fallback, surfacing as ``JobStatus.FAILED`` after
retries exhaust; since 3.0.0 ``QUARANTINED``); ``--scheduler-workers`` eval-harness table runs over the shared
:class:`~repro.exec.WorkScheduler`.

Additive in 2.1.0 — "distributed execution": the socket transport and
remote-worker fleets.  ``MigrationService(workers=["host:port", ...])``
drives jobs on ``python -m repro.worker`` processes (other machines
included) with unchanged streaming/cancellation/retry semantics;
``SynthesisConfig.execution_fleet`` points parallel wave exploration at the
same fleets; :class:`RemoteFleet` is the reusable fleet handle (dial-out or
listening topology).  The job store doubles as the fleet's lease journal
(``leased`` / ``lease_heartbeat`` / ``released`` records), job specs are
format-versioned (incompatible stores fail loudly on resume), and
``JobStore.compact()`` folds settled history into snapshot lines.
``SynthesisResult.to_dict`` gains a ``scheduler`` field exposing
execution-layer counters (crash retries, workers lost, event
high-water/drops) for parallel runs.

Additive in 2.2.0 — "chaos-hardened execution": unified resilience
policies and deterministic fault injection.  :class:`RetryPolicy` /
:class:`TimeoutPolicy` / :class:`ResilienceConfig`
(``SynthesisConfig.resilience``) replace the layer-local retry counters:
jittered exponential backoff on crash retries, optional per-run retry
budgets, and poison-task quarantine (``JobStatus.QUARANTINED`` /
``TaskState.QUARANTINED``) for tasks that repeatedly kill their workers.
The graceful-degradation ladder (fleet -> local workers -> in-process
sequential) finishes batches against dead fleets with identical results;
each rung emits an :class:`ExecutionDegraded` session event and journals a
``degraded`` record to the job store.  :class:`FaultPlan` /
:class:`FaultSpec` (``repro.exec.faults``) inject seeded, reproducible
faults — connection drops, frame truncation/corruption, heartbeat stalls,
slow tasks — at the wire/worker seams (``REPRO_FAULT_PLAN`` env for worker
processes).  ``SynthesisResult.to_dict`` gains a ``resilience`` sub-dict
(``retries`` / ``quarantined_tasks`` / ``degradations`` and, under an
active plan, ``faults_injected``).

Additive in 2.3.0 — "the service front": the async multi-tenant HTTP
server and the indexed store backend.  :mod:`repro.server` serves a
:class:`MigrationService` over asyncio HTTP/1.1 (stdlib; the app is a
minimal ASGI callable) — API-key tenants with per-tenant quotas
(:class:`~repro.server.TenantQuota`: queue depth, concurrent running,
token-bucket submit rate → ``429``), weighted fair scheduling (stride
priorities over the existing scheduler plus the new anti-starvation
``age_after``/``age_step`` aging knobs on :class:`MigrationService` and
``WorkScheduler``), and ``GET /jobs/{id}/events`` SSE streaming of the
typed session events with monotonic ids and gap-free ``Last-Event-ID``
resume, bridged through bounded shed-and-count asyncio queues.  The job
store splits into selectable backends behind one interface
(:func:`open_job_store`): the JSONL log and the new indexed
:class:`SQLiteJobStore` (jobs/events/leases tables, WAL,
tenant/status/fingerprint indexes — ``sqlite:PATH`` or ``*.sqlite`` /
``*.db``), with :func:`migrate_jsonl_to_sqlite` and ``compact()`` parity.
``MigrationService.resume`` now **re-pins** stored specs: format-version
gate, then pin verification against the submission fingerprint — and, for
registry-built jobs (``MigrationJob.workload``), against the *current*
workload registry — settling drifted jobs as the new loud
``JobStatus.INCOMPATIBLE`` terminal status instead of unpickling blind.
``MigrationJob`` gains ``tenant`` and ``workload`` fields (spec format
v3; v1/v2 stores still resume).

Version 3.0.0 — "one worker transport".  Local parallelism
(``max_workers > 1``) now runs on forked workers over the same socket
protocol as remote fleets, and the process-pool transport is gone.
Breaking (the major bump), all removals:

* the keyword bounding the pending-event queue, on ``MigrationService``,
  ``MigrationService.resume`` and ``WorkScheduler``: there is no bounded
  event queue, and nothing is load-shed — a slow subscriber slows its
  worker through TCP flow control;
* the channel counters: ``ChannelStats``, ``WorkScheduler.channel_stats()``
  and the ``SchedulerStats`` high-water and dropped-event counters (also
  gone from ``SynthesisResult.to_dict()["scheduler"]``);
* ``RetryPolicy.max_retries``, ``WorkScheduler(max_retries=)`` and
  ``DEFAULT_MAX_RETRIES``: a dead local worker follows the fleet rule —
  re-lease, then ``QUARANTINED`` after ``quarantine_after`` lost workers
  (was ``FAILED`` after ``max_retries`` pool breaks).  Job specs pickled
  with the old field still resume;
* the ``SchedulerStats`` pool-rebuild counter: losses count in
  ``workers_lost``;
* the queue channel, its shared-memory cancel flags and the
  pool-initializer hooks (``worker_context`` and its installer).

The degradation ladder keeps its shape and its names: the first rung
swaps a remote fleet for local workers and is still reported as
``"pool"`` in ``ExecutionDegraded`` events and ``degraded`` records.
"""

from __future__ import annotations

from repro.core.config import SynthesisConfig
from repro.core.result import AttemptRecord, SynthesisResult
from repro.core.session import (
    TERMINAL_EVENTS,
    BudgetExhausted,
    BudgetTimeout,
    Cancelled,
    CandidateRejected,
    ExecutionDegraded,
    SessionEvent,
    SketchGenerated,
    SketchRejected,
    Solved,
    SynthesisSession,
    VcSelected,
)
from repro.core.synthesizer import Synthesizer, migrate
from repro.exec.faults import FaultPlan, FaultSpec
from repro.exec.policy import ResilienceConfig, RetryPolicy, TimeoutPolicy
from repro.exec.remote import RemoteFleet
from repro.jobstore import (
    JobStore,
    SQLiteJobStore,
    migrate_jsonl_to_sqlite,
    open_job_store,
)
from repro.server import (
    ServerApp,
    ServerThread,
    ServiceFront,
    Tenant,
    TenantQuota,
    TenantRegistry,
)
from repro.service import (
    JobHandle,
    JobStatus,
    MigrationJob,
    MigrationService,
    migrate_batch,
)

#: Semantic version of this surface (not of the package implementation).
API_VERSION = "3.0.0"

__all__ = [
    "API_VERSION",
    # configuration + results
    "AttemptRecord",
    "SynthesisConfig",
    "SynthesisResult",
    # blocking entry points
    "Synthesizer",
    "migrate",
    # streaming session + event taxonomy
    "SynthesisSession",
    "SessionEvent",
    "VcSelected",
    "SketchGenerated",
    "SketchRejected",
    "CandidateRejected",
    "Solved",
    "BudgetTimeout",
    "BudgetExhausted",
    "Cancelled",
    "ExecutionDegraded",
    "TERMINAL_EVENTS",
    # multi-job service facade + persistence + distributed execution
    "MigrationService",
    "MigrationJob",
    "JobHandle",
    "JobStatus",
    "JobStore",
    "SQLiteJobStore",
    "open_job_store",
    "migrate_jsonl_to_sqlite",
    "RemoteFleet",
    "migrate_batch",
    # the service front (repro.server)
    "ServiceFront",
    "ServerApp",
    "ServerThread",
    "Tenant",
    "TenantQuota",
    "TenantRegistry",
    # resilience policies + fault injection
    "RetryPolicy",
    "TimeoutPolicy",
    "ResilienceConfig",
    "FaultPlan",
    "FaultSpec",
]
