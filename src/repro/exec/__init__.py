"""The unified execution layer: event channels + the work scheduler.

``repro.exec`` is the one place dispatch lives.  The parallel
value-correspondence front-end (:mod:`repro.core.parallel`), the streaming
:class:`~repro.core.session.SynthesisSession` in parallel mode, the
multi-job :class:`~repro.service.MigrationService`, and the evaluation
harness's ``--scheduler-workers`` table runs all schedule their work
through :class:`WorkScheduler`, and all stream typed session events through
the channel transports (:class:`DirectChannel` in-process,
:class:`SocketChannel` to every worker process, local or remote) — see the
module docstrings of :mod:`repro.exec.scheduler`, :mod:`repro.exec.channel`,
:mod:`repro.exec.wire` and :mod:`repro.exec.remote` for the scheduling
model, crash-retry / lease semantics and the delivery guarantees.
"""

from repro.exec.channel import (
    DirectChannel,
    OrderedEventMerger,
    TaskPort,
    WorkContext,
    build_work_context,
    run_streamed_task,
)
from repro.exec.compat import TIMEOUT_ERRORS, FuturesTimeoutError
from repro.exec.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.exec.policy import ResilienceConfig, RetryPolicy, TimeoutPolicy
from repro.exec.remote import (
    FleetUnavailable,
    RemoteFleet,
    SocketChannel,
    WorkerLost,
)
from repro.exec.scheduler import (
    DEADLINE_GRACE,
    ExecutorUnavailable,
    SchedulerStats,
    TaskHandle,
    TaskState,
    WorkScheduler,
)
from repro.exec.wire import WIRE_VERSION

__all__ = [
    # channels
    "DirectChannel",
    "SocketChannel",
    "TaskPort",
    "WorkContext",
    "OrderedEventMerger",
    "build_work_context",
    "run_streamed_task",
    # remote fleet
    "RemoteFleet",
    "WorkerLost",
    "FleetUnavailable",
    "WIRE_VERSION",
    # scheduler
    "WorkScheduler",
    "TaskHandle",
    "TaskState",
    "SchedulerStats",
    "ExecutorUnavailable",
    "DEADLINE_GRACE",
    # resilience policies + fault injection
    "RetryPolicy",
    "TimeoutPolicy",
    "ResilienceConfig",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "InjectedFault",
    # compat
    "FuturesTimeoutError",
    "TIMEOUT_ERRORS",
]
