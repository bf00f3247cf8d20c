"""Transport-agnostic event channels for the unified execution layer.

A channel carries two signals between the scheduler (parent side) and a
scheduled work function (worker side), independently of where the worker
runs:

* **events out** — the work function calls :meth:`WorkContext.emit` with
  typed session events; the parent delivers each event to the per-task
  subscriber callback, in emission order;
* **cancel in** — the parent calls :meth:`TaskPort.cancel`; the work
  function observes it through :attr:`WorkContext.cancel_event`, an object
  with the ``threading.Event`` read/write surface (``is_set()`` / ``set()``)
  that the session machinery already polls inside completion loops and
  bounded testing.

Two transports implement the contract:

* :class:`DirectChannel` — in-process: ``emit`` invokes the subscriber
  synchronously on the calling thread and cancellation is a plain
  ``threading.Event``.  This is the zero-overhead transport for inline
  execution (and the reference for cross-transport equivalence tests).
* :class:`~repro.exec.remote.SocketChannel` — every worker process, local
  or remote: events travel as ``event`` frames, cancellation as a
  ``cancel`` frame, and a slow subscriber slows its worker through TCP
  flow control instead of dropping anything.

Delivery semantics shared by both transports: per-task event order is
preserved and delivery is exactly-once while the worker lives; a task's
port reports :meth:`TaskPort.wait_drained` true only after every event the
worker emitted (terminated by a ``task_end`` frame on the socket) has been
handed to the subscriber, so a settled task never has events still in
flight.  Subscriber callbacks run on the emitting thread under
:class:`DirectChannel` and on the connection's receiver thread under the
socket transport; callbacks that raise are isolated per event (the error
is recorded on the port, delivery continues).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Dict, Hashable, Optional

from repro.exec import faults


class WorkContext:
    """What a scheduled work function receives alongside its payload.

    ``emit`` forwards one typed event to the parent-side subscriber (a no-op
    when the task has no subscriber — ``streaming`` says which, so workers
    can skip building events entirely when nobody listens).  ``cancel_event``
    is the cooperative cancellation signal to poll / pass into session
    machinery.
    """

    __slots__ = ("emit", "cancel_event", "streaming")

    def __init__(
        self,
        emit: Callable[[Any], None],
        cancel_event,
        streaming: bool,
    ):
        self.emit = emit
        self.cancel_event = cancel_event
        self.streaming = streaming


class TaskPort:
    """Parent-side per-task endpoint of a channel binding."""

    def __init__(
        self,
        channel,
        task_id: int,
        streaming: bool,
        context: Optional[WorkContext],
        cancel_signal,
    ):
        self._channel = channel
        self.task_id = task_id
        self.streaming = streaming
        #: The worker-side context, for transports where parent and worker
        #: share an address space (``None`` for the socket transport, where
        #: the worker builds its own from the task frame).
        self.context = context
        self._cancel_signal = cancel_signal
        #: Last exception raised by the subscriber callback, if any.
        self.subscriber_error: Optional[BaseException] = None

    def cancel(self) -> None:
        """Raise the cooperative cancel signal for this task."""
        self._cancel_signal.set()

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until every emitted event has been delivered (or timeout)."""
        return self._channel._wait_drained(self, timeout)

    def release(self) -> None:
        """Unsubscribe the task: later events for it are dropped."""
        self._channel._release(self)


# ------------------------------------------------------------------ direct
class DirectChannel:
    """In-process transport: synchronous callbacks, ``threading.Event`` cancel."""

    transport = "direct"

    def bind(self, task_id: int, on_event: Optional[Callable[[Any], None]]) -> TaskPort:
        cancel_signal = threading.Event()
        port = TaskPort(self, task_id, on_event is not None, None, cancel_signal)

        if on_event is None:
            emit: Callable[[Any], None] = lambda _event: None
        else:

            def emit(event: Any) -> None:
                # Same isolation contract as the socket transport's receiver:
                # a raising subscriber is recorded, not propagated into the
                # work function — the two transports must not diverge in
                # whether a buggy callback fails the task.
                try:
                    on_event(event)
                except Exception as error:  # noqa: BLE001 - isolation boundary
                    port.subscriber_error = error

        port.context = WorkContext(emit, cancel_signal, on_event is not None)
        return port

    def _wait_drained(self, port: TaskPort, timeout: Optional[float]) -> bool:
        return True  # synchronous delivery: nothing can be in flight

    def _release(self, port: TaskPort) -> None:
        pass


def _sink_emit(_event: Any) -> None:
    """The no-subscriber emit: workers skip event construction entirely."""


def build_work_context(emit, cancel_signal, streaming: bool) -> WorkContext:
    """Assemble a worker-side :class:`WorkContext` from transport pieces.

    The one place the unobserved case is normalized (no subscriber → sink
    emit, ``streaming`` forced false) and the cancel signal is wired in, for
    the worker loop (:mod:`repro.worker`).
    """
    if not streaming or emit is None:
        return WorkContext(_sink_emit, cancel_signal, False)
    return WorkContext(emit, cancel_signal, True)


def run_streamed_task(
    fn: Callable,
    payload: Any,
    ctx: WorkContext,
    end_stream: Callable[[], None],
    *,
    context: Optional[Dict[str, Any]] = None,
):
    """Run one work function, guaranteeing its end-of-stream marker.

    The worker entry wraps the work function this way: run it, and —
    success or raise — close the event stream of a streaming task so the
    parent's drain wait can complete.  *end_stream* sends the marker (a
    ``task_end`` frame).

    Being the one seam every worker task passes through, local or remote,
    this is also where ``worker.task`` faults fire when a
    :mod:`repro.exec.faults` plan is active.  *context* carries whatever the
    transport knows about the task (id, name) for the plan's match clauses.
    """
    try:
        injector = faults.active()
        if injector is not None:
            # Inside the try so an injected task failure still closes the
            # stream — the parent's drain wait must never hang on a fault.
            injector.before_task(context or {})
        return fn(payload, ctx)
    finally:
        if ctx.streaming:
            end_stream()


# -------------------------------------------------------------- ordered merge
class OrderedEventMerger:
    """Merge per-key event streams into one deterministically ordered stream.

    The caller declares the key order up front (:meth:`expect`, called in the
    order keys must appear downstream).  Events delivered for the *head* key
    pass straight through to the downstream callback — that is what keeps the
    merged stream live; events for later keys buffer until every earlier key
    has ended.  :meth:`end` marks one key's stream complete and promotes the
    next key, flushing whatever it buffered meanwhile.  Producers whose end
    marker never arrives (expired or crashed tasks) are handled by
    :meth:`flush_pending`, which force-delivers everything still buffered in
    declared order.

    Thread-safe; the downstream callback runs under the merger lock, so
    delivery order is total even when transports route events from multiple
    threads.
    """

    def __init__(self, downstream: Callable[[Any], None]):
        self._downstream = downstream
        self._order: deque = deque()
        self._buffers: dict[Hashable, list] = {}
        self._ended: set = set()
        self._lock = threading.Lock()

    def expect(self, key: Hashable) -> None:
        """Declare the next key of the merged order."""
        with self._lock:
            self._order.append(key)
            self._buffers.setdefault(key, [])

    def deliver(self, key: Hashable, event: Any) -> None:
        """Route one event: straight through for the head key, else buffered."""
        with self._lock:
            if self._order and self._order[0] == key:
                self._downstream(event)
            elif key in self._buffers:
                self._buffers[key].append(event)
            # Unknown key: the producer was restarted or released — drop.

    def end(self, key: Hashable) -> None:
        """Mark *key*'s stream complete; promote and flush successors."""
        with self._lock:
            if key not in self._buffers:
                return
            self._ended.add(key)
            while self._order and self._order[0] in self._ended:
                head = self._order.popleft()
                self._ended.discard(head)
                self._buffers.pop(head, None)
                if self._order:
                    new_head = self._order[0]
                    for event in self._buffers.get(new_head, ()):
                        self._downstream(event)
                    self._buffers[new_head] = []

    def restart(self, key: Hashable) -> None:
        """Discard *key*'s buffered events (its producer is being retried).

        Only buffered events can be unwound; a head key's events already
        passed downstream, so a retried head producer re-delivers its prefix
        (at-least-once under crashes, exactly-once otherwise).
        """
        with self._lock:
            if key in self._buffers:
                self._buffers[key] = []
            self._ended.discard(key)

    def flush_pending(self) -> None:
        """Force-deliver everything still buffered, in declared key order."""
        with self._lock:
            while self._order:
                head = self._order.popleft()
                self._ended.discard(head)
                for event in self._buffers.pop(head, ()):
                    self._downstream(event)
