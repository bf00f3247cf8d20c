"""Server-sent-events bridge: sync session events → asyncio SSE streams.

The synthesis stack delivers typed session events via *synchronous*
``on_event`` callbacks on whatever thread runs the job.  The server turns
that into any number of concurrent ``GET /jobs/{id}/events`` SSE responses
through :class:`EventHub`:

* every published event gets a **per-job monotonic sequence number** and is
  persisted to the job store (``record_event``) *before* fan-out, so the
  stream is replayable: ``Last-Event-ID: N`` (or ``?after=N``) resumes
  gap-free from the store, across client reconnects and even across server
  restarts when the store survives (the hub re-seeds its counters from
  ``last_event_seq``);
* live fan-out crosses into asyncio via ``loop.call_soon_threadsafe`` into
  per-subscriber **bounded** ``asyncio.Queue``\\ s with shed-and-count
  backpressure: a consumer that stops reading sheds its *own* oldest events
  (counted on the subscription) instead of stalling the publishing thread
  or other subscribers — and because every event is in the store first, a
  shed subscriber heals the gap by re-reading from its last seen id.
  (Shedding is safe here only because of that store; the worker transport
  behind the publisher sheds nothing.)

Frame shape (one event)::

    id: 7
    event: vc_selected
    data: {"kind": "vc_selected", "index": 3, "weight": 2}

The stream ends with the synthetic ``job_settled`` event the app publishes
when a job reaches a terminal status.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
from typing import Any, Optional

#: Bound of one subscriber's bridge queue.
DEFAULT_SUBSCRIBER_QUEUE = 256

#: The synthetic terminal SSE event kind (not a session event: the service
#: publishes it when the job's handle settles, result snapshot attached).
JOB_SETTLED_KIND = "job_settled"


def jsonable(value: Any) -> Any:
    """Best-effort JSON projection of one event field.

    Typed events may carry domain objects (an ``InvocationSequence``
    counterexample, say); the SSE stream is observability, not an
    interchange format, so non-JSON values degrade to ``repr`` strings
    rather than failing the stream.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    return repr(value)


def event_payload(event: Any) -> dict:
    """Project one typed session event to its JSON payload (kind + fields)."""
    if isinstance(event, dict):
        return {str(key): jsonable(value) for key, value in event.items()}
    payload = {"kind": getattr(event, "kind", type(event).__name__)}
    if dataclasses.is_dataclass(event):
        for field in dataclasses.fields(event):
            payload[field.name] = jsonable(getattr(event, field.name))
    return payload


def format_frame(seq: int, payload: dict) -> bytes:
    """One SSE frame: ``id`` is the per-job sequence number."""
    kind = payload.get("kind", "event")
    data = json.dumps(payload, sort_keys=True)
    return f"id: {seq}\nevent: {kind}\ndata: {data}\n\n".encode("utf-8")


class Subscription:
    """One SSE client's bounded bridge queue.

    Items are ``(seq, payload)`` tuples.  ``push`` (loop thread only) sheds
    the oldest queued event when full — counting the shed on ``dropped`` —
    because a live stream must prefer fresh events; the consumer detects
    the resulting seq gap and heals it from the store.
    """

    def __init__(self, job_name: str, *, maxsize: int = DEFAULT_SUBSCRIBER_QUEUE):
        self.job_name = job_name
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=maxsize)
        self.dropped = 0

    def push(self, seq: int, payload: dict) -> None:
        while True:
            try:
                self.queue.put_nowait((seq, payload))
                return
            except asyncio.QueueFull:
                try:
                    self.queue.get_nowait()
                    self.dropped += 1
                except asyncio.QueueEmpty:  # pragma: no cover - single-threaded loop
                    pass


class EventHub:
    """Per-job event sequencing, persistence, and asyncio fan-out."""

    def __init__(self, store: Any, loop: asyncio.AbstractEventLoop):
        self._store = store
        self._loop = loop
        self._lock = threading.Lock()
        self._seqs: dict[str, int] = {}
        self._subscribers: dict[str, list[Subscription]] = {}

    # ------------------------------------------------------------- publishing
    def next_seq(self, job_name: str) -> int:
        """Allocate the next per-job sequence number (store-seeded once)."""
        with self._lock:
            seq = self._seqs.get(job_name)
            if seq is None:
                # First event after (re)boot: continue where the persisted
                # stream left off so ids stay monotonic across restarts.
                seq = self._store.last_event_seq(job_name)
            seq += 1
            self._seqs[job_name] = seq
            return seq

    def publish(self, job_name: str, event: Any) -> int:
        """Sequence, persist, then fan out one event.  Any thread.

        Persist-before-fanout is the replay guarantee: an SSE client that
        misses the live delivery (shed, disconnected, not yet subscribed)
        finds the event in the store under an id ≤ everything it sees next.
        """
        payload = event_payload(event)
        seq = self.next_seq(job_name)
        self._store.record_event(job_name, seq, payload)
        self._loop.call_soon_threadsafe(self._fanout, job_name, seq, payload)
        return seq

    def _fanout(self, job_name: str, seq: int, payload: dict) -> None:
        for subscription in self._subscribers.get(job_name, ()):  # loop thread
            subscription.push(seq, payload)

    # ------------------------------------------------------------ subscribing
    def subscribe(
        self, job_name: str, *, maxsize: int = DEFAULT_SUBSCRIBER_QUEUE
    ) -> Subscription:
        """Register a live subscriber (call from the loop thread)."""
        subscription = Subscription(job_name, maxsize=maxsize)
        self._subscribers.setdefault(job_name, []).append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Release one subscriber's bridge queue (loop thread)."""
        bucket = self._subscribers.get(subscription.job_name)
        if bucket is None:
            return
        try:
            bucket.remove(subscription)
        except ValueError:
            pass
        if not bucket:
            del self._subscribers[subscription.job_name]

    def subscriber_count(self, job_name: str) -> int:
        return len(self._subscribers.get(job_name, ()))

    # ---------------------------------------------------------------- history
    def history(self, job_name: str, *, after: int = 0) -> list[tuple[int, dict]]:
        """The persisted stream with ``seq > after`` (replay / gap healing)."""
        return self._store.load_events(job_name, after=after)
