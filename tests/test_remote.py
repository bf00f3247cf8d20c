"""Distributed execution: wire framing, the remote fleet, and equivalence.

Layers under test, bottom up:

* :mod:`repro.exec.wire` — frame round-trips, torn/corrupt stream failures,
  handshake version checking (plain ``socketpair``, no processes);
* :class:`repro.exec.remote.RemoteFleet` + ``repro.worker`` — dispatch,
  ordered event streaming, failure propagation, cross-socket cancel, lease
  expiry → re-lease with exactly-once settlement (in-thread workers for the
  protocol tests, real killed subprocesses for the crash tests);
* cross-transport equivalence — a subprocess fleet must produce the same
  events and results as the direct transport and the forked local fleet on
  the pinned registry slice (all 20 benchmarks under ``REPRO_FULL_EQUIV=1``);
* the CI distributed smoke (``REPRO_DIST_SMOKE=1``): a 5-job service batch
  over a 2-worker fleet, one worker killed -9 mid-batch, trajectories
  pinned against the sequential service.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from remote_tasks import echo_task, failing_task, sleepy_task, stream_task
from repro.api import MigrationJob, MigrationService, RemoteFleet, SynthesisConfig
from repro.core.session import SynthesisSession
from repro.core.synthesizer import migrate
from repro.exec import ExecutorUnavailable, TaskState, WorkScheduler
from repro.exec import wire
from repro.exec.remote import FleetUnavailable, WorkerLost
from repro.lang.pretty import format_program
from repro.worker import WorkerAgent
from repro.workloads import benchmark_names, get_benchmark

ROOT = Path(__file__).resolve().parents[1]
WORKER_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
}


def _spawn_connect_worker(address: str, worker_id: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.worker", "--connect", address, "--id", worker_id],
        env=WORKER_ENV,
    )


def _spawn_listen_worker(worker_id: str) -> tuple[subprocess.Popen, str]:
    """Start a ``--listen 127.0.0.1:0`` worker; returns (process, address)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.worker", "--listen", "127.0.0.1:0", "--id", worker_id],
        env=WORKER_ENV,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = process.stdout.readline()
    assert "listening on " in line, f"worker banner missing: {line!r}"
    return process, line.strip().rpartition("listening on ")[2]


def _reap(*processes: subprocess.Popen) -> None:
    for process in processes:
        if process.poll() is None:
            process.kill()
        process.wait(timeout=10)


# ------------------------------------------------------------------- wire
class TestWire:
    def test_frame_round_trip(self):
        left, right = socket.socketpair()
        with left, right:
            payload = wire.dump_payload({"numbers": list(range(50))})
            wire.send_frame(left, {"type": "task", "task": 7}, payload)
            header, body = wire.recv_frame(right)
        assert header == {"type": "task", "task": 7}
        assert wire.load_payload(body) == {"numbers": list(range(50))}

    def test_control_frame_has_empty_payload(self):
        left, right = socket.socketpair()
        with left, right:
            wire.send_frame(left, {"type": "heartbeat"})
            header, body = wire.recv_frame(right)
        assert header["type"] == "heartbeat"
        assert body == b""

    def test_clean_close_raises_connection_closed(self):
        left, right = socket.socketpair()
        with right:
            left.close()
            with pytest.raises(wire.ConnectionClosed):
                wire.recv_frame(right)

    def test_torn_frame_raises_frame_error(self):
        left, right = socket.socketpair()
        with right:
            # A length prefix announcing more bytes than ever arrive.
            left.sendall(b"\x00\x00\x00\xff\x00\x00\x00\x00{")
            left.close()
            with pytest.raises(wire.FrameError) as excinfo:
                wire.recv_frame(right)
        assert not isinstance(excinfo.value, wire.ConnectionClosed)

    def test_oversized_announcement_fails_loudly(self):
        left, right = socket.socketpair()
        with left, right:
            left.sendall(b"\xff\xff\xff\xff\xff\xff\xff\xff")
            with pytest.raises(wire.FrameError, match="MAX_FRAME_BYTES"):
                wire.recv_frame(right)

    def test_non_json_header_raises(self):
        left, right = socket.socketpair()
        with left, right:
            body = b"not json"
            left.sendall(len(body).to_bytes(4, "big") + b"\x00\x00\x00\x00" + body)
            with pytest.raises(wire.FrameError, match="not JSON"):
                wire.recv_frame(right)

    def test_handshake_happy_path(self):
        left, right = socket.socketpair()
        with left, right:
            accepted = {}

            def coordinator():
                accepted.update(
                    wire.coordinator_accept(right, heartbeat_interval=0.5, lease_ttl=3.0)
                )

            thread = threading.Thread(target=coordinator)
            thread.start()
            welcome = wire.worker_hello(left, worker_id="w1", slots=2, pid=123)
            thread.join(timeout=5)
        assert accepted["worker"] == "w1"
        assert accepted["slots"] == 2
        assert welcome["heartbeat"] == 0.5
        assert welcome["lease"] == 3.0

    def test_handshake_version_mismatch_rejects_both_sides(self):
        left, right = socket.socketpair()
        with left, right:
            errors = []

            def coordinator():
                try:
                    wire.coordinator_accept(right, heartbeat_interval=1.0, lease_ttl=5.0)
                except wire.HandshakeError as error:
                    errors.append(error)

            thread = threading.Thread(target=coordinator)
            thread.start()
            wire.send_frame(
                left, {"type": "hello", "version": 999, "worker": "w1", "slots": 1}
            )
            with pytest.raises(wire.HandshakeError, match="version mismatch"):
                header, _ = wire.recv_frame(left)
                assert header["type"] == "reject"
                raise wire.HandshakeError(header["reason"])
            thread.join(timeout=5)
        assert errors and "version mismatch" in str(errors[0])

    def test_parse_address(self):
        assert wire.parse_address("example.org:9001") == ("example.org", 9001)
        assert wire.parse_address("9001") == ("127.0.0.1", 9001)
        assert wire.parse_address(":9001") == ("127.0.0.1", 9001)
        with pytest.raises(ValueError):
            wire.parse_address("example.org:http")


# -------------------------------------------------------------- wire fuzzing
def _frame_bytes(header: dict, payload: bytes = b"") -> bytes:
    """A valid frame as raw bytes (the format send_frame puts on the wire)."""
    body = json.dumps(header).encode("utf-8")
    return (
        len(body).to_bytes(4, "big")
        + len(payload).to_bytes(4, "big")
        + body
        + payload
    )


def _recv_mangled(data: bytes):
    """Feed *data* then EOF to ``recv_frame``; return its outcome.

    The receiving socket carries a hard timeout so a parser that waits for
    bytes that will never arrive fails the test instead of hanging it.
    """
    left, right = socket.socketpair()
    with left, right:
        right.settimeout(2.0)
        left.sendall(data)
        left.close()
        try:
            return ("frame", wire.recv_frame(right))
        except wire.FrameError as error:
            return ("error", error)


class TestWireFuzz:
    """Property tests: no mangled byte stream may hang or crash the framing.

    Every corruption must surface as the :class:`wire.FrameError` family
    (``ConnectionClosed`` included) or parse as a complete well-formed frame
    — never a hang (socket timeouts fail the test) and never an uncaught
    non-protocol exception.
    """

    SAMPLE = _frame_bytes(
        {"type": "task", "task": 3, "name": "fuzz"},
        b"x" * 64,
    )

    @given(cut=st.integers(min_value=0, max_value=len(SAMPLE) - 1))
    @settings(deadline=None, max_examples=50)
    def test_any_truncation_raises_frame_error(self, cut):
        outcome, value = _recv_mangled(self.SAMPLE[:cut])
        assert outcome == "error", f"truncation at {cut} produced {value!r}"

    @given(
        position=st.integers(min_value=0, max_value=len(SAMPLE) - 1),
        bit=st.integers(min_value=0, max_value=7),
    )
    @settings(deadline=None, max_examples=50)
    def test_single_bit_flip_never_hangs(self, position, bit):
        mangled = bytearray(self.SAMPLE)
        mangled[position] ^= 1 << bit
        outcome, value = _recv_mangled(bytes(mangled))
        if outcome == "frame":
            # A flip confined to the payload (or one that still decodes)
            # must yield a *complete* frame, never a partial read.
            header, body = value
            assert isinstance(header, dict)
            assert isinstance(body, bytes)
        else:
            assert isinstance(value, wire.FrameError)

    @given(
        json_length=st.integers(min_value=0, max_value=2**32 - 1),
        payload_length=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(deadline=None, max_examples=50)
    def test_announced_lengths_with_no_body_fail_loudly(
        self, json_length, payload_length
    ):
        assume(json_length + payload_length > 0)
        prefix = json_length.to_bytes(4, "big") + payload_length.to_bytes(4, "big")
        outcome, value = _recv_mangled(prefix)
        assert outcome == "error", (
            f"lengths ({json_length}, {payload_length}) with an empty body "
            f"produced {value!r}"
        )
        assert isinstance(value, wire.FrameError)


# ------------------------------------------------------------------ fleet
@pytest.fixture()
def fleet_with_thread_workers():
    """A listening fleet served by two in-process worker threads.

    In-thread workers speak the full wire protocol over real TCP sockets —
    everything except process isolation — which keeps the protocol tests
    fast and deterministic; the crash tests below use real processes.
    """
    fleet = RemoteFleet(listen="127.0.0.1:0", min_workers=2, start_timeout=15.0)
    host, port = wire.parse_address(fleet.bound_address)
    threads = []
    for index in range(2):
        agent = WorkerAgent(worker_id=f"thread-w{index}")
        thread = threading.Thread(
            target=agent.connect, args=(host, port), daemon=True
        )
        thread.start()
        threads.append(thread)
    try:
        yield fleet
    finally:
        fleet.close()
        for thread in threads:
            thread.join(timeout=5)


class TestRemoteFleet:
    def test_round_trip_and_results(self, fleet_with_thread_workers):
        fleet = fleet_with_thread_workers
        with WorkScheduler(fleet=fleet) as scheduler:
            handles = [
                scheduler.submit(echo_task, index, name=f"echo-{index}")
                for index in range(6)
            ]
            scheduler.drain()
        assert [handle.state for handle in handles] == [TaskState.DONE] * 6
        assert [handle.result for handle in handles] == [
            ("echo", index) for index in range(6)
        ]

    def test_event_streams_are_per_task_ordered(self, fleet_with_thread_workers):
        fleet = fleet_with_thread_workers
        streams: dict[int, list] = {}
        with WorkScheduler(fleet=fleet) as scheduler:
            for index in range(4):
                streams[index] = []
                scheduler.submit(
                    stream_task,
                    {"count": 5, "tag": index},
                    on_event=streams[index].append,
                    name=f"stream-{index}",
                )
            scheduler.drain()
        for index, events in streams.items():
            assert events == [("tick", index, tick) for tick in range(5)]

    def test_worker_exception_settles_failed(self, fleet_with_thread_workers):
        fleet = fleet_with_thread_workers
        with WorkScheduler(fleet=fleet) as scheduler:
            handle = scheduler.submit(failing_task, "payload", name="fails")
            scheduler.drain()
        assert handle.state is TaskState.FAILED
        assert isinstance(handle.exception, ValueError)
        assert "boom: payload" in handle.error

    def test_cancel_crosses_the_socket(self, fleet_with_thread_workers):
        fleet = fleet_with_thread_workers
        with WorkScheduler(fleet=fleet) as scheduler:
            handle = scheduler.submit(
                sleepy_task,
                10.0,
                name="sleeper",
                on_start=lambda: threading.Timer(0.3, handle.cancel).start(),
            )
            scheduler.drain()
        # The cooperative cancel reached the worker: the task *returned*
        # (DONE, reporting it saw the signal) instead of sleeping 10s.
        assert handle.state is TaskState.DONE
        assert handle.result == "cancelled"

    def test_unpicklable_payload_fails_only_that_task(self, fleet_with_thread_workers):
        fleet = fleet_with_thread_workers
        with WorkScheduler(fleet=fleet) as scheduler:
            bad = scheduler.submit(echo_task, threading.Lock(), name="unpicklable")
            good = scheduler.submit(echo_task, "fine", name="good")
            scheduler.drain()
        assert bad.state is TaskState.FAILED
        assert good.state is TaskState.DONE

    def test_close_joins_every_fleet_thread(self):
        """close() returns only once the monitor, accept and receiver
        threads have all exited.  The long heartbeat makes the monitor's
        scan period 30 s, which it used to sleep out past close()."""
        fleet = RemoteFleet(
            listen="127.0.0.1:0",
            min_workers=2,
            heartbeat_interval=30.0,
            lease_ttl=180.0,
            start_timeout=15.0,
        )
        host, port = wire.parse_address(fleet.bound_address)
        agents = [
            threading.Thread(
                target=WorkerAgent(worker_id=f"close-w{index}").connect,
                args=(host, port),
                daemon=True,
            )
            for index in range(2)
        ]
        for agent in agents:
            agent.start()
        try:
            with WorkScheduler(fleet=fleet) as scheduler:
                scheduler.submit(echo_task, 1, name="before-close")
                scheduler.drain()
            threads = list(fleet._threads)
        finally:
            fleet.close()
        names = {thread.name for thread in threads}
        assert {"repro-fleet-monitor", "repro-fleet-accept"} <= names
        assert sum(name.startswith("repro-fleet-recv-") for name in names) == 2
        assert [thread.name for thread in threads if thread.is_alive()] == []
        for agent in agents:
            agent.join(timeout=5)

    def test_link_is_visible_only_with_its_receiver_thread_recorded(self, monkeypatch):
        """A registered worker's receiver thread is recorded before the
        roster change that announces its link, so a close() woken by that
        change joins it.  Receiver threads here start slowly, which holds
        the window open that a racing close() used to fall into."""
        real_start = threading.Thread.start

        def slow_start(thread):
            if thread.name.startswith("repro-fleet-recv-"):
                time.sleep(0.3)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", slow_start)
        fleet = RemoteFleet(listen="127.0.0.1:0", min_workers=2, start_timeout=15.0)
        host, port = wire.parse_address(fleet.bound_address)
        agents = [
            threading.Thread(
                target=WorkerAgent(worker_id=f"race-w{index}").connect,
                args=(host, port),
                daemon=True,
            )
            for index in range(2)
        ]
        for agent in agents:
            agent.start()
        try:
            fleet.ensure_started()
            with fleet._lock:
                recorded = {thread.name for thread in fleet._threads}
                receivers = {f"repro-fleet-recv-{worker}" for worker in fleet._links}
        finally:
            fleet.close()
        assert len(receivers) == 2
        assert receivers <= recorded
        assert [t.name for t in fleet._threads if t.is_alive()] == []
        for agent in agents:
            agent.join(timeout=5)
            assert not agent.is_alive()

    def test_no_workers_surfaces_executor_unavailable(self):
        fleet = RemoteFleet(workers=["127.0.0.1:1"], start_timeout=0.5)
        try:
            with WorkScheduler(fleet=fleet) as scheduler:
                handle = scheduler.submit(echo_task, 1, name="never-runs")
                with pytest.raises(ExecutorUnavailable):
                    scheduler.drain()
            # The unwind leaves the task PENDING for an inline fallback.
            assert handle.state is TaskState.PENDING
        finally:
            fleet.close()

    def test_ensure_started_timeout_raises_fleet_unavailable(self):
        fleet = RemoteFleet(workers=["127.0.0.1:1"], start_timeout=0.3)
        try:
            with pytest.raises(FleetUnavailable):
                fleet.ensure_started()
        finally:
            fleet.close()


class TestLeaseRecovery:
    def test_kill9_mid_task_releases_and_releases_exactly_once(self):
        """A kill -9'd worker's lease is re-granted; settlement stays single."""

        class MemoryLog:
            def __init__(self):
                self.records = []

            def append(self, record):
                self.records.append(dict(record))

        log = MemoryLog()
        fleet = RemoteFleet(
            listen="127.0.0.1:0",
            min_workers=2,
            heartbeat_interval=0.2,
            lease_ttl=1.5,
            lease_log=log,
        )
        first = _spawn_connect_worker(fleet.bound_address, "kill-w0")
        second = _spawn_connect_worker(fleet.bound_address, "kill-w1")
        try:
            # Both workers must be registered before the kill timer arms, or
            # a slow interpreter start turns "killed mid-task" into "killed
            # before it ever joined" and the fleet never reaches min_workers.
            fleet.ensure_started()
            with WorkScheduler(fleet=fleet) as scheduler:
                handles = [
                    scheduler.submit(sleepy_task, 1.2, name=f"lease-{index}")
                    for index in range(2)
                ]
                threading.Timer(0.4, lambda: first.send_signal(signal.SIGKILL)).start()
                scheduler.drain()
            assert [handle.state for handle in handles] == [TaskState.DONE] * 2
            assert [handle.result for handle in handles] == ["slept"] * 2
            # Exactly one task was re-leased, charged one crash retry.
            assert sum(handle.retries for handle in handles) == 1
            assert scheduler.stats.task_retries == 1
            assert scheduler.stats.workers_lost == 1
            assert scheduler.stats.tasks_done == 2
            releases = [r for r in log.records if r["type"] == "released"]
            assert sorted(r["outcome"] for r in releases) == ["done", "done", "lost"]
            # The re-grant is journalled: the lost job has two leased lines,
            # the second to the surviving worker.
            lost_job = next(r["job"] for r in releases if r["outcome"] == "lost")
            grants = [
                r["worker"]
                for r in log.records
                if r["type"] == "leased" and r["job"] == lost_job
            ]
            assert len(grants) == 2 and grants[0] != grants[1]
        finally:
            fleet.close()
            _reap(first, second)

    def test_slow_subscriber_does_not_expire_a_streaming_worker(self):
        """Every frame renews the worker's liveness, not just heartbeats.

        The worker emits its whole stream at once; the subscriber takes
        longer than the lease TTL to drain it, so the worker's heartbeats
        queue behind the events.  The worker is busy, not silent.
        """
        fleet = RemoteFleet(
            listen="127.0.0.1:0", heartbeat_interval=0.1, lease_ttl=0.5, start_timeout=15.0
        )
        host, port = wire.parse_address(fleet.bound_address)
        agent = threading.Thread(
            target=WorkerAgent(worker_id="slow-sub-w0").connect, args=(host, port), daemon=True
        )
        agent.start()
        events: list = []

        def slow(event):
            time.sleep(0.02)
            events.append(event)

        try:
            with WorkScheduler(fleet=fleet) as scheduler:
                handle = scheduler.submit(
                    stream_task, {"count": 60, "tag": 0}, on_event=slow, name="slow-sub"
                )
                scheduler.drain()
        finally:
            fleet.close()
            agent.join(timeout=5)
        assert handle.state is TaskState.DONE
        assert events == [("tick", 0, tick) for tick in range(60)]
        assert scheduler.stats.workers_lost == 0

    def test_expire_revalidates_under_lock(self, fleet_with_thread_workers):
        """Regression: the monitor must not expire a renewed or closing link.

        ``_expire_link`` re-checks liveness and ``last_beat`` freshness under
        the fleet lock before committing the loss — a heartbeat landing
        between the monitor's scan and the expiry, or ``close()`` tearing the
        link down concurrently, must turn the expiry into a no-op.
        """
        fleet = fleet_with_thread_workers
        fleet.ensure_started()
        link = next(iter(fleet._links.values()))

        # Scan saw the link silent, but a heartbeat renews it before the
        # expire commits: the expiry must notice the fresh last_beat.
        link.last_beat = time.time() - 10 * fleet.lease_ttl
        fleet._apply_heartbeat(link)
        assert fleet._expire_link(link, "stale scan") is False
        assert not link.lost
        assert link.worker_id in fleet._links
        assert fleet.workers_lost == 0

        # A link already being closed (lost flag set) must not be expired
        # again — no double workers_lost, no double _fail_inflight.
        link.last_beat = time.time() - 10 * fleet.lease_ttl
        with fleet._lock:
            link.lost = True
        try:
            assert fleet._expire_link(link, "racing close") is False
            assert fleet.workers_lost == 0
        finally:
            with fleet._lock:
                link.lost = False
            link.last_beat = time.time()

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_lease_journal_replays_from_real_store_backends(self, tmp_path, backend):
        """The fleet's lease_log can be a real job store of either backend:
        the journal lands as replayable lease annotations in load_jobs()."""
        from repro.jobstore import JobStore, SQLiteJobStore

        if backend == "sqlite":
            store = SQLiteJobStore(tmp_path / "leases.sqlite", fsync=False)
        else:
            store = JobStore(tmp_path / "leases.jsonl", fsync=False)
        fleet = RemoteFleet(
            listen="127.0.0.1:0", min_workers=2, start_timeout=15.0, lease_log=store
        )
        host, port = wire.parse_address(fleet.bound_address)
        threads = []
        for index in range(2):
            agent = WorkerAgent(worker_id=f"lease-w{index}")
            thread = threading.Thread(
                target=agent.connect, args=(host, port), daemon=True
            )
            thread.start()
            threads.append(thread)
        try:
            with WorkScheduler(fleet=fleet) as scheduler:
                handles = [
                    scheduler.submit(echo_task, index, name=f"journal-{index}")
                    for index in range(3)
                ]
                scheduler.drain()
            assert [handle.state for handle in handles] == [TaskState.DONE] * 3
        finally:
            fleet.close()
            for thread in threads:
                thread.join(timeout=5)
        standings = store.load_jobs()
        store.close()
        for index in range(3):
            lease = standings[f"journal-{index}"].lease
            # Latest record wins: a clean run ends on the release.
            assert lease["type"] == "released" and lease["outcome"] == "done"
            assert lease["worker"].startswith("lease-w")

    def test_sigstop_expires_lease_without_connection_drop(self):
        """A silent (not dead) worker loses its lease at the TTL."""
        fleet = RemoteFleet(
            listen="127.0.0.1:0",
            min_workers=2,
            heartbeat_interval=0.15,
            lease_ttl=1.0,
        )
        stalled = _spawn_connect_worker(fleet.bound_address, "stall-w0")
        healthy = _spawn_connect_worker(fleet.bound_address, "stall-w1")
        try:
            # See the kill -9 test: registration first, then stall mid-task.
            fleet.ensure_started()
            with WorkScheduler(fleet=fleet) as scheduler:
                handles = [
                    scheduler.submit(sleepy_task, 0.8, name=f"stall-{index}")
                    for index in range(2)
                ]
                threading.Timer(
                    0.2, lambda: stalled.send_signal(signal.SIGSTOP)
                ).start()
                scheduler.drain()
            assert [handle.state for handle in handles] == [TaskState.DONE] * 2
            assert scheduler.stats.workers_lost == 1
            assert scheduler.stats.task_retries == 1
        finally:
            try:
                stalled.send_signal(signal.SIGCONT)
            except ProcessLookupError:
                pass
            fleet.close()
            _reap(stalled, healthy)


# ---------------------------------------------------- transport equivalence
QUICK_SLICE = ["Oracle-1", "Ambler-3", "Ambler-5"]


def _pin_config(**overrides) -> SynthesisConfig:
    """The determinism-pinned profile shared by the equivalence tests.

    ``parallel_wave_size=1`` + pooling off makes parallel trajectories a
    pure function of the enumeration order (see tests/test_session.py);
    the same pin makes the socket transport byte-comparable.
    """
    return SynthesisConfig(counterexample_pool=False, **overrides)


def _run_with_fleet(benchmark, addresses) -> tuple:
    events: list = []
    session = SynthesisSession(
        benchmark.source_program,
        benchmark.target_schema,
        _pin_config(execution_fleet=tuple(addresses), parallel_wave_size=1),
        on_event=events.append,
    )
    result = session.run()
    return result, events


def _assert_equivalent(name, sequential, seq_events, remote, remote_events):
    assert (sequential.program is None) == (remote.program is None), name
    if sequential.program is not None:
        assert format_program(sequential.program) == format_program(remote.program), name
    assert sequential.attempts == remote.attempts, name
    assert sequential.iterations == remote.iterations, name
    assert [type(e).__name__ for e in seq_events] == [
        type(e).__name__ for e in remote_events
    ], name


@pytest.fixture(scope="module")
def listen_workers():
    """Two subprocess ``--listen`` workers shared by the equivalence tests."""
    first, first_address = _spawn_listen_worker("equiv-w0")
    second, second_address = _spawn_listen_worker("equiv-w1")
    try:
        yield [first_address, second_address]
    finally:
        _reap(first, second)


class TestSocketTransportEquivalence:
    def test_socket_stream_matches_sequential_on_slice(self, listen_workers):
        for name in QUICK_SLICE:
            benchmark = get_benchmark(name)
            seq_events: list = []
            sequential = SynthesisSession(
                benchmark.source_program,
                benchmark.target_schema,
                _pin_config(),
                on_event=seq_events.append,
            ).run()
            remote, remote_events = _run_with_fleet(benchmark, listen_workers)
            _assert_equivalent(name, sequential, seq_events, remote, remote_events)
            assert remote.parallel_workers_used == 2, name
            assert remote.scheduler is not None, name
            assert remote.scheduler["workers_lost"] == 0, name

    def test_socket_matches_queue_transport(self, listen_workers):
        """The forked local fleet matches the subprocess fleet."""
        name = QUICK_SLICE[1]
        benchmark = get_benchmark(name)
        local_events: list = []
        local = SynthesisSession(
            benchmark.source_program,
            benchmark.target_schema,
            _pin_config(parallel_workers=2, parallel_wave_size=1),
            on_event=local_events.append,
        ).run()
        assert local.scheduler["workers_lost"] == 0
        remote, remote_events = _run_with_fleet(benchmark, listen_workers)
        _assert_equivalent(name, local, local_events, remote, remote_events)

    @pytest.mark.skipif(
        os.environ.get("REPRO_FULL_EQUIV", "") in ("", "0", "false"),
        reason="full 20-benchmark sweep only in scheduled CI (REPRO_FULL_EQUIV=1)",
    )
    def test_socket_stream_matches_sequential_all_benchmarks(self, listen_workers):
        for name in benchmark_names():
            benchmark = get_benchmark(name)
            seq_events: list = []
            sequential = SynthesisSession(
                benchmark.source_program,
                benchmark.target_schema,
                _pin_config(),
                on_event=seq_events.append,
            ).run()
            remote, remote_events = _run_with_fleet(benchmark, listen_workers)
            _assert_equivalent(name, sequential, seq_events, remote, remote_events)


# ------------------------------------------------------- distributed smoke
@pytest.mark.skipif(
    os.environ.get("REPRO_DIST_SMOKE", "") in ("", "0", "false"),
    reason="distributed smoke only in its dedicated CI job (REPRO_DIST_SMOKE=1)",
)
class TestDistributedSmoke:
    """The CI smoke: a 5-job fleet batch survives kill -9 with pinned output."""

    JOBS = ["Oracle-1", "Ambler-3", "Ambler-4", "MathHotSpot", "coachup"]

    def _jobs(self):
        batch = []
        for name in self.JOBS:
            benchmark = get_benchmark(name)
            batch.append(
                MigrationJob(
                    name=name,
                    source_program=benchmark.source_program,
                    target_schema=benchmark.target_schema,
                )
            )
        return batch

    @staticmethod
    def _comparable_response(response: dict) -> dict:
        result = dict(response["result"])
        for field in ("synthesis_time", "verification_time", "total_time"):
            result.pop(field, None)
        # Execution-shape fields legitimately differ across transports.
        result.pop("parallel_workers_used", None)
        result.pop("scheduler", None)
        result.pop("resilience", None)
        cache = dict(result.get("cache") or {})
        cache.pop("screening_time", None)
        # Cache *occupancy* is execution-shape too: a worker's shared source
        # cache holds entries for whichever other jobs it happened to run.
        cache.pop("source_cache_entries", None)
        cache.pop("source_cache_evictions", None)
        result["cache"] = cache
        return {"job": response["job"], "status": response["status"], "result": result}

    def test_five_job_batch_survives_kill9_with_pinned_trajectories(self, tmp_path):
        config = SynthesisConfig(counterexample_pool=False)
        sequential = MigrationService(default_config=config)
        sequential.submit_batch(self._jobs())
        sequential.run()
        baseline = {
            handle.job.name: self._comparable_response(handle.to_dict())
            for handle in sequential.handles
        }

        store = tmp_path / "smoke.jsonl"
        fleet = RemoteFleet(
            listen="127.0.0.1:0",
            min_workers=2,
            heartbeat_interval=0.2,
            lease_ttl=1.5,
        )
        first = _spawn_connect_worker(fleet.bound_address, "smoke-w0")
        second = _spawn_connect_worker(fleet.bound_address, "smoke-w1")
        killed = threading.Event()

        def kill_on_first_event(_job, _event):
            if not killed.is_set():
                killed.set()
                first.send_signal(signal.SIGKILL)

        try:
            with MigrationService(
                workers=fleet,
                job_store=str(store),
                default_config=config,
                on_event=kill_on_first_event,
            ) as service:
                handles = service.submit_batch(self._jobs())
                service.run()
            assert killed.is_set(), "the kill trigger never fired"
            assert fleet.workers_lost >= 1, "the killed worker was never declared lost"
            for handle in handles:
                assert handle.status.value == "done", handle.job.name
            distributed = {
                handle.job.name: self._comparable_response(handle.to_dict())
                for handle in handles
            }
            assert distributed == baseline
            # The lease journal shows the crash and the re-grant.
            records = [
                json.loads(line)
                for line in store.read_text().splitlines()
                if line.strip()
            ]
            outcomes = [r.get("outcome") for r in records if r["type"] == "released"]
            assert "lost" in outcomes
            lost_jobs = {
                r["job"]
                for r in records
                if r["type"] == "released" and r["outcome"] == "lost"
            }
            for job_name in lost_jobs:
                grants = [
                    r for r in records if r["type"] == "leased" and r["job"] == job_name
                ]
                assert len(grants) >= 2, f"{job_name} was never re-leased"
        finally:
            fleet.close()
            _reap(first, second)
