"""The ``server-loop`` workload: a closed loop of HTTP clients against the service.

The objects ``python -m repro.server`` boots — a :class:`ServiceFront` over
an SQLite job store with fsync on and ``max_workers=2``, behind the asyncio
HTTP front (:class:`ServerThread`) — run inside the benchmark process, so
the traced run can wrap the server, service, exec and job-store layers.
Synthesis itself runs in the service's worker processes; spans there are
out of scope.

Two clients each POST one job, read its SSE stream to ``job_settled`` and
only then submit the next (a closed loop).  Each round submits every
registry benchmark once, in an order the seed rotates (see
``job_sequence``), so every run submits the same multiset of jobs.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import random
import resource
import shutil
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import Optional

import spans

CLIENTS = 2
MAX_WORKERS = 2
#: Each job's config override (sent in the POST).  Without the final
#: verification pass a job's synthesis is about a third of its default
#: cost, so five rounds fit a run: more jobs per run average out which
#: jobs happen to share a service cycle, and the service layers, which this
#: workload exists for, take a larger share of each job's turnaround.
JOB_CONFIG = {"final_verification": False}
#: Reference-box wall seconds of one round (one job per registry benchmark);
#: ``--seconds`` becomes a fixed round count, as in ``suite.ROUND_SECONDS``.
ROUND_SECONDS = 6.0
#: Per-request socket timeout; a job that takes longer counts as failed.
HTTP_TIMEOUT = 120


@dataclass
class JobSample:
    index: int
    benchmark: str
    name: str = ""
    admit_s: float = 0.0
    first_event_s: Optional[float] = None
    turnaround_s: float = 0.0
    status: str = ""
    problem: str = ""
    #: Candidates the job's synthesis explored (from its settled result).
    candidates: int = 0
    #: ``time.perf_counter()`` at the POST and at ``job_settled``.
    started_at: float = 0.0
    ended_at: float = 0.0


@dataclass
class Server:
    front: object
    thread: object
    base: str
    store_dir: Path

    def stop(self) -> None:
        self.thread.stop()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def boot(store_dir: Path) -> Server:
    """Start the service front and wait until ``/healthz`` answers."""
    from repro.server import ServerThread, ServiceFront, TenantRegistry

    store_dir.mkdir(parents=True, exist_ok=True)
    front = ServiceFront(
        f"sqlite:{store_dir / 'jobs.sqlite'}",
        tenants=TenantRegistry(),
        max_workers=MAX_WORKERS,
        fsync=True,
    )
    thread = ServerThread(front).start()
    base = "http://%s:%d" % thread.address
    deadline = time.monotonic() + 30
    while True:
        try:
            with urllib.request.urlopen(base + "/healthz", timeout=5) as response:
                if response.status == 200:
                    break
        except OSError:
            if time.monotonic() > deadline:
                thread.stop()
                raise
            time.sleep(0.01)
    return Server(front, thread, base, store_dir)


def job_sequence(seed: int, rounds: int) -> list[str]:
    """Every registry benchmark once per round; the seed picks where it starts.

    The order is one fixed shuffle, rotated by the seed.  In the closed loop
    a job mostly waits for the service cycle of the job before it, so which
    benchmarks are neighbours sets the turnaround quartiles: a fresh
    shuffle per seed moved the median by 40% from seed to seed.  Rotation
    keeps the neighbours and changes which client meets which job.
    """
    from repro.workloads.registry import benchmark_names

    names = benchmark_names()
    random.Random(0).shuffle(names)
    start = seed % len(names)
    return (names[start:] + names[:start]) * rounds


def _post(base: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        base + "/jobs",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read() or b"{}")


def _follow(base: str, name: str, started: float, sample: JobSample) -> None:
    """Read the job's SSE stream to its ``job_settled`` frame."""
    request = urllib.request.Request(
        f"{base}/jobs/{name}/events", headers={"Last-Event-ID": "0"}
    )
    with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT) as response:
        kind = ""
        for raw in response:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("event: "):
                kind = line[7:]
                if sample.first_event_s is None:
                    sample.first_event_s = time.perf_counter() - started
            elif line.startswith("data: ") and kind == "job_settled":
                sample.status = json.loads(line[6:]).get("status", "")
                return
    sample.problem = "event stream ended before job_settled"


def _client(base: str, queue: list, lock: threading.Lock, samples: list) -> None:
    while True:
        with lock:
            if not queue:
                return
            index, benchmark = queue.pop(0)
        sample = JobSample(index, benchmark)
        started = sample.started_at = time.perf_counter()
        try:
            code, body = _post(
                base,
                {"benchmark": benchmark, "name_prefix": f"j{index:03d}-", "config": JOB_CONFIG},
            )
            sample.admit_s = time.perf_counter() - started
            if code != 202:
                sample.problem = f"POST /jobs answered {code}: {body}"
            else:
                (sample.name,) = body["submitted"]
                _follow(base, sample.name, started, sample)
        except (OSError, ValueError) as error:
            sample.problem = f"{type(error).__name__}: {error}"
        sample.ended_at = time.perf_counter()
        sample.turnaround_s = sample.ended_at - started
        with lock:
            samples.append(sample)


def closed_loop(server: Server, jobs: list[str]) -> tuple[float, float, list[JobSample]]:
    """Drive every job through the server; returns (start, end, samples)."""
    queue = list(enumerate(jobs))
    lock = threading.Lock()
    samples: list[JobSample] = []
    clients = [
        threading.Thread(target=_client, args=(server.base, queue, lock, samples))
        for _ in range(CLIENTS)
    ]
    started = time.perf_counter()
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    return started, time.perf_counter(), sorted(samples, key=lambda sample: sample.index)


def collect_programs(server: Server, samples: list[JobSample]) -> dict[str, Optional[str]]:
    """Each settled job's program text, read from its live handle."""
    from repro.lang.pretty import format_program

    programs = {}
    for sample in samples:
        handle = server.front.get_handle(sample.name) if sample.name else None
        result = getattr(handle, "result", None)
        program = getattr(result, "program", None)
        programs[sample.name] = format_program(program) if program is not None else None
        sample.candidates = getattr(result, "iterations", 0)
    return programs


# -------------------------------------------------------------- reference
def _reference_child(names: list[str], conn) -> None:
    from repro.core import SynthesisConfig, migrate
    from repro.lang.pretty import format_program
    from repro.workloads import get_benchmark

    out = {}
    for name in names:
        bench = get_benchmark(name)
        config = SynthesisConfig(**JOB_CONFIG)
        result = migrate(bench.source_program, bench.target_schema, config)
        out[name] = format_program(result.program) if result.program is not None else None
    conn.send(out)
    conn.close()


def source_digest(src: Path) -> str:
    """A hash of every source file of the package: the reference's cache key."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:24]


def reference_programs(names: list[str], cache_dir: Path, src: Path) -> dict[str, Optional[str]]:
    """Direct ``migrate()`` program text per benchmark.

    The texts are cached under *cache_dir*, keyed by a hash of the package
    source, so runs of one source tree compute each reference once.
    Missing ones are computed in forked children, after every server
    thread has stopped, so forking is safe.
    """
    key = hashlib.sha256(json.dumps(JOB_CONFIG, sort_keys=True).encode()).hexdigest()[:8]
    path = cache_dir / f"reference-{source_digest(src)}-{key}.json"
    cached = json.loads(path.read_text()) if path.is_file() else {}
    missing = sorted(set(names) - set(cached))
    if missing:
        cached.update(_compute_references(missing))
        cache_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(cached, sort_keys=True))
    return cached


def _compute_references(names: list[str]) -> dict[str, Optional[str]]:
    context = multiprocessing.get_context("fork")
    running = {}
    for slot in range(CLIENTS):
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(target=_reference_child, args=(names[slot::CLIENTS], sender))
        process.start()
        sender.close()
        running[receiver] = process
    programs: dict[str, Optional[str]] = {}
    while running:
        for receiver in wait(list(running)):
            process = running.pop(receiver)
            try:
                programs.update(receiver.recv())
            except EOFError:
                pass
            receiver.close()
            process.join()
    return programs


def check_jobs(
    samples: list[JobSample],
    programs: dict[str, Optional[str]],
    reference: dict[str, Optional[str]],
) -> list[str]:
    """One problem line per wrong job; sets each sample's ``problem``."""
    problems = []
    for sample in samples:
        if not sample.problem:
            text = programs.get(sample.name)
            if sample.status != "done":
                sample.problem = f"settled as {sample.status!r}"
            elif text is None:
                sample.problem = "no program"
            elif reference.get(sample.benchmark) is None:
                sample.problem = "direct migrate() found no program"
            elif text != reference[sample.benchmark]:
                sample.problem = "program differs from a direct migrate()"
        if sample.problem:
            problems.append(f"job {sample.index} ({sample.benchmark}): {sample.problem}")
    return problems


# ------------------------------------------------------------- the workload
@dataclass
class LoopRun:
    started: float
    ended: float
    samples: list[JobSample]
    programs: dict = field(default_factory=dict)
    trace: Optional[dict] = None
    #: The parent's RSS high-water mark when the loop ended, before the
    #: benchmark fetched the programs it checks.
    maxrss_kb: int = 0

    @property
    def wall(self) -> float:
        return self.ended - self.started


def _drive(server: Server, jobs: list[str], tracer: Optional[spans.Tracer] = None) -> LoopRun:
    """One closed loop over *jobs* on *server*, which is stopped afterwards."""
    try:
        if tracer is not None:
            tracer.active = True
        started, ended, samples = closed_loop(server, jobs)
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.active = False
        programs = collect_programs(server, samples)
    finally:
        server.stop()
    return LoopRun(started, ended, samples, programs, maxrss_kb=maxrss_kb)


def run(
    server: Server, seed: int, seconds: float, trace: bool, scratch: Path, cache_dir: Path, src: Path
) -> dict:
    """Measure one run on the already-booted *server* (its boot is set-up).

    An untraced run drives ``rounds`` rounds over the registry.
    A traced run drives one pass untraced on *server* and the same pass on
    a second, freshly booted server with the service layers wrapped; the
    overhead is the ratio of the two loops' wall times.
    """
    rounds = max(2, int(seconds // ROUND_SECONDS))
    jobs = job_sequence(seed, 1 if trace else rounds)
    loops = [_drive(server, jobs)]
    if trace:
        tracer = spans.Tracer()
        spans.install_service_hooks(tracer)
        try:
            traced = _drive(boot(scratch / "traced"), jobs, tracer)
        finally:
            tracer.uninstall()
        traced.trace = {"spans": tracer.spans, "counts": dict(tracer.counts)}
        loops.append(traced)
    reference = reference_programs(jobs, cache_dir, src)
    problems = []
    for loop in loops:
        problems.extend(check_jobs(loop.samples, loop.programs, reference))
    return {"loops": loops, "problems": problems, "maxrss_kb": loops[0].maxrss_kb}
