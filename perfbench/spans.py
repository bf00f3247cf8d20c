"""In-memory span tracing installed from the benchmark's own code.

The benchmark never edits ``src/``: it wraps the public entry point of each
layer (a class attribute, so every import style sees the wrapper) and
records one span per call — name, start, end, parent span and job id —
into a list kept in memory and written out when the run ends.

Hot entry points are counted, not timed: ``ProgramCompiler.compile_program``
runs about 350k times per ``migrate-suite`` pass, so only its calls are
counted and ``engine.compile_s`` times the cache misses that actually
compile (``_FunctionCompiler.compile_function``).

A layer's self time is its spans' duration minus the time covered by their
direct child spans (children nest inside their parent on the same thread,
so they never overlap each other).
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    """Spans and counters of one process; ``active`` gates recording."""

    def __init__(self):
        #: ``[name, start, end, parent_index, job]`` per span, in start order.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = None
        self.active = False
        #: The statistics objects of testers and source-output caches built
        #: while active; the objects themselves are not kept alive.
        self.tester_stats: list = []
        self.source_cache_stats: list = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, span: str | None, on_result=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper (undone by ``uninstall``).

        *span* ``None`` counts calls only.  *on_result(tracer, self, result)*
        derives further counts from the call's return value.
        """
        original = owner.__dict__[attr]
        tracer = self

        if span is None:

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                if tracer.active:
                    tracer.counts[attr] += 1
                    if on_result is not None:
                        on_result(tracer, args[0] if args else None, result)
                return result

        else:

            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                stack = tracer._stack()
                index = len(tracer.spans)
                record = [span, time.perf_counter(), None, stack[-1] if stack else -1, tracer.job]
                tracer.spans.append(record)
                stack.append(index)
                try:
                    result = original(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    stack.pop()
                if on_result is not None:
                    on_result(tracer, args[0] if args else None, result)
                return result

        wrapper.__wrapped__ = original
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def self_times(spans: list) -> dict[str, float]:
    """Self seconds per span name."""
    child_time = defaultdict(float)
    for _name, start, end, parent, _job in spans:
        if parent >= 0 and end is not None:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent, _job) in enumerate(spans):
        if end is not None:
            out[name] += (end - start) - child_time.get(index, 0.0)
    return dict(out)


# ------------------------------------------------------------ layer hooks
def _count_vc(tracer, _self, result):
    if result is not None:
        tracer.counts["correspondence.vcs"] += 1


def _count_sketch(tracer, _self, sketch):
    tracer.counts["sketchgen.sketches"] += 1
    tracer.counts["sketchgen.holes"] += len(sketch.holes())


def _count_candidates(tracer, _self, result):
    tracer.counts["completion.candidates"] += result.statistics.iterations


def _count_verify(tracer, _self, verdict):
    tracer.counts["equivalence.verify_sequences"] += verdict.sequences_checked


def _register_cache(tracer, cache, _result):
    tracer.source_cache_stats.append(cache.stats)


def source_cache_totals(tracer: Tracer) -> tuple[int, int]:
    """(hits, lookups) over every source-output cache built while active."""
    hits = sum(stats.hits for stats in tracer.source_cache_stats)
    misses = sum(stats.misses for stats in tracer.source_cache_stats)
    return hits, hits + misses


def install_count_hooks(tracer: Tracer) -> None:
    """Count-only hooks behind each input's row; cheap enough for untraced runs.

    They sit on entry points entered once per run or per accepted candidate,
    never on the per-sequence paths.
    """
    from repro.equivalence.tester import BoundedTester
    from repro.equivalence.verifier import BoundedVerifier

    tracer.wrap(BoundedTester, "__init__", None, _register_tester)
    tracer.wrap(BoundedVerifier, "verify", None, _count_verify)


def _register_tester(tracer, tester, _result):
    tracer.tester_stats.append(tester.stats)


def install_synthesis_hooks(tracer: Tracer) -> None:
    """Spans around the synthesis layers (``migrate()`` and below)."""
    from repro.completion.encoder import SketchEncoder
    from repro.completion.solver import SketchCompleter
    from repro.correspondence.enumerator import ValueCorrespondenceEnumerator
    from repro.engine.compiler import ProgramCompiler, _FunctionCompiler
    from repro.equivalence.tester import BoundedTester
    from repro.equivalence.verifier import BoundedVerifier
    from repro.sat.solver import SatSolver
    from repro.sketchgen.generator import SketchGenerator
    from repro.testing_cache.pool import CounterexamplePool
    from repro.testing_cache.source_cache import SourceOutputCache

    tracer.wrap(ValueCorrespondenceEnumerator, "__init__", "correspondence")
    tracer.wrap(ValueCorrespondenceEnumerator, "next_value_corr", "correspondence", _count_vc)
    tracer.wrap(SketchGenerator, "generate", "sketchgen", _count_sketch)
    tracer.wrap(SketchCompleter, "complete", "completion", _count_candidates)
    tracer.wrap(SketchEncoder, "encode", "completion.encode")
    tracer.wrap(SatSolver, "solve", "sat")
    tracer.wrap(BoundedTester, "find_failing_input", "equivalence.test")
    tracer.wrap(BoundedVerifier, "verify", "equivalence.verify")
    tracer.wrap(CounterexamplePool, "screen", "testing_cache.screen")
    tracer.wrap(CounterexamplePool, "screen_batch", "testing_cache.screen")
    tracer.wrap(SourceOutputCache, "__init__", None, _register_cache)
    tracer.wrap(_FunctionCompiler, "compile_function", "engine.compile")
    tracer.wrap(ProgramCompiler, "compile_program", None)


def install_service_hooks(tracer: Tracer) -> None:
    """Spans around the service-front layers that run in the server parent."""
    from repro.exec.scheduler import WorkScheduler
    from repro.jobstore.sqlite import SQLiteJobStore
    from repro.server.sse import EventHub
    from repro.service import MigrationService

    tracer.wrap(EventHub, "publish", "server.publish")
    tracer.wrap(MigrationService, "run", "service.run")
    tracer.wrap(WorkScheduler, "__init__", "exec.build")
    tracer.wrap(WorkScheduler, "drain", "exec.drain")
    tracer.wrap(SQLiteJobStore, "append", "jobstore.append")
    for attr in ("load_jobs", "query_jobs", "load_events", "last_event_seq"):
        tracer.wrap(SQLiteJobStore, attr, "jobstore.query")


# ---------------------------------------------------------------- metrics
#: Every per-layer metric, with its unit; each traced run reports all of
#: them (0 where the workload never enters the layer).
PER_LAYER_UNITS = {
    "correspondence.self_s": "s",
    "correspondence.vcs": "count",
    "sketchgen.self_s": "s",
    "sketchgen.sketches": "count",
    "sketchgen.holes": "count",
    "completion.self_s": "s",
    "completion.encode_s": "s",
    "completion.candidates": "count",
    "sat.self_s": "s",
    "sat.solves": "count",
    "equivalence.test_self_s": "s",
    "equivalence.tests": "count",
    "equivalence.verify_self_s": "s",
    "equivalence.verifies": "count",
    "equivalence.verify_sequences": "count",
    "testing_cache.screen_s": "s",
    "testing_cache.screened": "count",
    "testing_cache.pool_hit_ratio": "ratio",
    "testing_cache.source_cache_hit_ratio": "ratio",
    "engine.compile_s": "s",
    "engine.compile_calls": "count",
    "engine.compile_hit_ratio": "ratio",
    "server.admit_p50_s": "s",
    "server.first_event_p50_s": "s",
    "server.publish_s": "s",
    "server.events": "count",
    "service.cycles": "count",
    "service.jobs_per_cycle": "ratio",
    "exec.drain_s": "s",
    "exec.schedulers_built": "count",
    "jobstore.append_s": "s",
    "jobstore.appends": "count",
    "jobstore.query_s": "s",
    "failed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list, counts: Counter, extra: dict) -> dict[str, float]:
    """The per-layer metric values from one traced run's spans and counts.

    *extra* carries what the spans cannot see: result counters (pool hits,
    compiler and source-cache hits), client-side latencies and the
    workload's failure and overhead figures.
    """
    self_s = self_times(spans)
    calls = Counter(record[0] for record in spans)
    values = {
        "correspondence.self_s": self_s.get("correspondence", 0.0),
        "correspondence.vcs": counts["correspondence.vcs"],
        "sketchgen.self_s": self_s.get("sketchgen", 0.0),
        "sketchgen.sketches": counts["sketchgen.sketches"],
        "sketchgen.holes": counts["sketchgen.holes"],
        "completion.self_s": self_s.get("completion", 0.0),
        "completion.encode_s": self_s.get("completion.encode", 0.0),
        "completion.candidates": counts["completion.candidates"],
        "sat.self_s": self_s.get("sat", 0.0),
        "sat.solves": calls["sat"],
        "equivalence.test_self_s": self_s.get("equivalence.test", 0.0),
        "equivalence.tests": calls["equivalence.test"],
        "equivalence.verify_self_s": self_s.get("equivalence.verify", 0.0),
        "equivalence.verifies": calls["equivalence.verify"],
        "equivalence.verify_sequences": counts["equivalence.verify_sequences"],
        "testing_cache.screen_s": self_s.get("testing_cache.screen", 0.0),
        "testing_cache.screened": calls["testing_cache.screen"],
        "testing_cache.pool_hit_ratio": _ratio(
            extra.get("pool_hits", 0), extra.get("candidates_screened", 0)
        ),
        "testing_cache.source_cache_hit_ratio": _ratio(
            extra.get("source_cache_hits", 0), extra.get("source_cache_lookups", 0)
        ),
        "engine.compile_s": self_s.get("engine.compile", 0.0),
        "engine.compile_calls": counts["compile_program"],
        "engine.compile_hit_ratio": _ratio(
            extra.get("compiled_function_hits", 0),
            extra.get("compiled_function_hits", 0) + extra.get("compiled_function_misses", 0),
        ),
        "server.admit_p50_s": _median(extra.get("admit_s", [])),
        "server.first_event_p50_s": _median(extra.get("first_event_s", [])),
        "server.publish_s": self_s.get("server.publish", 0.0),
        "server.events": calls["server.publish"],
        "service.cycles": calls["service.run"],
        "service.jobs_per_cycle": _ratio(extra.get("jobs", 0), calls["service.run"]),
        "exec.drain_s": self_s.get("exec.drain", 0.0),
        "exec.schedulers_built": calls["exec.build"],
        "jobstore.append_s": self_s.get("jobstore.append", 0.0),
        "jobstore.appends": calls["jobstore.append"],
        "jobstore.query_s": self_s.get("jobstore.query", 0.0),
        "failed_frac": extra["failed_frac"],
        "trace.overhead_frac": extra["overhead_frac"],
    }
    return {name: float(values[name]) for name in PER_LAYER_UNITS}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
