"""Table 1 — main results: Migrator on all 20 benchmarks.

For each benchmark the harness reports the same columns as the paper:
benchmark name, description, number of functions, source/target schema sizes,
number of value correspondences considered, number of sketch completions
explored, synthesis time (excluding verification) and total time.

With ``scheduler_workers > 1`` (CLI flag ``--scheduler-workers``) the
per-workload runs are submitted as tasks to the same shared
:class:`~repro.exec.WorkScheduler` that drives parallel sessions and the
migration service — benchmarks and service traffic share one executor
abstraction, and the whole table finishes in roughly the wall-clock of its
slowest workload.  Rows come back in the same deterministic presentation
order regardless of completion timing; per-run numbers are identical to the
sequential harness's because each workload still runs an unmodified
single-process synthesis inside its worker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.core.config import SynthesisConfig
from repro.core.synthesizer import Synthesizer
from repro.eval.reporting import render_table
from repro.workloads.registry import Benchmark, load_all

#: Presentation order: the paper lists textbook benchmarks first.
TABLE1_ORDER = [
    "Oracle-1",
    "Oracle-2",
    "Ambler-1",
    "Ambler-2",
    "Ambler-3",
    "Ambler-4",
    "Ambler-5",
    "Ambler-6",
    "Ambler-7",
    "Ambler-8",
    "cdx",
    "coachup",
    "2030Club",
    "rails-ecomm",
    "royk",
    "MathHotSpot",
    "gallery",
    "DeeJBase",
    "visible-closet",
    "probable-engine",
]


@dataclass
class Table1Row:
    benchmark: Benchmark
    succeeded: bool
    value_correspondences: int
    iterations: int
    synth_time: float
    total_time: float
    timed_out: bool = False

    def as_cells(self) -> list:
        stats = self.benchmark.stats()
        status = "ok" if self.succeeded else ("timeout" if self.timed_out else "FAIL")
        return [
            self.benchmark.name,
            self.benchmark.description,
            stats["functions"],
            f"{stats['source_tables']}/{stats['source_attrs']}",
            f"{stats['target_tables']}/{stats['target_attrs']}",
            self.value_correspondences,
            self.iterations,
            self.synth_time,
            self.total_time,
            status,
        ]


HEADERS = [
    "Benchmark",
    "Description",
    "Funcs",
    "Source T/A",
    "Target T/A",
    "ValueCorr",
    "Iters",
    "Synth(s)",
    "Total(s)",
    "Status",
]


def default_config(time_limit: Optional[float] = 600.0) -> SynthesisConfig:
    """The configuration used for Table 1 runs."""
    config = SynthesisConfig()
    config.time_limit = time_limit
    config.verifier_random_sequences = 50
    return config


def run_benchmark(benchmark: Benchmark, config: Optional[SynthesisConfig] = None) -> Table1Row:
    """Synthesize one benchmark and produce its Table 1 row."""
    config = config or default_config()
    synthesizer = Synthesizer(config)
    started = time.perf_counter()
    result = synthesizer.synthesize(benchmark.source_program, benchmark.target_schema)
    elapsed = time.perf_counter() - started
    return Table1Row(
        benchmark=benchmark,
        succeeded=result.succeeded,
        value_correspondences=result.value_correspondences_tried,
        iterations=result.iterations,
        synth_time=result.synthesis_time,
        total_time=elapsed,
        timed_out=result.timed_out,
    )


def benchmark_selection(names: Optional[Sequence[str]] = None) -> list[Benchmark]:
    registry = load_all()
    order = list(names) if names else TABLE1_ORDER
    return [registry.get(name) for name in order]


def _run_benchmark_task(payload, _ctx) -> Table1Row:
    """Scheduler work function: one Table 1 row inside a worker process.

    The benchmark is reloaded by name from the registry in the worker (the
    registry is deterministic), so the task payload stays a small
    ``(name, config)`` pickle instead of shipping program/schema objects.
    Per-run ``parallel_workers`` is forced to 0: the harness parallelizes
    *across* workloads, and nesting worker processes inside a scheduler
    worker is unsupported (and would oversubscribe the host) — the same
    rule the migration service applies to its jobs.
    """
    name, config = payload
    if config is not None and config.parallel_workers > 1:
        from dataclasses import replace

        config = replace(config, parallel_workers=0)
    return run_benchmark(load_all().get(name), config)


def _progress_line(row: Table1Row) -> str:
    return (
        f"  {row.benchmark.name:16s} -> {'ok' if row.succeeded else 'FAIL'} "
        f"VCs={row.value_correspondences} iters={row.iterations} "
        f"synth={row.synth_time:.1f}s total={row.total_time:.1f}s"
    )


def run_table1(
    names: Optional[Sequence[str]] = None,
    config: Optional[SynthesisConfig] = None,
    verbose: bool = True,
    scheduler_workers: int = 0,
) -> list[Table1Row]:
    """Run Migrator on the selected benchmarks and return the Table 1 rows.

    *scheduler_workers* > 1 fans the per-workload runs out over the shared
    :class:`~repro.exec.WorkScheduler` (one benchmark per worker-process
    task); rows return in presentation order either way.  If worker
    processes cannot be started the harness falls back to the sequential
    loop.
    """
    benchmarks = benchmark_selection(names)
    if scheduler_workers > 1:
        rows = _run_table1_scheduled(benchmarks, config, verbose, scheduler_workers)
        if rows is not None:
            return rows
        if verbose:
            print("  (worker processes unavailable; falling back to sequential runs)",
                  flush=True)
    rows = []
    for benchmark in benchmarks:
        row = run_benchmark(benchmark, config)
        rows.append(row)
        if verbose:
            print(_progress_line(row), flush=True)
    return rows


def _run_table1_scheduled(
    benchmarks: Sequence[Benchmark],
    config: Optional[SynthesisConfig],
    verbose: bool,
    workers: int,
) -> Optional[list[Table1Row]]:
    """Fan the table out over the shared scheduler; ``None`` = unavailable."""
    from repro.exec import ExecutorUnavailable, TaskState, WorkScheduler

    def started_line(name: str):
        if not verbose:
            return None
        return lambda _name=name: print(f"  {_name:16s} -> started", flush=True)

    with WorkScheduler(max_workers=workers) as scheduler:
        handles = [
            # priority=index keeps dispatch in presentation order, exactly
            # like parallel-session waves keep enumeration order.  The
            # on_start line is the live progress signal (per-row numbers
            # print in presentation order once the drain completes).
            scheduler.submit(
                _run_benchmark_task,
                (benchmark.name, config),
                priority=index,
                on_start=started_line(benchmark.name),
                name=benchmark.name,
            )
            for index, benchmark in enumerate(benchmarks)
        ]
        try:
            scheduler.drain()
        except ExecutorUnavailable:
            return None
        rows: list[Table1Row] = []
        for handle in handles:
            if handle.state is not TaskState.DONE:
                raise RuntimeError(
                    f"table1 run {handle.name!r} {handle.state.value}: {handle.error}"
                ) from handle.exception
            rows.append(handle.result)
            if verbose:
                print(_progress_line(handle.result), flush=True)
    return rows


def format_table1(rows: Iterable[Table1Row]) -> str:
    rows = list(rows)
    body = [row.as_cells() for row in rows]
    if rows:
        body.append(_average_row(rows))
    return render_table(HEADERS, body, title="Table 1: main synthesis results")


def _average_row(rows: Sequence[Table1Row]) -> list:
    count = len(rows)
    return [
        "Average",
        "-",
        round(sum(r.benchmark.num_functions for r in rows) / count, 1),
        "-",
        "-",
        round(sum(r.value_correspondences for r in rows) / count, 1),
        round(sum(r.iterations for r in rows) / count, 1),
        sum(r.synth_time for r in rows) / count,
        sum(r.total_time for r in rows) / count,
        f"{sum(1 for r in rows if r.succeeded)}/{count} ok",
    ]
