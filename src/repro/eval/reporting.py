"""Plain-text table rendering for the evaluation harness.

The harness prints the same rows the paper's tables report, in a fixed-width
layout, and can additionally emit machine-readable dictionaries for the
benchmark suite and EXPERIMENTS.md generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence


def render_table(headers: Sequence[str], rows: Iterable[Sequence[Any]], title: str = "") -> str:
    """Render a fixed-width text table."""
    materialized = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(format_row(list(headers)))
    lines.append(format_row(["-" * w for w in widths]))
    for row in materialized:
        lines.append(format_row(row))
    return "\n".join(lines)


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    if value is None:
        return "-"
    return str(value)


def render_markdown_table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Render a GitHub-flavoured markdown table (used for EXPERIMENTS.md)."""
    lines = ["| " + " | ".join(headers) + " |", "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(_format_cell(cell) for cell in row) + " |")
    return "\n".join(lines)


def speedup(baseline_time: float | None, our_time: float, timed_out: bool) -> str:
    """Format a speed-up cell in the style of Tables 2 and 3."""
    if baseline_time is None or our_time <= 0:
        return "-"
    prefix = ">" if timed_out else ""
    return f"{prefix}{baseline_time / max(our_time, 1e-9):.1f}x"


CACHE_HEADERS = [
    "Benchmark",
    "Strategy",
    "PoolHits",
    "Screened",
    "HitRate",
    "FullTests(pool)",
    "FullTests(off)",
    "SeqSaved(est)",
    "Screen(s)",
    "SrcCacheHits",
]


def cache_summary_row(name: str, strategy: str, with_pool, without_pool) -> list:
    """One row of the incremental-testing report (see bench_cache.py).

    *with_pool* / *without_pool* are the ``TestingCacheStats`` of an A/B pair
    of synthesis runs over the same benchmark.
    """
    return [
        name,
        strategy,
        with_pool.pool_hits,
        with_pool.candidates_screened,
        f"{with_pool.hit_rate:.0%}",
        with_pool.candidates_fully_tested,
        without_pool.candidates_fully_tested,
        with_pool.sequences_saved_estimate,
        # Pre-formatted: screening is typically well under the 0.1s that the
        # generic one-decimal float cell could resolve.
        f"{with_pool.screening_time:.3f}",
        with_pool.source_cache_hits,
    ]


def render_cache_report(rows: Iterable[Sequence[Any]]) -> str:
    """Render the pool/cache A/B comparison table."""
    return render_table(
        CACHE_HEADERS, rows, title="Incremental testing: counterexample pool A/B"
    )


ENGINE_HEADERS = [
    "Benchmark",
    "Sequences",
    "Interp(seq/s)",
    "Compiled(seq/s)",
    "Speedup",
    "Compile(ms)",
]


def engine_summary_row(
    name: str,
    sequences: int,
    interp_per_sec: float,
    compiled_per_sec: float,
    compile_ms: float,
) -> list:
    """One row of the execution-backend A/B report (see bench_engine.py)."""
    return [
        name,
        sequences,
        f"{interp_per_sec:,.0f}",
        f"{compiled_per_sec:,.0f}",
        f"{compiled_per_sec / max(interp_per_sec, 1e-9):.2f}x",
        f"{compile_ms:.2f}",
    ]


def render_engine_report(rows: Iterable[Sequence[Any]]) -> str:
    """Render the per-backend throughput table."""
    return render_table(ENGINE_HEADERS, rows, title="Execution engine: interpreter vs compiled")


SERVICE_HEADERS = [
    "Job",
    "Status",
    "VCs",
    "Iters",
    "Synth(s)",
    "Total(s)",
    "PoolHits",
    "SrcCacheHits",
    "CompiledHits",
]


def service_summary_row(response: dict) -> list:
    """One row of the migration-service report.

    *response* is a ``JobHandle.to_dict()`` payload — the same JSON-ready
    shape (built on ``SynthesisResult.to_dict``) that service deployments
    return, so the eval harness and the service share one serialization.
    """
    result = response.get("result") or {}
    cache = result.get("cache") or {}
    return [
        response.get("job", "?"),
        result.get("status", response.get("status", "?")),
        result.get("value_correspondences_tried"),
        result.get("iterations"),
        result.get("synthesis_time"),
        result.get("total_time"),
        cache.get("pool_hits"),
        cache.get("source_cache_hits"),
        # Compiled-closure reuse (cross-job sharing shows up as hits well
        # above a cold run's); absent on pre-1.1 payloads.
        cache.get("compiled_function_hits"),
    ]


def render_service_report(responses: Iterable[dict], title: str = "Migration service batch") -> str:
    """Render a batch of service job responses as a fixed-width table."""
    return render_table(SERVICE_HEADERS, [service_summary_row(r) for r in responses], title=title)


SCHEDULER_HEADERS = [
    "Submitted",
    "Done",
    "Failed",
    "Cancelled",
    "Expired",
    "Retries",
    "Quarantined",
    "Degraded",
    "WorkersLost",
]


def _stat(stats, name: str, default=0):
    """Counter lookup over both stats shapes.

    Accepts a live :class:`~repro.exec.SchedulerStats` *and* the plain-dict
    form ``SynthesisResult.to_dict`` ships (``result["scheduler"]``), so the
    same report renders from a running scheduler or a serialized result.
    """
    if isinstance(stats, dict):
        return stats.get(name, default)
    return getattr(stats, name, default)


def scheduler_summary_row(stats) -> list:
    """One row summarizing a :class:`~repro.exec.SchedulerStats` (or its dict).

    Covers the task-lifecycle counters and the crash-recovery counters
    (retries, poison-task quarantines, degradation-ladder steps, workers
    lost).
    """
    return [
        _stat(stats, "tasks_submitted"),
        _stat(stats, "tasks_done"),
        _stat(stats, "tasks_failed"),
        _stat(stats, "tasks_cancelled"),
        _stat(stats, "tasks_expired"),
        _stat(stats, "task_retries"),
        _stat(stats, "tasks_quarantined"),
        _stat(stats, "degradations"),
        _stat(stats, "workers_lost"),
    ]


def render_scheduler_report(stats, title: str = "Work scheduler") -> str:
    """Render one scheduler's lifetime counters as a fixed-width table."""
    return render_table(SCHEDULER_HEADERS, [scheduler_summary_row(stats)], title=title)
