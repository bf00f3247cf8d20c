"""The repository benchmark: one command, three workloads, every metric by name.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload migrate-suite --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``migrate-suite`` — default ``migrate()`` over the 20 registry benchmarks
  plus a seeded corpus slice, each repeat in a fresh process;
* ``enum-search`` — Table 3's enumerative completer at a fixed candidate cap
  on the four benchmarks it cannot finish;
* ``server-loop`` — a closed loop of 2 HTTP clients against the service
  front (SQLite store, fsync on, 2 workers).

Every output is checked before a number counts (sqlite3 oracle replay, exact
candidate caps, server programs equal to direct ``migrate()`` runs).  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from spans recorded by this directory's own wrappers)
with ``--trace 1``.  Spans and per-input count rows are written under
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import time

PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("migrate-suite", "enum-search", "server-loop")

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "candidates_per_s": "1/s",
    "jobs_per_s": "1/s",
    "turnaround_p50_s": "s",
    "turnaround_p75_s": "s",
    "peak_rss_mb": "MB",
}

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _prepare_environment() -> None:
    """Import the package from this checkout; keep bytecode out of the tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC}; run from a full checkout")
    cache = str(ROOT / ".bench_build" / "pycache")
    sys.pycache_prefix = cache
    os.environ["PYTHONPYCACHEPREFIX"] = cache
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )


# ------------------------------------------------------------------ set-up
def setup(workload: str, seed: int, scratch: Path):
    """Everything before the first timed operation; returns the prepared state."""
    if workload == "server-loop":
        import serverloop
        from repro.workloads.registry import load_all

        load_all().all()
        return serverloop.boot(scratch / "server")
    import suite
    import repro.core  # noqa: F401  (imported here, not on a child's clock)

    return suite.build_inputs(workload, seed)


def teardown(workload: str, state) -> None:
    if workload == "server-loop":
        state.stop()


def measure_setups(args) -> list[tuple[float, float]]:
    """(start, ready) of fresh set-up processes, from launch to ``ready``."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
        child.wait(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up process failed ({child.returncode}): {line!r}")
        intervals.append((started, ready))
    return intervals


# ----------------------------------------------------------------- metrics
def _quartiles(values: list[float]) -> tuple[float, float]:
    """(median, 75th percentile) of *values*."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[1], q[2]


def suite_result(raw: dict, probes, setup_s: float, trace: bool) -> tuple[dict, dict]:
    import spans
    import suite

    samples = raw["samples"] = suite.samples(raw, probes)
    # An input whose child crashed has no samples; the run is already wrong.
    cold = {name: min(s["cold"]) for name, s in samples.items() if s["cold"]}
    warm = {name: min(s["warm"]) for name, s in samples.items() if s["warm"]}
    cold_s = sum(cold.values())
    warm_s = sum(warm.values())
    # Rates and quartiles over the fixed (registry) inputs only: one seeded
    # corpus input can need 13 candidates where the rest need 1, or sit at a
    # quartile, which would move these figures from seed to seed.
    fixed = {name: v for name, v in cold.items() if name not in raw["seeded"]}
    candidates = sum(raw["rows"][f"{name}/cold"]["candidates"] for name in fixed)
    p50, p75 = _quartiles(sorted(fixed.values()))
    end_to_end = {
        "setup_s": setup_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "candidates_per_s": candidates / sum(fixed.values()),
        "jobs_per_s": len(cold) / cold_s,
        "turnaround_p50_s": p50,
        "turnaround_p75_s": p75,
        "peak_rss_mb": raw["maxrss_kb"] / 1024,
    }
    notes = {
        "inputs": len(cold),
        "rounds": raw["rounds"],
        "turnaround_samples": len(fixed),
        "measured_cold_s": sum(min(s["measured_cold"]) for s in samples.values() if s["measured_cold"]),
        "measured_warm_s": sum(min(s["measured_warm"]) for s in samples.values() if s["measured_warm"]),
    }
    if not trace:
        return end_to_end, notes
    traced = {name: min(s["traced_cold"]) for name, s in samples.items() if s["traced_cold"]}
    merged_spans, counts, extra = [], {}, {
        "pool_hits": 0, "candidates_screened": 0, "compiled_function_hits": 0,
        "compiled_function_misses": 0, "source_cache_hits": 0, "source_cache_lookups": 0,
    }
    for entry in raw["traces"]:
        offset = len(merged_spans)
        for name, start, end, parent, job in entry["spans"]:
            merged_spans.append([name, start, end, parent + offset if parent >= 0 else -1, job])
        for key, value in entry["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key in extra:
            extra[key] += entry[key]
    extra["failed_frac"] = raw["failed"] / raw["attempted"]
    extra["overhead_frac"] = sum(traced.values()) / cold_s - 1
    per_layer = spans.layer_metrics(merged_spans, Counter(counts), extra)
    notes["traced_cold_s"] = sum(traced.values())
    notes["untraced_cold_s"] = cold_s
    return per_layer, notes | {"spans": merged_spans}


def server_result(raw: dict, probes, setup_s: float, trace: bool) -> tuple[dict, dict]:
    """Server figures at reference speed: each job's turnaround and the loop's
    wall are divided by the probes' mean slowdown over their own interval."""
    import spans

    loop = raw["loops"][0]
    samples = loop.samples
    wall = loop.wall / probes.slowdown(loop.started, loop.ended)
    turnaround = [s.turnaround_s / probes.slowdown(s.started_at, s.ended_at) for s in samples]
    # A round is one job per registry benchmark; its wall runs from its first
    # POST to its last job_settled.  Round 1 meets every benchmark cold.
    round_walls = []
    size = len(set(s.benchmark for s in samples))
    for first in range(0, len(samples), size):
        chunk = samples[first : first + size]
        started = min(s.started_at for s in chunk)
        ended = max(s.ended_at for s in chunk)
        round_walls.append((ended - started) / probes.slowdown(started, ended))
    p50, p75 = _quartiles(sorted(turnaround))
    end_to_end = {
        "setup_s": setup_s,
        "cold_s": round_walls[0],
        "warm_s": statistics.mean(round_walls[1:]) if len(round_walls) > 1 else 0.0,
        "candidates_per_s": sum(s.candidates for s in samples) / wall,
        "jobs_per_s": len(samples) / wall,
        "turnaround_p50_s": p50,
        "turnaround_p75_s": p75,
        "peak_rss_mb": raw["maxrss_kb"] / 1024,
    }
    notes = {
        "jobs": len(samples),
        "clients": 2,
        "turnaround_samples": len(turnaround),
        "measured_loop_wall_s": loop.wall,
        "loop_wall_s": wall,
    }
    if not trace:
        return end_to_end, notes
    traced = raw["loops"][1]
    traced_wall = traced.wall / probes.slowdown(traced.started, traced.ended)
    attempted = sum(len(each.samples) for each in raw["loops"])
    failed = sum(1 for each in raw["loops"] for s in each.samples if s.problem)
    extra = {
        "admit_s": [s.admit_s for s in traced.samples],
        "first_event_s": [s.first_event_s for s in traced.samples if s.first_event_s is not None],
        "jobs": len(traced.samples),
        "failed_frac": failed / attempted,
        "overhead_frac": traced_wall / wall - 1,
    }
    per_layer = spans.layer_metrics(
        traced.trace["spans"], Counter(traced.trace["counts"]), extra
    )
    notes["traced_loop_wall_s"] = traced_wall
    return per_layer, notes | {"spans": traced.trace["spans"]}


# ------------------------------------------------------------ count rows
#: The layer behind each field of an input's count row.
ROW_LAYERS = {
    "vcs": "correspondence",
    "candidates": "completion",
    "pool_hits": "testing_cache",
    "screened": "testing_cache",
    "tester_sequences": "equivalence",
    "verifier_sequences": "equivalence",
    "compiled_hits": "engine",
    "compiled_misses": "engine",
    "program_sha": "result",
}


def compare_rows(workload: str, rows: dict) -> list[str]:
    """Count rows that moved against the committed baseline, by input and layer."""
    path = HERE / "baseline.json"
    if not path.is_file():
        return []
    baseline = json.loads(path.read_text()).get("workloads", {}).get(workload, {}).get("rows", {})
    moved = []
    for key, row in sorted(rows.items()):
        old = baseline.get(key)
        if old is None:
            continue
        for field, value in row.items():
            if old.get(field) != value:
                moved.append(
                    f"count moved: {key} {ROW_LAYERS.get(field, '?')}.{field} "
                    f"{old.get(field)} -> {value}"
                )
    return moved


# -------------------------------------------------------------------- main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _prepare_environment()
    sys.path.insert(0, str(HERE))

    scratch = OUT / "tmp" / f"{args.workload}-{os.getpid()}"
    state = setup(args.workload, args.seed, scratch)
    try:
        if args.setup_only:
            print("ready", flush=True)
            teardown(args.workload, state)
            return 0
        return measure(args, state, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, state, scratch: Path) -> int:
    own_setup = time.perf_counter() - PROCESS_STARTED

    import probe

    with probe.SpeedProbes() as probes:
        if args.workload == "server-loop":
            import serverloop

            raw = serverloop.run(
                state, args.seed, args.seconds, bool(args.trace), scratch, OUT, SRC
            )
            attempted = sum(len(loop.samples) for loop in raw["loops"])
            failed = sum(1 for loop in raw["loops"] for s in loop.samples if s.problem)
            rows = {}
        else:
            import suite

            raw = suite.run(
                args.workload, state, args.seed, args.seconds, bool(args.trace), probes.cpus
            )
            attempted, failed, rows = raw["attempted"], raw["failed"], raw["rows"]
        setup_spans = measure_setups(args)
    # Set-up processes are not pinned: scale them by both cores' probes.
    setup_samples = [(ready - started) / probes.slowdown(started, ready) for started, ready in setup_spans]
    setup_s = statistics.median(setup_samples)

    if args.workload == "server-loop":
        metrics, notes = server_result(raw, probes, setup_s, bool(args.trace))
    else:
        metrics, notes = suite_result(raw, probes, setup_s, bool(args.trace))

    import spans

    units = spans.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    span_records = notes.pop("spans", None)
    if span_records is not None:
        with open(OUT / f"spans-{tag}.jsonl", "w", encoding="utf-8") as handle:
            for name, start, end, parent, job in span_records:
                handle.write(json.dumps([name, start, end, parent, job]) + "\n")
    (OUT / f"rows-{tag}.json").write_text(json.dumps(rows, indent=1, sort_keys=True))

    notes.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        setup_samples_s=setup_samples,
        measured_setup_samples_s=[ready - started for started, ready in setup_spans],
        own_setup_s=own_setup,
        nproc=os.cpu_count(),
        python=sys.version.split()[0],
    )
    print(json.dumps({"run": notes}, sort_keys=True))
    for key, row in sorted(rows.items()):
        print(f"row {key}: {json.dumps(row, sort_keys=True)}")
    for name, times in sorted(raw.get("samples", {}).items()):
        print(f"seconds {name}: {json.dumps(times)}")
    for number, loop in enumerate(raw.get("loops", [])):
        for s in loop.samples:
            print(
                f"job {number}/{s.index} {s.benchmark}: turnaround={s.turnaround_s:.4f} "
                f"admit={s.admit_s:.4f} first_event={s.first_event_s} "
                f"slowdown={probes.slowdown(s.started_at, s.ended_at):.3f}"
            )
    for line in compare_rows(args.workload, rows):
        print(line)
    for problem in raw["problems"]:
        print(f"WRONG: {problem}")
    result = {
        "correct": failed == 0 and not raw["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
