"""The in-process synthesis workloads: ``migrate-suite`` and ``enum-search``.

Every repeat of every input runs in a fresh process forked from the
benchmark parent, which has imported the package and built the inputs but
never synthesized: the child's first ``migrate()`` pays what a one-shot
user pays (process-global caches such as the Levenshtein ``lru_cache``
start empty), its second ``migrate()`` is the warm pass.  Forking keeps
interpreter start-up and imports (measured by ``setup_s``) off every
repeat; the parent runs no threads, so forking it is safe.

Timed metrics are sums over inputs of the *per-input minimum* over rounds,
and rounds visit inputs in alternating order, one child per core at a
time, each pinned to its core.  Each pass is scaled to reference speed by
that core's probe (see ``probe.py``); the measured seconds are kept and
printed next to the scaled ones.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import resource
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Optional

import spans

#: Generated corpus workloads appended to the 20 registry benchmarks, at
#: pinned sizes (3 tables of 3 columns).  The default size ranges make one
#: workload cost 0.03 s to 2.3 s, so the seed alone would move the suite's
#: total by about 8%; pinned sizes keep that near 3%.
CORPUS_SLICE = 6
CORPUS_SIZES = {"tables": 3, "columns": 3}

#: The Table 3 inputs the enumerative completer cannot finish, and its cap.
ENUM_INPUTS = ("MathHotSpot", "gallery", "Oracle-2", "Ambler-5")
ENUM_CAP = 500

#: A child that sends nothing for this long is killed and counted as failed.
CHILD_TIMEOUT_S = 120

#: Reference-box wall seconds of one round, used to turn ``--seconds`` into
#: a fixed number of rounds: the work of a run never depends on how fast
#: the box happened to be, so two commits always run the same work.
ROUND_SECONDS = {"migrate-suite": 14.0, "enum-search": 5.0}


@dataclass
class Input:
    name: str
    source: object
    target: object
    #: The corpus generator's known-good program, when the input has one.
    oracle: Optional[object] = None


def build_inputs(workload: str, seed: int) -> list[Input]:
    from repro.corpus import CorpusConfig, generate_corpus
    from repro.workloads import get_benchmark
    from repro.workloads.registry import benchmark_names

    if workload == "enum-search":
        names = ENUM_INPUTS
    else:
        names = benchmark_names()
    inputs = []
    for name in names:
        bench = get_benchmark(name)
        inputs.append(Input(name, bench.source_program, bench.target_schema))
    if workload == "migrate-suite":
        config = CorpusConfig().scaled(**CORPUS_SIZES)
        for generated in generate_corpus(seed, CORPUS_SLICE, config):
            inputs.append(
                Input(
                    generated.name,
                    generated.source_program,
                    generated.target_schema,
                    generated.oracle_program,
                )
            )
    return inputs


def synthesis_config(workload: str):
    from repro.core import SynthesisConfig

    if workload == "enum-search":
        # Fixed work, no wall-clock limit: exactly ENUM_CAP candidates.
        return SynthesisConfig(
            completion_strategy="enumerative",
            final_verification=False,
            max_value_correspondences=1,
            max_iterations_per_sketch=ENUM_CAP,
        )
    return SynthesisConfig()


# ------------------------------------------------------------------ checks
def program_text(program) -> str:
    from repro.lang.pretty import format_program

    return format_program(program)


def check_result(workload: str, inp: Input, result, seed: int) -> list[str]:
    """Problems with one ``migrate()`` result; empty when it is correct.

    The reference is never the synthesizer's own tester or verifier: a
    program is replayed against its source (and, for corpus inputs, against
    the generator's known-good program) through the sqlite3 oracle.
    """
    from repro.corpus import sqlite_differential

    if workload == "enum-search":
        problems = []
        if result.program is not None:
            problems.append("enumerative search returned a program")
        if result.iterations != ENUM_CAP:
            problems.append(f"explored {result.iterations} candidates, not {ENUM_CAP}")
        return problems
    if result.program is None:
        return [f"not solved ({result.status})"]
    references = [("source", inp.source)]
    if inp.oracle is not None:
        references.append(("oracle", inp.oracle))
    problems = []
    for label, reference in references:
        compared, agreed = sqlite_differential(reference, result.program, seed=seed)
        if compared == 0:
            problems.append(f"sqlite oracle compared no sequence against the {label}")
        elif not agreed:
            problems.append(f"sqlite oracle: program disagrees with its {label}")
    return problems


def result_row(result, counter) -> dict:
    """The exact per-input counts of one pass (they must repeat run to run)."""
    cache = result.cache
    return {
        "vcs": result.value_correspondences_tried,
        "candidates": result.iterations,
        "pool_hits": cache.pool_hits,
        "screened": cache.candidates_screened,
        "tester_sequences": sum(stats.sequences_executed for stats in counter.tester_stats),
        "verifier_sequences": counter.counts["equivalence.verify_sequences"],
        "compiled_hits": cache.compiled_function_hits,
        "compiled_misses": cache.compiled_function_misses,
        "program_sha": (
            hashlib.sha256(program_text(result.program).encode()).hexdigest()[:16]
            if result.program is not None
            else None
        ),
    }


# ------------------------------------------------------------------- child
def _child(workload: str, inp: Input, seed: int, traced: bool, cpu: int, conn) -> None:
    """One fresh process pinned to *cpu*: a cold and a warm pass of one input."""
    from repro.core import migrate

    os.sched_setaffinity(0, {cpu})
    config = synthesis_config(workload)
    counter = spans.Tracer()
    spans.install_count_hooks(counter)
    tracer = spans.Tracer()
    if traced:
        spans.install_synthesis_hooks(tracer)
        tracer.job = inp.name
    out = {"passes": [], "cpu": cpu}
    results = []
    for kind in ("cold", "warm"):
        counter.active = True
        counter.counts.clear()
        counter.tester_stats.clear()
        tracer.active = traced and kind == "cold"
        started = time.perf_counter()
        result = migrate(inp.source, inp.target, config)
        ended = time.perf_counter()
        tracer.active = False
        counter.active = False
        entry = {"kind": kind, "span": (started, ended), "row": result_row(result, counter)}
        if tracer.spans and kind == "cold":
            hits, lookups = spans.source_cache_totals(tracer)
            entry["trace"] = {
                "spans": tracer.spans,
                "counts": dict(tracer.counts + counter.counts),
                "pool_hits": result.cache.pool_hits,
                "candidates_screened": result.cache.candidates_screened,
                "compiled_function_hits": result.cache.compiled_function_hits,
                "compiled_function_misses": result.cache.compiled_function_misses,
                "source_cache_hits": hits,
                "source_cache_lookups": lookups,
            }
        out["passes"].append(entry)
        results.append(result)
    # Read the high-water mark before the output checks, whose sqlite3
    # replays would otherwise set it.
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for entry, result in zip(out["passes"], results):
        entry["problems"] = check_result(workload, inp, result, seed)
    conn.send(out)
    conn.close()


def _run_round(workload, inputs, order, seed, traced, cpus) -> dict[int, dict]:
    """Run one child per input, one per core at a time; {input index: output}."""
    context = multiprocessing.get_context("fork")
    pending = list(order)
    free = list(cpus)
    running: dict = {}
    outputs: dict[int, dict] = {}
    while pending or running:
        while pending and free:
            index, cpu = pending.pop(0), free.pop(0)
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=_child, args=(workload, inputs[index], seed, traced, cpu, sender)
            )
            process.start()
            sender.close()
            running[receiver] = (index, cpu, process)
        ready = wait(list(running), timeout=CHILD_TIMEOUT_S)
        if not ready:
            for index, _cpu, process in running.values():
                process.kill()
                process.join()
                outputs[index] = {"crashed": True}
            running.clear()
            free = list(cpus)
        for receiver in ready:
            index, cpu, process = running.pop(receiver)
            free.append(cpu)
            try:
                outputs[index] = receiver.recv()
            except EOFError:
                outputs[index] = {"crashed": True}
            receiver.close()
            process.join()
            if process.exitcode != 0:
                outputs[index] = {"crashed": True}
    return outputs


# ------------------------------------------------------------- the workload
def run(workload: str, inputs: list[Input], seed: int, seconds: float, trace: bool, cpus) -> dict:
    """Measure one run, one child per core of *cpus* at a time.

    Returns each pass's timed interval with its core, the count rows and
    the check verdicts.  Untraced runs make every round untraced.  Traced
    runs alternate untraced and traced rounds (as many of each), so the
    trace's overhead is the traced over the untraced per-input minimum;
    the per-layer figures come from the first traced round alone, one pass
    per input.
    """
    rounds = max(2, int(seconds // ROUND_SECONDS[workload]))
    rows: dict[tuple[str, str], dict] = {}
    problems: list[str] = []
    traces: list[dict] = []
    timed: list[tuple[str, str, int, tuple[float, float]]] = []
    attempted = failed = 0
    maxrss_kb = 0
    forward = list(range(len(inputs)))
    for number in range(rounds):
        traced = trace and number % 2 == 1
        order = forward if number % 2 == 0 else forward[::-1]
        outputs = _run_round(workload, inputs, order, seed, traced, cpus)
        for index, inp in enumerate(inputs):
            out = outputs[index]
            if out.get("crashed"):
                attempted += 2
                failed += 2
                problems.append(f"{inp.name}: child process failed")
                continue
            maxrss_kb = max(maxrss_kb, out["maxrss_kb"])
            for entry in out["passes"]:
                attempted += 1
                bad = list(entry["problems"])
                key = (inp.name, entry["kind"])
                if key in rows and rows[key] != entry["row"]:
                    bad.append(f"counts differ between rounds: {rows[key]} vs {entry['row']}")
                rows.setdefault(key, entry["row"])
                if bad:
                    failed += 1
                    problems.extend(f"{inp.name} ({entry['kind']}): {p}" for p in bad)
                kind = "traced_cold" if traced and entry["kind"] == "cold" else entry["kind"]
                timed.append((inp.name, kind, out["cpu"], entry["span"]))
                if "trace" in entry and number == 1:
                    traces.append(entry["trace"])
    for name, kind in list(rows):
        cold, warm = rows.get((name, "cold")), rows.get((name, "warm"))
        if kind == "cold" and cold and warm and cold["program_sha"] != warm["program_sha"]:
            failed += 1
            problems.append(f"{name}: cold and warm passes returned different programs")
    return {
        "rounds": rounds,
        "inputs": [inp.name for inp in inputs],
        "timed": timed,
        "seeded": [inp.name for inp in inputs if inp.oracle is not None],
        "rows": {f"{name}/{kind}": row for (name, kind), row in rows.items()},
        "problems": problems,
        "traces": traces,
        "attempted": attempted,
        "failed": failed,
        "maxrss_kb": maxrss_kb,
    }


def samples(raw: dict, probes) -> dict[str, dict[str, list[float]]]:
    """Each input's pass times by kind, as measured and at reference speed.

    A pass's reference time is its wall time divided by its core's probe
    slowdown over the same interval.
    """
    kinds = ("cold", "warm", "traced_cold")
    out = {
        name: {prefix + kind: [] for kind in kinds for prefix in ("", "measured_")}
        for name in raw["inputs"]
    }
    for name, kind, cpu, (started, ended) in raw["timed"]:
        out[name]["measured_" + kind].append(ended - started)
        out[name][kind].append((ended - started) / probes.slowdown(started, ended, cpu))
    return out
