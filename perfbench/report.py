"""Print the baseline table; with ``--refresh``, re-measure it first.

Usage, from the root of a checkout::

    python3 perfbench/report.py             # tables from perfbench/baseline.json
    python3 perfbench/report.py --refresh   # run every workload, then print

``--refresh`` runs each workload untraced and traced at ``SEED``, plus one
untraced run at ``CHECK_SEED`` (a seed not used while the benchmark was
written), each for ``BENCHMARK.json``'s ``run_seconds``, and rewrites
``baseline.json`` with the numbers, each input's count rows, the machine
facts and the workload rationale.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"

#: The baseline's seed, and a second seed not used while the benchmark was written.
SEED = 1
CHECK_SEED = 9001

RATIONALE = {
    "migrate-suite": {
        "why": "Table 1 path with the default config: verification and name scoring dominate",
        "inputs": "20 registry benchmarks + generate_corpus(seed, 6, CorpusConfig().scaled(tables=3, columns=3))",
    },
    "enum-search": {
        "why": "Table 3 enumerative completer at a fixed cap: SAT, completion, screening and compile caches; no verification",
        "inputs": "MathHotSpot, gallery, Oracle-2, Ambler-5; max_value_correspondences=1, cap 500",
    },
    "server-loop": {
        "why": "the only path through server, service, exec and jobstore; 2 closed-loop clients",
        "inputs": "every registry benchmark once per round, 5 rounds, a fixed order rotated by the seed; jobs sent with final_verification off",
    },
}


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    notes = next(json.loads(line)["run"] for line in lines if line.startswith('{"run"'))
    tag = f"{workload}-seed{seed}"
    rows = json.loads((HERE.parent / ".bench_build" / "perfbench" / f"rows-{tag}.json").read_text())
    return {"result": result, "notes": notes, "rows": rows}


def refresh() -> dict:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    baseline = {
        "seed": SEED,
        "seconds": seconds,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "processor": platform.processor() or platform.machine(),
        },
        "flush_policy": "server-loop: SQLite job store, fsync on every append",
        "workloads": {},
    }
    for workload, facts in RATIONALE.items():
        untraced = run_once(workload, SEED, 0, seconds)
        traced = run_once(workload, SEED, 1, seconds)
        check = run_once(workload, CHECK_SEED, 0, seconds)
        baseline["workloads"][workload] = {
            **facts,
            "correct": untraced["result"]["correct"] and traced["result"]["correct"],
            "end_to_end": {k: v["value"] for k, v in untraced["result"]["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "notes": untraced["notes"],
            "rows": untraced["rows"],
            "check_seed": {
                "seed": CHECK_SEED,
                "correct": check["result"]["correct"],
                "end_to_end": {k: v["value"] for k, v in check["result"]["metrics"].items()},
            },
        }
    return baseline


def render(baseline: dict) -> str:
    workloads = baseline["workloads"]
    names = list(workloads)
    machine = baseline["machine"]
    out = [
        f"Baseline: {machine['nproc']}-core box, Python {machine['python']}, "
        f"seed {baseline['seed']}, {baseline['seconds']} s runs.",
        "",
        "| Metric | " + " | ".join(names) + " |",
        "|---|" + "---|" * len(names),
    ]
    metrics = list(next(iter(workloads.values()))["end_to_end"])
    for metric in metrics:
        cells = [f"{workloads[name]['end_to_end'][metric]:.4g}" for name in names]
        out.append(f"| `{metric}` | " + " | ".join(cells) + " |")
    out += ["", "| Layer metric | " + " | ".join(names) + " |", "|---|" + "---|" * len(names)]
    for metric in next(iter(workloads.values()))["per_layer"]:
        cells = [f"{workloads[name]['per_layer'][metric]:.4g}" for name in names]
        out.append(f"| `{metric}` | " + " | ".join(cells) + " |")
    out += ["", "Second seed (not used while the benchmark was written):", ""]
    for name in names:
        check = workloads[name]["check_seed"]
        figures = ", ".join(f"{k}={v:.4g}" for k, v in check["end_to_end"].items())
        out.append(f"- `{name}` seed {check['seed']} (correct={check['correct']}): {figures}")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--refresh", action="store_true")
    args = parser.parse_args(argv)
    if args.refresh:
        baseline = refresh()
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(render(json.loads(BASELINE.read_text())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
