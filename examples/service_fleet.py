"""Batch migration over a remote-worker fleet (distributed execution).

The same production scenario as examples/service_batch.py — one application
migrated toward several candidate target schemas — but the jobs execute on
**remote worker processes** (``python -m repro.worker``) instead of
forked local workers.  The service talks to them over the same socket
transport with unchanged semantics: typed events stream back live, a job store journals
which worker holds which lease, and a worker that dies mid-job is survived
(its lease expires and the job is re-run elsewhere).

Here the workers are two local subprocesses; pointing the same
``--connect HOST:PORT`` at other machines is the multi-host deployment.

Run with::

    python examples/service_fleet.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from repro import SynthesisConfig
from repro.api import MigrationJob, MigrationService, RemoteFleet, Solved, VcSelected
from repro.eval.reporting import render_service_report
from repro.workloads import get_benchmark, rename_variants

ROOT = Path(__file__).resolve().parents[1]


def candidate_targets(benchmark, variants: int = 3):
    """The benchmark's planned target schema plus rename variants of it."""
    return [benchmark.target_schema] + rename_variants(
        benchmark.target_schema, variants, base_name="coachup_v2"
    )


def on_event(job_name: str, event) -> None:
    """Real-time progress, streamed across the socket from the workers."""
    if isinstance(event, VcSelected):
        print(f"  [{job_name}] trying correspondence #{event.index} (weight {event.weight})")
    elif isinstance(event, Solved):
        print(f"  [{job_name}] solved after {event.iterations} completion iteration(s)")


def spawn_workers(fleet: RemoteFleet, count: int) -> list[subprocess.Popen]:
    """Launch *count* local ``repro.worker`` processes dialing the fleet."""
    env = {"PYTHONPATH": str(ROOT / "src")}
    return [
        subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.worker",
                "--connect",
                fleet.bound_address,
                "--id",
                f"example-w{index}",
            ],
            env=env,
        )
        for index in range(count)
    ]


def main() -> None:
    benchmark = get_benchmark("coachup")
    config = SynthesisConfig()
    config.verifier_random_sequences = 25

    jobs = [
        MigrationJob(f"coachup->{target.name}", benchmark.source_program, target, config)
        for target in candidate_targets(benchmark)
    ]

    store = str(Path(tempfile.mkdtemp(prefix="repro-fleet-")) / "batch.jsonl")
    fleet = RemoteFleet(listen="127.0.0.1:0", min_workers=2)
    workers = spawn_workers(fleet, 2)
    print(f"Coordinator listening on {fleet.bound_address}; 2 workers dialing in.")
    try:
        fleet.ensure_started()
        print(f"Fleet up with {fleet.worker_count} worker(s).")
        print(f"Submitting {len(jobs)} migration jobs for {benchmark.name!r}:")

        with MigrationService(workers=fleet, job_store=store, on_event=on_event) as service:
            handles = service.submit_batch(jobs)
            service.run()

        print()
        responses = [handle.to_dict(include_program=False) for handle in handles]
        print(render_service_report(responses, title="Migration service batch (remote fleet)"))

        print()
        print("Lease journal (which worker ran which job):")
        with open(store, "r", encoding="utf-8") as journal:
            for line in journal:
                record = json.loads(line)
                if record.get("type") in ("leased", "released"):
                    detail = record.get("outcome", f"expires {record.get('expiry', 0):.0f}")
                    print(f"  {record['type']:<9} {record['job']:<24} {record['worker']} ({detail})")
    finally:
        fleet.close()
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
            worker.wait(timeout=10)


if __name__ == "__main__":
    main()
