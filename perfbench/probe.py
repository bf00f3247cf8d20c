"""A speed probe per core: how fast each core runs, sampled through a run.

The reference box's cores slow down independently, by up to 2x, in phases
that last from seconds to a whole run, so neither a minimum over repeats
nor a longer run steadies a wall-clock figure.  A probe process pinned to
each core times a fixed pure-Python loop in CPU seconds every
``INTERVAL_S`` seconds (about 5% of the core).  CPU seconds leave out the
time the probe waits for its core behind the measured work, but keep the
core's own slowness, which the guest cannot tell from running.  Dividing a
span of work by the probes' mean slowdown over that span gives its
duration at reference speed.  The loop uses no code of the package.  Known
delays injected into the package kept their size after scaling, and the
package's own work on a probe's core did not slow the probe; the README
gives the figures.

Run as a script it is the probe itself: ``probe.py CPU`` prints one
``start duration`` line per sample until it is terminated.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right

#: Seconds between samples, and seconds of one sample on the reference box
#: (2-core Xeon VM, Python 3.11.7) at its fast level.  A fixed constant:
#: it sets the scale, it is never re-fitted.
INTERVAL_S = 0.05
REFERENCE_S = 0.0023


def sample() -> float:
    """CPU seconds of the fixed loop (time spent waiting for the core is excluded)."""
    started = time.process_time()
    table: dict[int, int] = {}
    for value in range(20000):
        key = value & 1023
        table[key] = table.get(key, 0) + value
    return time.process_time() - started


class SpeedProbes:
    """One probe process per core this process may run on."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples: dict[int, list[tuple[float, float]]] = {}
        self._processes: dict[int, subprocess.Popen] = {}

    def __enter__(self) -> "SpeedProbes":
        for cpu in self.cpus:
            self._processes[cpu] = subprocess.Popen(
                [sys.executable, __file__, str(cpu)], stdout=subprocess.PIPE, text=True
            )
        return self

    def __exit__(self, *_exc) -> None:
        for process in self._processes.values():
            process.send_signal(signal.SIGTERM)
        for cpu, process in self._processes.items():
            out, _ = process.communicate(timeout=30)
            rows = [line.split() for line in out.splitlines() if line.strip()]
            self.samples[cpu] = sorted((float(a), float(b)) for a, b in rows)
        self._processes.clear()

    def slowdown(self, start: float, end: float, cpu: int | None = None) -> float:
        """Mean probe duration over [start, end] relative to the reference.

        *cpu* restricts it to one core's probe; by default every core's
        samples count.  A span with no sample takes the nearest ones.
        """
        cpus = [cpu] if cpu is not None else self.cpus
        durations = []
        for each in cpus:
            series = self.samples.get(each, [])
            starts = [s for s, _ in series]
            lo = bisect_left(starts, start)
            hi = bisect_right(starts, end)
            lo, hi = max(0, min(lo, len(series) - 1)), max(hi, lo + 1)
            durations.extend(d for _, d in series[lo:hi])
        return statistics.mean(durations) / REFERENCE_S if durations else 1.0


def _probe(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    rows: list[str] = []

    def stop(*_args):
        sys.stdout.write("".join(rows))
        sys.stdout.flush()
        os._exit(0)

    signal.signal(signal.SIGTERM, stop)
    while True:
        time.sleep(INTERVAL_S)
        started = time.perf_counter()
        rows.append(f"{started} {sample()}\n")


if __name__ == "__main__":
    _probe(int(sys.argv[1]))
