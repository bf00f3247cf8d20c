"""Configuration of the end-to-end synthesizer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.correspondence.similarity import DEFAULT_ALPHA
from repro.equivalence.invocation import SeedSet
from repro.exec.policy import ResilienceConfig
from repro.sketchgen.generator import SketchGeneratorConfig
from repro.sketchgen.steiner import SteinerLimits


@dataclass
class SynthesisConfig:
    """All tunable knobs of the Migrator pipeline.

    The defaults reproduce the behaviour described in the paper at a scale
    that runs comfortably on a laptop; every bound is documented next to the
    field it controls.
    """

    # ---- value correspondence enumeration (Section 4.2)
    #: α constant of the similarity metric and one-to-one soft clause weight.
    alpha: int = DEFAULT_ALPHA
    #: "auto" picks the full MaxSAT encoding for small schemas and the
    #: factored best-first enumeration for large ones.
    vc_engine: str = "auto"
    #: Maximum number of target attributes one source attribute may map to.
    max_mapping_fanout: int = 2
    #: Give up after considering this many value correspondences.
    max_value_correspondences: int = 64

    # ---- sketch generation (Section 4.3)
    sketch: SketchGeneratorConfig = field(default_factory=SketchGeneratorConfig)

    # ---- sketch completion (Section 4.4)
    #: "mfi" (the paper's algorithm), "enumerative" (Table 3 baseline, no MFI
    #: pruning) or "bmc" (Table 2 baseline, Sketch-style monolithic encoding).
    completion_strategy: str = "mfi"
    #: Add consistency constraints pruning ill-formed completions.
    consistency_constraints: bool = True
    #: Bound on completions explored per sketch (None = unlimited).
    max_iterations_per_sketch: Optional[int] = 20000
    #: Wall-clock limit per sketch completion, in seconds (None = unlimited).
    #: Independent of ``time_limit``, which bounds the whole run and is
    #: threaded into every completion as an absolute deadline.
    sketch_time_limit: Optional[float] = None

    # ---- execution engine
    #: How candidate/source programs are executed during testing and
    #: verification: "compiled" translates each program once into Python
    #: closures (hash joins, slotted rows, compile-time column offsets —
    #: see repro.engine.compiler); "interpreter" keeps the tree-walk
    #: reference semantics.  The two are output- and error-equivalent
    #: (pinned by tests/test_compiled.py); the interpreter remains the
    #: semantics reference.
    execution_backend: str = "compiled"

    # ---- bounded testing / verification (Section 5)
    #: Number of update calls preceding the query in exhaustively tested sequences.
    tester_max_updates: int = 2
    #: Constant seed values per type used by the tester.
    tester_seeds: SeedSet = field(default_factory=SeedSet.default)
    #: Restrict tested sequences to updates touching the query's tables.
    relevance_filter: bool = True
    #: Run the deeper verification pass on accepted candidates.
    final_verification: bool = True
    #: Update-prefix bound of the final verification pass.
    verifier_max_updates: int = 3
    #: Number of randomized sequences of the final verification pass.
    verifier_random_sequences: int = 100
    #: Overall wall-clock limit for one synthesis run, in seconds.  The
    #: deadline is enforced between value correspondences *and* inside sketch
    #: completion (down to individual tested sequences), so a single long
    #: sketch cannot overrun the budget.
    time_limit: Optional[float] = None

    # ---- incremental testing (repro.testing_cache)
    #: Screen each candidate against previously discovered counterexamples before
    #: running the full bounded enumeration (A/B flag for bench_cache.py).
    counterexample_pool: bool = True
    #: Maximum counterexamples retained in the pool (lowest-hit evicted).
    pool_max_size: int = 256
    #: Maximum pool sequences executed per screened candidate (None = all).
    pool_screening_budget: Optional[int] = 64
    #: Entry cap of the shared source-output LRU cache.
    source_cache_max_entries: int = 100_000

    # ---- parallel exploration
    #: Worker processes exploring value correspondences concurrently
    #: (0 or 1 = sequential).  Counterexamples found by one worker are merged
    #: into the shared pool between waves.
    parallel_workers: int = 0
    #: Value correspondences dispatched per parallel wave (defaults to the
    #: worker count when ``None``).
    parallel_wave_size: Optional[int] = None
    #: Remote worker addresses (``"host:port"`` of listening ``repro.worker``
    #: processes).  When set, parallel exploration dispatches waves to the
    #: remote fleet instead of forked local workers (same socket transport);
    #: ``parallel_workers`` then only caps concurrent leases (0 = fleet
    #: capacity).  Counterexample pools sync by value between waves.
    execution_fleet: Optional[tuple[str, ...]] = None

    # ---- resilience (repro.exec.policy)
    #: Retry/timeout policies and the graceful-degradation ladder shared by
    #: every execution backend: jittered-backoff crash retries, poison-task
    #: quarantine, and fleet -> pool -> sequential degradation (each rung
    #: emitted as an ``ExecutionDegraded`` session event).
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    @staticmethod
    def fast() -> "SynthesisConfig":
        """A configuration tuned for the benchmark harness (shallower verification)."""
        return SynthesisConfig(
            final_verification=False,
            verifier_random_sequences=0,
            sketch=SketchGeneratorConfig(steiner_limits=SteinerLimits(max_extra_tables=2)),
        )

    @staticmethod
    def thorough() -> "SynthesisConfig":
        """A configuration with deeper testing bounds for small programs."""
        return SynthesisConfig(
            tester_max_updates=3,
            verifier_max_updates=3,
            verifier_random_sequences=300,
        )
