"""Counters for the incremental-testing subsystem.

The per-component statistics (:class:`PoolStatistics`,
:class:`SourceCacheStatistics`) live next to their component; this module
holds the merged view that the synthesizer surfaces on its result object and
that the eval harness renders.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TestingCacheStats:
    """Aggregated incremental-testing counters for one synthesis run."""

    #: Candidates rejected by a pool counterexample before full enumeration.
    pool_hits: int = 0
    #: Counterexamples currently retained in the pool.
    pool_size: int = 0
    #: Counterexamples recorded over the run (including later-evicted ones).
    pool_added: int = 0
    #: Candidates screened against the pool.
    candidates_screened: int = 0
    #: Candidates that went through the full ``SequenceGenerator`` enumeration.
    candidates_fully_tested: int = 0
    #: Pool sequences executed while screening.
    screening_sequences: int = 0
    #: Subset of screening sequences executed through the columnar batch
    #: kernels (zero under the scalar backends).
    sequences_screened_batched: int = 0
    #: Largest single batch handed to a screening kernel (high-water mark).
    screening_batch_high_water: int = 0
    #: Wall-clock time spent screening, in seconds.
    screening_time: float = 0.0
    #: Estimated sequences *not* executed thanks to pool hits (pool hits times
    #: the average full-enumeration length observed in this run).
    sequences_saved_estimate: int = 0
    #: Source-output cache hits / entries (shared across testers of the run).
    source_cache_hits: int = 0
    source_cache_entries: int = 0
    source_cache_evictions: int = 0
    #: Distinct (source state, candidate state) pairs the verifier's search
    #: queried; the sequences it stood in for are the verifier's
    #: ``sequences_checked``, so their ratio is what the dedup saved.
    verifier_state_pairs: int = 0
    #: Verifications the search handed to the ordered reference loop (a
    #: rejected candidate, an error, or a truncated enumeration).
    verifier_fallbacks: int = 0
    #: Compiled-closure cache counters of this run (deltas over the possibly
    #: shared :class:`~repro.engine.compiler.ProgramCompiler`): function
    #: closures served from cache vs actually compiled.  Nonzero hits on a
    #: cold run come from candidates sharing function ASTs; hits above the
    #: cold baseline prove cross-job sharing inside a service batch.
    compiled_function_hits: int = 0
    compiled_function_misses: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of screened candidates killed by the pool."""
        if self.candidates_screened == 0:
            return 0.0
        return self.pool_hits / self.candidates_screened

    def merge(self, other: "TestingCacheStats") -> None:
        """Accumulate counters from a worker run (parallel front-end merge)."""
        self.pool_hits += other.pool_hits
        self.pool_added += other.pool_added
        self.candidates_screened += other.candidates_screened
        self.candidates_fully_tested += other.candidates_fully_tested
        self.screening_sequences += other.screening_sequences
        self.sequences_screened_batched += other.sequences_screened_batched
        self.screening_batch_high_water = max(
            self.screening_batch_high_water, other.screening_batch_high_water
        )
        self.screening_time += other.screening_time
        self.sequences_saved_estimate += other.sequences_saved_estimate
        self.source_cache_hits += other.source_cache_hits
        self.source_cache_entries = max(self.source_cache_entries, other.source_cache_entries)
        self.source_cache_evictions += other.source_cache_evictions
        self.verifier_state_pairs += other.verifier_state_pairs
        self.verifier_fallbacks += other.verifier_fallbacks
        self.compiled_function_hits += other.compiled_function_hits
        self.compiled_function_misses += other.compiled_function_misses
        self.pool_size = max(self.pool_size, other.pool_size)


def collect_cache_stats(
    tester_stats, pool, source_cache, verifier_stats=None, compiler_delta=None
) -> TestingCacheStats:
    """Assemble the merged view from one tester's components.

    ``tester_stats`` is a ``TesterStatistics``; *pool* and *source_cache* may
    be ``None`` when the corresponding feature is disabled.  When the
    verifier shares the source cache, its ``VerifierStatistics`` contributes
    its hits to the merged ``source_cache_hits`` counter and its search
    counters to ``verifier_state_pairs`` / ``verifier_fallbacks``.  *compiler_delta*
    is this run's share of a (possibly shared) program compiler's
    :class:`~repro.engine.compiler.CompilerStats`.
    """
    stats = TestingCacheStats(
        candidates_fully_tested=tester_stats.full_enumerations,
        source_cache_hits=tester_stats.source_cache_hits,
    )
    if verifier_stats is not None:
        stats.source_cache_hits += verifier_stats.source_cache_hits
        stats.verifier_state_pairs = verifier_stats.state_pairs
        stats.verifier_fallbacks = verifier_stats.ordered_fallbacks
    if compiler_delta is not None:
        stats.compiled_function_hits = compiler_delta.function_hits
        stats.compiled_function_misses = compiler_delta.function_misses
    if source_cache is not None:
        stats.source_cache_entries = len(source_cache)
        stats.source_cache_evictions = source_cache.stats.evictions
    if pool is not None:
        stats.pool_hits = pool.stats.hits
        stats.pool_size = len(pool)
        stats.pool_added = pool.stats.added
        stats.candidates_screened = pool.stats.candidates_screened
        stats.screening_sequences = pool.stats.sequences_screened
        stats.sequences_screened_batched = pool.stats.sequences_screened_batched
        stats.screening_batch_high_water = pool.stats.max_batch_size
        stats.screening_time = pool.stats.screening_time
        if tester_stats.full_enumerations:
            average = (
                tester_stats.full_enumeration_sequences / tester_stats.full_enumerations
            )
            stats.sequences_saved_estimate = int(pool.stats.hits * average)
    return stats
