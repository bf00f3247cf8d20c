"""Bounded testing: find minimum failing inputs between two programs.

This is the testing engine described in Section 5 of the paper: it executes
both programs on invocation sequences of increasing length (arguments drawn
from fixed per-type seed sets) and returns the first sequence on which the
query results differ.  Because sequences are enumerated by increasing
length, that sequence is a minimum failing input (MFI).

Two layers of reuse keep repeated testing cheap:

* The source program's outputs are memoized in a size-bounded LRU
  :class:`~repro.testing_cache.SourceOutputCache` that can be shared across
  testers within one process (the synthesizer shares one per run; parallel
  workers each build their own), which is the dominant cost saving when the
  sketch-completion loop tests hundreds of candidates against the same
  source program.
* When a :class:`~repro.testing_cache.CounterexamplePool` is attached, every
  candidate is first screened against previously discovered failing inputs
  (cheapest first) and only falls back to the full enumeration when no
  pooled counterexample kills it.  A pool hit is a sound failing input but
  not necessarily minimal — see the pool module docstring for the trade-off.

Executions run on the **compiled backend** by default (programs are
translated once into closures with hash joins and slotted rows — see
:mod:`repro.engine.compiler`); ``execution_backend="interpreter"`` restores
the tree-walk reference implementation, and ``"columnar"`` switches to the
column-store backend (:mod:`repro.engine.columnar`), which additionally
routes pool screening and the full enumeration through batch kernels
(:meth:`BoundedTester.differs_on_batch`) that execute many sequences per
call while reproducing the scalar loop's verdicts, errors and statistics
exactly.  All backends are output- and error-equivalent, so pool screening,
source caching and MFI minimality are unaffected by the choice.

Error semantics (shared with :class:`~repro.equivalence.verifier.BoundedVerifier`):
a candidate that raises :class:`ExecutionError` on a sequence *fails* that
sequence; an error raised by the source program propagates to the caller.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

from repro.engine.compiler import ProgramCompiler, make_batch_runner, make_runner
from repro.engine.joins import ExecutionError
from repro.equivalence.invocation import (
    InvocationSequence,
    SeedSet,
    SequenceGenerator,
    format_sequence,
)
from repro.equivalence.result_compare import canonicalize_outputs
from repro.lang.ast import Program
from repro.lang.pretty import format_program
from repro.testing_cache import CounterexamplePool, SourceOutputCache


class TestingInterrupted(Exception):
    """Raised mid-enumeration when the tester's ``interrupt`` hook fires.

    The completion loop installs the hook from the session's deadline and
    cancellation event, so a single long bounded-testing enumeration cannot
    overrun the run's wall-clock budget or ignore a cancellation request.
    The exception deliberately does not subclass ``ExecutionError``: it must
    propagate out of testing, never be treated as a failing candidate.
    """


def cached_source_outputs(cache, key, runner, program, sequence, stats=None):
    """Memoized, canonicalized source-program outputs.

    The single implementation of the get → execute-and-canonicalize → put
    pattern shared by :class:`BoundedTester` and
    :class:`~repro.equivalence.verifier.BoundedVerifier` — entries written
    by one are only interchangeable with the other because both go through
    this helper.  *stats* (any object with a ``source_cache_hits`` counter)
    is incremented on a hit.  Source errors propagate: a source program that
    cannot execute is a caller bug, never cached.

    Cache entries are ``(canonical, raw)`` pairs: the scalar path compares
    canonicalized outputs, while the batched path
    (:func:`batched_first_divergence`) short-circuits on raw equality —
    storing both under one key costs one tuple and saves the batch path a
    second lookup per sequence.
    """
    if cache is not None and key is not None:
        cached = cache.get(key, sequence)
        if cached is not None:
            if stats is not None:
                stats.source_cache_hits += 1
            return cached[0]
        raw = runner(program, sequence)
        outputs = canonicalize_outputs(raw)
        cache.put(key, sequence, (outputs, raw))
        return outputs
    return canonicalize_outputs(runner(program, sequence))


#: Distinct source-side gathers kept per :func:`batched_first_divergence`
#: memo (one per live chunk shape, mirroring the batch runner's trie memo).
GATHER_MEMO_SLOTS = 8


def _gather_source_outcomes(batch_runner, cache, key, source, sequences, interrupt):
    """Source-side half of :func:`batched_first_divergence`.

    Probes the source-output cache per sequence, batch-runs the misses, and
    returns ``(expected, raw_expected, source_errors, cache_hit)`` aligned
    with *sequences*.  Successful outcomes are canonicalized and written
    back to the cache; errors never are.
    """
    count = len(sequences)
    caching = cache is not None and key is not None
    expected: list = [None] * count
    raw_expected: list = [None] * count
    source_errors: Optional[dict] = None
    cache_hit = [False] * count
    misses: list[int] = []
    for i, sequence in enumerate(sequences):
        if caching:
            cached = cache.get(key, sequence)
            if cached is not None:
                expected[i] = cached[0]
                raw_expected[i] = cached[1]
                cache_hit[i] = True
                continue
        misses.append(i)
    if misses:
        outcomes = batch_runner.run_sequences(
            source, [sequences[i] for i in misses], interrupt
        )
        for i, (tag, payload) in zip(misses, outcomes):
            if tag == "ok":
                canonical = canonicalize_outputs(payload)
                if caching:
                    cache.put(key, sequences[i], (canonical, payload))
                expected[i] = canonical
                raw_expected[i] = payload
            else:
                if source_errors is None:
                    source_errors = {}
                source_errors[i] = payload
    return expected, raw_expected, source_errors, cache_hit


def batched_first_divergence(
    batch_runner,
    cache,
    key,
    source: Program,
    candidate: Program,
    sequences: list[InvocationSequence],
    interrupt: Optional[Callable[[], None]] = None,
    visit: Optional[Callable[[int, int], None]] = None,
    gather_memo: Optional[list] = None,
) -> Optional[int]:
    """Index of the first sequence where *candidate* differs from *source*.

    The batched core of :class:`BoundedTester`: both programs run
    through the columnar batch kernels (source only on cache misses), then
    the outcomes are walked **in sequence order**, reproducing the scalar
    loop's exact trajectory — the first problem sequence either raises what
    the scalar path would raise (source errors, non-``ExecutionError``
    candidate errors) or is returned as the first divergence
    (``ExecutionError`` or an output mismatch).  Sequences past that point
    were executed by the batch but are ignored, so the verdict and the
    raised error are identical to running the scalar loop.

    *visit(visited, source_cache_hits)* is called exactly once per batch,
    just before it returns or raises: *visited* counts the sequences the
    scalar loop would have reached (everything up to and including the
    divergent or raising one), *source_cache_hits* how many of those were
    served from the source-output cache — the callers hang their statistics
    on it.  *cache*/*key* may be ``None``, and then nothing is cached;
    otherwise successful source outcomes are canonicalized and cached,
    errors never are.

    *gather_memo*, when provided, is a caller-owned LRU (a plain list) of
    gathered source-side outcomes keyed by ``(key, sequences)`` content.
    Screening replays identical chunks against many candidates with the
    source fixed, and programs are deterministic, so replaying the gathered
    arrays is exact; it skips the per-sequence cache probes entirely on the
    steady state.  A replayed chunk reports every non-erroring sequence as a
    cache hit (its first gather wrote them all to the cache).

    Cache entries are the ``(canonical, raw)`` pairs written by
    :func:`cached_source_outputs`.  Raw equality implies canonical equality,
    so a candidate whose raw outputs match the source's — the common case
    for a surviving candidate — is accepted without paying canonicalization
    at all; only raw mismatches fall through to the canonical comparison
    that decides the verdict.
    """
    count = len(sequences)
    # The memo is keyed by (source fingerprint, chunk content); with no
    # fingerprint two different sources would collide, so it is disabled.
    if key is None:
        gather_memo = None
    gathered = None
    if gather_memo is not None:
        for slot, entry in enumerate(gather_memo):
            if entry[0] == key and entry[1] == sequences:
                if slot:  # keep the hottest chunks at the front
                    gather_memo.insert(0, gather_memo.pop(slot))
                gathered = entry[2]
                break
    if gathered is None:
        gathered = _gather_source_outcomes(
            batch_runner, cache, key, source, sequences, interrupt
        )
        if gather_memo is not None:
            expected, raw_expected, source_errors, _hits = gathered
            caching = cache is not None and key is not None
            replay_hits = [caching] * count
            if source_errors is not None:
                for i in source_errors:
                    replay_hits[i] = False  # errors are never cached
            gather_memo.insert(
                0,
                (
                    key,
                    list(sequences),
                    (expected, raw_expected, source_errors, replay_hits),
                ),
            )
            del gather_memo[GATHER_MEMO_SLOTS:]
    expected, raw_expected, source_errors, cache_hit = gathered
    actual = batch_runner.run_sequences(candidate, sequences, interrupt)
    visited = count
    try:
        for i in range(count):
            if source_errors is not None and i in source_errors:
                # Source errors propagate, exactly like the scalar path.
                visited = i + 1
                raise source_errors[i]
            cand_tag, cand_payload = actual[i]
            if cand_tag == "err":
                visited = i + 1
                if isinstance(cand_payload, ExecutionError):
                    return i  # ill-formed candidate fails the sequence
                raise cand_payload
            if cand_payload == raw_expected[i]:
                continue  # raw-identical outputs are canonically identical
            if canonicalize_outputs(cand_payload) != expected[i]:
                visited = i + 1
                return i
        return None
    finally:
        if visit is not None:
            visit(visited, sum(cache_hit[:visited]))


def make_interrupt_check(deadline, cancel) -> Optional[Callable[[], bool]]:
    """The standard deadline/cancellation predicate shared by the completers.

    *deadline* is an absolute ``time.perf_counter()`` instant, *cancel* a
    ``threading.Event``; returns ``None`` when neither is set so callers can
    skip per-iteration polling entirely.
    """
    if deadline is None and cancel is None:
        return None

    def check() -> bool:
        if cancel is not None and cancel.is_set():
            return True
        return deadline is not None and time.perf_counter() > deadline

    return check


@contextmanager
def interrupt_scope(tester, verifier, check: Optional[Callable[[], bool]]):
    """Install *check* as the interrupt hook on *tester* and *verifier*.

    The shared install/restore bracket used by every completer around its
    completion loop; previous hooks are restored on exit even when the loop
    raises.  *verifier* may be ``None``; a ``None`` *check* still (re)sets
    the hooks, keeping the scope symmetric.
    """
    previous_tester = tester.interrupt
    tester.interrupt = check
    previous_verifier = verifier.interrupt if verifier is not None else None
    if verifier is not None:
        verifier.interrupt = check
    try:
        yield
    finally:
        tester.interrupt = previous_tester
        if verifier is not None:
            verifier.interrupt = previous_verifier


@dataclass
class TesterStatistics:
    sequences_executed: int = 0
    source_cache_hits: int = 0
    candidates_tested: int = 0
    #: Candidates that went through the full ``SequenceGenerator`` enumeration
    #: (i.e. were not rejected by a pooled counterexample first).
    full_enumerations: int = 0
    #: Sequences executed inside full enumerations (basis for the
    #: sequences-saved estimate reported per synthesis run).
    full_enumeration_sequences: int = 0


class BoundedTester:
    """Tests candidate programs against a fixed source program."""

    def __init__(
        self,
        source: Program,
        *,
        seeds: SeedSet | None = None,
        max_updates: int = 2,
        relevance_filter: bool = True,
        max_sequences: int = 200000,
        source_cache: SourceOutputCache | None = None,
        pool: CounterexamplePool | None = None,
        pool_screening_budget: Optional[int] = None,
        execution_backend: str = "compiled",
        compiler: ProgramCompiler | None = None,
    ):
        self.source = source
        self.seeds = seeds or SeedSet.default()
        self.max_updates = max_updates
        self.relevance_filter = relevance_filter
        self.max_sequences = max_sequences
        self.stats = TesterStatistics()
        self.pool = pool
        self.pool_screening_budget = pool_screening_budget
        # The compiler caches compiled functions across candidates (they share
        # immutable per-function ASTs), so one compiler serves the whole run;
        # parallel workers pass in a process-global one.  The columnar
        # backend also gets a batch runner, which must share that compiler so
        # scalar and batched executions reuse the same compiled artefacts.
        if execution_backend == "columnar" and compiler is None:
            compiler = ProgramCompiler()
        self._run = make_runner(execution_backend, compiler)
        self._batch = make_batch_runner(execution_backend, compiler)
        # A private bounded cache when none is shared with us: behaviour is
        # identical, memory just stays bounded.  (``is None``, not ``or`` — an
        # empty shared cache is falsy but must still be adopted.)
        self._source_cache = source_cache if source_cache is not None else SourceOutputCache()
        self._source_key = format_program(source)
        # Gathered source-side batch outcomes per screening chunk — see
        # ``batched_first_divergence``'s *gather_memo*.
        self._gather_memo: list = []
        #: Optional cooperative-interruption hook: when set, it is polled once
        #: per executed sequence and a ``True`` return aborts the enumeration
        #: with :class:`TestingInterrupted`.  The completer installs (and
        #: restores) it around each ``complete`` call.
        self.interrupt: Optional[Callable[[], bool]] = None

    # ---------------------------------------------------------------- running
    def _source_outputs(self, sequence: InvocationSequence) -> tuple:
        return cached_source_outputs(
            self._source_cache, self._source_key, self._run, self.source, sequence, self.stats
        )

    def _candidate_outputs(self, candidate: Program, sequence: InvocationSequence) -> tuple | None:
        try:
            return canonicalize_outputs(self._run(candidate, sequence))
        except ExecutionError:
            # An ill-formed candidate (e.g. a delete table-list incompatible
            # with the chosen join chain) is treated as failing the sequence.
            return None

    def differs_on(self, candidate: Program, sequence: InvocationSequence) -> bool:
        """Whether source and candidate disagree on one invocation sequence."""
        if self.interrupt is not None and self.interrupt():
            raise TestingInterrupted()
        self.stats.sequences_executed += 1
        expected = self._source_outputs(sequence)
        actual = self._candidate_outputs(candidate, sequence)
        return actual is None or actual != expected

    def _interrupt_hook(self) -> None:
        """Raising form of the interrupt poll, passed into batch kernels."""
        if self.interrupt is not None and self.interrupt():
            raise TestingInterrupted()

    def differs_on_batch(
        self, candidate: Program, sequences: list[InvocationSequence]
    ) -> Optional[int]:
        """Batched ``differs_on``: index of the first divergent sequence.

        Verdict-, error- and statistics-identical to calling
        :meth:`differs_on` on each sequence in order and stopping at the
        first ``True`` — see :func:`batched_first_divergence`.  Requires the
        columnar backend.
        """
        if self._batch is None:
            raise RuntimeError("batched testing requires execution_backend='columnar'")

        def visit(visited: int, source_cache_hits: int) -> None:
            self.stats.sequences_executed += visited
            self.stats.source_cache_hits += source_cache_hits

        return batched_first_divergence(
            self._batch,
            self._source_cache,
            self._source_key,
            self.source,
            candidate,
            list(sequences),
            # No hook installed → no per-node polling inside the kernels.
            interrupt=self._interrupt_hook if self.interrupt is not None else None,
            visit=visit,
            gather_memo=self._gather_memo,
        )

    # --------------------------------------------------------------- MFI search
    def find_failing_input(self, candidate: Program) -> Optional[InvocationSequence]:
        """Return a failing input, or ``None`` if none exists up to the bound.

        With a counterexample pool attached the returned sequence may come
        from the pool, in which case it is a sound failing input but not
        necessarily a *minimum* one.
        """
        self.stats.candidates_tested += 1
        if self.pool is not None and len(self.pool) > 0:
            if self._batch is not None:
                hit = self.pool.screen_batch(
                    candidate, self.differs_on_batch, self.pool_screening_budget
                )
            else:
                hit = self.pool.screen(candidate, self.differs_on, self.pool_screening_budget)
            if hit is not None:
                return hit
        self.stats.full_enumerations += 1
        generator = SequenceGenerator(
            programs=[self.source, candidate],
            seeds=self.seeds,
            max_updates=self.max_updates,
            relevance_filter=self.relevance_filter,
        )
        if self._batch is not None:
            return self._find_failing_enumerated_batched(candidate, generator)
        checked = 0
        for sequence in generator.sequences():
            checked += 1
            if checked > self.max_sequences:
                break
            if self.differs_on(candidate, sequence):
                self.stats.full_enumeration_sequences += checked
                if self.pool is not None:
                    self.pool.add(sequence)
                return sequence
        self.stats.full_enumeration_sequences += checked
        return None

    def _find_failing_enumerated_batched(
        self, candidate: Program, generator: SequenceGenerator
    ) -> Optional[InvocationSequence]:
        """The full-enumeration loop in chunks through the batch kernels.

        Chunks grow geometrically: enumerated sequences share long prefixes
        (the generator emits them in product order), so large chunks let the
        trie kernel amortize nearly all update execution, while a small
        first chunk keeps quickly-killed candidates cheap.  ``checked``
        bookkeeping reproduces the scalar loop exactly, including the
        bound-tripping sequence that the scalar loop counts but never
        executes.
        """
        iterator = generator.sequences()
        checked = 0
        chunk_size = 16
        while checked < self.max_sequences:
            take = min(chunk_size, self.max_sequences - checked)
            chunk = list(itertools.islice(iterator, take))
            if not chunk:
                self.stats.full_enumeration_sequences += checked
                return None
            checked += len(chunk)
            index = self.differs_on_batch(candidate, chunk)
            if index is not None:
                checked -= len(chunk) - (index + 1)
                self.stats.full_enumeration_sequences += checked
                if self.pool is not None:
                    self.pool.add(chunk[index])
                return chunk[index]
            chunk_size = min(chunk_size * 4, 256)
        if next(iterator, None) is not None:
            checked += 1  # the scalar loop counts the sequence that trips the bound
        self.stats.full_enumeration_sequences += checked
        return None

    def check_equivalent(self, candidate: Program) -> bool:
        """Bounded equivalence check (no failing input up to the bound)."""
        return self.find_failing_input(candidate) is None

    def explain(self, candidate: Program) -> str:
        """A human-readable verdict used by examples and error messages."""
        failing = self.find_failing_input(candidate)
        if failing is None:
            return "no failing input found up to the testing bound"
        expected = self._source_outputs(failing)
        actual = self._candidate_outputs(candidate, failing)
        return (
            f"programs differ on: {format_sequence(failing)}\n"
            f"  source outputs:    {expected}\n"
            f"  candidate outputs: {actual}"
        )
