"""Equivalence verification (the Mediator substitute).

The original Migrator first runs exhaustive bounded testing and only then
invokes the Mediator verifier, which proves full equivalence by inferring a
bisimulation invariant.  Mediator is not available here, so the final
verification step is replaced by a *deeper* bounded check:

* exhaustive enumeration with a longer update prefix and the full per-type
  seed sets, and
* a batch of randomized invocation sequences beyond the exhaustive bound.

This preserves the observable behaviour of the synthesis loop on the
benchmark family (the paper reports that testing never disagreed with
Mediator), at the cost of soundness beyond the bound, which we document as a
limitation in EXPERIMENTS.md.

The exhaustive pass has two implementations with one result:

* the **ordered loop** runs every sequence of
  :meth:`SequenceGenerator.sequences` from the empty database, in order, and
  stops at the first divergence.  It is the reference: the interpreter
  backend always uses it.
* the **state-pair search** (compiled and columnar backends) walks the same
  sequence space depth by depth.  Queries are grouped by their relevant
  update set; every update invocation runs once on a fork of each distinct
  ``(source state, candidate state)`` pair, and every query invocation runs
  once per distinct pair.  Pairs are deduplicated by an exact state key
  (rows, rowids, cell types, UID counter, ``next_rowid``) across all depths.
  Execution is deterministic in exactly those fields, so two sequences that
  reach equal keys agree on every continuation and checking one checks both.

The search only ever *confirms* a clean pass.  On any divergence, any error,
or when the enumeration would exceed ``max_sequences``, :meth:`verify`
discards it and runs the ordered loop instead, so the first counterexample,
``sequences_checked``, ``method`` and error propagation are exactly the
ordered loop's.  On a clean pass ``sequences_checked`` is the enumeration's
size, computed arithmetically.

``ExecutionError`` semantics match :class:`~repro.equivalence.tester.BoundedTester`
exactly: a candidate that raises is failing (never "equivalently broken"),
and a source that raises propagates the error to the caller.  See the
"Error semantics" section of EXPERIMENTS.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.engine.compiler import ProgramCompiler, make_runner
from repro.engine.joins import ExecutionError
from repro.equivalence.invocation import InvocationSequence, SeedSet, SequenceGenerator
from repro.equivalence.result_compare import canonicalize_outputs
from repro.equivalence.tester import TestingInterrupted, cached_source_outputs
from repro.lang.ast import Program
from repro.lang.pretty import format_program
from repro.testing_cache import SourceOutputCache


@dataclass
class VerifierStatistics:
    """Counters surfaced alongside the tester's on ``SynthesisResult.cache``."""

    source_cache_hits: int = 0
    #: Distinct (source state, candidate state) pairs the search queried.
    state_pairs: int = 0
    #: Exhaustive passes the search handed to the ordered loop.
    ordered_fallbacks: int = 0


@dataclass
class VerificationResult:
    equivalent: bool
    counterexample: Optional[InvocationSequence] = None
    sequences_checked: int = 0
    method: str = "bounded-testing"

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.equivalent


class BoundedVerifier:
    """Deep bounded verification of program equivalence."""

    def __init__(
        self,
        *,
        max_updates: int = 3,
        random_sequences: int = 200,
        random_max_length: int = 5,
        seeds: SeedSet | None = None,
        relevance_filter: bool = True,
        seed: int = 0,
        max_sequences: int = 50000,
        execution_backend: str = "compiled",
        compiler: ProgramCompiler | None = None,
        source_cache: SourceOutputCache | None = None,
    ):
        self.max_updates = max_updates
        self.random_sequences = random_sequences
        self.random_max_length = random_max_length
        self.seeds = seeds or SeedSet.exhaustive()
        self.relevance_filter = relevance_filter
        self.seed = seed
        self.max_sequences = max_sequences
        if execution_backend != "interpreter" and compiler is None:
            compiler = ProgramCompiler()
        self._run = make_runner(execution_backend, compiler)
        #: Program -> executable with ``new_state``/``call``/``functions``,
        #: whose states ``fork`` and ``key``; ``None`` selects the ordered loop.
        self._compile: Optional[Callable] = None
        if execution_backend == "compiled":
            self._compile = compiler.compile_program
        elif execution_backend == "columnar":
            self._compile = compiler.compile_columnar
        # Optional shared source-output memo (same cache the tester uses; keys
        # include the program fingerprint, so sharing across runs — e.g. the
        # migration service verifying several candidates of the same source
        # program — is sound).  Verification outputs are *canonicalized*
        # exactly like the tester's, so entries are interchangeable.
        self._source_cache = source_cache
        self.stats = VerifierStatistics()
        self._source_key: Optional[str] = None
        # The source program is fingerprinted once per *program object*, not
        # once per verify() call: the completion loop verifies many
        # candidates against the same source, and pretty-printing it each
        # time is pure repeated work.  Holding the program reference keeps
        # the identity check sound (no id() reuse while we keep it alive).
        self._keyed_source: Optional[Program] = None
        #: Optional cooperative-interruption hook, mirroring
        #: ``BoundedTester.interrupt``: polled once per sequence of the
        #: ordered loop and the randomized pass, and once per state expansion
        #: and per query batch of the search; a ``True`` return aborts the
        #: pass with :class:`~repro.equivalence.tester.TestingInterrupted`.
        #: The completer installs (and restores) it around each completion
        #: call, so a deep verification pass cannot overrun the run's
        #: deadline or ignore a cancellation request.
        self.interrupt: Optional[Callable[[], bool]] = None

    def _poll(self) -> None:
        if self.interrupt is not None and self.interrupt():
            raise TestingInterrupted()

    def _source_outputs(self, program: Program, sequence: InvocationSequence):
        # Source errors propagate (as in BoundedTester): a source program that
        # cannot execute inside the bounded space is a caller bug, not
        # evidence about the candidate.
        return cached_source_outputs(
            self._source_cache, self._source_key, self._run, program, sequence, self.stats
        )

    def _candidate_outputs(self, program: Program, sequence: InvocationSequence):
        try:
            return canonicalize_outputs(self._run(program, sequence))
        except ExecutionError:
            # Mirror BoundedTester: a candidate that raises is *failing*,
            # even if the source would also error on the same sequence.
            # Treating two errors as equivalent would let a candidate pass
            # verification and then fail testing on the very same sequence.
            return None

    def _differs(self, source: Program, candidate: Program, sequence: InvocationSequence) -> bool:
        self._poll()
        # Source first (exactly like BoundedTester.differs_on): a broken
        # source raises before the candidate is ever consulted.
        expected = self._source_outputs(source, sequence)
        actual = self._candidate_outputs(candidate, sequence)
        return actual is None or actual != expected

    def verify(self, source: Program, candidate: Program) -> VerificationResult:
        if self._source_cache is not None and source is not self._keyed_source:
            self._source_key = format_program(source)
            self._keyed_source = source
        generator = SequenceGenerator(
            programs=[source, candidate],
            seeds=self.seeds,
            max_updates=self.max_updates,
            relevance_filter=self.relevance_filter,
        )
        if self._compile is not None:
            checked = self._search(source, candidate, generator)
            if checked is not None:
                return self._verify_random(source, candidate, generator, checked)
            self.stats.ordered_fallbacks += 1
        return self._verify_ordered(source, candidate, generator)

    def _verify_ordered(
        self, source: Program, candidate: Program, generator: SequenceGenerator
    ) -> VerificationResult:
        """The reference exhaustive pass, then the randomized one."""
        checked = 0
        for sequence in generator.sequences():
            checked += 1
            if checked > self.max_sequences:
                break
            if self._differs(source, candidate, sequence):
                return VerificationResult(False, sequence, checked)
        return self._verify_random(source, candidate, generator, checked)

    def _verify_random(
        self, source: Program, candidate: Program, generator: SequenceGenerator, checked: int
    ) -> VerificationResult:
        rng = random.Random(self.seed)
        for sequence in generator.random_sequences(
            self.random_sequences, self.random_max_length, rng
        ):
            checked += 1
            if self._differs(source, candidate, sequence):
                return VerificationResult(False, sequence, checked, method="randomized-testing")
        return VerificationResult(True, None, checked)

    def _search(
        self, source: Program, candidate: Program, generator: SequenceGenerator
    ) -> Optional[int]:
        """The exhaustive pass as a search over distinct state pairs.

        Returns the ordered loop's ``sequences_checked`` when every query
        agrees on every reachable pair, or ``None`` when the ordered loop must
        decide instead (a divergence, any exception, or a truncated space).
        """
        plans = generator.plan()
        total = generator.count(plans)
        if total > self.max_sequences:
            return None
        # A name missing from a program, or of the other kind there (an
        # update that answers, a query that mutates), changes what a sequence
        # outputs: only the ordered loop models that.
        kinds = {name: False for plan in plans for name, _args in plan.updates}
        kinds.update((plan.query, True) for plan in plans)
        groups: dict[tuple, tuple[list, list]] = {}
        for plan in plans:
            names = tuple(name for name, _args in plan.updates)
            if names not in groups:
                updates = [(name, args) for name, arg_list in plan.updates for args in arg_list]
                groups[names] = (updates, [])
            groups[names][1].extend((plan.query, args) for args in plan.query_args)
        try:
            programs = (self._compile(source), self._compile(candidate))
            for program in programs:
                functions = program.functions
                for name, is_query in kinds.items():
                    if name not in functions or functions[name].is_query is not is_query:
                        return None
            for updates, queries in groups.values():
                if not self._search_group(programs, updates, queries):
                    return None
        except TestingInterrupted:
            raise
        except Exception:
            # The ordered loop reaches the same error at its first sequence
            # through that state, and raises or rejects exactly as it must.
            return None
        return total

    def _search_group(self, programs, updates: list, queries: list) -> bool:
        """Whether every query agrees on every pair reachable by *updates*."""
        source, candidate = programs
        root = (source.new_state(), candidate.new_state())
        seen = {(root[0].key(), root[1].key())}
        frontier = [root]
        for depth in range(self.max_updates + 1):
            self.stats.state_pairs += len(frontier)
            # Queries are read-only, so every query runs on the pair itself.
            for source_state, candidate_state in frontier:
                self._poll()
                for name, args in queries:
                    expected = canonicalize_outputs([source.call(source_state, name, args)])
                    actual = canonicalize_outputs([candidate.call(candidate_state, name, args)])
                    if actual != expected:
                        return False
            if depth == self.max_updates:
                break
            reached = []
            for source_state, candidate_state in frontier:
                self._poll()
                for name, args in updates:
                    next_source = source_state.fork()
                    source.call(next_source, name, args)
                    next_candidate = candidate_state.fork()
                    candidate.call(next_candidate, name, args)
                    key = (next_source.key(), next_candidate.key())
                    if key not in seen:
                        seen.add(key)
                        reached.append((next_source, next_candidate))
            frontier = reached
        return True
