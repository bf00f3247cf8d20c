"""Batch execution kernels over columnar programs.

Two vectorized entry points, both returning per-item **outcomes** — ``("ok",
outputs)`` or ``("err", exception)`` — aligned with their input order:

* :func:`run_sequences_batch` — one program, many invocation sequences.  The
  sequences are arranged into a prefix trie and executed by depth-first walk:
  a shared prefix runs **once**, and the copy-on-write
  :meth:`~repro.engine.columnar.storage.ColumnarState.fork` splits the state
  only at branch points where an update runs (query invocations mutate
  nothing and execute forkless on the shared state, so a fan of sibling
  queries — the dominant shape in screening pools — reuses one chain
  materialization; the last update child of every node inherits the parent
  state without copying).  Enumerated counterexample sequences share long
  prefixes by construction (``SequenceGenerator`` emits them in product
  order), so this amortizes nearly all state setup and update execution.
* :func:`run_programs_batch` — many programs, one sequence.  Programs are
  grouped per step by the *identity* of the function object the step resolves
  to; candidates that share compiled closures (the instantiator's AST sharing
  plus the compiler's function cache make this common) execute each shared
  step once.

Both kernels are exactly outcome-equivalent to running every item through
``program.run_sequence`` on its own:

* programs are deterministic, so an error raised while executing a trie node
  is the error every sequence through that node would raise; the exception
  object is recorded for the whole subtree and execution of that branch
  stops, exactly where the scalar runs would have stopped;
* UID and rowid counters are forked by value, so each branch allocates
  exactly the fresh values its scalar run would allocate;
* a sequence whose invocations are unhashable (list-valued arguments can
  reach here through constant pools) cannot be a trie key and falls back to
  a scalar ``run_sequence``, preserving outcomes trivially.

The optional ``interrupt`` hook is polled before every trie-node execution
and every scalar fallback; it must *raise* to abort (the equivalence layer
passes a closure raising ``TestingInterrupted``).  Whatever it raises
propagates out of the kernel — it is never folded into an outcome.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.engine.columnar.storage import ColumnarProgram, ColumnarState

Outcome = tuple[str, Any]


class _Node:
    __slots__ = ("children", "ends", "plan")

    def __init__(self):
        self.children: dict = {}
        self.ends: list[int] = []
        #: Inline cache of the children classified against one program's
        #: function table — see :func:`_classify`.
        self.plan = None


def _fail_subtree(node: _Node, error: BaseException, outcomes: list) -> None:
    stack = [node]
    while stack:
        n = stack.pop()
        for i in n.ends:
            outcomes[i] = ("err", error)
        stack.extend(n.children.values())


def _classify(children: dict, functions: dict) -> tuple:
    """Resolve a node's child invocations against one function table.

    Returns ``(functions, queries, mutators)``: *queries* holds
    ``(child, run, bindings)`` for well-formed query invocations, *mutators*
    ``(child, run, bindings, invocation)`` for everything else (``run`` is
    ``None`` for unknown names and arity mismatches, which must go through
    ``program.call`` for its exact error).  The result is cached on the node
    keyed by the functions dict (checked by identity), so replaying a
    memoized trie against the same program — every screening chunk runs the
    source and each candidate over identical tries — resolves and binds each
    invocation once instead of once per walk.  Bindings dicts are safe to
    share across walks: compiled closures only ever read them.
    """
    queries = []
    mutators = []
    for invocation, child in children.items():
        func = functions.get(invocation[0])
        if func is not None and len(invocation[1]) == len(func.param_names):
            bindings = dict(zip(func.param_names, invocation[1]))
            if func.is_query:
                queries.append((child, func.run, bindings))
            else:
                mutators.append((child, func.run, bindings, invocation))
        else:
            mutators.append((child, None, None, invocation))
    return (functions, tuple(queries), tuple(mutators))


def build_trie(
    sequences: Sequence[Sequence[tuple[str, Sequence[Any]]]],
) -> tuple[_Node, list[int]]:
    """Arrange *sequences* into a prefix trie.

    Returns the root node plus the indices of sequences that cannot be trie
    keys (unhashable argument values) and must run through the scalar
    fallback.  The trie depends only on the sequences, never on a program,
    so callers screening a stable pool may build it once and replay it
    against many programs (see :class:`ColumnarBatchRunner`); the kernel
    never mutates the nodes.
    """
    root = _Node()
    scalar: list[int] = []
    for i, seq in enumerate(sequences):
        node = root
        try:
            for invocation in seq:
                child = node.children.get(invocation)
                if child is None:
                    child = node.children[invocation] = _Node()
                node = child
        except TypeError:  # unhashable argument value
            scalar.append(i)
            continue
        node.ends.append(i)
    return root, scalar


def run_sequences_batch(
    program: ColumnarProgram,
    sequences: Sequence[Sequence[tuple[str, Sequence[Any]]]],
    interrupt: Optional[Callable[[], None]] = None,
    trie: Optional[tuple[_Node, list[int]]] = None,
) -> list[Outcome]:
    """Execute *program* against every sequence, sharing prefix work.

    Returns one outcome per sequence: ``("ok", outputs)`` with the same
    outputs ``program.run_sequence`` would return, or ``("err", e)`` with the
    exception it would raise.  *trie* is an optional prebuilt
    :func:`build_trie` result for exactly these sequences.
    """
    outcomes: list[Optional[Outcome]] = [None] * len(sequences)
    root, scalar = trie if trie is not None else build_trie(sequences)

    functions = program.functions

    def walk(node: _Node, state: ColumnarState, outputs: list, owned: bool) -> None:
        for i in node.ends:
            # Recorded before descending: children mutate state, and the
            # last child extends this very outputs list.
            outcomes[i] = ("ok", list(outputs))
        children = node.children
        if not children:
            return
        # Query invocations never mutate the state (queries write no tables
        # and allocate no UIDs), so they run directly on the shared parent
        # state with no fork — sibling queries then reuse one chain
        # materialization through the state's chain cache.  Everything else
        # (updates, unknown names, wrong arities) goes through the fork
        # discipline: the last such child inherits the state, but only when
        # this walk *owns* it (a query subtree runs on a state its ancestors
        # still need, and must fork before any mutation).
        plan = node.plan
        if plan is None or plan[0] is not functions:
            plan = node.plan = _classify(children, functions)
        queries, mutators = plan[1], plan[2]
        last_query = len(queries) - 1
        for k, (child, run, bindings) in enumerate(queries):
            if interrupt is not None:
                interrupt()
            try:
                result = run(state, bindings)
            except Exception as error:
                _fail_subtree(child, error, outcomes)
                continue
            walk(child, state, outputs + [result],
                 owned and not mutators and k == last_query)
        last = len(mutators) - 1
        for k, (child, run, bindings, invocation) in enumerate(mutators):
            if interrupt is not None:
                interrupt()
            if k == last and owned:
                child_state, child_outputs = state, outputs
            else:
                child_state, child_outputs = state.fork(), list(outputs)
            try:
                if run is not None:
                    run(child_state, bindings)
                    result = None
                else:
                    # Unknown name or arity mismatch: go through the program
                    # so the error class and message match the scalar path.
                    result = program.call(child_state, invocation[0], invocation[1])
            except Exception as error:
                _fail_subtree(child, error, outcomes)
                continue
            if result is not None:
                child_outputs.append(result)
            walk(child, child_state, child_outputs, True)

    walk(root, program.new_state(), [], True)

    for i in scalar:
        if interrupt is not None:
            interrupt()
        try:
            outcomes[i] = ("ok", program.run_sequence(sequences[i]))
        except Exception as error:
            outcomes[i] = ("err", error)
    return outcomes


def run_programs_batch(
    programs: Sequence[ColumnarProgram],
    sequence: Sequence[tuple[str, Sequence[Any]]],
    interrupt: Optional[Callable[[], None]] = None,
) -> list[Outcome]:
    """Execute every program against *sequence*, sharing identical steps.

    Programs are partitioned step by step: all programs whose current
    invocation resolves to the **same function object** advance through one
    shared execution (their states are necessarily identical, having run the
    same closures from the same empty database).  Unknown-function steps are
    keyed by ``(name, program name)`` because the resulting ``KeyError``
    message embeds the program's name.
    """
    outcomes: list[Optional[Outcome]] = [None] * len(programs)
    sequence = list(sequence)

    def run_group(step: int, indices: list[int], state: ColumnarState, outputs: list) -> None:
        if step == len(sequence):
            for i in indices:
                outcomes[i] = ("ok", list(outputs))
            return
        name, args = sequence[step]
        buckets: dict = {}
        for i in indices:
            func = programs[i].functions.get(name)
            key = id(func) if func is not None else ("missing", name, programs[i].name)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [i]
            else:
                bucket.append(i)
        last = len(buckets) - 1
        for k, bucket in enumerate(buckets.values()):
            if interrupt is not None:
                interrupt()
            if k == last:
                child_state, child_outputs = state, outputs
            else:
                child_state, child_outputs = state.fork(), list(outputs)
            try:
                result = programs[bucket[0]].call(child_state, name, args)
            except Exception as error:
                for i in bucket:
                    outcomes[i] = ("err", error)
                continue
            if result is not None:
                child_outputs.append(result)
            run_group(step + 1, bucket, child_state, child_outputs)

    groups: dict[tuple[int, ...], list[int]] = {}
    for i, program in enumerate(programs):
        groups.setdefault(program.table_widths, []).append(i)
    for widths, indices in groups.items():
        run_group(0, indices, ColumnarState(widths), [])
    return outcomes


class ColumnarBatchRunner:
    """Batch-execution facade bound to a compiler's columnar cache.

    The equivalence layer holds one of these (see ``make_batch_runner``) and
    feeds it AST programs; compilation goes through the shared
    ``ProgramCompiler`` so scalar and batched paths reuse the same compiled
    artefacts and the same compiler statistics.

    The runner also memoizes prefix tries: pool screening replays the same
    sequence chunks against every candidate, so the trie for a chunk is
    built once and reused until the pool re-sorts.  Reuse is guarded by a
    full content comparison against the memoized chunk — cheap, because the
    pool hands out slices of its cached snapshot and comparing identical
    sequence tuples short-circuits on identity — so a reordered or mutated
    chunk can never replay a stale trie.
    """

    #: Distinct chunk shapes alive per screen (small first chunk, grown
    #: follow-ups, the tester's enumeration chunks); a handful suffices.
    TRIE_MEMO_SLOTS = 8

    def __init__(self, compiler):
        self.compiler = compiler
        self._tries: list = []

    def _trie_for(self, sequences):
        for slot, (memo_sequences, trie) in enumerate(self._tries):
            if memo_sequences == sequences:
                if slot:  # keep the hottest chunks at the front
                    self._tries.insert(0, self._tries.pop(slot))
                return trie
        trie = build_trie(sequences)
        self._tries.insert(0, (list(sequences), trie))
        del self._tries[self.TRIE_MEMO_SLOTS:]
        return trie

    def run_sequences(
        self,
        program,
        sequences,
        interrupt: Optional[Callable[[], None]] = None,
    ) -> list[Outcome]:
        compiled = self.compiler.compile_columnar(program)
        return run_sequences_batch(compiled, sequences, interrupt, self._trie_for(sequences))

    def run_programs(
        self,
        programs,
        sequence,
        interrupt: Optional[Callable[[], None]] = None,
    ) -> list[Outcome]:
        compiled = [self.compiler.compile_columnar(p) for p in programs]
        return run_programs_batch(compiled, sequence, interrupt)
