"""Invocation sequences and their enumeration for bounded testing.

An invocation sequence (Section 3.2) is a list of update-function calls
followed by a single query-function call.  The bounded tester enumerates
sequences in increasing length over small per-type constant seed sets; the
first failing sequence found is therefore a *minimum failing input* (MFI).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from repro.datamodel.types import DataType, default_seed_values
from repro.lang.ast import Function, Program, QueryFunction, UpdateFunction
from repro.lang.visitors import join_chains_of_function, attributes_of_function


Invocation = tuple[str, tuple]
InvocationSequence = tuple[Invocation, ...]


@dataclass
class SeedSet:
    """Constant seed values per data type used to instantiate arguments."""

    values: dict[DataType, list[Any]] = field(default_factory=dict)

    @staticmethod
    def default(ints: int = 2, strings: int = 1, binaries: int = 1, bools: int = 2) -> "SeedSet":
        """The default seed set: two integers, one string, one binary blob.

        Integer parameters usually act as keys, where having two distinct
        values matters; payload parameters (names, blobs) rarely need more
        than one distinct value to expose disequivalence.
        """
        full = {
            DataType.INT: default_seed_values(DataType.INT)[:ints],
            DataType.STRING: default_seed_values(DataType.STRING)[:strings],
            DataType.BINARY: default_seed_values(DataType.BINARY)[:binaries],
            DataType.BOOL: default_seed_values(DataType.BOOL)[:bools],
        }
        return SeedSet(full)

    @staticmethod
    def exhaustive() -> "SeedSet":
        """The paper's seed set: the full default constants for every type."""
        return SeedSet({dtype: default_seed_values(dtype) for dtype in DataType})

    def for_type(self, dtype: DataType) -> list[Any]:
        values = self.values.get(dtype)
        if not values:
            return default_seed_values(dtype)[:1]
        return values


def filtered_attributes(program: Program) -> frozenset:
    """Attributes that appear in some predicate of *program*.

    Parameters whose values flow into these attributes act as *keys*: queries
    and deletes select rows by comparing against them, so the bounded tester
    must explore multiple seed values for them.  All other parameters are
    payload and a single distinctive constant per position suffices.
    """
    from repro.lang.ast import AttrRef, Comparison, InQuery, Projection, QueryFunction, Selection
    from repro.lang.visitors import attributes_of_predicate

    attrs: set = set()

    def walk_query(query) -> None:
        node = query
        while isinstance(node, (Projection, Selection)):
            if isinstance(node, Selection):
                attrs.update(attributes_of_predicate(node.predicate))
            node = node.source

    for func in program:
        if isinstance(func, QueryFunction):
            walk_query(func.query)
        else:
            for stmt in func.statements:
                predicate = getattr(stmt, "predicate", None)
                if predicate is not None:
                    attrs.update(attributes_of_predicate(predicate))
    return frozenset(attrs)


def predicate_parameters(func: Function, key_attributes: frozenset = frozenset()) -> frozenset[str]:
    """Parameters of *func* that must range over the seed set.

    These are (a) parameters compared in this function's own predicates and
    (b) parameters whose value is stored into an attribute that some other
    function filters on (``key_attributes`` — see :func:`filtered_attributes`).
    """
    from repro.lang.ast import (
        And,
        Comparison,
        InQuery,
        Insert,
        Not,
        Or,
        Projection,
        QueryFunction,
        Selection,
        TruePred,
        Update,
        UpdateFunction,
        Var,
    )

    names: set[str] = set()

    def walk_predicate(pred) -> None:
        if isinstance(pred, (TruePred,)) or pred is None:
            return
        if isinstance(pred, Comparison):
            for operand in (pred.left, pred.right):
                if isinstance(operand, Var):
                    names.add(operand.name)
            return
        if isinstance(pred, InQuery):
            if isinstance(pred.operand, Var):
                names.add(pred.operand.name)
            walk_query(pred.query)
            return
        if isinstance(pred, (And, Or)):
            walk_predicate(pred.left)
            walk_predicate(pred.right)
            return
        if isinstance(pred, Not):
            walk_predicate(pred.operand)

    def walk_query(query) -> None:
        node = query
        while isinstance(node, (Projection, Selection)):
            if isinstance(node, Selection):
                walk_predicate(node.predicate)
            node = node.source

    if isinstance(func, QueryFunction):
        walk_query(func.query)
    else:
        assert isinstance(func, UpdateFunction)
        for stmt in func.statements:
            predicate = getattr(stmt, "predicate", None)
            if predicate is not None:
                walk_predicate(predicate)
            if isinstance(stmt, Insert):
                for attr, operand in stmt.values:
                    if isinstance(operand, Var) and attr in key_attributes:
                        names.add(operand.name)
            elif isinstance(stmt, Update):
                if isinstance(stmt.value, Var) and stmt.attribute in key_attributes:
                    names.add(stmt.value.name)
    return frozenset(names)


def _payload_value(dtype: DataType, position: int):
    """A distinctive constant for a payload parameter at *position*."""
    if dtype is DataType.INT:
        return 100 + position
    if dtype is DataType.STRING:
        return f"v{position}"
    if dtype is DataType.BINARY:
        return f"blob{position}"
    if dtype is DataType.BOOL:
        return position % 2 == 0
    raise ValueError(f"unknown data type {dtype!r}")


def argument_combinations(
    func: Function, seeds: SeedSet, predicate_params: frozenset[str] | None = None
) -> list[tuple]:
    """Argument tuples for *func*.

    Parameters used in predicates range over the seed set; payload parameters
    take a single distinctive constant each (see :func:`predicate_parameters`).
    When *predicate_params* is ``None`` every parameter ranges over the seeds
    (the paper's exhaustive scheme).
    """
    pools = []
    for position, param in enumerate(func.params):
        if predicate_params is None or param.name in predicate_params:
            pools.append(seeds.for_type(param.dtype))
        else:
            pools.append([_payload_value(param.dtype, position)])
    if not pools:
        return [()]
    return [tuple(combo) for combo in itertools.product(*pools)]


def tables_touched(func: Function) -> frozenset[str]:
    """Tables read or written by a function (used for relevance filtering)."""
    tables: set[str] = set()
    for chain in join_chains_of_function(func):
        tables.update(chain.tables)
    for attr in attributes_of_function(func):
        tables.add(attr.table)
    return frozenset(tables)


class QueryPlan(NamedTuple):
    """One query's slice of the bounded sequence space."""

    query: str
    #: Argument tuples the query is invoked with.
    query_args: list[tuple]
    #: ``(update name, argument tuples)`` of the updates that may precede it.
    updates: tuple[tuple[str, list[tuple]], ...]


@dataclass
class SequenceGenerator:
    """Enumerates invocation sequences in increasing length.

    ``programs`` lists all programs whose behaviour the sequence will be run
    against (the source and the candidate); relevance filtering keeps an
    update function only if it touches a table that the final query touches
    in at least one of the programs.
    """

    programs: Sequence[Program]
    seeds: SeedSet = field(default_factory=SeedSet.default)
    max_updates: int = 2
    relevance_filter: bool = True

    def _touch_map(self) -> dict[str, frozenset[str]]:
        touched: dict[str, set[str]] = {}
        for program in self.programs:
            for func in program:
                touched.setdefault(func.name, set()).update(tables_touched(func))
        return {name: frozenset(tables) for name, tables in touched.items()}

    def _function_lists(self) -> tuple[list[str], list[str]]:
        """Names of update and query functions common to all programs."""
        reference = self.programs[0]
        update_names = [f.name for f in reference.update_functions()]
        query_names = [f.name for f in reference.query_functions()]
        return update_names, query_names

    def plan(self) -> list[QueryPlan]:
        """Per query, in enumeration order: its arguments and relevant updates.

        :meth:`sequences` enumerates exactly the update prefixes (of length
        up to ``max_updates``) over each plan's updates followed by its query;
        the verifier's state-pair search walks the same space from the plans.
        """
        reference = self.programs[0]
        touch = self._touch_map()
        update_names, query_names = self._function_lists()
        key_attrs = filtered_attributes(reference)

        def args_of(name: str) -> list[tuple]:
            func = reference.function(name)
            return argument_combinations(func, self.seeds, predicate_parameters(func, key_attrs))

        update_args = {name: args_of(name) for name in update_names}
        plans = []
        for query_name in query_names:
            relevant_updates = update_names
            if self.relevance_filter:
                query_tables = touch.get(query_name, frozenset())
                relevant_updates = [
                    name for name in update_names if touch.get(name, frozenset()) & query_tables
                ]
            plans.append(
                QueryPlan(
                    query_name,
                    args_of(query_name),
                    tuple((name, update_args[name]) for name in relevant_updates),
                )
            )
        return plans

    def count(self, plans: list[QueryPlan] | None = None) -> int:
        """The number of sequences :meth:`sequences` yields, without enumerating.

        *plans* is this generator's :meth:`plan`, when the caller has it.
        """
        total = 0
        for plan in self.plan() if plans is None else plans:
            invocations = sum(len(args) for _name, args in plan.updates)
            prefixes = sum(invocations**depth for depth in range(self.max_updates + 1))
            total += prefixes * len(plan.query_args)
        return total

    def sequences(self) -> Iterator[InvocationSequence]:
        """Yield sequences in increasing length (then deterministic order)."""
        plans = self.plan()
        for num_updates in range(0, self.max_updates + 1):
            for plan in plans:
                names = [name for name, _args in plan.updates]
                update_args = dict(plan.updates)
                for update_combo in itertools.product(names, repeat=num_updates):
                    arg_pools = [update_args[name] for name in update_combo]
                    arg_pools.append(plan.query_args)
                    for args_combo in itertools.product(*arg_pools):
                        calls = tuple(
                            (name, args)
                            for name, args in zip(update_combo + (plan.query,), args_combo)
                        )
                        yield calls

    def random_sequences(
        self, count: int, max_length: int, rng: random.Random | None = None
    ) -> Iterator[InvocationSequence]:
        """Random sequences (updates followed by a query) for deeper verification."""
        rng = rng or random.Random(0)
        reference = self.programs[0]
        update_names, query_names = self._function_lists()
        if not query_names:
            return
        for _ in range(count):
            length = rng.randint(0, max(0, max_length - 1))
            calls: list[Invocation] = []
            for _ in range(length):
                if not update_names:
                    break
                name = rng.choice(update_names)
                func = reference.function(name)
                args = tuple(
                    rng.choice(self.seeds.for_type(param.dtype)) for param in func.params
                )
                calls.append((name, args))
            query_name = rng.choice(query_names)
            func = reference.function(query_name)
            args = tuple(rng.choice(self.seeds.for_type(param.dtype)) for param in func.params)
            calls.append((query_name, args))
            yield tuple(calls)


def format_sequence(sequence: InvocationSequence) -> str:
    """Human-readable rendering, e.g. ``addTA(1, 'A'); getTAInfo(1)``."""
    parts = []
    for name, args in sequence:
        rendered = ", ".join(repr(a) for a in args)
        parts.append(f"{name}({rendered})")
    return "; ".join(parts)
