"""Runtime of the compiled execution backend.

The compiler (:mod:`repro.engine.compiler`) translates a program AST once
into Python closures; this module holds the lean data layer those closures
run against:

* :class:`CRow` — a slotted row whose values live in a list indexed by the
  column *offset* resolved at compile time (no per-access ``dict[Attribute]``
  lookup, no per-row column-name dict);
* :class:`CompiledState` — table storage as a list of row lists indexed by a
  compile-time table index, plus the per-execution UID generator and rowid
  counter;
* :class:`CompiledFunction` / :class:`CompiledProgram` — the executable
  artefacts, with :meth:`CompiledProgram.run_sequence` mirroring
  :func:`repro.engine.interpreter.run_invocation_sequence` (same outputs,
  same error behaviour, fresh empty database per call).

Joined rows in this backend are plain tuples of :class:`CRow` objects
aligned to the join chain's table order; provenance (the rowid of each
source row) therefore comes for free and the compiler turns every attribute
access into a ``row[table_index].vals[column_offset]`` closure.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.engine.interpreter import InvocationError
from repro.engine.uid import UidGenerator


class CRow:
    """A slotted table row: stable identity plus offset-indexed values."""

    __slots__ = ("rowid", "vals")

    def __init__(self, rowid: int, vals: list):
        self.rowid = rowid
        self.vals = vals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CRow({self.rowid}, {self.vals})"


class CompiledState:
    """Mutable database state for one execution of a compiled program."""

    __slots__ = ("tables", "uids", "next_rowid")

    def __init__(self, num_tables: int):
        self.tables: list[list[CRow]] = [[] for _ in range(num_tables)]
        self.uids = UidGenerator()
        self.next_rowid = 1

    def append_row(self, table_index: int, vals: list) -> None:
        self.tables[table_index].append(CRow(self.next_rowid, vals))
        self.next_rowid += 1

    def clear(self) -> None:
        for rows in self.tables:
            rows.clear()
        self.uids.reset()
        self.next_rowid = 1

    def fork(self) -> "CompiledState":
        """An independent copy; rows are copied because updates write in place."""
        clone = CompiledState.__new__(CompiledState)
        clone.tables = [[CRow(row.rowid, list(row.vals)) for row in rows] for rows in self.tables]
        clone.uids = self.uids.fork()
        clone.next_rowid = self.next_rowid
        return clone

    def key(self) -> tuple:
        """Everything later executions can observe, as a hashable value.

        Rows in table order with their rowids, plus both counters.  Cell
        types are part of the key: ``True == 1`` in Python, but the two
        canonicalize differently.  Two states with equal keys behave
        identically under every invocation, because execution is
        deterministic in exactly these fields.
        """
        return (
            self.next_rowid,
            self.uids.count,
            tuple(
                tuple((row.rowid, *row.vals, *map(type, row.vals)) for row in rows)
                for rows in self.tables
            ),
        )


class CompiledFunction:
    """One compiled function: parameter metadata plus the executable closure.

    ``run`` takes ``(state, bindings)``; query functions return the list of
    result tuples, update functions return ``None``.  Closures are pure with
    respect to the state argument, so one compiled function is reusable
    across executions and across programs that share its AST and schema.
    """

    __slots__ = ("name", "param_names", "is_query", "run")

    def __init__(
        self,
        name: str,
        param_names: tuple[str, ...],
        is_query: bool,
        run: Callable[[CompiledState, dict], Any],
    ):
        self.name = name
        self.param_names = param_names
        self.is_query = is_query
        self.run = run


class CompiledProgram:
    """A program compiled to closures, executable from the empty database."""

    __slots__ = ("name", "num_tables", "functions")

    def __init__(self, name: str, num_tables: int, functions: dict[str, CompiledFunction]):
        self.name = name
        self.num_tables = num_tables
        self.functions = functions

    def new_state(self) -> CompiledState:
        return CompiledState(self.num_tables)

    def call(self, state: CompiledState, name: str, args: Sequence[Any] = ()) -> list[tuple] | None:
        """Invoke one function against *state* (mirrors ``ProgramInterpreter.call``)."""
        func = self.functions.get(name)
        if func is None:
            # Same error class as Program.function on an unknown name.
            raise KeyError(f"program {self.name!r} has no function {name!r}")
        if len(args) != len(func.param_names):
            raise InvocationError(
                f"function {name!r} expects {len(func.param_names)} arguments, got {len(args)}"
            )
        bindings = dict(zip(func.param_names, args))
        if func.is_query:
            return func.run(state, bindings)
        func.run(state, bindings)
        return None

    def run_sequence(self, sequence: Iterable[tuple[str, Sequence[Any]]]) -> list[list[tuple]]:
        """Execute an invocation sequence from the empty database.

        Output- and error-equivalent to
        :func:`repro.engine.interpreter.run_invocation_sequence` on the same
        program (pinned by ``tests/test_compiled.py``).
        """
        state = CompiledState(self.num_tables)
        outputs: list[list[tuple]] = []
        for name, args in sequence:
            result = self.call(state, name, args)
            if result is not None:
                outputs.append(result)
        return outputs
