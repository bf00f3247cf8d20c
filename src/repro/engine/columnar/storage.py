"""Runtime of the columnar execution backend.

Where the compiled backend stores a table as a list of slotted row objects
(:class:`~repro.engine.compiled.CRow`), this backend stores it as parallel
**column lists** plus a rowid column:

* :class:`ColumnTable` — ``cols[offset][position]`` holds the cell values of
  one column, ``rowids[position]`` the stable row identity.  Hash-join build
  sides become cached **key indexes** (value → row positions) that survive
  until the table mutates, so repeated executions of the same join against
  the same instance pay the index build once;
* :class:`ColumnarState` — the per-execution database: tables, UID generator,
  rowid counter, and a per-state cache of join-chain results (join chains
  carry no parameter references, so their row sets only change when a table
  does).  States support cheap **copy-on-write forks**: a fork shares every
  column list until one side writes, which is what makes the batch kernels
  (:mod:`repro.engine.columnar.batch`) able to share an execution prefix
  across many invocation sequences;
* :class:`ColumnarFunction` / :class:`ColumnarProgram` — the executable
  artefacts, mirroring :class:`~repro.engine.compiled.CompiledProgram`
  call/run_sequence semantics exactly (same outputs, same error classes,
  fresh empty database per ``run_sequence``).

Joined rows are tuples of row *positions* (ints) aligned to the join chain's
table order; every attribute access compiles to
``state.tables[table_index].cols[column_offset][jrow[chain_position]]``.

The copy-on-write discipline is sound because cell values are never mutated
in place: updates assign ``cols[offset][position] = value``, deletes rebuild
the column lists, inserts append.  All mutations go through the state methods
below, which also invalidate the affected table's key indexes and the state's
chain cache.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.engine.interpreter import InvocationError
from repro.engine.uid import UidGenerator


class ColumnTable:
    """One table as parallel column lists plus a rowid column."""

    __slots__ = ("cols", "rowids", "shared", "_indexes")

    def __init__(self, num_cols: int):
        self.cols: list[list] = [[] for _ in range(num_cols)]
        self.rowids: list[int] = []
        #: Set when a state fork shares this table; the owning state copies
        #: before writing (see :meth:`ColumnarState.writable`).
        self.shared = False
        self._indexes: dict[tuple[int, ...], dict] = {}

    def key_index(self, offsets: tuple[int, ...]) -> dict:
        """Cached hash index ``key -> [positions]`` over the given columns.

        Raises ``TypeError`` when a key value is unhashable (the caller falls
        back to the nested-loop join, like the compiled backend); a partially
        built index is never cached.  Index dicts are immutable once built,
        so table copies share them until either side mutates.
        """
        index = self._indexes.get(offsets)
        if index is None:
            index = {}
            if len(offsets) == 1:
                for position, value in enumerate(self.cols[offsets[0]]):
                    index.setdefault(value, []).append(position)
            else:
                key_cols = [self.cols[o] for o in offsets]
                for position in range(len(self.rowids)):
                    key = tuple(col[position] for col in key_cols)
                    index.setdefault(key, []).append(position)
            self._indexes[offsets] = index
        return index

    def copy(self) -> "ColumnTable":
        clone = ColumnTable.__new__(ColumnTable)
        clone.cols = [list(col) for col in self.cols]
        clone.rowids = list(self.rowids)
        clone.shared = False
        # Content is identical, so built indexes stay valid; the outer dict is
        # fresh per table, and inner index dicts are never mutated after
        # construction, so sharing them is safe.
        clone._indexes = dict(self._indexes)
        return clone

    def __len__(self) -> int:
        return len(self.rowids)


class ColumnarState:
    """Mutable database state for one execution of a columnar program."""

    __slots__ = ("tables", "uids", "next_rowid", "chain_cache")

    def __init__(self, table_widths: Sequence[int]):
        self.tables: list[ColumnTable] = [ColumnTable(width) for width in table_widths]
        self.uids = UidGenerator()
        self.next_rowid = 1
        #: Join-chain results memoized per state (cleared on any mutation).
        #: Sound because chain conditions are attribute pairs — no parameter
        #: or constant operands — so a chain's row set is a function of the
        #: instance alone.
        self.chain_cache: dict = {}

    # ------------------------------------------------------------------ forks
    def fork(self) -> "ColumnarState":
        """A copy-on-write clone sharing all column storage with this state.

        Both sides keep working: each copies a table privately before its
        first write to it.  UID and rowid counters are copied by value so the
        branches allocate exactly what independent scalar runs would.
        """
        clone = ColumnarState.__new__(ColumnarState)
        for table in self.tables:
            table.shared = True
        clone.tables = list(self.tables)
        clone.uids = self.uids.fork()
        clone.next_rowid = self.next_rowid
        clone.chain_cache = dict(self.chain_cache)
        return clone

    def key(self) -> tuple:
        """Everything later executions can observe, as a hashable value.

        Mirrors :meth:`repro.engine.compiled.CompiledState.key`: rowids and
        cells (with their types) in position order plus both counters.  Key
        indexes and the chain cache are derived from those and left out.
        """
        return (
            self.next_rowid,
            self.uids.count,
            tuple(
                (
                    tuple(table.rowids),
                    *map(tuple, table.cols),
                    *(tuple(map(type, col)) for col in table.cols),
                )
                for table in self.tables
            ),
        )

    def writable(self, table_index: int) -> ColumnTable:
        table = self.tables[table_index]
        if table.shared:
            table = table.copy()
            self.tables[table_index] = table
        return table

    # -------------------------------------------------------------- mutations
    def append_row(self, table_index: int, vals: Iterable[Any]) -> None:
        table = self.writable(table_index)
        for col, value in zip(table.cols, vals):
            col.append(value)
        table.rowids.append(self.next_rowid)
        self.next_rowid += 1
        table._indexes = {}
        self.chain_cache.clear()

    def delete_rows(self, table_index: int, rowid_set: set[int]) -> None:
        table = self.writable(table_index)
        old_rowids = table.rowids
        keep = [p for p, rowid in enumerate(old_rowids) if rowid not in rowid_set]
        if len(keep) == len(old_rowids):
            return
        table.rowids = [old_rowids[p] for p in keep]
        table.cols = [[col[p] for p in keep] for col in table.cols]
        table._indexes = {}
        self.chain_cache.clear()

    def set_cells(self, table_index: int, offset: int, positions: Iterable[int], value) -> None:
        table = self.writable(table_index)
        col = table.cols[offset]
        for position in positions:
            col[position] = value
        table._indexes = {}
        self.chain_cache.clear()


class ColumnarFunction:
    """One compiled function: parameter metadata plus the executable closure.

    Mirrors :class:`~repro.engine.compiled.CompiledFunction`; ``run`` takes
    ``(state, bindings)`` and is pure with respect to everything but *state*.
    """

    __slots__ = ("name", "param_names", "is_query", "run")

    def __init__(
        self,
        name: str,
        param_names: tuple[str, ...],
        is_query: bool,
        run: Callable[[ColumnarState, dict], Any],
    ):
        self.name = name
        self.param_names = param_names
        self.is_query = is_query
        self.run = run


class ColumnarProgram:
    """A program compiled to columnar closures, executable from empty state."""

    __slots__ = ("name", "table_widths", "functions")

    def __init__(
        self,
        name: str,
        table_widths: tuple[int, ...],
        functions: dict[str, ColumnarFunction],
    ):
        self.name = name
        self.table_widths = table_widths
        self.functions = functions

    def new_state(self) -> ColumnarState:
        return ColumnarState(self.table_widths)

    def call(self, state: ColumnarState, name: str, args: Sequence[Any] = ()) -> list[tuple] | None:
        """Invoke one function against *state* (mirrors ``CompiledProgram.call``)."""
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

        Output- and error-equivalent to the interpreter and the compiled
        backend on the same program (pinned by ``tests/test_columnar.py``).
        """
        state = ColumnarState(self.table_widths)
        outputs: list[list[tuple]] = []
        for name, args in sequence:
            result = self.call(state, name, args)
            if result is not None:
                outputs.append(result)
        return outputs
