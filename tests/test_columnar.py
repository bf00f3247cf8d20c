"""Differential tests: the compiled engine's forked-state path vs the interpreter.

The verifier's state-pair search never replays a sequence from the empty
database: it runs each invocation on a ``fork()`` of the previous state and
deduplicates states by ``key()``.  ``tests/test_compiled.py`` pins
``CompiledProgram.run_sequence``; this module pins the step-wise path the
search actually takes:

* every registered workload, executed on enumerated and random invocation
  sequences with a fresh fork before every invocation, produces identical
  outputs (exact row order and UID allocation) to the interpreter, and no
  invocation on a fork changes the state it was forked from;
* the hand-built ill-formed programs raise the same exception classes at
  the same points on that path, including lazy per-row errors that stay
  silent on empty tables;
* tester counterexamples under either backend replay as real divergences,
  the compiler shares unchanged functions between a source and a candidate,
  and unknown backend names are rejected by every entry point.

The module and two of its test names keep the ids they had when these
checks targeted the former column-store backend, so the suite's ids stay
stable across that backend's removal.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.datamodel import DataType as T, make_schema
from repro.datamodel.instance import InstanceError
from repro.engine import ProgramCompiler, compile_program, run_invocation_sequence
from repro.engine.compiler import make_runner
from repro.engine.interpreter import InvocationError
from repro.engine.joins import ExecutionError
from repro.equivalence.invocation import SequenceGenerator
from repro.equivalence.result_compare import canonicalize_outputs
from repro.equivalence.tester import BoundedTester
from repro.equivalence.verifier import BoundedVerifier
from repro.lang.ast import UpdateFunction
from repro.lang.builder import (
    ProgramBuilder,
    const,
    delete,
    eq,
    in_query,
    insert,
    join,
    select,
    update,
)
from repro.workloads.registry import load_all


def run_forked(program, sequence):
    """Outputs of *sequence* on the compiled engine, forking before each call.

    Asserts that each invocation leaves the state it was forked from
    untouched: the state-pair search keeps parents alive across branches.
    """
    compiled = compile_program(program)
    state = compiled.new_state()
    outputs = []
    for name, args in sequence:
        parent, parent_key = state, state.key()
        state = parent.fork()
        result = compiled.call(state, name, args)
        assert parent.key() == parent_key, f"{name}{args} wrote through a fork"
        if result is not None:
            outputs.append(result)
    return outputs


def both_outcomes(program, sequence):
    """(kind, payload) pairs for the interpreter and the forked compiled path.

    Outputs compare exactly (not canonicalized): the paths must agree on
    row order and UID allocation, not merely up to renaming.
    """

    def run(runner):
        try:
            return ("ok", runner())
        except AssertionError:
            raise
        except Exception as error:  # noqa: BLE001 - the class is the assertion
            return ("err", type(error))

    interp = run(lambda: run_invocation_sequence(program, sequence))
    forked = run(lambda: run_forked(program, sequence))
    return interp, forked


def assert_equivalent(program, sequence):
    interp, forked = both_outcomes(program, sequence)
    assert interp == forked, (
        f"paths diverge on {sequence}: interpreter={interp} forked={forked}"
    )


# ----------------------------------------------------------------- workloads
WORKLOADS = load_all().names()


@pytest.mark.parametrize("name", WORKLOADS)
def test_differential_enumerated_sequences(name):
    """Enumerated bounded-tester sequences agree exactly on every workload."""
    program = load_all().get(name).source_program
    generator = SequenceGenerator(programs=[program])
    checked = 0
    for sequence in itertools.islice(generator.sequences(), 80):
        checked += 1
        assert run_invocation_sequence(program, sequence) == run_forked(program, sequence)
    assert checked > 0


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(WORKLOADS),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_differential_random_sequences(name, seed):
    """Property: random sequences from the registry agree on both paths."""
    program = load_all().get(name).source_program
    generator = SequenceGenerator(programs=[program])
    rng = random.Random(seed)
    for sequence in generator.random_sequences(3, 5, rng):
        assert_equivalent(program, sequence)


# ------------------------------------------------------------ error semantics
@pytest.fixture()
def two_table_schema():
    return make_schema(
        "s",
        {
            "A": {"id": T.INT, "x": T.STRING},
            "B": {"id": T.INT, "y": T.STRING},
        },
    )


class TestErrorEquivalence:
    """The hand-built error modes of test_compiled.py, on the forked path."""

    def test_self_join_raises_in_both(self, two_table_schema):
        pb = ProgramBuilder("p", two_table_schema)
        pb.query("q", [], select(["A.id"], join(["A", "A"]), None))
        program = pb.build(validate=False)
        interp, forked = both_outcomes(program, [("q", ())])
        assert interp == forked == ("err", ExecutionError)

    def test_condition_over_foreign_table_raises_in_both(self, two_table_schema):
        pb = ProgramBuilder("p", two_table_schema)
        pb.query("q", [], select(["A.id"], join(["A"], on=[("A.id", "B.id")]), None))
        program = pb.build(validate=False)
        interp, forked = both_outcomes(program, [("q", ())])
        assert interp == forked == ("err", ExecutionError)

    def test_delete_target_outside_chain(self, two_table_schema):
        pb = ProgramBuilder("p", two_table_schema)
        pb.update("add", [("i", "int")], insert("A", {"A.id": "$i"}))
        pb.update("d", [], delete(["B"], "A", None))
        program = pb.build(validate=False)
        assert_equivalent(program, [("add", (1,)), ("d", ())])

    def test_update_attribute_outside_chain(self, two_table_schema):
        pb = ProgramBuilder("p", two_table_schema)
        pb.update("add", [("i", "int")], insert("A", {"A.id": "$i"}))
        pb.update("u", [], update("A", None, "B.y", "z"))
        program = pb.build(validate=False)
        assert_equivalent(program, [("add", (1,)), ("u", ())])

    def test_predicate_attribute_error_is_lazy(self, two_table_schema):
        pb = ProgramBuilder("p", two_table_schema)
        pb.update("add", [("i", "int")], insert("A", {"A.id": "$i"}))
        pb.query("q", [], select(["A.id"], "A", eq("B.y", "z")))
        program = pb.build(validate=False)
        empty, empty_f = both_outcomes(program, [("q", ())])
        assert empty == empty_f == ("ok", [[]])
        populated, populated_f = both_outcomes(program, [("add", (1,)), ("q", ())])
        assert populated == populated_f == ("err", ExecutionError)

    def test_join_condition_bad_column_is_lazy(self, two_table_schema):
        pb = ProgramBuilder("p", two_table_schema)
        pb.update("a", [("i", "int")], insert("A", {"A.id": "$i"}))
        pb.update("b", [("i", "int")], insert("B", {"B.id": "$i"}))
        pb.query("q", [], select(["A.id"], join(["A", "B"], on=[("A.nope", "B.id")]), None))
        program = pb.build(validate=False)
        for sequence in (
            [("q", ())],
            [("a", (1,)), ("q", ())],  # one side empty: no pairs, no error
            [("a", (1,)), ("b", (1,)), ("q", ())],
        ):
            assert_equivalent(program, sequence)

    def test_unknown_table_error_ordering(self, two_table_schema):
        pb = ProgramBuilder("p", two_table_schema)
        pb.update("add", [("i", "int")], insert("A", {"A.id": "$i"}))
        pb.query(
            "q", [], select(["A.id"], join(["A", "C"], on=[("A.nope", "A.x")]), None)
        )
        program = pb.build(validate=False)
        interp, forked = both_outcomes(program, [("q", ())])
        assert interp == forked == ("err", InstanceError)
        interp, forked = both_outcomes(program, [("add", (1,)), ("q", ())])
        assert interp == forked == ("err", ExecutionError)

    def test_unbound_parameter_raises_in_both(self, two_table_schema):
        pb = ProgramBuilder("p", two_table_schema)
        pb.update("add", [("i", "int")], insert("A", {"A.id": "$i"}))
        pb.query("q", [], select(["A.id"], "A", eq("A.id", "$nope")))
        program = pb.build(validate=False)
        assert_equivalent(program, [("q", ())])  # no rows: predicate never runs
        assert_equivalent(program, [("add", (1,)), ("q", ())])

    def test_arity_and_unknown_function(self, two_table_schema):
        pb = ProgramBuilder("p", two_table_schema)
        pb.query("q", [("i", "int")], select(["A.id"], "A", eq("A.id", "$i")))
        program = pb.build(validate=False)
        interp, forked = both_outcomes(program, [("q", ())])
        assert interp == forked == ("err", InvocationError)
        interp, forked = both_outcomes(program, [("zzz", ())])
        assert interp == forked == ("err", KeyError)


# ------------------------------------------------------- engine entry points
def _deletes_everyone(people_program):
    """A candidate whose deletePerson deletes every row: observably different."""
    return people_program.with_functions(
        [f for f in people_program if f.name != "deletePerson"]
        + [
            UpdateFunction(
                "deletePerson",
                people_program.function("deletePerson").params,
                (delete(["Person"], "Person", None),),
            )
        ],
        name="broken",
    )


class TestColumnarEngine:
    def test_insert_into_join_uid_allocation_order(self, course_target_schema):
        """Fresh UIDs are observable in outputs: allocation order survives forks."""
        pb = ProgramBuilder("p", course_target_schema)
        chain = join(["Picture", "Instructor"], on=[("Picture.PicId", "Instructor.PicId")])
        pb.update("add", [("n", "str")], insert(chain, {"Instructor.IName": "$n"}))
        pb.query("all_pics", [], select(["Picture.PicId", "Picture.Pic"], "Picture", None))
        pb.query("joined", [], select(["Instructor.IName"], chain, None))
        program = pb.build(validate=False)
        assert_equivalent(
            program, [("add", ("Ann",)), ("add", ("Bob",)), ("all_pics", ()), ("joined", ())]
        )

    def test_in_subquery_unhashable_values_fall_back(self, two_table_schema):
        pb = ProgramBuilder("p", two_table_schema)
        pb.update("a", [], insert("A", {"A.id": const([1]), "A.x": const("ax")}))
        pb.update("b", [], insert("B", {"B.id": const(1), "B.y": const("by")}))
        pb.query("probe", [], select(["A.x"], "A", in_query("A.id", select(["B.id"], "B", None))))
        pb.query("members", [], select(["B.y"], "B", in_query("B.id", select(["A.id"], "A", None))))
        program = pb.build(validate=False)
        assert_equivalent(program, [("a", ()), ("b", ()), ("probe", ()), ("members", ())])

    def test_hash_join_unhashable_key_falls_back(self, two_table_schema):
        """An unhashable join key degrades to the nested loop, same rows."""
        pb = ProgramBuilder("p", two_table_schema)
        pb.update("a", [], insert("A", {"A.id": const([1]), "A.x": const("row-a")}))
        pb.update("b", [("y", "str")], insert("B", {"B.id": const([1]), "B.y": "$y"}))
        pb.query("q", [], select(["A.x", "B.y"], join(["A", "B"], on=[("A.id", "B.id")]), None))
        program = pb.build(validate=False)
        sequence = [("a", ()), ("b", ("row-b",)), ("b", ("row-b2",)), ("q", ())]
        assert_equivalent(program, sequence)
        assert run_forked(program, sequence) == [[("row-a", "row-b"), ("row-a", "row-b2")]]

    def test_tester_backends_agree_on_verdicts(self, people_program):
        """Each backend's counterexample is a real divergence on the interpreter."""
        broken = _deletes_everyone(people_program)
        clone = people_program.with_functions(list(people_program), name="clone")
        for backend in ("interpreter", "compiled"):
            tester = BoundedTester(people_program, execution_backend=backend)
            failing = tester.find_failing_input(broken)
            assert failing is not None
            expected = canonicalize_outputs(run_invocation_sequence(people_program, failing))
            actual = canonicalize_outputs(run_invocation_sequence(broken, failing))
            assert expected != actual
            assert canonicalize_outputs(run_forked(broken, failing)) == actual
            assert tester.check_equivalent(clone)

    def test_compiler_caches_shared_columnar_functions(self, people_program):
        """A candidate shares every unchanged compiled function with its source."""
        compiler = ProgramCompiler()
        source = compiler.compile_program(people_program)
        candidate = compiler.compile_program(_deletes_everyone(people_program))
        for name in people_program.function_names:
            if name == "deletePerson":
                assert source.functions[name] is not candidate.functions[name]
            else:
                assert source.functions[name] is candidate.functions[name]

    def test_unknown_backend_rejected(self, people_program):
        for name in ("vectorized", "jit"):
            with pytest.raises(ValueError, match="known: \\('interpreter', 'compiled'\\)"):
                make_runner(name)
            with pytest.raises(ValueError):
                BoundedVerifier(execution_backend=name)
        assert make_runner("interpreter")(people_program, []) == []
        assert make_runner("compiled")(people_program, []) == []
