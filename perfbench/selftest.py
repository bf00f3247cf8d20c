"""The benchmark's own test: its output checks reject deliberately wrong results.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Exits 0 and prints ``ok`` when every check accepts a correct result and
rejects a corrupted one; exits 1 naming the check that let a wrong result
through.  It is a plain script, not collected by the repository's pytest
suite, because it exercises the benchmark's code, not the package's.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._prepare_environment()

import serverloop  # noqa: E402
import suite  # noqa: E402


def _drop_first_update(program):
    """The same program with its first update function's statements removed."""
    from repro.lang.ast import UpdateFunction

    functions = list(program)
    for index, function in enumerate(functions):
        if isinstance(function, UpdateFunction) and function.statements:
            functions[index] = dataclasses.replace(function, statements=())
            return program.with_functions(functions)
    raise AssertionError("program has no update function to corrupt")


def check_migration_outputs() -> list[str]:
    from repro.core import migrate

    failures = []
    inputs = suite.build_inputs("migrate-suite", seed=1)
    for inp in (next(i for i in inputs if i.name == "Oracle-1"), inputs[-1]):
        result = migrate(inp.source, inp.target, suite.synthesis_config("migrate-suite"))
        if suite.check_result("migrate-suite", inp, result, seed=1):
            failures.append(f"{inp.name}: a correct program was rejected")
        corrupted = dataclasses.replace(result, program=_drop_first_update(result.program))
        if not suite.check_result("migrate-suite", inp, corrupted, seed=1):
            failures.append(f"{inp.name}: a corrupted program was accepted")
        unsolved = dataclasses.replace(result, program=None)
        if not suite.check_result("migrate-suite", inp, unsolved, seed=1):
            failures.append(f"{inp.name}: an unsolved input was accepted")
    return failures


def check_enum_outputs() -> list[str]:
    from repro.core import migrate

    inp = next(i for i in suite.build_inputs("enum-search", seed=1) if i.name == "Ambler-5")
    result = migrate(inp.source, inp.target, suite.synthesis_config("enum-search"))
    failures = []
    if suite.check_result("enum-search", inp, result, seed=1):
        failures.append("enum-search: a correct run was rejected")
    short = dataclasses.replace(result, iterations=suite.ENUM_CAP - 1)
    if not suite.check_result("enum-search", inp, short, seed=1):
        failures.append("enum-search: a run short of the cap was accepted")
    return failures


def check_server_outputs() -> list[str]:
    reference = {"Oracle-1": "program text"}
    good = serverloop.JobSample(0, "Oracle-1", name="j000-x", status="done")
    wrong = serverloop.JobSample(1, "Oracle-1", name="j001-x", status="done")
    failed = serverloop.JobSample(2, "Oracle-1", name="j002-x", status="failed")
    programs = {"j000-x": "program text", "j001-x": "other text", "j002-x": "program text"}
    problems = serverloop.check_jobs([good, wrong, failed], programs, reference)
    failures = []
    if good.problem:
        failures.append("server-loop: a correct job was rejected")
    if not wrong.problem:
        failures.append("server-loop: a job whose program differs was accepted")
    if not failed.problem:
        failures.append("server-loop: a job that did not settle done was accepted")
    if len(problems) != 2:
        failures.append(f"server-loop: expected 2 problem lines, got {problems}")
    return failures


def main() -> int:
    failures = check_migration_outputs() + check_enum_outputs() + check_server_outputs()
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
