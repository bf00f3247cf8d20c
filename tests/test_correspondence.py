"""Tests for similarity, value correspondences, and their lazy enumeration."""

from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.correspondence import (
    DEFAULT_ALPHA,
    FactoredVcEnumerator,
    MaxSatVcEnumerator,
    ValueCorrespondence,
    ValueCorrespondenceEnumerator,
    VcEnumerationError,
    compatible_targets,
    identity_correspondence,
    levenshtein,
    name_similarity,
    normalized_similarity,
)
from repro.corpus import generate_corpus
from repro.datamodel import Attribute, DataType as T, make_schema
from repro.datamodel.types import compatible
from repro.lang.builder import ProgramBuilder, eq, insert, select
from repro.workloads import benchmark_names, get_benchmark


@cache
def reference_levenshtein(left: str, right: str) -> int:
    """The textbook O(n·m) dynamic program: the oracle for the bit-parallel kernel."""
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    previous = list(range(len(right) + 1))
    for i, lchar in enumerate(left, start=1):
        current = [i]
        for j, rchar in enumerate(right, start=1):
            cost = 0 if lchar == rchar else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def reference_similarity(left: str, right: str, alpha: int = DEFAULT_ALPHA) -> int:
    """``name_similarity``'s documented rule, scored with the reference DP."""
    a, b = left.lower(), right.lower()
    if a == b:
        return alpha
    if len(a) >= 3 and len(b) >= 3 and (a in b or b in a):
        return alpha - 1
    return alpha - 2 * reference_levenshtein(a, b)


def reference_targets(source, target, attr):
    """``compatible_targets`` scored pair by pair, with no sharing."""
    scored = [
        (candidate, reference_similarity(attr.name, candidate.name))
        for candidate in target.attributes()
        if compatible(source.type_of(attr), target.type_of(candidate))
    ]
    scored.sort(
        key=lambda pair: (
            -pair[1],
            -reference_similarity(attr.table, pair[0].table),
            str(pair[0]),
        )
    )
    return scored


def _ranking_workloads():
    workloads = [get_benchmark(name) for name in benchmark_names()]
    workloads.extend(workload.benchmark() for workload in generate_corpus(1, 25))
    return workloads


# Names with repeated characters, non-ASCII characters and lengths past one
# 64-bit machine word (the kernel's bit vectors are unbounded Python ints).
_names = st.one_of(
    st.text(max_size=12),
    st.text(alphabet="aab_éß漢", max_size=80),
    st.text(alphabet="ab", min_size=60, max_size=140),
)


# ----------------------------------------------------------------------------- similarity
class TestSimilarity:
    def test_levenshtein_basics(self):
        assert levenshtein("", "") == 0
        assert levenshtein("abc", "abc") == 0
        assert levenshtein("abc", "") == 3
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("IPic", "Pic") == 1

    def test_levenshtein_symmetry(self):
        assert levenshtein("email", "mail") == levenshtein("mail", "email")

    @settings(max_examples=50, deadline=None)
    @given(st.text(max_size=8), st.text(max_size=8), st.text(max_size=8))
    def test_levenshtein_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @settings(max_examples=300, deadline=None)
    @given(_names, _names)
    @example("", "")
    @example("", "é" * 70)
    @example("a" * 65, "a" * 64)
    @example("x" * 64 + "y", "y" + "x" * 64)
    @example("users_email_address", "E-mail адрес")
    def test_levenshtein_equals_reference_dp(self, left, right):
        assert levenshtein(left, right) == reference_levenshtein(left, right)
        assert levenshtein(right, left) == reference_levenshtein(left, right)

    def test_identical_names_score_alpha(self):
        assert name_similarity("InstId", "instid") == DEFAULT_ALPHA

    def test_substring_rename_scores_high(self):
        assert name_similarity("email", "email_address") == DEFAULT_ALPHA - 1

    def test_unrelated_names_score_negative(self):
        assert name_similarity("users_email", "products_weight") < 0

    def test_normalized_similarity_bounds(self):
        assert normalized_similarity("abc", "abc") == 1.0
        assert 0.0 <= normalized_similarity("abc", "xyz") <= 1.0


# ---------------------------------------------------------------------- value correspondence
@pytest.fixture()
def simple_pair():
    source = make_schema("src", {"A": {"x": T.INT, "y": T.STRING}})
    target = make_schema("tgt", {"B": {"x": T.INT, "z": T.STRING}})
    return source, target


class TestValueCorrespondence:
    def test_image_and_dropped(self, simple_pair):
        source, target = simple_pair
        vc = ValueCorrespondence(source, target, {Attribute("A", "x"): {Attribute("B", "x")}})
        assert vc.image(Attribute("A", "x")) == frozenset({Attribute("B", "x")})
        assert not vc.is_mapped(Attribute("A", "y"))
        assert Attribute("A", "y") in vc.dropped_attributes()

    def test_unknown_source_attribute_rejected(self, simple_pair):
        source, target = simple_pair
        with pytest.raises(ValueError):
            ValueCorrespondence(source, target, {Attribute("A", "nope"): set()})

    def test_unknown_target_attribute_rejected(self, simple_pair):
        source, target = simple_pair
        with pytest.raises(ValueError):
            ValueCorrespondence(
                source, target, {Attribute("A", "x"): {Attribute("B", "nope")}}
            )

    def test_inverse(self, simple_pair):
        source, target = simple_pair
        vc = ValueCorrespondence(
            source,
            target,
            {Attribute("A", "x"): {Attribute("B", "x")}, Attribute("A", "y"): {Attribute("B", "z")}},
        )
        inverse = vc.inverse()
        assert inverse[Attribute("B", "z")] == {Attribute("A", "y")}

    def test_equality_and_hash(self, simple_pair):
        source, target = simple_pair
        vc1 = ValueCorrespondence(source, target, {Attribute("A", "x"): {Attribute("B", "x")}})
        vc2 = ValueCorrespondence(source, target, {Attribute("A", "x"): {Attribute("B", "x")}})
        assert vc1 == vc2
        assert len({vc1, vc2}) == 1

    def test_identity_correspondence(self, course_source_schema, course_target_schema):
        vc = identity_correspondence(course_source_schema, course_target_schema)
        assert vc.image(Attribute("Instructor", "IName")) == frozenset(
            {Attribute("Instructor", "IName")}
        )
        # IPic has no same-named target attribute and is dropped
        assert not vc.is_mapped(Attribute("Instructor", "IPic"))


# ----------------------------------------------------------------------------- enumeration
class TestEnumeration:
    def test_compatible_targets_filters_types_and_sorts(self, course_source_schema, course_target_schema):
        targets = compatible_targets(
            course_source_schema, course_target_schema, Attribute("Instructor", "IPic")
        )
        names = [attr for attr, _ in targets]
        assert names[0] == Attribute("Picture", "Pic")
        assert all(course_target_schema.type_of(a) == T.BINARY for a, _ in targets)

    def test_ranking_matches_per_pair_reference(self):
        """Targets per source attribute, the engine choice and the first 30
        value correspondences equal a per-pair scoring with the reference DP,
        on every registry benchmark and a seeded corpus slice."""
        for benchmark in _ranking_workloads():
            source, target = benchmark.source_program.schema, benchmark.target_schema
            ranked = [reference_targets(source, target, attr) for attr in source.attributes()]
            for attr, expected in zip(source.attributes(), ranked):
                assert compatible_targets(source, target, attr) == expected, (benchmark.name, attr)

            enumerator = ValueCorrespondenceEnumerator(benchmark.source_program, target)
            if sum(len(row) for row in ranked) <= 12:
                assert enumerator.engine_name == "maxsat"
                reference = MaxSatVcEnumerator(benchmark.source_program, target, ranked=ranked)
            else:
                assert enumerator.engine_name == "factored"
                reference = FactoredVcEnumerator(benchmark.source_program, target, ranked=ranked)
            expected_vcs = [
                (candidate.weight, candidate.correspondence)
                for candidate, _ in zip(reference.candidates(), range(30))
            ]
            actual_vcs = [
                (candidate.weight, candidate.correspondence)
                for candidate, _ in zip(enumerator, range(30))
            ]
            assert actual_vcs == expected_vcs, benchmark.name
            if enumerator.engine_name == "factored":
                # The objective Σ sim − α·C(|image|, 2), summed from scratch.
                weights = dict(zip(source.attributes(), map(dict, ranked)))
                objectives = [
                    sum(
                        sum(weights[attr][image_attr] for image_attr in image)
                        - DEFAULT_ALPHA * (len(image) * (len(image) - 1) // 2)
                        for attr, image in vc.items()
                    )
                    for _, vc in actual_vcs
                ]
                assert [weight for weight, _ in actual_vcs] == objectives, benchmark.name
                assert objectives == sorted(objectives, reverse=True), benchmark.name

    def test_first_vc_of_running_example(self, course_program, course_target_schema):
        enumerator = ValueCorrespondenceEnumerator(course_program, course_target_schema)
        first = enumerator.next_value_corr()
        vc = first.correspondence
        assert vc.image(Attribute("Instructor", "IPic")) == frozenset({Attribute("Picture", "Pic")})
        assert vc.image(Attribute("TA", "TPic")) == frozenset({Attribute("Picture", "Pic")})
        assert vc.image(Attribute("Instructor", "InstId")) == frozenset(
            {Attribute("Instructor", "InstId")}
        )

    def test_enumeration_is_non_increasing_in_weight(self, course_program, course_target_schema):
        enumerator = FactoredVcEnumerator(course_program, course_target_schema)
        weights = []
        for candidate, _ in zip(enumerator.candidates(), range(15)):
            weights.append(candidate.weight)
        assert weights == sorted(weights, reverse=True)

    def test_enumeration_never_repeats(self, course_program, course_target_schema):
        enumerator = FactoredVcEnumerator(course_program, course_target_schema)
        seen = set()
        for candidate, _ in zip(enumerator.candidates(), range(25)):
            key = candidate.correspondence.key()
            assert key not in seen
            seen.add(key)

    def test_queried_attribute_without_target_raises(self):
        source = make_schema("s", {"A": {"x": T.BINARY}})
        target = make_schema("t", {"B": {"y": T.INT}})
        pb = ProgramBuilder("p", source)
        pb.query("q", [("v", "binary")], select(["A.x"], "A", eq("A.x", "$v")))
        program = pb.build()
        with pytest.raises(VcEnumerationError):
            ValueCorrespondenceEnumerator(program, target)

    def test_engines_agree_on_optimum_weight(self):
        """On a tiny schema, the factored engine and the full MaxSAT encoding agree."""
        source = make_schema("s", {"A": {"id": T.INT, "name": T.STRING}})
        target = make_schema(
            "t", {"B": {"id": T.INT, "name": T.STRING, "title": T.STRING}}
        )
        pb = ProgramBuilder("p", source)
        pb.update("add", [("id", "int"), ("name", "str")],
                  insert("A", {"A.id": "$id", "A.name": "$name"}))
        pb.query("get", [("id", "int")], select(["A.name"], "A", eq("A.id", "$id")))
        program = pb.build()

        factored = FactoredVcEnumerator(program, target)
        maxsat = MaxSatVcEnumerator(program, target)
        best_factored = next(factored.candidates())
        best_maxsat = next(maxsat.candidates())
        assert best_factored.correspondence == best_maxsat.correspondence
        # objective values are reported on different scales (satisfied weight vs
        # factored reward), but both must map name -> name and id -> id
        assert best_factored.correspondence.image(Attribute("A", "name")) == frozenset(
            {Attribute("B", "name")}
        )

    def test_auto_engine_selects_maxsat_for_tiny_schemas(self):
        source = make_schema("s", {"A": {"x": T.INT}})
        target = make_schema("t", {"B": {"x": T.INT}})
        pb = ProgramBuilder("p", source)
        pb.query("q", [("v", "int")], select(["A.x"], "A", eq("A.x", "$v")))
        enumerator = ValueCorrespondenceEnumerator(pb.build(), target, engine="auto")
        assert enumerator.engine_name == "maxsat"

    def test_auto_engine_selects_factored_for_larger_schemas(
        self, course_program, course_target_schema
    ):
        enumerator = ValueCorrespondenceEnumerator(
            course_program, course_target_schema, engine="auto"
        )
        assert enumerator.engine_name == "factored"

    def test_unknown_engine_rejected(self, course_program, course_target_schema):
        with pytest.raises(ValueError):
            ValueCorrespondenceEnumerator(course_program, course_target_schema, engine="magic")

    def test_max_fanout_limits_image_size(self, course_program, course_target_schema):
        enumerator = FactoredVcEnumerator(course_program, course_target_schema, max_fanout=1)
        for candidate, _ in zip(enumerator.candidates(), range(20)):
            for _, image in candidate.correspondence.items():
                assert len(image) <= 1
