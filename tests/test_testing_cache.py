"""Tests for the incremental-testing subsystem (pool, source cache, parallel)."""

import pytest

from repro.core import Synthesizer, SynthesisConfig
from repro.equivalence import BoundedTester, SeedSet, SequenceGenerator
from repro.lang.builder import ProgramBuilder, delete, eq, insert, select
from repro.testing_cache import CounterexamplePool, SourceOutputCache


def _people_variant(people_schema, *, wrong_delete=False, swap_columns=False):
    pb = ProgramBuilder("people_variant", people_schema)
    name_attr, age_attr = "Person.Name", "Person.Age"
    if swap_columns:
        name_attr, age_attr = age_attr, name_attr
    pb.update("addPerson", [("id", "int"), ("name", "str"), ("age", "int")],
              insert("Person", {"Person.PersonId": "$id", name_attr: "$name", age_attr: "$age"}))
    delete_pred = eq("Person.Name", "$id") if wrong_delete else eq("Person.PersonId", "$id")
    pb.update("deletePerson", [("id", "int")], delete("Person", "Person", delete_pred))
    pb.query("getPerson", [("id", "int")],
             select(["Person.Name", "Person.Age"], "Person", eq("Person.PersonId", "$id")))
    pb.query("findByName", [("name", "str")],
             select(["Person.PersonId"], "Person", eq("Person.Name", "$name")))
    return pb.build(validate=False)


# --------------------------------------------------------------------- source cache
class TestSourceOutputCache:
    def test_roundtrip_and_stats(self):
        cache = SourceOutputCache(max_entries=10)
        assert cache.get("p", ("s",)) is None
        cache.put("p", ("s",), ((1,),))
        assert cache.get("p", ("s",)) == ((1,),)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_keys_are_per_program(self):
        cache = SourceOutputCache()
        cache.put("p1", ("s",), ((1,),))
        assert cache.get("p2", ("s",)) is None

    def test_lru_eviction_is_bounded(self):
        cache = SourceOutputCache(max_entries=2)
        cache.put("p", "a", 1)
        cache.put("p", "b", 2)
        cache.get("p", "a")  # refresh "a": "b" becomes the LRU entry
        cache.put("p", "c", 3)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get("p", "b") is None
        assert cache.get("p", "a") == 1

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            SourceOutputCache(max_entries=0)


# ----------------------------------------------------------------------------- pool
class TestCounterexamplePool:
    def test_add_deduplicates(self):
        pool = CounterexamplePool()
        seq = (("f", (1,)),)
        assert pool.add(seq)
        assert not pool.add(seq)
        assert len(pool) == 1
        assert pool.stats.added == 1 and pool.stats.duplicates == 1

    def test_snapshot_orders_cheapest_first(self):
        pool = CounterexamplePool()
        long = (("f", (1,)), ("g", (2,)))
        short = (("g", (2,)),)
        pool.add(long)
        pool.add(short)
        assert pool.snapshot() == [short, long]

    def test_eviction_keeps_hitting_entries(self):
        pool = CounterexamplePool(max_size=2)
        keeper = (("f", (1,)),)
        pool.add(keeper)
        pool.add((("f", (2,)),))
        # A screening hit protects the entry from eviction.
        assert pool.screen("candidate", lambda c, s: s == keeper) == keeper
        pool.add((("f", (3,)),))
        assert len(pool) == 2
        assert keeper in pool
        assert pool.stats.evicted == 1

    def test_screen_budget_limits_executions(self):
        pool = CounterexamplePool()
        for i in range(5):
            pool.add((("f", (i,)),))
        executed = []
        pool.screen("candidate", lambda c, s: executed.append(s) or False, budget=2)
        assert len(executed) == 2
        assert pool.stats.hits == 0

    def test_merge_counts_new_entries(self):
        pool = CounterexamplePool()
        pool.add((("f", (1,)),))
        added = pool.merge([(("f", (1,)),), (("f", (2,)),)])
        assert added == 1 and len(pool) == 2

    def test_snapshot_sorts_once_per_mutation(self):
        """Regression: screening N candidates must not re-sort N times.

        The screening order is cached; only an ``add`` (new entry or
        eviction) or a screening hit — the events that change the sort key —
        may invalidate it.
        """
        pool = CounterexamplePool()
        for i in range(4):
            pool.add((("f", (i,)),))
        assert pool.stats.snapshot_sorts == 0  # sorting is lazy
        for _ in range(10):
            pool.screen("candidate", lambda c, s: False)
        assert pool.stats.snapshot_sorts == 1  # one sort serves all ten screens
        pool.add((("f", (99,)),))
        pool.screen("candidate", lambda c, s: False)
        assert pool.stats.snapshot_sorts == 2  # add() invalidated the order
        hit = (("f", (0,)),)
        assert pool.screen("candidate", lambda c, s: s == hit) == hit
        assert pool.stats.snapshot_sorts == 2  # the hit reused the cached order...
        pool.screen("candidate", lambda c, s: False)
        assert pool.stats.snapshot_sorts == 3  # ...but invalidated it for the next

    def test_screen_batch_matches_scalar_screen(self):
        """Batched screening returns the scalar path's first hit and stats."""
        sequences = [(("f", (i,)),) for i in range(20)]
        target = sequences[11]

        def differs(_candidate, sequence):
            return sequence == target

        def differs_batch(_candidate, chunk):
            for index, sequence in enumerate(chunk):
                if sequence == target:
                    return index
            return None

        scalar_pool, batch_pool = CounterexamplePool(), CounterexamplePool()
        for pool in (scalar_pool, batch_pool):
            for sequence in sequences:
                pool.add(sequence)
        assert scalar_pool.screen("c", differs) == target
        assert batch_pool.screen_batch("c", differs_batch) == target
        assert batch_pool.stats.hits == scalar_pool.stats.hits == 1
        assert (
            batch_pool.stats.sequences_screened == scalar_pool.stats.sequences_screened
        )
        assert batch_pool.stats.sequences_screened_batched >= 12
        assert batch_pool.stats.screening_batches >= 1
        # Budget cuts both paths at the same point (the earlier hit moved the
        # target ahead in both orders, so both find it again within budget).
        assert scalar_pool.screen("c", differs, budget=5) == batch_pool.screen_batch(
            "c", differs_batch, budget=5
        )
        assert (
            batch_pool.stats.sequences_screened == scalar_pool.stats.sequences_screened
        )
        never = lambda _c, _s: False  # noqa: E731
        never_batch = lambda _c, _chunk: None  # noqa: E731
        assert scalar_pool.screen("c", never, budget=5) is None
        assert batch_pool.screen_batch("c", never_batch, budget=5) is None
        assert (
            batch_pool.stats.sequences_screened == scalar_pool.stats.sequences_screened
        )


# ------------------------------------------------------------------ tester integration
class TestTesterPoolIntegration:
    def test_pool_hit_skips_full_enumeration(self, people_program, people_schema):
        pool = CounterexamplePool()
        tester = BoundedTester(people_program, pool=pool)
        first = tester.find_failing_input(_people_variant(people_schema, wrong_delete=True))
        assert first is not None
        assert tester.stats.full_enumerations == 1
        assert len(pool) == 1
        # A second candidate with the same bug dies in screening.
        second = tester.find_failing_input(_people_variant(people_schema, wrong_delete=True))
        assert second == first
        assert tester.stats.full_enumerations == 1
        assert pool.stats.hits == 1

    def test_pool_miss_falls_back_to_full_enumeration(self, people_program, people_schema):
        pool = CounterexamplePool()
        tester = BoundedTester(people_program, pool=pool)
        tester.find_failing_input(_people_variant(people_schema, wrong_delete=True))
        # An equivalent candidate passes screening and the full enumeration.
        assert tester.check_equivalent(_people_variant(people_schema))
        assert tester.stats.full_enumerations == 2

    def test_empty_shared_cache_is_adopted(self, people_program, people_schema):
        # Regression: an *empty* shared cache is falsy and was once discarded
        # by an ``or`` default, silently disabling cross-tester sharing.
        shared = SourceOutputCache()
        tester = BoundedTester(people_program, source_cache=shared)
        tester.check_equivalent(_people_variant(people_schema))
        assert len(shared) > 0

    def test_shared_cache_serves_second_tester(self, people_program, people_schema):
        shared = SourceOutputCache()
        first = BoundedTester(people_program, source_cache=shared)
        first.check_equivalent(_people_variant(people_schema))
        second = BoundedTester(people_program, source_cache=shared)
        second.check_equivalent(_people_variant(people_schema))
        assert second.stats.source_cache_hits > 0


# --------------------------------------------------------------- synthesizer wiring
def _identity_config(**overrides):
    config = SynthesisConfig()
    config.verifier_random_sequences = 10
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


class TestSynthesizerCacheWiring:
    def test_result_carries_cache_stats(self, people_program, people_schema):
        result = Synthesizer(_identity_config()).synthesize(people_program, people_schema)
        assert result.succeeded
        assert result.cache.candidates_fully_tested >= 1
        assert result.cache.source_cache_entries > 0

    def test_result_carries_verifier_search_counters(self, people_program, people_schema):
        config = _identity_config()
        result = Synthesizer(config).synthesize(people_program, people_schema)
        assert result.succeeded
        # The accepted candidate was verified by the state-pair search, and
        # far fewer distinct pairs stood in for the enumerated sequences.
        enumerated = SequenceGenerator(
            programs=[people_program, result.program],
            seeds=SeedSet.exhaustive(),
            max_updates=config.verifier_max_updates,
        ).count()
        assert result.cache.verifier_fallbacks == 0
        assert 0 < result.cache.verifier_state_pairs < enumerated / 10

    def test_pool_flag_disables_screening(self, people_program, people_schema):
        result = Synthesizer(_identity_config(counterexample_pool=False)).synthesize(
            people_program, people_schema
        )
        assert result.succeeded
        assert result.cache.candidates_screened == 0
        assert result.cache.pool_hits == 0


# ------------------------------------------------------------------------- parallel
class TestParallelFrontend:
    def test_parallel_matches_sequential_outcome(self, people_program, people_schema):
        sequential = Synthesizer(_identity_config()).synthesize(people_program, people_schema)
        parallel = Synthesizer(_identity_config(parallel_workers=2)).synthesize(
            people_program, people_schema
        )
        assert parallel.parallel_workers_used == 2
        assert parallel.succeeded == sequential.succeeded
        assert parallel.value_correspondences_tried >= 1
        assert parallel.attempts, "attempts must be merged back from workers"

    def test_parallel_respects_vc_budget(self, people_program, people_schema):
        config = _identity_config(parallel_workers=2, max_value_correspondences=3)
        result = Synthesizer(config).synthesize(people_program, people_schema)
        assert result.value_correspondences_tried <= 3
