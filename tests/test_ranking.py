"""Coverage ranking: normalization, top sets, ranking math, properties."""

import gc
import math
import random
import warnings
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsearch import (
    Context,
    DataError,
    DegenerateContextError,
    EmptyContextError,
    ScoreTable,
    ValidationError,
    normalize,
    rank,
    top_set,
)
from covsearch.ranking import _Pool
from helpers import build_table, make_space, random_instance, ranking_as_tuples
from oracle_impl import reference_rank


def one_hp_table(per_context, split="test", domain=("x", "y", "z", "w")):
    space = make_space(("hp", "categorical", list(domain)))
    return space, build_table(
        space,
        {split: {ctx: {(v,): s for v, s in rows.items()} for ctx, rows in per_context.items()}},
    )


class TestNormalize:
    def test_divides_by_max(self):
        space, table = one_hp_table({("d", 100): {"x": 4.0, "y": 5.0, "z": 2.0}})
        out = normalize(table, Context("d", 100), "test")
        values = {cfg.values[0]: sn for cfg, sn in out.items()}
        assert values == {"x": 0.8, "y": 1.0, "z": 0.4}

    def test_singleton_is_one(self):
        space, table = one_hp_table({("d", 100): {"x": 7.0}})
        out = normalize(table, Context("d", 100), "test")
        assert list(out.values()) == [1.0]

    def test_argmax_exactly_one(self):
        for seed in range(20):
            _, table, raw = random_instance(seed)
            for (ds, size), rows in raw["test"].items():
                out = normalize(table, Context(ds, size), "test")
                best = max(rows.values())
                top = [sn for cfg, sn in out.items() if rows[cfg.values] == best]
                assert all(sn == 1.0 for sn in top)
                assert all(0 < sn <= 1.0 for sn in out.values())

    def test_empty_context(self):
        space, table = one_hp_table({("d", 100): {"x": 1.0}})
        with pytest.raises(EmptyContextError, match="empty context"):
            normalize(table, Context("other", 100), "test")

    def test_degenerate_context(self):
        space, table = one_hp_table({("d", 100): {"x": 0.0, "y": 0.0}})
        with pytest.raises(DegenerateContextError, match="degenerate"):
            normalize(table, Context("d", 100), "test")


class TestTopSet:
    def test_strictly_above(self):
        space, table = one_hp_table({("d", 100): {"x": 100.0, "y": 98.0, "z": 96.0}})
        ts = top_set(table, Context("d", 100), "test", 0.97)
        assert {c.values[0] for c in ts.configs} == {"x", "y"}

    def test_boundary_excluded(self):
        space, table = one_hp_table({("d", 100): {"x": 100.0, "y": 97.0}})
        ts = top_set(table, Context("d", 100), "test", 0.97)
        assert {c.values[0] for c in ts.configs} == {"x"}

    def test_tie_at_max(self):
        space, table = one_hp_table({("d", 100): {"x": 5.0, "y": 5.0, "z": 1.0}})
        ts = top_set(table, Context("d", 100), "test", 0.97)
        assert {c.values[0] for c in ts.configs} == {"x", "y"}

    def test_members_and_membership(self):
        space, table = one_hp_table({("d", 100): {"x": 100.0, "y": 50.0, "z": 98.0}})
        ts = top_set(table, Context("d", 100), "test", 0.97)
        x, y, z = (space.configuration([v]) for v in "xyz")
        assert ts.members == ((x, 1.0), (z, 0.98))
        assert x in ts and z in ts and y not in ts

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 1.5])
    def test_threshold_domain(self, threshold):
        space, table = one_hp_table({("d", 100): {"x": 1.0}})
        with pytest.raises(ValidationError, match="threshold"):
            top_set(table, Context("d", 100), "test", threshold)


class TestRankExamples:
    def test_three_contexts(self):
        # A: top set {x: 1.0, y: 0.98}; B: {x: 1.0}; C: {z: 1.0}
        space, table = one_hp_table(
            {
                ("A", 100): {"x": 100.0, "y": 98.0, "w": 50.0},
                ("B", 100): {"x": 100.0, "w": 10.0},
                ("C", 100): {"z": 100.0, "x": 50.0, "y": 50.0},
            }
        )
        ranking = rank(table, threshold=0.97)
        assert [e.config.values[0] for e in ranking.entries] == ["x", "z", "y"]
        by_name = {e.config.values[0]: e for e in ranking.entries}
        assert by_name["x"].score_sum == 2.0
        assert by_name["z"].score_sum == 1.0
        assert by_name["y"].score_sum == 0.98
        assert by_name["x"].coverage == {Context("A", 100), Context("B", 100)}
        assert by_name["z"].coverage == {Context("C", 100)}
        assert by_name["y"].coverage == frozenset()

    def test_no_contexts(self):
        _, table = one_hp_table({("A", 100): {"x": 3.0}})
        with pytest.raises(DataError, match="^no contexts to rank over$"):
            rank(table, [])

    def test_single_context_single_config(self):
        space, table = one_hp_table({("A", 100): {"x": 3.0}})
        ranking = rank(table)
        (entry,) = ranking.entries
        assert entry.config.values == ("x",)
        assert entry.score_sum == 1.0
        assert entry.coverage == {Context("A", 100)}

    def test_disjoint_singletons_tie_break(self):
        # Both configs have score_sum 1.0 and coverage size 1; the config
        # earlier in domain order wins.
        space, table = one_hp_table(
            {
                ("A", 100): {"x": 100.0, "y": 50.0},
                ("B", 100): {"y": 100.0, "x": 50.0},
            },
            domain=("x", "y"),
        )
        ranking = rank(table, threshold=0.97)
        assert [e.config.values[0] for e in ranking.entries] == ["x", "y"]
        by_name = {e.config.values[0]: e for e in ranking.entries}
        assert by_name["x"].coverage == {Context("A", 100)}
        assert by_name["y"].coverage == {Context("B", 100)}

    def test_provenance(self):
        space, table = one_hp_table(
            {("A", 100): {"x": 1.0}, ("B", 1000): {"x": 2.0}}
        )
        ranking = rank(table, threshold=0.5)
        assert ranking.contexts == (Context("A", 100), Context("B", 1000))
        assert ranking.split == "test"
        assert ranking.threshold == 0.5

    def test_degenerate_context_errors_by_default(self):
        space, table = one_hp_table(
            {("A", 100): {"x": 1.0}, ("B", 100): {"x": 0.0}}
        )
        with pytest.raises(DegenerateContextError):
            rank(table)

    def test_skip_degenerate_warns_and_excludes(self):
        space, table = one_hp_table(
            {("A", 100): {"x": 1.0}, ("B", 100): {"x": 0.0}}
        )
        with pytest.warns(UserWarning, match="degenerate"):
            ranking = rank(table, skip_degenerate=True)
        assert ranking.contexts == (Context("A", 100),)

    def test_skip_warning_names_the_caller_of_rank(self):
        space, table = one_hp_table(
            {("A", 100): {"x": 1.0}, ("B", 100): {"x": 0.0}}
        )
        with pytest.warns(UserWarning, match="B@100") as caught:
            rank(table, skip_degenerate=True)
        assert [w.filename for w in caught] == [__file__]

    def test_all_degenerate_fails(self):
        space, table = one_hp_table({("A", 100): {"x": 0.0}})
        with pytest.warns(UserWarning):
            with pytest.raises(DataError, match="degenerate"):
                rank(table, skip_degenerate=True)

    def test_explicit_empty_context_fails(self):
        space, table = one_hp_table({("A", 100): {"x": 1.0}})
        with pytest.raises(EmptyContextError):
            rank(table, [Context("A", 100), Context("missing", 100)])


class TestRankProperties:
    def test_matches_reference_implementation(self):
        for seed in range(150):
            space, table, raw = random_instance(seed, partial=seed % 3 == 0)
            expected = reference_rank(
                raw["test"], [c.values for c in space.grid()], 0.97
            )
            ranking = rank(table, threshold=0.97)
            assert ranking_as_tuples(ranking) == [
                (c, s, cov) for c, s, cov in expected
            ], f"seed {seed}"

    def test_disjoint_coverage_across_distinct_sums(self):
        for seed in range(60):
            _, table, _ = random_instance(seed)
            ranking = rank(table, threshold=0.9)
            for a in ranking.entries:
                for b in ranking.entries:
                    if a.score_sum != b.score_sum:
                        assert not (a.coverage & b.coverage)

    def test_total_coverage(self):
        for seed in range(60):
            _, table, _ = random_instance(seed)
            ranking = rank(table, threshold=0.9)
            covered = set().union(*(e.coverage for e in ranking.entries))
            assert covered == set(ranking.contexts)

    def test_deterministic_under_record_shuffle(self):
        for seed in range(20):
            space, table, _ = random_instance(seed, splits=("test", "validation"))
            records = list(table.records)
            random.Random(seed).shuffle(records)
            shuffled = ScoreTable(space, records)
            assert rank(table) == rank(shuffled)

    def test_scale_invariance_power_of_two(self):
        # Power-of-two rescaling is exact in binary floating point, so the
        # whole ranking, including score sums, must be bit-identical.
        for seed in range(30):
            space, table, raw = random_instance(seed)
            factors = {}
            for i, ctx in enumerate(table.contexts("test")):
                factors[ctx] = [0.25, 0.5, 2.0, 8.0][i % 4]
            scaled = ScoreTable(
                space,
                [
                    type(rec)(
                        context=rec.context,
                        split=rec.split,
                        config=rec.config,
                        score=rec.score * factors[rec.context],
                    )
                    for rec in table.records
                ],
            )
            assert rank(table) == rank(scaled)

    def test_scale_invariance_arbitrary_factor(self):
        for seed in range(30):
            space, table, _ = random_instance(seed)
            factors = {}
            for i, ctx in enumerate(table.contexts("test")):
                factors[ctx] = [3.7, 0.013, 11.0, 1.9][i % 4]
            scaled = ScoreTable(
                space,
                [
                    type(rec)(
                        context=rec.context,
                        split=rec.split,
                        config=rec.config,
                        score=rec.score * factors[rec.context],
                    )
                    for rec in table.records
                ],
            )
            a, b = rank(table), rank(scaled)
            assert [e.config for e in a.entries] == [e.config for e in b.entries]
            assert [e.coverage for e in a.entries] == [e.coverage for e in b.entries]
            for x, y in zip(a.entries, b.entries):
                assert math.isclose(x.score_sum, y.score_sum, rel_tol=1e-12)

    def test_monotone_normalization_invariance_of_top_sets(self):
        space, table = one_hp_table({("d", 100): {"x": 10.0, "y": 9.9, "z": 1.0}})
        scaled = ScoreTable(
            space,
            [
                type(rec)(
                    context=rec.context,
                    split=rec.split,
                    config=rec.config,
                    score=rec.score * 4.0,
                )
                for rec in table.records
            ],
        )
        a = top_set(table, Context("d", 100), "test", 0.97)
        b = top_set(scaled, Context("d", 100), "test", 0.97)
        assert a.configs == b.configs


class TestPoolReuse:
    """One pool answers every held-out dataset, in any order and more than
    once, as a fresh pool does: the levels it builds on first use and the
    ranking entries it keeps across calls change no answer."""

    @staticmethod
    def answer(pool, held_out):
        """The ids in ranking order and the ranking, or the error's message."""
        try:
            ordered, ranking = pool.order(held_out)
        except DataError as err:
            return str(err)
        return ordered, ranking()

    @pytest.mark.parametrize("skip_degenerate", [False, True])
    def test_any_order_matches_a_fresh_pool(self, skip_degenerate):
        for seed in range(40):
            space, table, raw = random_instance(seed, partial=True, max_contexts=8)
            if skip_degenerate:  # the first context is all zero, so the pool leaves it out
                first = raw["test"][min(raw["test"])]
                first.update(dict.fromkeys(first, 0.0))
                table = build_table(space, raw)
            args = (table, table.contexts("test"), "test", (0.3, 0.6, 0.9)[seed % 3])
            calls = [None, None, *table.datasets() * 2]
            random.Random(seed).shuffle(calls)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                pool = _Pool(*args, skip_degenerate)
                for held_out in calls:
                    fresh = self.answer(_Pool(*args, skip_degenerate), held_out)
                    assert self.answer(pool, held_out) == fresh, (seed, held_out)

    def test_a_pool_is_freed_without_the_cycle_collector(self):
        # A pool left for the collector would outlive each rank and loo call,
        # and the collector's passes would slow the calls that follow.
        _, table, _ = random_instance(3, min_datasets=2)
        gc.disable()
        try:
            pool = _Pool(table, table.contexts("test"), "test", 0.6, False)
            _, ranking = pool.order(table.datasets()[0])
            ranking()
            freed = weakref.ref(pool)
            del pool, ranking
            assert freed() is None
        finally:
            gc.enable()


def plain_members(cell, best, threshold):
    """The top set's definition: every id whose score / best exceeds the threshold."""
    return tuple((i, s / best) for i, s in cell.items() if s / best > threshold)


THRESHOLDS = st.one_of(
    st.floats(min_value=0, max_value=1, exclude_min=True, exclude_max=True),
    st.sampled_from(
        [5e-324, 1e-300, 2.2250738585072014e-308, 1e-17, math.nextafter(1.0, 0.0),
         1 - 2**-52, 0.5, 0.9, 0.1]
    ),
)
MAXIMA = st.one_of(
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
    st.sampled_from(
        [5e-324, 1e-320, 2.2250738585072014e-308, 1.0, 3.0, 1e300, 1.7976931348623157e308]
    ),
)


class TestTopSetCut:
    """``top_set`` divides only scores at or above the rounded threshold *
    best; its members equal the plain definition's, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(threshold=THRESHOLDS, best=MAXIMA, data=st.data())
    def test_members_equal_the_plain_definition(self, threshold, best, data):
        cut = threshold * best
        near = [cut, math.nextafter(cut, 0.0), math.nextafter(cut, math.inf),
                math.nextafter(math.nextafter(cut, math.inf), math.inf),
                math.nextafter(math.nextafter(cut, 0.0), 0.0), best, math.nextafter(best, 0.0),
                0.0, 5e-324]
        ratios = data.draw(st.lists(st.floats(0.0, 1.0), max_size=6))
        scores = [min(max(s, 0.0), best) for s in near + [r * best for r in ratios]]
        space = make_space(("hp", "categorical", [f"v{i}" for i in range(len(scores))]))
        table = build_table(
            space, {"test": {("d", 1): {f"v{i}": s for i, s in enumerate(scores)}}}
        )
        members = top_set(table, Context("d", 1), "test", threshold).id_members
        expected = plain_members(table.cell(Context("d", 1), "test"), best, threshold)
        assert [(i, s.hex()) for i, s in members] == [(i, s.hex()) for i, s in expected]
