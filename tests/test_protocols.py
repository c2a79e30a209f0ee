"""Evaluation protocols: fixed config, upper bound, leave-one-out, budget."""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsearch import (
    Context,
    DataError,
    ScoreTable,
    ValidationError,
    budget_curve,
    compare_protocols,
    fixed_config_eval,
    loo_cbs,
    rank,
    synthetic_table,
    upper_bound,
)
from helpers import build_table, cat_space, make_space, random_instance
from oracle_impl import reference_budget, reference_loo


def one_hp_instance(val, test, domain=("a", "b", "c")):
    """Build a single-hyperparameter table from {ctx: {value: score}} dicts."""
    space = make_space(("hp", "categorical", list(domain)))
    table = build_table(
        space,
        {
            "validation": {ctx: {(v,): s for v, s in rows.items()} for ctx, rows in val.items()},
            "test": {ctx: {(v,): s for v, s in rows.items()} for ctx, rows in test.items()},
        },
    )
    return space, table


class TestFixedConfigEval:
    def test_macro_average(self):
        space, table = one_hp_instance(
            val={},
            test={("A", 100): {"a": 50.0, "b": 1.0}, ("B", 100): {"a": 70.0, "b": 1.0}},
        )
        result = fixed_config_eval(table, space.configuration(["a"]))
        assert result.macro_map == {"all": 60.0}
        assert result.score_map[Context("A", 100)] == 50.0

    def test_single_context(self):
        space, table = one_hp_instance(val={}, test={("A", 100): {"a": 42.0}})
        result = fixed_config_eval(table, space.configuration(["a"]))
        assert result.macro_map == {"all": 42.0}

    def test_missing_context_named(self):
        space, table = one_hp_instance(
            val={},
            test={("A", 100): {"a": 1.0}, ("C", 100): {"b": 1.0}},
        )
        with pytest.raises(DataError, match="C@100"):
            fixed_config_eval(table, space.configuration(["a"]))

    def test_task_grouping(self):
        space, table = one_hp_instance(
            val={},
            test={
                ("A", 100): {"a": 10.0},
                ("B", 100): {"a": 30.0},
                ("C", 100): {"a": 100.0},
            },
        )
        result = fixed_config_eval(
            table,
            space.configuration(["a"]),
            task_map={"A": "t1", "B": "t1", "C": "t2"},
        )
        assert result.macro_map == {"t1": 20.0, "t2": 100.0}

    def test_unmapped_dataset_rejected(self):
        space, table = one_hp_instance(val={}, test={("A", 100): {"a": 1.0}})
        with pytest.raises(DataError, match="task map"):
            fixed_config_eval(table, space.configuration(["a"]), task_map={"B": "t"})


class TestUpperBound:
    def test_validation_selects_test_reports(self):
        space, table = one_hp_instance(
            val={("A", 100): {"a": 0.9, "b": 0.8}},
            test={("A", 100): {"a": 55.0, "b": 70.0}},
        )
        result = upper_bound(table, Context("A", 100))
        assert result.config.values == ("a",)
        assert result.validation_score == 0.9
        assert result.test_score == 55.0  # below the test max, by design

    def test_tie_breaks_by_grid_order(self):
        space, table = one_hp_instance(
            val={("A", 100): {"b": 0.9, "a": 0.9}},
            test={("A", 100): {"a": 10.0, "b": 20.0}},
        )
        result = upper_bound(table, Context("A", 100))
        assert result.config.values == ("a",)
        assert result.test_score == 10.0

    def test_single_config(self):
        space, table = one_hp_instance(
            val={("A", 100): {"a": 0.5}}, test={("A", 100): {"a": 33.0}}
        )
        result = upper_bound(table, Context("A", 100))
        assert result.config.values == ("a",) and result.test_score == 33.0

    def test_missing_split(self):
        space, table = one_hp_instance(val={}, test={("A", 100): {"a": 1.0}})
        with pytest.raises(DataError, match="validation split unavailable"):
            upper_bound(table, Context("A", 100))

    def test_validation_dominance_property(self):
        for seed in range(40):
            _, table, raw = random_instance(
                seed, splits=("validation", "test"), min_datasets=1
            )
            for ctx in table.contexts("validation"):
                result = upper_bound(table, ctx)
                assert result.validation_score == max(
                    raw["validation"][(ctx.dataset, ctx.train_size)].values()
                )


class TestLooCbs:
    def test_unanimous_argmax(self):
        # Config b is the unique test argmax on every dataset.
        test = {
            (d, 100): {"a": 50.0, "b": 100.0, "c": 10.0} for d in ("A", "B", "C")
        }
        space, table = one_hp_instance(val={}, test=test)
        results = loo_cbs(table)
        assert len(results) == 3
        for res in results:
            assert res.recommended_config.values == ("b",)
            assert all(s.normalized_test_score == 1.0 for s in res.scores)
            assert res.recommended_config == res.ranking.entries[0].config

    def test_two_datasets_disjoint_best(self):
        space, table = one_hp_instance(
            val={},
            test={
                ("A", 100): {"a": 100.0, "b": 40.0},
                ("B", 100): {"b": 100.0, "a": 40.0},
            },
        )
        results = {r.held_out_dataset: r for r in loo_cbs(table)}
        assert results["A"].recommended_config.values == ("b",)
        assert results["B"].recommended_config.values == ("a",)
        assert results["A"].scores[0].test_score == 40.0
        assert results["A"].scores[0].normalized_test_score == 0.4

    def test_requires_two_datasets(self):
        space, table = one_hp_instance(val={}, test={("A", 100): {"a": 1.0}})
        with pytest.raises(DataError, match="at least 2 datasets"):
            loo_cbs(table)

    def test_identical_profiles_recommend_global_argmax(self):
        rows = {"a": 10.0, "b": 90.0, "c": 30.0}
        test = {(d, 100): dict(rows) for d in ("A", "B", "C", "D")}
        space, table = one_hp_instance(val={}, test=test)
        for res in loo_cbs(table):
            assert res.recommended_config.values == ("b",)
            assert res.scores[0].normalized_test_score == 1.0

    def test_member_only_in_the_held_out_dataset_drops_out(self):
        # c makes a top set only on A; b only on B.
        test = {
            ("A", 100): {"a": 10.0, "b": 10.0, "c": 100.0},
            ("B", 100): {"a": 100.0, "b": 99.0, "c": 0.0},
            ("C", 100): {"a": 100.0, "b": 50.0, "c": 50.0},
        }
        space, table = one_hp_instance(val={}, test=test)
        configs = {
            r.held_out_dataset: {e.config.values[0] for e in r.ranking.entries}
            for r in loo_cbs(table)
        }
        assert configs == {"A": {"a", "b"}, "B": {"a", "c"}, "C": {"a", "b", "c"}}

    def test_held_out_score_sums_are_exact(self):
        # Config a's normalized scores on A, B and C; removing A's from the
        # float total rounds differently from summing B's and C's.
        scores = {"A": 97.5, "B": 99.5, "C": 99.2}
        normalized = [score / 100.0 for score in scores.values()]
        assert math.fsum(normalized) - normalized[0] != math.fsum(normalized[1:])
        test = {(d, 100): {"a": score, "b": 100.0} for d, score in scores.items()}
        space, table = one_hp_instance(val={}, test=test, domain=("a", "b"))
        held_out_a = loo_cbs(table)[0]
        assert held_out_a.held_out_dataset == "A"
        sums = {e.config.values[0]: e.score_sum for e in held_out_a.ranking.entries}
        assert sums == {"a": math.fsum(normalized[1:]), "b": 2.0}


class TestBudgetCurve:
    def setup_method(self):
        # Held-out selection has to pick from the other dataset's ranking;
        # validation prefers c, which is never in a top set.
        self.space, self.table = one_hp_instance(
            val={
                ("A", 100): {"a": 10.0, "b": 20.0, "c": 30.0},
                ("B", 100): {"a": 10.0, "b": 20.0, "c": 30.0},
            },
            test={
                ("A", 100): {"a": 100.0, "b": 90.0, "c": 50.0},
                ("B", 100): {"b": 100.0, "a": 90.0, "c": 50.0},
            },
        )

    def test_hand_computed_curve(self):
        curve = budget_curve(self.table, max_budget=2)
        # Held-out A gets ranking [b]; held-out B gets [a]; both score 90
        # against a test max of 100.
        assert [p.mean_normalized_test_score for p in curve.points] == [0.9, 0.9]
        clamped = [d for d in curve.details if d.k == 2]
        assert all(d.clamped for d in clamped)

    def test_k1_equals_loo_mean(self):
        results = loo_cbs(self.table)
        normalized = [s.normalized_test_score for r in results for s in r.scores]
        expected = math.fsum(normalized) / len(normalized)
        curve = budget_curve(self.table, max_budget=1)
        assert curve.points[0].mean_normalized_test_score == expected

    def test_k1_equals_loo_mean_random(self):
        for seed in range(25):
            _, table, _ = random_instance(
                seed, splits=("validation", "test"), min_datasets=2
            )
            results = loo_cbs(table, threshold=0.9)
            normalized = [
                s.normalized_test_score for r in results for s in r.scores
            ]
            expected = math.fsum(normalized) / len(normalized)
            curve = budget_curve(table, threshold=0.9, max_budget=1)
            assert curve.points[0].mean_normalized_test_score == expected

    def test_validation_monotone_in_k(self):
        for seed in range(25):
            _, table, _ = random_instance(
                seed, splits=("validation", "test"), min_datasets=2
            )
            curve = budget_curve(table, threshold=0.9, max_budget=8)
            by_context = {}
            for d in curve.details:
                by_context.setdefault(d.context, []).append((d.k, d.validation_score))
            for rows in by_context.values():
                rows.sort()
                vals = [v for _, v in rows]
                assert vals == sorted(vals)

    def test_matches_reference(self):
        for seed in range(40):
            space, table, raw = random_instance(
                seed, splits=("validation", "test"), min_datasets=2
            )
            grid = [c.values for c in space.grid()]
            datasets = {ds for ds, _ in raw["test"]}
            points, selections = reference_budget(
                raw["test"], raw["validation"], raw["test"], grid, 0.9, datasets, 6
            )
            curve = budget_curve(table, threshold=0.9, max_budget=6)
            assert {
                p.k: p.mean_normalized_test_score for p in curve.points
            } == points
            for d in curve.details:
                ref_cfg, ref_val, ref_norm = selections[
                    (d.k, (d.context.dataset, d.context.train_size))
                ]
                assert d.config.values == ref_cfg
                assert d.validation_score == ref_val
                assert d.normalized_test_score == ref_norm

    def test_normalize_by_upper_bound(self):
        curve = budget_curve(self.table, max_budget=1, normalize_by="upper_bound")
        # The upper-bound protocol picks c (validation max) whose test score
        # is 50, so the recommendation's ratio exceeds 1.
        assert curve.points[0].mean_normalized_test_score == pytest.approx(90.0 / 50.0)

    def test_normalized_scores_in_unit_interval(self):
        for seed in range(25):
            _, table, _ = random_instance(
                seed, splits=("validation", "test"), min_datasets=2
            )
            curve = budget_curve(table, threshold=0.9, max_budget=5)
            for d in curve.details:
                assert 0.0 <= d.normalized_test_score <= 1.0
            for p in curve.points:
                assert 0.0 <= p.mean_normalized_test_score <= 1.0


class TestLooReference:
    def test_matches_reference(self):
        for seed in range(40):
            space, table, raw = random_instance(
                seed, splits=("validation", "test"), min_datasets=2
            )
            grid = [c.values for c in space.grid()]
            datasets = {ds for ds, _ in raw["test"]}
            expected = reference_loo(raw["test"], raw["test"], grid, 0.9, datasets)
            for res in loo_cbs(table, threshold=0.9):
                rec, per_context = expected[res.held_out_dataset]
                assert res.recommended_config.values == rec
                for s in res.scores:
                    raw_score, normalized = per_context[
                        (s.context.dataset, s.context.train_size)
                    ]
                    assert s.test_score == raw_score
                    assert s.normalized_test_score == normalized


class TestCompare:
    def test_columns(self):
        space, table = one_hp_instance(
            val={
                ("A", 100): {"a": 10.0, "b": 20.0, "c": 30.0},
                ("B", 100): {"a": 10.0, "b": 20.0, "c": 30.0},
            },
            test={
                ("A", 100): {"a": 100.0, "b": 90.0, "c": 50.0},
                ("B", 100): {"b": 100.0, "a": 90.0, "c": 50.0},
            },
        )
        rows = compare_protocols(
            table,
            task_map={"A": "t1", "B": "t1"},
            default_config=space.configuration(["a"]),
        )
        (row,) = rows
        assert row.task == "t1" and row.train_size == 100
        assert row.default_score == 95.0  # mean(100, 90)
        assert row.cbs1_score == 90.0  # LOO picks the other dataset's best
        assert row.upper_bound_score == 50.0  # validation prefers c everywhere

    def test_grouping_by_task_and_size(self):
        test = {}
        val = {}
        for d, task_score in [("A", 10.0), ("B", 20.0), ("C", 60.0), ("D", 80.0)]:
            for size in (100, 1000):
                test[(d, size)] = {"a": task_score, "b": task_score / 2}
                val[(d, size)] = {"a": 1.0, "b": 0.5}
        space, table = one_hp_instance(val=val, test=test)
        rows = compare_protocols(
            table, task_map={"A": "t1", "B": "t1", "C": "t2", "D": "t2"}
        )
        assert [(r.task, r.train_size) for r in rows] == [
            ("t1", 100), ("t1", 1000), ("t2", 100), ("t2", 1000),
        ]
        assert rows[0].upper_bound_score == 15.0
        assert rows[2].upper_bound_score == 70.0


class TestContextSelection:
    """Each command selects its contexts once; rank's linear sort of an
    ordered list is the only place they are compared."""

    @pytest.mark.parametrize("protocol", [
        loo_cbs,
        budget_curve,
        lambda table: compare_protocols(table, {d: "t" for d in table.datasets()}),
    ])
    def test_at_most_one_comparison_per_held_out_dataset_and_context(
        self, monkeypatch, protocol
    ):
        table = synthetic_table(datasets=12)
        calls = []
        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            def counted(self, other, compare=getattr(Context, name)):
                calls.append(1)
                return compare(self, other)

            monkeypatch.setattr(Context, name, counted)
        protocol(table)
        assert 0 < len(calls) <= len(table.datasets()) * len(table.contexts())


def degenerate_held_out_instance():
    """Three datasets; the A@100 test cell is all zero, every other cell is
    positive."""
    val = {
        ("A", 100): {"a": 90.0, "b": 80.0, "c": 10.0},
        ("B", 100): {"a": 50.0, "b": 99.0, "c": 10.0},
        ("C", 100): {"a": 70.0, "b": 60.0, "c": 65.0},
    }
    test = {
        ("A", 100): {"a": 0.0, "b": 0.0, "c": 0.0},
        ("B", 100): {"a": 100.0, "b": 98.0, "c": 10.0},
        ("C", 100): {"a": 40.0, "b": 100.0, "c": 99.0},
    }
    return one_hp_instance(val=val, test=test)


class TestDegenerateHeldOut:
    """``skip_degenerate`` also leaves out an all-zero held-out test context."""

    def test_loo(self):
        _, table = degenerate_held_out_instance()
        with pytest.warns(UserWarning, match="skipping degenerate context A@100"):
            results = loo_cbs(table, skip_degenerate=True)
        assert [r.held_out_dataset for r in results] == ["A", "B", "C"]
        assert [s.context for r in results for s in r.scores] == [
            Context("B", 100), Context("C", 100),
        ]

    def test_budget(self):
        _, table = degenerate_held_out_instance()
        with pytest.warns(UserWarning, match="A@100"):
            curve = budget_curve(table, max_budget=2, skip_degenerate=True)
            results = loo_cbs(table, skip_degenerate=True)
        assert {d.context for d in curve.details} == {Context("B", 100), Context("C", 100)}
        loo = [s.normalized_test_score for r in results for s in r.scores]
        assert curve.points[0].mean_normalized_test_score == math.fsum(loo) / len(loo)

    def test_compare(self):
        _, table = degenerate_held_out_instance()
        with pytest.warns(UserWarning, match="A@100"):
            rows = compare_protocols(
                table, task_map={"A": "t1", "B": "t1", "C": "t2"}, skip_degenerate=True
            )
        assert [(r.task, r.n_datasets) for r in rows] == [("t1", 1), ("t2", 1)]
        assert rows[0].cbs1_score == 98.0 and rows[0].upper_bound_score == 98.0

    def test_still_an_error_without_the_flag(self):
        _, table = degenerate_held_out_instance()
        for run in (loo_cbs, budget_curve):
            with pytest.raises(DataError, match="all test scores are zero for A@100"):
                run(table)

    def test_budget_with_every_held_out_context_skipped(self):
        # Rank on validation, so only the (all-zero) test cells are degenerate.
        space = make_space(("hp", "categorical", ["a", "b"]))
        cells = {(d, 100): {("a",): 1.0, ("b",): 0.5} for d in "AB"}
        zeros = {(d, 100): {("a",): 0.0, ("b",): 0.0} for d in "AB"}
        table = build_table(space, {"validation": cells, "test": zeros})
        with pytest.warns(UserWarning):
            with pytest.raises(DataError, match="all held-out test contexts are degenerate"):
                budget_curve(table, split="validation", skip_degenerate=True)


class TestHeldOutErrors:
    """Every top set is built once per call, before any dataset is held out;
    the checks made per held-out dataset still name it."""

    POSITIVE = {"a": 90.0, "b": 80.0, "c": 10.0}
    ZERO = {"a": 0.0, "b": 0.0, "c": 0.0}

    def instance(self, val):
        test = {(d, 100): dict(self.POSITIVE) for d in "ABC"}
        return one_hp_instance(val=val, test=test)[1]

    def test_degenerate_pool_context_warns_once_per_call(self):
        table = self.instance(
            {("A", 100): self.ZERO, ("B", 100): self.POSITIVE, ("C", 100): self.POSITIVE}
        )
        with pytest.warns(UserWarning) as caught:
            results = loo_cbs(table, split="validation", skip_degenerate=True)
        assert [str(w.message) for w in caught] == ["skipping degenerate context A@100"]
        assert [r.ranking.contexts for r in results] == [
            (Context("B", 100), Context("C", 100)), (Context("C", 100),), (Context("B", 100),),
        ]

    def test_degenerate_pool_context_raises_before_any_held_out_check(self):
        # Only A has validation records: holding A out would leave none.
        table = self.instance({("A", 100): self.ZERO})
        with pytest.raises(DataError, match="all validation scores are zero for A@100"):
            loo_cbs(table, split="validation")

    def test_no_contexts_remain_after_holding_out(self):
        table = self.instance({("A", 100): self.POSITIVE})
        for run in (loo_cbs, budget_curve):
            with pytest.raises(DataError, match="no contexts remain after holding out 'A'"):
                run(table, split="validation")

    def test_every_other_context_degenerate(self):
        table = self.instance(
            {("A", 100): self.POSITIVE, ("B", 100): self.ZERO, ("C", 100): self.ZERO}
        )
        with pytest.warns(UserWarning) as caught:
            with pytest.raises(DataError, match="all requested contexts are degenerate"):
                loo_cbs(table, split="validation", skip_degenerate=True)
        assert [str(w.message) for w in caught] == [
            "skipping degenerate context B@100", "skipping degenerate context C@100",
        ]


class TestWarningsNameTheCaller:
    """A skipped context's warning points at the line that called into the
    package, for the pool and the held-out contexts alike."""

    @pytest.mark.parametrize("run,kwargs", [
        (loo_cbs, {}),
        (budget_curve, {"max_budget": 2}),
        (compare_protocols, {"task_map": {"A": "t1", "B": "t1", "C": "t2"}}),
    ], ids=["loo_cbs", "budget_curve", "compare_protocols"])
    def test_skip_warning(self, run, kwargs):
        _, table = degenerate_held_out_instance()
        with pytest.warns(UserWarning, match="A@100") as caught:
            run(table, skip_degenerate=True, **kwargs)
        assert len(caught) == 2  # A@100 left out of the pool, then as held out
        assert [w.filename for w in caught] == [__file__, __file__]


class TestErrorBranches:
    """Each precondition of the protocols fails with its own message."""

    # B and C rank "a" first, so every held-out A sees the candidate "a".
    OTHERS = {(d, 100): {"a": 100.0, "b": 50.0, "c": 10.0} for d in "BC"}

    def held_out_a(self, val, test):
        return one_hp_instance(val={("A", 100): val}, test={("A", 100): test, **self.OTHERS})

    def test_budget_needs_a_positive_max_budget(self):
        _, table = self.held_out_a({"a": 1.0}, {"a": 1.0})
        with pytest.raises(ValidationError, match="max_budget must be >= 1, got 0"):
            budget_curve(table, max_budget=0)

    def test_budget_rejects_an_unknown_normalization(self):
        _, table = self.held_out_a({"a": 1.0}, {"a": 1.0})
        with pytest.raises(ValidationError, match="normalize_by must be one of"):
            budget_curve(table, normalize_by="mean")

    def test_budget_rejects_a_zero_upper_bound(self):
        # Validation selects "a", whose A@100 test score is zero.
        _, table = self.held_out_a({"a": 90.0, "b": 10.0}, {"a": 0.0, "b": 50.0})
        with pytest.raises(DataError, match="upper-bound test score is zero for context A@100"):
            budget_curve(table, max_budget=1, normalize_by="upper_bound")

    def test_budget_needs_a_candidate_with_a_validation_record(self):
        _, table = self.held_out_a({"c": 1.0}, {"a": 100.0, "b": 50.0, "c": 10.0})
        with pytest.raises(DataError, match="no top-1 candidate has a validation record on A@100"):
            budget_curve(table, max_budget=1)

    def test_budget_needs_the_selected_test_record(self):
        _, table = self.held_out_a({"a": 1.0}, {"b": 100.0})
        with pytest.raises(
            DataError, match=r"selected configuration \(hp=a\) has no test record on A@100"
        ):
            budget_curve(table, max_budget=1)

    def test_upper_bound_needs_a_test_split(self):
        _, table = one_hp_instance(val={("A", 100): {"a": 1.0}}, test={})
        with pytest.raises(DataError, match="test split unavailable for context A@100"):
            upper_bound(table, Context("A", 100))

    def test_upper_bound_needs_the_selected_test_record(self):
        _, table = one_hp_instance(
            val={("A", 100): {"a": 1.0, "b": 0.5}}, test={("A", 100): {"b": 10.0}}
        )
        with pytest.raises(
            DataError, match=r"validation-selected configuration \(hp=a\) has no test record"
        ):
            upper_bound(table, Context("A", 100))

    def test_fixed_config_needs_a_context(self):
        space, table = one_hp_instance(val={}, test={("A", 100): {"a": 1.0}})
        with pytest.raises(DataError, match="no contexts to evaluate"):
            fixed_config_eval(table, space.configuration(["a"]), contexts=[])

    def test_compare_needs_every_dataset_in_the_task_map(self):
        _, table = degenerate_held_out_instance()
        with pytest.raises(DataError, match=r"dataset\(s\) missing from task map: \['C'\]"):
            compare_protocols(table, task_map={"A": "t1", "B": "t1"})


# ---------------------------------------------------------------------------
# Metamorphic properties: transformations of the input that must leave every
# result unchanged (up to the transformation itself).
# ---------------------------------------------------------------------------

SPLITS = ("validation", "test")
# A few repeated values make score ties, and with them coverage and
# validation tie-breaks, common.
SCORES = st.sampled_from([0.25, 0.5, 0.97, 1.0]) | st.floats(0.01, 1.0)


# Scores whose normalized values can be subnormal, for thresholds near 0.
TINY_SCORES = st.sampled_from([1e-320, 3e-310, 1e-300]) | SCORES


@st.composite
def instances(draw, scores=SCORES):
    """(domain sizes, {split: {(dataset, size): {values: score}}}) on a full
    grid of a categorical space, with two to four datasets."""
    domains = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    grid = [c.values for c in cat_space(domains).grid()]
    datasets = [f"d{i}" for i in range(draw(st.integers(2, 4)))]
    sizes = draw(st.sampled_from([(100,), (100, 1000)]))
    raw = {
        split: {
            (dataset, size): {values: draw(scores) for values in grid}
            for dataset in datasets
            for size in sizes
        }
        for split in SPLITS
    }
    return domains, raw


def outcomes(table):
    upper_bounds = [upper_bound(table, ctx) for ctx in table.contexts("test")]
    return rank(table), loo_cbs(table), budget_curve(table, max_budget=3), upper_bounds


class TestMetamorphic:
    @settings(max_examples=60, deadline=None)
    @given(instance=instances(), rnd=st.randoms(use_true_random=False))
    def test_record_order_changes_nothing(self, instance, rnd):
        domains, raw = instance
        space = cat_space(domains)
        table = build_table(space, raw)
        records = list(table.records)
        rnd.shuffle(records)
        assert outcomes(ScoreTable(space, records)) == outcomes(table)

    @settings(max_examples=60, deadline=None)
    @given(
        instance=instances(),
        names=st.lists(st.text("abz-_", min_size=1, max_size=4), min_size=4, max_size=4,
                       unique=True),
    )
    def test_order_preserving_dataset_rename_changes_only_names(self, instance, names):
        domains, raw = instance
        space = cat_space(domains)
        old = sorted({dataset for by_context in raw.values() for dataset, _ in by_context})
        rename = dict(zip(old, sorted(names)))
        renamed = {
            split: {(rename[d], size): rows for (d, size), rows in by_context.items()}
            for split, by_context in raw.items()
        }
        ranking, loo, curve, bounds = outcomes(build_table(space, raw))
        ranking2, loo2, curve2, bounds2 = outcomes(build_table(space, renamed))

        def ctx(c):
            return Context(rename[c.dataset], c.train_size)

        assert [(e.config, e.score_sum, {ctx(c) for c in e.coverage})
                for e in ranking.entries] == [
            (e.config, e.score_sum, set(e.coverage)) for e in ranking2.entries
        ]
        assert [(rename[r.held_out_dataset], r.recommended_config,
                 [(ctx(s.context), s.test_score, s.normalized_test_score) for s in r.scores])
                for r in loo] == [
            (r.held_out_dataset, r.recommended_config,
             [(s.context, s.test_score, s.normalized_test_score) for s in r.scores])
            for r in loo2
        ]
        assert curve.points == curve2.points
        assert [(d.k, ctx(d.context), d.config, d.validation_score, d.normalized_test_score)
                for d in curve.details] == [
            (d.k, d.context, d.config, d.validation_score, d.normalized_test_score)
            for d in curve2.details
        ]
        assert [(ctx(u.context), u.config, u.validation_score, u.test_score)
                for u in bounds] == [
            (u.context, u.config, u.validation_score, u.test_score) for u in bounds2
        ]

    @settings(max_examples=60, deadline=None)
    @given(instance=instances(), data=st.data())
    def test_new_zero_scored_domain_value_changes_nothing(self, instance, data):
        domains, raw = instance
        hp = data.draw(st.integers(0, len(domains) - 1))
        position = data.draw(st.integers(0, domains[hp]))
        space = cat_space(domains)
        new_domains = [[f"v{j}" for j in range(n)] for n in domains]
        new_domains[hp].insert(position, "vnew")
        # Every grid id changes: the radix of hyperparameter hp grows, and so
        # does the position of each value after the new one.
        wider = make_space(*((f"h{i}", "categorical", d) for i, d in enumerate(new_domains)))
        zeros = {c.values: 0.0 for c in wider.grid() if "vnew" in c.values}
        padded = {
            split: {key: {**rows, **zeros} for key, rows in by_context.items()}
            for split, by_context in raw.items()
        }
        assert outcomes(build_table(wider, padded)) == outcomes(build_table(space, raw))

    @settings(max_examples=150, deadline=None)
    @given(
        instance=instances(scores=TINY_SCORES),
        split=st.sampled_from(SPLITS),
        threshold=st.sampled_from([5e-324, 1e-310, 0.97])
        | st.floats(0, 1, exclude_min=True, exclude_max=True),
        skip_degenerate=st.booleans(),
        data=st.data(),
    )
    def test_loo_ranking_is_a_fresh_rank_without_the_held_out_dataset(
        self, instance, split, threshold, skip_degenerate, data
    ):
        domains, raw = instance
        cells = raw[split]
        for key in data.draw(st.sets(st.sampled_from(sorted(cells)), max_size=2)):
            cells[key] = dict.fromkeys(cells[key], 0.0)
        table = build_table(cat_space(domains), raw)
        options = {"split": split, "threshold": threshold, "skip_degenerate": skip_degenerate}

        def fresh(held_out):
            others = [c for c in table.contexts(split) if c.dataset != held_out]
            return rank(table, others, **options)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                expected = [fresh(d) for d in table.datasets()]
            except DataError as exc:
                with pytest.raises(type(exc)):
                    loo_cbs(table, **options)
                return
            results = loo_cbs(table, **options)
        assert [r.held_out_dataset for r in results] == table.datasets()
        assert [r.ranking for r in results] == expected

    @settings(max_examples=60, deadline=None)
    @given(instance=instances())
    def test_budget_at_one_is_the_loo_mean(self, instance):
        domains, raw = instance
        table = build_table(cat_space(domains), raw)
        normalized = [s.normalized_test_score for r in loo_cbs(table) for s in r.scores]
        first = budget_curve(table, max_budget=1).points[0]
        assert first.mean_normalized_test_score == math.fsum(normalized) / len(normalized)
