"""Jensen-Shannon consistency analysis and the permutation test."""

import itertools
import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import rel_entr

from covsearch import importance
from covsearch import (
    Context,
    DataError,
    Hyperparameter,
    ValidationError,
    importance_report,
    importance_scopes,
    js_distance,
    js_score,
    permutation_pval,
    synthetic_table,
    top_set,
    value_distribution,
)
from covsearch.model import SPLITS, _data
from helpers import build_table, cat_space, make_space, random_instance
from oracle_impl import (
    reference_importance_scopes,
    reference_permutation_pval,
    reference_permuted_scores,
)


def one_hp_table(per_context, domain=("a", "b", "c")):
    space = make_space(("hp", "categorical", list(domain)))
    table = build_table(
        space,
        {"test": {ctx: {(v,): s for v, s in rows.items()} for ctx, rows in per_context.items()}},
    )
    return space, table


class TestTopSet95:
    def test_band(self):
        space, table = one_hp_table({("d", 100): {"a": 100.0, "b": 96.0, "c": 94.0}})
        ts = top_set(table, Context("d", 100), "test", importance.DEFAULT_THRESHOLD)
        assert {c.values[0] for c in ts.configs} == {"a", "b"}

    def test_boundary_excluded(self):
        space, table = one_hp_table({("d", 100): {"a": 100.0, "b": 95.0}})
        ts = top_set(table, Context("d", 100), "test", importance.DEFAULT_THRESHOLD)
        assert {c.values[0] for c in ts.configs} == {"a"}

    def test_all_tied_gives_full_grid(self):
        space, table = one_hp_table({("d", 100): {"a": 5.0, "b": 5.0, "c": 5.0}})
        ts = top_set(table, Context("d", 100), "test", importance.DEFAULT_THRESHOLD)
        assert len(ts) == 3


class TestValueDistribution:
    def test_counts(self):
        space = make_space(("lr", "categorical", ["a", "b"]), ("x", "categorical", ["u"]))
        configs = [
            space.configuration([v, "u"]) for v in ("a", "a", "a", "b")
        ]
        vec = value_distribution(configs, space.hyperparameter("lr"))
        assert vec == (0.75, 0.25)

    def test_one_hot(self):
        space = cat_space([3])
        vec = value_distribution([space.configuration(["v1"])], space.hyperparameters[0])
        assert vec == (0.0, 1.0, 0.0)

    def test_unused_value_exactly_zero(self):
        space = cat_space([3])
        configs = [space.configuration(["v0"]), space.configuration(["v1"])]
        vec = value_distribution(configs, space.hyperparameters[0])
        assert vec == (0.5, 0.5, 0.0)

    def test_empty_rejected(self):
        space = cat_space([2])
        with pytest.raises(DataError, match="empty"):
            value_distribution([], space.hyperparameters[0])


class TestJsDistance:
    def test_identical_zero(self):
        assert js_distance((0.5, 0.5), (0.5, 0.5)) == 0.0
        assert js_distance((1.0, 0.0), (1.0, 0.0)) == 0.0

    def test_disjoint_one(self):
        assert js_distance((1.0, 0.0), (0.0, 1.0)) == 1.0

    def test_symmetric_and_bounded(self):
        vectors = [
            (0.2, 0.8), (0.7, 0.3), (1.0, 0.0), (0.5, 0.5),
        ]
        for p, q in itertools.combinations(vectors, 2):
            d = js_distance(p, q)
            assert js_distance(q, p) == d
            assert 0.0 <= d <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            js_distance((1.0,), (0.5, 0.5))

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 5), st.integers(1, 40)),
        seed=st.integers(0, 2**32),
        fortran=st.booleans(),
    )
    def test_stacks_equal_one_pair_at_a_time(self, shape, seed, fortran):
        rng = np.random.default_rng(seed)
        a, b = (rng.random(shape) * (rng.random(shape) < 0.6) + 1e-9 for _ in "ab")
        a, b = a / a.sum(1, keepdims=True), b / b.sum(1, keepdims=True)
        if fortran:  # strided vectors must sum in the same order
            a, b = np.asfortranarray(a), np.asfortranarray(b)
        pairwise = [js_distance(list(p), list(q)) for p, q in zip(a, b)]
        assert repr(js_distance(a, b).tolist()) == repr(pairwise)


def libm_rel_entr(x: float, y: float) -> float:
    """The formula behind scipy.special.rel_entr for finite x >= 0, y > 0,
    written with the platform libm's log and log1p."""
    if x == 0:
        return 0.0
    ratio = x / y
    if 0.5 < ratio < 2:
        return x * math.log1p((x - y) / y)
    return x * math.log(ratio)


class TestRelEntrFormula:
    """js_distance's bits follow scipy.special.rel_entr; a scipy whose formula
    differs from libm_rel_entr fails here instead of silently moving js_score."""

    def test_seeded_pairs(self):
        rng = np.random.default_rng(0)
        x, y = rng.random(20_000), rng.random(20_000)
        got = rel_entr(x, y).tolist()
        assert got == [libm_rel_entr(a, b) for a, b in zip(x.tolist(), y.tolist())]
        # The plain x * log(x / y) is not that formula.
        assert got != [a * math.log(a / b) for a, b in zip(x.tolist(), y.tolist())]

    def test_ratios_at_and_next_to_one_half_and_two(self):
        rng = np.random.default_rng(1)
        pairs = []
        for y in rng.random(40).tolist() + [1.0, 0.3, 1e-300]:
            for edge in (0.5 * y, 2.0 * y):
                for x in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)):
                    pairs.append((float(x), y))
        x, y = map(np.array, zip(*pairs))
        assert rel_entr(x, y).tolist() == [libm_rel_entr(a, b) for a, b in pairs]

    def test_zero_entries_as_js_distance_meets_them(self):
        # An entry that is 0 in q puts its p entry at exactly twice the mixture.
        a = np.random.default_rng(2).random(1_000)
        m = 0.5 * (a + 0.0)
        expected = [libm_rel_entr(x, y) for x, y in zip(a.tolist(), m.tolist())]
        assert rel_entr(a, m).tolist() == expected
        assert rel_entr(np.zeros(3), np.array([0.0, 0.25, 1.0])).tolist() == [0.0, 0.0, 0.0]


def bits(values):
    return np.array(values, dtype=float).view(np.uint64).tolist()


class TestRelEntrMatchesScipy:
    """importance._rel_entr, the exact term every reported distance takes,
    equals scipy.special.rel_entr bit for bit."""

    def assert_matches(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        ours = [importance._rel_entr(a, b) for a, b in zip(x.tolist(), y.tolist())]
        assert bits(ours) == bits(rel_entr(x, y))

    def test_seeded_pairs(self):
        rng = np.random.default_rng(0)
        self.assert_matches(rng.random(20_000), rng.random(20_000))

    def test_count_ratios_and_their_mixtures(self):
        rng = np.random.default_rng(3)
        n = rng.integers(1, 10_001, size=(2, 50_000))
        x, z = rng.integers(0, n + 1) / n
        self.assert_matches(x, z)
        self.assert_matches(x, 0.5 * (x + z))

    def test_special_values(self):
        values = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, -1.0, 0.5,
                  2.0, 1e300]
        self.assert_matches(*zip(*itertools.product(values, repeat=2)))

    def test_ratios_that_underflow_or_overflow(self):
        # scipy takes log(x) - log(y) when x / y is not a normal float.
        rng = np.random.default_rng(6)
        y = 10.0 ** rng.uniform(-5, 300, 20_000)
        self.assert_matches(y * sys.float_info.min * rng.uniform(0.25, 4, 20_000), y)
        y = 10.0 ** rng.uniform(-300, 5, 20_000)
        self.assert_matches(sys.float_info.max * rng.uniform(0.1, 1, 20_000), y)


class TestJsScore:
    def test_identical_vectors_score_one(self):
        assert js_score([(1.0, 0.0), (1.0, 0.0)]) == 1.0
        assert js_score([(0.3, 0.7)] * 5) == 1.0

    def test_disjoint_one_hots_score_zero(self):
        assert js_score([(1.0, 0.0), (0.0, 1.0)]) == 0.0

    def test_two_identical_plus_disjoint(self):
        score = js_score([(1.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        assert score == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_needs_two(self):
        with pytest.raises(DataError, match="two datasets"):
            js_score([(1.0, 0.0)])

    def test_unequal_lengths(self):
        with pytest.raises(ValidationError, match="^probability vectors must have equal length$"):
            js_score([(1.0, 0.0), (0.5, 0.25, 0.25)])

    def test_permutation_symmetric(self):
        vectors = [(0.2, 0.8), (0.9, 0.1), (0.5, 0.5), (0.0, 1.0)]
        base = js_score(vectors)
        for perm in itertools.permutations(vectors):
            assert js_score(list(perm)) == base


class TestPermutationPval:
    def test_identical_top_sets_pval_zero(self):
        rows = {"a": 100.0, "b": 99.0, "c": 10.0}
        space, table = one_hp_table({(d, 100): dict(rows) for d in ("A", "B", "C")})
        observed, pval = permutation_pval(table, "hp", seed=3)
        assert observed == 1.0
        assert pval == 0.0

    def test_single_value_domain(self):
        space, table = one_hp_table(
            {("A", 100): {"a": 1.0}, ("B", 100): {"a": 2.0}}, domain=("a",)
        )
        observed, pval = permutation_pval(table, "hp", seed=0)
        assert observed == 1.0 and pval == 0.0

    def test_deterministic_across_runs(self):
        _, table, _ = random_instance(11, min_datasets=3)
        a = permutation_pval(table, "h0", train_size=100, permutations=60, seed=42)
        b = permutation_pval(table, "h0", train_size=100, permutations=60, seed=42)
        assert a == b

    def test_seed_changes_only_pval(self):
        _, table, _ = random_instance(12, min_datasets=3)
        obs_a, _ = permutation_pval(table, "h0", train_size=100, seed=0)
        obs_b, _ = permutation_pval(table, "h0", train_size=100, seed=99)
        assert obs_a == obs_b

    def test_matches_independent_implementation(self):
        for seed in (0, 7, 42):
            for instance_seed in range(8):
                space, table, raw = random_instance(
                    instance_seed, min_datasets=2, max_contexts=5
                )
                hp = space.hyperparameters[0]
                grid = [c.values for c in space.grid()]
                value_index = {c: hp.index(c[0]) for c in grid}
                datasets = sorted({ds for ds, _ in raw["test"]})
                sizes = sorted({m for _, m in raw["test"]})[:1]
                expected = reference_permutation_pval(
                    raw["test"], datasets, sizes, grid, value_index,
                    len(hp.domain), 0.95, 50, seed,
                )
                actual = permutation_pval(
                    table, hp.name, train_size=sizes[0],
                    permutations=50, seed=seed,
                )
                assert actual == expected, (seed, instance_seed)

    def test_requires_two_datasets(self):
        space, table = one_hp_table({("A", 100): {"a": 1.0}})
        with pytest.raises(DataError, match="two datasets"):
            permutation_pval(table, "hp")

    def test_ambiguous_train_size_rejected(self):
        rows = {"a": 100.0, "b": 99.0, "c": 10.0}
        _, table = one_hp_table({(d, m): dict(rows) for d in ("A", "B") for m in (100, 1000)})
        with pytest.raises(DataError, match="several train sizes"):
            permutation_pval(table, "hp")


class TestImportanceReport:
    def test_entry_per_hyperparameter_in_order(self):
        space, table, _ = random_instance(21, min_datasets=3)
        report = importance_report(table, train_size=100, permutations=20)
        assert [e.name for e in report.entries] == list(space.names)

    def test_identical_top_sets(self):
        rows = {"a": 100.0, "b": 99.0, "c": 10.0}
        space, table = one_hp_table({(d, 100): dict(rows) for d in ("A", "B")})
        report = importance_report(table, permutations=30, seed=1)
        (entry,) = report.entries
        assert entry.js_score == 1.0
        assert entry.js_pval == 0.0

    def test_dataset_order_invariance(self):
        _, table, _ = random_instance(31, min_datasets=3, max_contexts=4)
        datasets = table.datasets()
        a = importance_report(table, datasets, 100, permutations=25, seed=5)
        b = importance_report(table, datasets[::-1], 100, permutations=25, seed=5)
        assert a == b

    def test_vectors_sum_to_one(self):
        for seed in range(15):
            _, table, _ = random_instance(seed, min_datasets=2)
            report = importance_report(
                table, train_size=100, permutations=10, seed=seed
            )
            for entry in report.entries:
                for vec in entry.distributions:
                    assert abs(math.fsum(vec) - 1.0) <= 1e-9
                    assert all(p >= 0 for p in vec)
                assert 0.0 <= entry.js_score <= 1.0
                assert 0.0 <= entry.js_pval <= 1.0

    def test_combined_sizes_pool_memberships(self):
        space, table = one_hp_table(
            {
                ("A", 100): {"a": 100.0, "b": 99.0},
                ("A", 1000): {"a": 100.0, "b": 10.0},
                ("B", 100): {"a": 100.0, "b": 99.0},
                ("B", 1000): {"a": 100.0, "b": 10.0},
            }
        )
        report = importance_report(table, combine_train_sizes=True, permutations=10)
        (entry,) = report.entries
        # Pool per dataset: {a, b} at 100 plus {a} at 1000.
        assert entry.distributions == ((2 / 3, 1 / 3, 0.0), (2 / 3, 1 / 3, 0.0))
        assert entry.js_score == 1.0

    @pytest.mark.parametrize("instance_seed", range(8))
    def test_entries_equal_the_single_hyperparameter_test(self, instance_seed):
        space, table, _ = random_instance(instance_seed, min_datasets=2, max_contexts=6)
        datasets = table.datasets()
        scopes = [({"train_size": m}, [m]) for m in table.train_sizes()]
        scopes.append(({"combine_train_sizes": True}, table.train_sizes()))
        for scope, sizes in scopes:
            pools = [
                [cfg for m in sizes for cfg in
                 top_set(table, Context(d, m), "test", importance.DEFAULT_THRESHOLD).configs]
                for d in datasets
            ]
            report = importance_report(table, permutations=15, seed=4, **scope)
            for hp, entry in zip(space.hyperparameters, report.entries):
                assert (entry.js_score, entry.js_pval) == permutation_pval(
                    table, hp.name, permutations=15, seed=4, **scope
                )
                assert entry.distributions == tuple(
                    value_distribution(pool, hp) for pool in pools
                )

    def test_top_sets_are_built_once_per_report(self, monkeypatch):
        space, table, _ = random_instance(5, max_hps=3, min_datasets=3)
        calls = []
        original = importance.top_set

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(importance, "top_set", counted)
        importance_report(table, combine_train_sizes=True, permutations=5)
        assert len(calls) == len(table.datasets()) * len(table.train_sizes())

    def test_bad_permutations_raise_before_any_work(self, monkeypatch):
        rows = {"a": 100.0, "b": 99.0, "c": 10.0}
        _, table = one_hp_table({(d, 100): dict(rows) for d in ("A", "B")})
        monkeypatch.setattr(importance, "top_set", None)
        with pytest.raises(ValidationError, match="permutations must be >= 1"):
            importance_report(table, permutations=0)


def test_scope_errors():
    rows = {"a": 100.0, "b": 99.0, "c": 10.0}
    _, table = one_hp_table({(d, m): dict(rows) for d in ("A", "B") for m in (100, 1000)})
    with pytest.raises(ValidationError, match="train_size and combine_train_sizes are exclusive"):
        importance_report(table, train_size=100, combine_train_sizes=True)
    with pytest.raises(DataError, match=r"several train sizes \[100, 1000\]"):
        importance_report(table)


def ragged_table():
    """Datasets A and B at train sizes 100 and 1000; C only at 100."""
    rows = {
        ("A", 100): {"a": 100.0, "b": 99.0, "c": 10.0},
        ("A", 1000): {"a": 10.0, "b": 100.0, "c": 99.0},
        ("B", 100): {"a": 100.0, "b": 10.0, "c": 10.0},
        ("B", 1000): {"a": 99.0, "b": 10.0, "c": 100.0},
        ("C", 100): {"a": 10.0, "b": 10.0, "c": 100.0},
    }
    return one_hp_table(rows)[1]


class TestRaggedTable:
    """A dataset pools only the train sizes it has and sits out the others."""

    def test_combined_sizes_pool_what_each_dataset_has(self):
        table = ragged_table()
        report = importance_report(table, combine_train_sizes=True, permutations=5)
        assert report.datasets == ("A", "B", "C")
        assert report.train_sizes == (100, 1000)
        pools = [
            [cfg for ctx in table.contexts("test") if ctx.dataset == d
             for cfg in top_set(table, ctx, "test", importance.DEFAULT_THRESHOLD).configs]
            for d in "ABC"
        ]
        hp = table.space.hyperparameters[0]
        assert report.entries[0].distributions == tuple(value_distribution(p, hp) for p in pools)

    def test_a_dataset_sits_out_a_size_it_lacks(self):
        table = ragged_table()
        assert importance_report(table, train_size=100, permutations=5).datasets == ("A", "B", "C")
        report = importance_report(table, train_size=1000, permutations=5)
        assert (report.datasets, report.train_sizes) == (("A", "B"), (1000,))
        assert report.entries[0].distributions == ((0.0, 0.5, 0.5), (0.5, 0.0, 0.5))

    def test_combined_sizes_report_only_the_sizes_pooled(self):
        rows = {
            ("A", 100): {"a": 100.0, "b": 99.0, "c": 10.0},
            ("A", 1000): {"a": 10.0, "b": 100.0, "c": 99.0},
            ("B", 100): {"a": 100.0, "b": 10.0, "c": 10.0},
            ("C", 100): {"a": 10.0, "b": 10.0, "c": 100.0},
        }
        table = one_hp_table(rows)[1]
        report = importance_report(table, ["B", "C"], combine_train_sizes=True, permutations=5)
        assert (report.datasets, report.train_sizes) == (("B", "C"), (100,))

    def test_two_datasets_checked_before_any_top_set(self, monkeypatch):
        table = ragged_table()
        monkeypatch.setattr(importance, "top_set", None)
        for scope in ({"datasets": ["A", "C"], "train_size": 1000}, {"datasets": ["B"]}):
            with pytest.raises(DataError, match="^need at least two datasets"):
                importance_report(table, combine_train_sizes="train_size" not in scope, **scope)


def sizes_apart_table():
    """A at train sizes 100 and 1000, B only at 100, C and D only at 1000."""
    rows = {
        ("A", 100): {"a": 100.0, "b": 99.0, "c": 10.0},
        ("A", 1000): {"a": 10.0, "b": 100.0, "c": 99.0},
        ("B", 100): {"a": 100.0, "b": 10.0, "c": 10.0},
        ("C", 1000): {"a": 99.0, "b": 10.0, "c": 100.0},
        ("D", 1000): {"a": 10.0, "b": 10.0, "c": 100.0},
    }
    return one_hp_table(rows)[1]


class TestScopes:
    """Which train sizes an importance run reports: ``importance_scopes``."""

    def test_a_report_pools_the_sizes_of_its_selection(self):
        table = sizes_apart_table()
        report = importance_report(table, ["C", "D"], permutations=5)
        assert (report.train_sizes, report.datasets) == ((1000,), ("C", "D"))
        assert permutation_pval(table, "hp", ["C", "D"], permutations=5) == (
            report.entries[0].js_score, report.entries[0].js_pval
        )
        with pytest.raises(DataError, match=r"^selection has several train sizes \[100, 1000\]"):
            importance_report(table, ["A", "B"])

    def test_default_scopes_skip_a_size_with_one_dataset(self):
        table = sizes_apart_table()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert importance_scopes(table) == [100, 1000]
            assert importance_scopes(table, ["C", "D"]) == [1000]
            assert importance_scopes(table, ["A", "C"]) == [1000]
            assert importance_scopes(table, ["A"]) == [100, 1000]  # none pools: none skipped
        assert [str(w.message) for w in caught] == [
            "train size 100 has fewer than two datasets; skipped"
        ]
        assert caught[0].filename == __file__  # the caller's line

    def test_listed_sizes_are_scopes_once_each(self):
        table = sizes_apart_table()
        assert importance_scopes(table, ["B", "C"], [1000, 100, 1000]) == [100, 1000]
        with pytest.raises(DataError, match=r"^train size\(s\) not in table: \[7\]$"):
            importance_scopes(table, train_sizes=[100, 7])
        with pytest.raises(DataError, match=r"^dataset\(s\) not in table: \['X'\]$"):
            importance_scopes(table, ["X"])
        with pytest.raises(ValidationError, match="^split must be one of"):
            importance_scopes(table, split="train")

    def test_no_records_and_no_selection_are_one_scope_that_fails(self):
        empty = build_table(cat_space([2]), {})
        assert importance_scopes(empty, ["X"], [7], split="train") == [None]
        assert importance_scopes(sizes_apart_table(), split="validation") == [None]


@st.composite
def ragged_requests(draw):
    """(domains, raw rows, datasets, listed sizes, combine, split): up to four
    datasets, each at some of three train sizes, a context on one split or
    both, cells that miss part of the grid, scores that tie and that sit on
    the 0.95 band; requests that may name what the table lacks."""
    domains = draw(st.sampled_from([[2], [3], [2, 2], [1, 3], [2, 3]]))
    grid = [c.values for c in cat_space(domains).grid()]
    names = [f"d{i}" for i in range(draw(st.sampled_from([0, 1, 2, 3, 4, 4])))]
    raw = {"test": {}, "validation": {}}
    for dataset in names:
        for size in sorted(draw(st.sets(st.sampled_from([10, 100, 1000]), min_size=1))):
            for split in draw(st.sampled_from([("test",), ("validation",), SPLITS, SPLITS])):
                cell = draw(st.lists(st.sampled_from(grid), min_size=1, unique=True))
                raw[split][(dataset, size)] = {
                    values: draw(st.sampled_from([0.3, 0.95, 0.96, 1.0])) for values in cell
                }
    datasets = draw(st.none() | st.lists(st.sampled_from([*names * 3, "x"]), min_size=1, max_size=3))
    scope = draw(st.sampled_from(["default", "listed", "combine"]))
    present = sorted({size for cells in raw.values() for _, size in cells})
    sizes = None
    if scope == "listed":
        sizes = draw(st.lists(st.sampled_from([*present * 3, 7]), min_size=1, max_size=2))
    split = draw(st.sampled_from(["test", "test", "validation", "train"]))
    return domains, raw, datasets, sizes, scope == "combine", split


SCOPE_ERRORS = {
    "records": (DataError, r"^score table has no records$"),
    "split": (ValidationError, r"^split must be one of"),
    "datasets": (DataError, r"^dataset\(s\) not in table"),
    "sizes": (DataError, r"^train size\(s\) not in table"),
    "two": (DataError, r"^need at least two datasets to compare distributions$"),
}


# How far a report's js_score may sit from the reference's, whose distances
# are scipy's.  In ragged_requests' tables a dataset pools at most N = 18
# members (6 grid points at each of 3 train sizes), so each value share is a
# ratio c / n with n <= N, over at most V = 3 values.  Two unequal such
# vectors differ by at least 1 / N**2 in two entries, so by Pinsker's
# inequality their divergence is at least 1 / (2 ln 2 N**4) > 2**-18 and
# their distance at least 2**-9; equal vectors give exactly 0 on both sides.
# Each side computes a divergence within 32u = 2**-48 of the true one (u =
# 2**-53): the library within ``_distance_bounds``' E1 < 24u, with the libm
# log error of 2**-50 that TestLogError pins, and scipy within that plus
# 6u for renormalizing the vectors.  As |sqrt(a) - sqrt(b)| = |a - b| /
# (sqrt(a) + sqrt(b)), two distances of a pair differ by at most
# 2**-47 / 2**-8 = 2**-39 and their roundings, and the scores, fsum means
# of the distances, by less than 2**-37.  The tolerance is twice that, so
# when a permuted reference score lies farther than it from the observed
# one, the library's two scores compare the same way.
SCORE_TOLERANCE = 2.0**-36


class TestScopesReference:
    @settings(max_examples=300, deadline=None)
    @given(request=ragged_requests(), permutations=st.integers(1, 5), seed=st.integers(0, 2**32))
    def test_scopes_and_reports_match_the_reference(self, request, permutations, seed):
        domains, raw, datasets, sizes, combine, split = request
        table = build_table(cat_space(domains), raw)
        hp_domains = [hp.domain for hp in table.space.hyperparameters]
        expected = reference_importance_scopes(raw, datasets, sizes, combine, split, hp_domains)

        def run():
            scopes = [None] if combine else importance_scopes(table, datasets, sizes, split=split)
            return [
                importance_report(
                    table, datasets, size, split=split, permutations=permutations, seed=seed,
                    combine_train_sizes=combine,
                )
                for size in scopes
            ]

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if expected[0] == "error":
                error, message = SCOPE_ERRORS[expected[1]]
                with pytest.raises(error, match=message):
                    run()
                return
            reports = run()
        reference, skipped = expected
        assert [str(w.message) for w in caught] == [
            f"train size {size} has fewer than two datasets; skipped" for size in skipped
        ]
        # repr tells every bit of a float apart
        assert repr([
            (r.train_sizes, r.datasets, {
                d: tuple(e.distributions[i] for e in r.entries) for i, d in enumerate(r.datasets)
            })
            for r in reports
        ]) == repr(reference)

    @settings(max_examples=300, deadline=None)
    @given(request=ragged_requests(), permutations=st.integers(1, 20), seed=st.integers(0, 2**32))
    def test_report_documents_match_the_reference(self, request, permutations, seed):
        domains, raw, datasets, sizes, combine, split = request
        table = build_table(cat_space(domains), raw)
        hps = table.space.hyperparameters
        hp_domains = [hp.domain for hp in hps]
        expected = reference_importance_scopes(raw, datasets, sizes, combine, split, hp_domains)
        if expected[0] == "error":
            return  # the scope test above checks the errors
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # and the skip warnings
            scopes = [None] if combine else importance_scopes(table, datasets, sizes, split=split)
        grid = [config.values for config in table.space.grid()]
        for size, (pooled, compared, distributions) in zip(scopes, expected[0], strict=True):
            document = _data(importance_report(
                table, datasets, size, split=split, permutations=permutations, seed=seed,
                combine_train_sizes=combine,
            ))
            tests = reference_permuted_scores(
                raw[split], compared, pooled, grid, hp_domains, permutations, seed
            )
            reference = {
                "threshold": importance.DEFAULT_THRESHOLD, "permutations": permutations,
                "seed": seed, "split": split, "train_sizes": list(pooled),
                "datasets": list(compared),
                "entries": [
                    {
                        "hyperparameter": hp.name, "datasets": list(compared),
                        "distributions": [list(distributions[d][k]) for d in compared],
                        "error": None,
                    }
                    for k, hp in enumerate(hps)
                ],
            }
            scores = [(entry.pop("js_score"), entry.pop("js_pval"))
                      for entry in document["entries"]]
            assert document == reference  # all but the scores, exactly
            for (score, pval), (observed, permuted) in zip(scores, tests):
                assert abs(score - observed) <= SCORE_TOLERANCE
                # A permuted score within the tolerance may fall either way;
                # with none there, the p-values are equal.
                above = sum(other - observed > SCORE_TOLERANCE for other in permuted)
                near = sum(abs(other - observed) <= SCORE_TOLERANCE for other in permuted)
                assert above / permutations <= pval <= (above + near) / permutations


def test_negative_seed_is_a_validation_error():
    rows = {"a": 100.0, "b": 99.0, "c": 10.0}
    _, table = one_hp_table({(d, 100): dict(rows) for d in ("A", "B")})
    with pytest.raises(ValidationError, match="seed"):
        permutation_pval(table, "hp", seed=-1)
    with pytest.raises(ValidationError, match="seed"):
        importance_report(table, seed=-1)
    with pytest.raises(ValidationError, match="seed"):
        synthetic_table(datasets=2, seed=-1)


def test_empty_table_is_one_data_error():
    table = build_table(cat_space([2]), {})
    calls = [
        lambda: importance_report(table),
        lambda: importance_report(table, combine_train_sizes=True),
        lambda: importance_report(table, train_size=100),
        lambda: permutation_pval(table, "h0"),
    ]
    for call in calls:
        with pytest.raises(DataError, match=r"^score table has no records$"):
            call()


def scalar_js_distance(p, q):
    """The distance one pair at a time, as before the batched kernel."""
    a = np.asarray(p, dtype=float)
    b = np.asarray(q, dtype=float)
    m = 0.5 * (a + b)
    divergence = 0.5 * (rel_entr(a, m).sum() + rel_entr(b, m).sum()) / math.log(2.0)
    if divergence < 0.0:
        divergence = 0.0
    elif divergence > 1.0:
        divergence = 1.0
    return math.sqrt(divergence)


def scalar_js_score(vectors):
    distances = [
        scalar_js_distance(vectors[i], vectors[j])
        for i in range(len(vectors))
        for j in range(i + 1, len(vectors))
    ]
    return 1.0 - math.fsum(distances) / len(distances)


def scalar_permutation_test(space, pools, hp, permutations, seed):
    """The per-permutation loop the batched test replaces: a fresh generator
    per (seed, i), then per dataset np.bincount(segment) / n."""
    names = sorted(pools)
    vectors = tuple(
        value_distribution([space.config_at(i) for i in pools[d]], hp) for d in names
    )
    observed = scalar_js_score(vectors)
    pool_values = np.array(
        [hp.index(space.config_at(i).get(hp.name)) for d in names for i in pools[d]],
        dtype=np.intp,
    )
    counts = [len(pools[d]) for d in names]
    offsets = np.cumsum([0] + counts)
    greater = 0
    for i in range(permutations):
        order = np.random.default_rng((seed, i)).permutation(len(pool_values))
        dealt = pool_values[order]
        dealt_vectors = [
            tuple(np.bincount(dealt[offsets[j] : offsets[j] + n], minlength=len(hp.domain)) / n)
            for j, n in enumerate(counts)
        ]
        if scalar_js_score(dealt_vectors) > observed:
            greater += 1
    return vectors, observed, greater / permutations


@st.composite
def pooled_spaces(draw):
    """A space of 1-3 hyperparameters with 1-8 values each, and per-dataset
    pools of 2-12 datasets, uneven sizes, repeats allowed."""
    space = cat_space(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3)))
    n_datasets = draw(st.integers(2, 12))
    ids = st.integers(0, space.size - 1)
    pools = {
        f"d{k:02d}": draw(st.lists(ids, min_size=1, max_size=draw(st.integers(1, 25))))
        for k in range(n_datasets)
    }
    return space, pools


class TestBatchedPermutationTest:
    @settings(max_examples=80, deadline=None)
    @given(
        case=pooled_spaces(),
        permutations=st.integers(1, 12),
        seed=st.integers(0, 2**32),
        chunk_elements=st.integers(1, 64),
    )
    def test_equals_the_scalar_loop_bit_for_bit(self, case, permutations, seed, chunk_elements):
        space, pools = case
        with mock.patch.object(importance, "_CHUNK_ELEMENTS", chunk_elements):
            actual = importance._permutation_test(
                space, pools, space.hyperparameters, permutations, seed
            )
        expected = [
            scalar_permutation_test(space, pools, hp, permutations, seed)
            for hp in space.hyperparameters
        ]
        # repr tells every bit of a float apart, the sign of zero included,
        # and also fails on a numpy scalar where a Python float belongs.
        assert repr(actual) == repr(expected)

    @settings(max_examples=80, deadline=None)
    @given(case=pooled_spaces(), permutations=st.integers(1, 40), seed=st.integers(0, 2**32))
    def test_one_chunk_equals_the_scalar_loop_bit_for_bit(self, case, permutations, seed):
        space, pools = case
        with mock.patch.object(importance, "_CHUNK_ELEMENTS", 1 << 30):
            actual = importance._permutation_test(
                space, pools, space.hyperparameters, permutations, seed
            )
        expected = [
            scalar_permutation_test(space, pools, hp, permutations, seed)
            for hp in space.hyperparameters
        ]
        assert repr(actual) == repr(expected)

    def test_one_chunk_is_dealt_and_scored_in_one_call_per_hyperparameter(self, monkeypatch):
        space, table, _ = random_instance(7, min_datasets=3)
        calls = {"_distance_bounds": 0, "js_distance": 0, "bincount": 0, "triu_indices": 0}

        def counting(name, original):
            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return counted

        monkeypatch.setattr(importance, "_CHUNK_ELEMENTS", 1 << 30)
        for name in ("_distance_bounds", "js_distance"):
            monkeypatch.setattr(importance, name, counting(name, getattr(importance, name)))
        for name in ("bincount", "triu_indices"):
            monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
        importance_report(table, combine_train_sizes=True, permutations=9, seed=3)
        hps = len(space.hyperparameters)
        # The observed pool, then the one chunk of all nine permutations,
        # bounded in one call; exact distances for the observed pool and at
        # most one call for the chunk's undecided permutations.
        assert calls["bincount"] == hps * 2
        assert calls["_distance_bounds"] == hps
        assert hps <= calls["js_distance"] <= hps * 2
        assert calls["triu_indices"] <= 1

    def test_orders_are_drawn_once_per_report(self, monkeypatch):
        space, table, _ = random_instance(7, min_datasets=3)
        assert len(space.hyperparameters) > 1
        calls = []
        original = np.random.default_rng

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counted)
        importance_report(table, combine_train_sizes=True, permutations=9, seed=3)
        assert calls == [((3, i),) for i in range(9)]

    def test_chunk_size_does_not_change_the_report(self, monkeypatch):
        _, table, _ = random_instance(7, min_datasets=3)
        reports = []
        for elements in (1, 1 << 30):
            monkeypatch.setattr(importance, "_CHUNK_ELEMENTS", elements)
            reports.append(importance_report(table, combine_train_sizes=True,
                                             permutations=23, seed=5))
        assert repr(reports[0]) == repr(reports[1])


@st.composite
def pure_pools(draw):
    """A space of 1-3 hyperparameters with 1-20 values each, and pools of
    2-8 datasets drawn from a few grid ids, so ids repeat within a pool as
    combined train sizes repeat them; one case in four gives every dataset
    the same pool, whose observed score is 1.0."""
    space = cat_space(draw(st.lists(st.integers(1, 20), min_size=1, max_size=3)))
    names = [f"d{k}" for k in range(draw(st.integers(2, 8)))]
    grid = draw(st.lists(st.integers(0, space.size - 1), min_size=1, max_size=6))
    pool = st.lists(st.sampled_from(grid), min_size=1, max_size=20)
    if draw(st.integers(0, 3)) == 0:
        shared = draw(pool)
        return space, {name: list(shared) for name in names}
    return space, {name: draw(pool) for name in names}


def hexed(results):
    return [(tuple(tuple(map(float.hex, v)) for v in vectors), score.hex(), pval.hex())
            for vectors, score, pval in results]


BIG_SEEDS = st.one_of(
    st.integers(0, 2**70),
    st.sampled_from([2**32 - 1, 2**32, 2**64]),
    st.integers(10**299, 10**300 - 1),  # more than four 32-bit words
)


class TestPurePermutationTest:
    """The pure-Python test draws numpy's orders, sums as numpy does and
    returns the chunked test's results, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(seed=BIG_SEEDS, i=st.integers(0, 2**40), n=st.integers(0, 2000))
    def test_permutation_is_numpys(self, seed, i, n):
        expected = list(np.random.default_rng((seed, i)).permutation(n))
        assert importance._permutation(seed, i, n) == expected

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_add_reduce_is_numpys(self, data):
        # Lengths across numpy's 8-element unroll and 128-element block.
        edges = st.sampled_from([7, 8, 9, 127, 128, 129, 135, 136, 255, 256, 257, 264])
        n = data.draw(st.one_of(st.integers(0, 400), edges))
        term = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0),
                         st.floats(-1e300, 1e300))
        terms = data.draw(st.lists(term, min_size=n, max_size=n))
        expected = float(np.add.reduce(np.array(terms, dtype=float)))
        assert importance._add_reduce(terms).hex() == expected.hex()

    @settings(max_examples=150, deadline=None)
    @given(case=pure_pools(), permutations=st.integers(1, 15), seed=BIG_SEEDS)
    def test_equals_the_chunked_test(self, case, permutations, seed):
        space, pools = case
        hps = space.hyperparameters
        # numpy is loaded here, so _permutation_test takes the chunked path.
        chunked = importance._permutation_test(space, pools, hps, permutations, seed)
        pure = importance._pure_permutation_test(space, pools, hps, permutations, seed)
        assert hexed(pure) == hexed(chunked)


@st.composite
def distance_rows(draw):
    """1-4 rows of one length (1-13,000) drawn from a palette of a few values
    in [0, 1], so values repeat; later rows reorder the first or move one of
    its entries by an ulp, so their scores tie or nearly tie."""
    n = draw(st.integers(1, 13_000))
    palette = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    first = palette[rng.integers(len(palette), size=n)]
    rows = [first]
    for _ in range(draw(st.integers(0, 3))):
        row = rng.permutation(first)
        if draw(st.booleans()):
            k = rng.integers(n)
            row[k] = np.nextafter(row[k], draw(st.sampled_from([0.0, 1.0])))
        rows.append(row)
    return np.array(rows)


def fsum_score(row):
    return 1.0 - math.fsum(row) / len(row)


class TestCountGreater:
    @settings(max_examples=150, deadline=None)
    @given(rows=distance_rows(), which=st.integers(0, 3), ulps=st.integers(-4, 4))
    def test_equals_counting_with_fsum(self, rows, which, ulps):
        score = fsum_score(rows[which % len(rows)].tolist())
        for _ in range(abs(ulps)):
            score = float(np.nextafter(score, math.copysign(np.inf, ulps)))
        expected = sum(fsum_score(row) > score for row in rows.tolist())
        assert importance._count_greater(rows, score) == expected


class TestDecisionFallbackAndSkip:
    """fsum decides only the permutations numpy's sum cannot, and a
    one-valued hyperparameter is not permuted at all."""

    @pytest.fixture
    def fsum_calls(self, monkeypatch):
        calls = []
        original = importance.math.fsum

        def counted(row):
            calls.append(len(row))
            return original(row)

        monkeypatch.setattr(importance.math, "fsum", counted)
        return calls

    def test_exact_ties_are_decided_by_fsum(self, fsum_calls):
        # One member each, different values: every deal gives the observed
        # pair back, in one order or the other, so every score ties it.
        space, pools = cat_space([2]), {"a": [0], "b": [1]}
        expected = scalar_permutation_test(space, pools, space.hyperparameters[0], 20, 0)
        fsum_calls.clear()
        actual = importance._permutation_test(space, pools, space.hyperparameters, 20, 0)
        assert repr(actual) == repr([expected])
        assert len(fsum_calls) == 1 + 20

    def test_clear_margins_sum_only_the_observed_scores(self, fsum_calls):
        # Two datasets all (v0, v0) and two all (v1, v1) score about 1/3; a
        # random deal gives each dataset a mix near half and half, which
        # scores far above that.
        space = cat_space([2, 2])
        pools = {"a": [0] * 20, "b": [0] * 20, "c": [3] * 20, "d": [3] * 20}
        expected = [scalar_permutation_test(space, pools, hp, 50, 0)
                    for hp in space.hyperparameters]
        fsum_calls.clear()
        actual = importance._permutation_test(space, pools, space.hyperparameters, 50, 0)
        assert repr(actual) == repr(expected)
        assert fsum_calls == [6, 6]

    def test_one_valued_hyperparameter_is_not_permuted(self, monkeypatch):
        space = cat_space([3, 1, 2])
        pools = {"a": [0, 1, 2], "b": [3, 4], "c": [5, 5, 0, 4]}
        expected = [scalar_permutation_test(space, pools, hp, 30, 9)
                    for hp in space.hyperparameters]
        widths = {"_distance_bounds": [], "js_distance": []}

        def counting(name, width):
            original = getattr(importance, name)

            def counted(*args):
                widths[name].append(width(args[0]))
                return original(*args)
            return counted

        monkeypatch.setattr(importance, "_CHUNK_ELEMENTS", 1 << 30)
        # The chunk kernel takes value-leading stacks, js_distance value-last.
        monkeypatch.setattr(importance, "_distance_bounds", counting("_distance_bounds", len))
        monkeypatch.setattr(importance, "js_distance",
                            counting("js_distance", lambda p: np.shape(p)[-1]))
        actual = importance._permutation_test(space, pools, space.hyperparameters, 30, 9)
        assert repr(actual) == repr(expected)
        assert actual[1][2] == 0.0
        # The observed pool for all three, then the one chunk for two, and
        # exact distances only for those two's undecided permutations.
        assert widths["_distance_bounds"] == [3, 2]
        assert widths["js_distance"][:3] == [3, 1, 2]
        assert set(widths["js_distance"][3:]) <= {3, 2}


class TestLogError:
    """_distance_bounds trusts numpy's log and libm's log and log1p to within
    a relative importance._LOG_ERROR of the true logarithm; a numpy or libm
    that breaks that fails here."""

    def test_numpy_log_is_within_half_the_error_of_libm(self):
        n = np.repeat(np.arange(1, 601), np.arange(1, 601))
        counts = np.concatenate([np.arange(1, k + 1) for k in range(1, 601)])
        ratios = counts / n  # every c / n with 0 < c <= n <= 600
        rng = np.random.default_rng(4)
        x = np.concatenate([
            ratios,
            0.5 * (ratios[:-1] + ratios[1:]),  # mixtures of neighbours
            np.exp2(rng.uniform(-50, 0, 100_000)),
        ])
        libm = np.array([math.log(v) for v in x.tolist()])
        numpy = np.log(x)
        exact = libm == 0.0
        assert (numpy[exact] == 0.0).all()
        relative = np.abs(numpy - libm)[~exact] / np.abs(libm[~exact])
        assert relative.max() <= importance._LOG_ERROR / 2

    def test_libm_log_and_log1p_are_within_2_to_the_minus_50_of_the_true_value(self):
        from decimal import Decimal, localcontext

        rng = np.random.default_rng(5)
        logs = np.exp2(rng.uniform(-50, 1, 2_000)).tolist()
        log1ps = rng.uniform(-0.5, 1.0, 2_000).tolist()
        with localcontext() as ctx:
            ctx.prec = 60
            for x in logs:
                true = Decimal(x).ln()
                assert abs(Decimal(math.log(x)) - true) <= abs(true) * Decimal(2) ** -50
            for w in log1ps:
                ctx.prec = 400  # 1 + w exactly
                shifted = Decimal(w) + 1
                ctx.prec = 60
                true = shifted.ln()
                assert abs(Decimal(math.log1p(w)) - true) <= abs(true) * Decimal(2) ** -50


@st.composite
def dealt_distributions(draw, widths=st.integers(2, 12)):
    """Value-leading (V, rows, datasets) count ratios from pools of up to
    10**4 members, of one of four kinds: random counts; one-hot vectors;
    near-equal vectors (each dataset one member away from a shared base of
    9,999); or one vector dealt at several pool sizes, so every pair is
    identical."""
    width, datasets, rows = draw(widths), draw(st.integers(2, 7)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "one-hot", "near-equal", "identical"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    p = rng.random(width) ** 3
    p /= p.sum()
    shape = (rows, datasets)
    if kind == "random":
        sizes = rng.integers(1, 10_001, size=shape)
        counts = rng.multinomial(sizes, p)
    elif kind == "one-hot":
        sizes = rng.integers(1, 10_001, size=shape)
        counts = np.zeros(shape + (width,), dtype=np.int64)
        np.put_along_axis(counts, rng.integers(width, size=shape + (1,)), sizes[..., None], 2)
    elif kind == "near-equal":
        counts = np.tile(rng.multinomial(9_999, p), shape + (1,))
        for row in counts.reshape(-1, width):
            row[rng.integers(width)] += 1
            if rng.random() < 0.5:  # or move one member instead
                giver = rng.choice(np.flatnonzero(row))
                row[giver] -= 1
                row[rng.integers(width)] += 1
        sizes = counts.sum(2)
    else:
        base = rng.multinomial(rng.integers(1, 100), p)
        scale = rng.integers(1, 10_000 // base.sum() + 1, size=shape)
        counts, sizes = base * scale[..., None], base.sum() * scale
    vectors = counts / sizes[..., None]
    return np.ascontiguousarray(np.moveaxis(vectors, -1, 0)), kind


class TestDistanceBounds:
    """_distance_bounds brackets the exact js_distance of every pair, tightly,
    and pins identical vectors at exactly 0."""

    def check(self, vectors, kind):
        pairs = np.triu_indices(vectors.shape[2], 1)
        before = vectors.copy()
        lo, hi = importance._distance_bounds(vectors, pairs)
        assert (vectors == before).all()
        exact = importance._pair_distances(np.moveaxis(vectors, 0, -1), pairs)
        assert (lo <= exact).all() and (exact <= hi).all()
        # Within sqrt(2E) of each other even where the divergence is near 0.
        assert (hi - lo <= 1e-5).all()
        same = (vectors[:, :, pairs[0]] == vectors[:, :, pairs[1]]).all(0)
        assert (lo[same] == 0.0).all() and (hi[same] == 0.0).all()
        if kind == "identical":
            assert same.all()

    @settings(max_examples=200, deadline=None)
    @given(case=dealt_distributions())
    def test_bounds_hold_the_exact_distance(self, case):
        self.check(*case)

    @settings(max_examples=60, deadline=None)
    @given(case=dealt_distributions(widths=st.integers(8, 12)))
    def test_bounds_hold_on_domains_of_8_to_12_values(self, case):
        # js_distance sums 8 or more terms pairwise, not one by one.
        self.check(*case)
