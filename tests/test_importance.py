"""Jensen-Shannon consistency analysis and the permutation test."""

import itertools
import math
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
    js_distance,
    js_score,
    permutation_pval,
    synthetic_table,
    top_set_95,
    value_distribution,
)
from helpers import build_table, cat_space, make_space, random_instance
from oracle_impl import reference_permutation_pval


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
        ts = top_set_95(table, Context("d", 100))
        assert {c.values[0] for c in ts.configs} == {"a", "b"}

    def test_boundary_excluded(self):
        space, table = one_hp_table({("d", 100): {"a": 100.0, "b": 95.0}})
        ts = top_set_95(table, Context("d", 100))
        assert {c.values[0] for c in ts.configs} == {"a"}

    def test_all_tied_gives_full_grid(self):
        space, table = one_hp_table({("d", 100): {"a": 5.0, "b": 5.0, "c": 5.0}})
        ts = top_set_95(table, Context("d", 100))
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
        _, table, _ = random_instance(3, min_datasets=2, max_contexts=6)
        if len(table.train_sizes()) > 1:
            with pytest.raises(DataError, match="train size"):
                permutation_pval(table, "h0")


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
                [cfg for m in sizes for cfg in top_set_95(table, Context(d, m)).configs]
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
