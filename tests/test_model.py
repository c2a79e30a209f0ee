"""Domain types: canonical values, grids, identity, table invariants."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from covsearch import (
    ConfigSpace,
    Configuration,
    Context,
    Hyperparameter,
    ScoreRecord,
    ScoreTable,
    ValidationError,
    canonical_value,
)
from helpers import cat_space, make_space


class TestCanonicalValue:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("5e-06", "5.0e-6"),
            ("5.0E-6", "5.0e-6"),
            ("0.000005", "5.0e-6"),
            ("0.0001", "1.0e-4"),
            ("1e-04", "1.0e-4"),
            ("0.001", "1.0e-3"),
            ("32.5", "3.25e1"),
            ("-0.25", "-2.5e-1"),
            ("1000", "1.0e3"),
            ("0", "0.0e0"),
        ],
    )
    def test_real(self, raw, expected):
        assert canonical_value("real", raw) == expected

    @pytest.mark.parametrize("raw,expected", [("8", "8"), ("08", "8"), ("8.0", "8"), (32, "32")])
    def test_integer(self, raw, expected):
        assert canonical_value("integer", raw) == expected

    def test_categorical_passthrough(self):
        assert canonical_value("categorical", "  cosine ") == "cosine"
        assert canonical_value("categorical", "Cosine") == "Cosine"

    @pytest.mark.parametrize(
        "kind,raw",
        [
            ("real", "abc"),
            ("real", "nan"),
            ("real", "inf"),
            ("integer", "1.5"),
            ("integer", "x"),
            ("categorical", ""),
            ("oops", "1"),
            ("real", "1e9999999"),
            ("real", "1e-9999999"),
            ("integer", "1e999"),
        ],
    )
    def test_rejects(self, kind, raw):
        with pytest.raises(ValidationError):
            canonical_value(kind, raw)


class TestHyperparameter:
    def test_domain_canonicalized(self):
        hp = Hyperparameter("lr", "real", ("5e-05", "0.0005"))
        assert hp.domain == ("5.0e-5", "5.0e-4")
        assert hp.index("0.00005") == 0

    def test_duplicate_after_canonicalization(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Hyperparameter("lr", "real", ("0.0001", "1e-4"))

    def test_empty_domain(self):
        with pytest.raises(ValidationError, match="empty domain"):
            Hyperparameter("lr", "real", ())

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown kind"):
            Hyperparameter("lr", "float", ("0.1",))

    def test_reserved_name(self):
        with pytest.raises(ValidationError, match="reserved"):
            Hyperparameter("split", "categorical", ("a",))

    def test_membership(self):
        hp = Hyperparameter("batch", "integer", ("8", "32"))
        assert "8" in hp and "32.0" in hp and "16" not in hp


# Raw values of every type a space file or score file can hand over.
RAW_VALUES = st.one_of(
    st.integers(min_value=-10**30, max_value=10**30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.decimals(allow_nan=False, allow_infinity=False),
    st.decimals(allow_nan=False, allow_infinity=False).map(lambda d: f"{d:E}"),
    st.text(max_size=12),
)


def canonical_or_none(kind, raw):
    try:
        return canonical_value(kind, raw)
    except ValidationError:
        return None


def index_outcome(hp, raw):
    try:
        return hp.index(raw)
    except ValidationError as exc:
        return str(exc)


class TestCanonicalProperties:
    """Hyperparameter.canonical and .index return a domain value as it is;
    that is only sound because canonicalization is idempotent."""

    @given(kind=st.sampled_from(["real", "integer", "categorical"]), raw=RAW_VALUES)
    def test_canonical_value_is_idempotent(self, kind, raw):
        value = canonical_or_none(kind, raw)
        if value is not None:
            assert canonical_value(kind, value) == value

    @given(
        kind=st.sampled_from(["real", "integer", "categorical"]),
        domain=st.lists(RAW_VALUES, min_size=1, max_size=6),
        raws=st.lists(RAW_VALUES, max_size=6),
    )
    def test_index_agrees_with_index_of_canonical(self, kind, domain, raws):
        canon = {canonical_or_none(kind, v) for v in domain} - {None}
        if not canon:
            return
        hp = Hyperparameter("h", kind, tuple(sorted(canon)))
        for raw in list(domain) + list(raws) + [str(v) for v in domain]:
            try:
                expected = hp.index(hp.canonical(raw))
            except ValidationError as exc:
                expected = str(exc)
            assert index_outcome(hp, raw) == expected
            if isinstance(expected, int):
                assert hp.canonical(raw) == hp.domain[expected]


class TestConfigSpace:
    def test_grid_order_two_by_two(self):
        space = make_space(("lr", "categorical", ["a", "b"]), ("ep", "integer", ["1", "2"]))
        assert [c.values for c in space.grid()] == [
            ("a", "1"), ("a", "2"), ("b", "1"), ("b", "2"),
        ]

    def test_grid_singleton(self):
        space = make_space(("lr", "categorical", ["a"]))
        assert [c.values for c in space.grid()] == [("a",)]

    def test_grid_size_and_uniqueness(self):
        space = cat_space([3, 2, 3])
        grid = space.grid()
        assert len(grid) == 18 == space.size
        assert len(set(grid)) == len(grid)

    def test_config_index_matches_grid_position(self):
        space = cat_space([2, 3, 2])
        for i, cfg in enumerate(space.grid()):
            assert space.config_index(cfg) == i

    def test_requires_hyperparameters(self):
        with pytest.raises(ValidationError):
            ConfigSpace(hyperparameters=())

    def test_duplicate_names(self):
        with pytest.raises(ValidationError, match="duplicate"):
            make_space(("a", "integer", ["1"]), ("a", "integer", ["2"]))

    def test_grid_overflow_names_product(self):
        hps = tuple(
            Hyperparameter(f"h{i}", "integer", tuple(str(v) for v in range(100)))
            for i in range(4)
        )
        with pytest.raises(ValidationError, match="100 x 100 x 100 x 100"):
            ConfigSpace(hyperparameters=hps)

    def test_configuration_from_mapping_and_sequence(self):
        space = make_space(("lr", "real", ["1e-4", "1e-3"]), ("b", "integer", ["8"]))
        by_map = space.configuration({"lr": "0.0001", "b": 8})
        by_seq = space.configuration(["1e-4", "8"])
        assert by_map == by_seq
        assert by_map.values == ("1.0e-4", "8")

    def test_configuration_rejects_out_of_domain(self):
        space = make_space(("lr", "real", ["1e-4"]))
        with pytest.raises(ValidationError, match="not in domain"):
            space.configuration({"lr": "2e-4"})


class TestConfiguration:
    def test_equality_and_hash(self):
        space = cat_space([2, 2])
        a = space.configuration(["v0", "v1"])
        b = space.configuration(("v0", "v1"))
        c = space.configuration(["v1", "v0"])
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_equality_is_string_exact(self):
        space = make_space(("lr", "real", ["1e-4", "5e-4"]))
        assert space.configuration(["0.0001"]) == space.configuration(["1e-04"])

    def test_accessors(self):
        space = make_space(("lr", "real", ["1e-4"]), ("b", "integer", ["8"]))
        cfg = space.configuration(["1e-4", "8"])
        assert cfg.get("b") == "8"
        assert cfg.as_dict() == {"lr": "1.0e-4", "b": "8"}
        assert str(cfg) == "lr=1.0e-4 b=8"


class TestContext:
    def test_ordering_is_componentwise(self):
        a = Context("a", 100)
        b = Context("a", 1000)
        c = Context("b", 100)
        assert sorted([c, b, a]) == [a, b, c]

    @pytest.mark.parametrize("dataset,size", [("", 10), ("d", 0), ("d", -5)])
    def test_invalid(self, dataset, size):
        with pytest.raises(ValidationError):
            Context(dataset, size)


class TestScoreRecord:
    def setup_method(self):
        self.space = cat_space([2])
        self.cfg = self.space.configuration(["v0"])
        self.ctx = Context("d", 100)

    def test_negative_score(self):
        with pytest.raises(ValidationError, match="non-negative"):
            ScoreRecord(self.ctx, "test", self.cfg, -0.2)

    def test_nan_score(self):
        with pytest.raises(ValidationError, match="finite"):
            ScoreRecord(self.ctx, "test", self.cfg, float("nan"))

    def test_bad_split(self):
        with pytest.raises(ValidationError, match="split"):
            ScoreRecord(self.ctx, "dev", self.cfg, 1.0)


class TestScoreTable:
    def test_duplicate_cell_rejected(self):
        space = cat_space([2])
        cfg = space.configuration(["v0"])
        ctx = Context("d", 100)
        records = [
            ScoreRecord(ctx, "test", cfg, 1.0),
            ScoreRecord(ctx, "test", cfg, 2.0),
        ]
        with pytest.raises(ValidationError, match="duplicate"):
            ScoreTable(space, records)

    def test_record_order_irrelevant(self):
        space = cat_space([2, 2])
        grid = space.grid()
        records = [
            ScoreRecord(Context("d", size), split, cfg, float(i + 1))
            for i, (cfg, size, split) in enumerate(
                itertools.product(grid, [100, 1000], ["validation", "test"])
            )
        ]
        shuffled = records[:]
        random.Random(5).shuffle(shuffled)
        a = ScoreTable(space, records)
        b = ScoreTable(space, shuffled)
        assert a == b
        assert a.records == b.records  # canonical internal order

    def test_lookup_helpers(self):
        space = cat_space([2])
        table = ScoreTable(
            space,
            [
                ScoreRecord(Context("d", 100), "test", space.configuration(["v0"]), 3.0),
                ScoreRecord(Context("d", 100), "validation", space.configuration(["v0"]), 1.0),
                ScoreRecord(Context("e", 1000), "test", space.configuration(["v1"]), 2.0),
            ],
        )
        assert table.datasets() == ["d", "e"]
        assert table.train_sizes() == [100, 1000]
        assert table.contexts("test") == [Context("d", 100), Context("e", 1000)]
        assert table.splits_for(Context("d", 100)) == ["test", "validation"]
        assert table.score(Context("d", 100), "test", space.configuration(["v0"])) == 3.0
        assert table.score(Context("d", 100), "test", space.configuration(["v1"])) is None

    def test_rejects_foreign_config(self):
        space = cat_space([2])
        other = cat_space([2, 2])
        with pytest.raises(ValidationError):
            ScoreTable(
                space,
                [ScoreRecord(Context("d", 1), "test", other.grid()[0], 1.0)],
            )
