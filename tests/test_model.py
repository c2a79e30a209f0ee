"""Domain types: canonical values, grids, identity, table invariants."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from covsearch import (
    BudgetCurve,
    BudgetDetail,
    BudgetPoint,
    CatalogEntry,
    CompareRow,
    CompletenessReport,
    ConfigSpace,
    Configuration,
    Context,
    CoverageRanking,
    DataError,
    FixedConfigResult,
    HpImportance,
    Hyperparameter,
    ImportanceReport,
    LooResult,
    LooScore,
    RankingEntry,
    ScoreRecord,
    ScoreTable,
    TopSet,
    UpperBoundResult,
    ValidationError,
    canonical_value,
    completeness_report,
    serialize_scores,
    synthetic_table,
)
from covsearch.model import _Record
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

    @pytest.mark.parametrize("name", [" lr", "lr ", "a,b"])
    def test_invalid_name(self, name):
        with pytest.raises(ValidationError, match=f"^invalid hyperparameter name {name!r}$"):
            Hyperparameter(name, "categorical", ("a",))

    def test_value_with_a_newline(self):
        with pytest.raises(ValidationError, match="^hyperparameter value must not contain newlines$"):
            Hyperparameter("c", "categorical", ("a\nb",))

    def test_spellings_are_remembered_only_once_they_prove_members(self):
        hp = Hyperparameter("lr", "real", ("5e-05", "1e-04"))
        assert hp.index(" 0.00005") == hp.index(" 0.00005") == 0
        assert hp._value_index[" 0.00005"] == 0
        for _ in range(2):  # a failed spelling fails on every lookup
            with pytest.raises(ValidationError, match="value '2.0e-4' not in domain"):
                hp.index("2e-4")
        assert "2e-4" not in hp._value_index and "2e-4" not in hp
        assert hp.index(0.0001) == 1 and 0.0001 not in hp._value_index


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

    @pytest.mark.parametrize("values,message", [
        ({"lr": "1e-4", "b": "8", "zz": "1"}, r"^unknown hyperparameter\(s\): \['zz'\]$"),
        ({"lr": "1e-4"}, r"^missing hyperparameter value\(s\): \['b'\]$"),
        (["1e-4"], "^expected 2 values, got 1$"),
    ])
    def test_configuration_shape_errors(self, values, message):
        space = make_space(("lr", "real", ["1e-4"]), ("b", "integer", ["8"]))
        with pytest.raises(ValidationError, match=message):
            space.configuration(values)

    @pytest.mark.parametrize("index", [-1, 4])
    def test_config_at_out_of_range(self, index):
        with pytest.raises(ValidationError, match=rf"^grid id {index} outside 0\.\.3$"):
            cat_space([2, 2]).config_at(index)

    def test_unknown_hyperparameter_name(self):
        space = cat_space([2, 2])
        for lookup in (lambda: space.hyperparameter("zz"), lambda: space.value_positions("zz", 0)):
            with pytest.raises(ValidationError, match="^no hyperparameter named 'zz' in space$"):
                lookup()


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

    def test_dataset_with_a_newline(self):
        with pytest.raises(ValidationError, match="^dataset identifier must not contain newlines$"):
            Context("a\nb", 100)

    @pytest.mark.parametrize("size,message", [
        (0, "^train_size must be >= 1, got 0$"),
        (1.5, "^train_size must be an integer, got 1.5$"),
    ])
    def test_train_size_messages(self, size, message):
        with pytest.raises(ValidationError, match=message):
            Context("d", size)


class TestCoverageRanking:
    EMPTY = CoverageRanking(entries=(), contexts=(), split="test", threshold=0.5)

    def test_top_needs_a_positive_k(self):
        with pytest.raises(ValidationError, match="^k must be >= 1, got 0$"):
            self.EMPTY.top(0)

    def test_empty_ranking_has_no_recommendation(self):
        with pytest.raises(DataError, match="^ranking is empty$"):
            self.EMPTY.recommended


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


class TestStoredIndex:
    """A table sorts its contexts once, when built; its views read that order."""

    def test_views_compare_no_contexts(self, monkeypatch):
        def forbidden(self, other):
            raise AssertionError("contexts are sorted once, when the table is built")

        table = synthetic_table(datasets=12)
        contexts = sorted({Context(f"ds{i:02d}", m) for i in range(12) for m in (100, 1000)})
        report = completeness_report(table)
        text = serialize_scores(table)
        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(Context, name, forbidden)
        assert table.contexts() == contexts
        assert table.contexts("test") == table.contexts("validation") == contexts
        assert table.datasets() == [f"ds{i:02d}" for i in range(12)]
        assert table.train_sizes() == [100, 1000]
        assert all(table.splits_for(ctx) == ["test", "validation"] for ctx in contexts)
        assert completeness_report(table) == report
        assert serialize_scores(table) == text
        assert len(table) == 12 * 2 * 2 * 24

    def test_single_split_and_absent_lookups(self):
        space = cat_space([2])
        table = ScoreTable(
            space,
            [
                ScoreRecord(Context("e", 1000), "test", space.configuration(["v1"]), 2.0),
                ScoreRecord(Context("d", 100), "validation", space.configuration(["v0"]), 1.0),
            ],
        )
        assert table.contexts() == [Context("d", 100), Context("e", 1000)]
        assert table.contexts("test") == [Context("e", 1000)]
        assert table.contexts("validation") == [Context("d", 100)]
        assert table.splits_for(Context("d", 100)) == ["validation"]
        assert table.splits_for(Context("x", 1)) == []
        assert table.cell(Context("d", 100), "test") == {}
        assert table.cell(Context("x", 1), "test") == {}
        assert len(table) == 2


class TestSyntheticTable:
    @pytest.mark.parametrize("kwargs,message", [
        ({"correlation": 1.5}, r"^correlation must be in \[0, 1\], got 1.5$"),
        ({"noise": 1.0}, r"^noise must be in \[0, 1\), got 1.0$"),
        ({"scale": 0.0}, "^scale must be positive, got 0.0$"),
        ({"datasets": 0}, "^datasets must be >= 1, got 0$"),
        ({"datasets": ["a", "a"]}, "^dataset names must be unique$"),
        ({"train_sizes": ()}, "^need at least one train size$"),
    ])
    def test_argument_errors(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            synthetic_table(**kwargs)

    def test_overflowing_scale_rejected(self):
        # Some contexts' scale factors overflow to inf; the first one's
        # scores must fail the score check, not enter the table.
        with pytest.raises(ValidationError, match=r"^score must be finite, got inf$"):
            synthetic_table(scale=1.7e308)


class TestPublicPaths:
    """Public accessors and invariant checks that the analyses never reach."""

    space = make_space(("lr", "categorical", ["a", "b"]), ("bs", "integer", ["8", "16"]))

    def test_configuration_get_unknown_name(self):
        config = self.space.configuration(["a", 8])
        assert config.get("bs") == "8"
        with pytest.raises(KeyError, match="nosuch"):
            config.get("nosuch")

    def test_table_scores_and_score(self):
        ctx = Context("d", 100)
        a8, b16 = self.space.configuration(["a", 8]), self.space.configuration(["b", 16])
        table = ScoreTable(self.space, [
            ScoreRecord(ctx, "test", b16, 2.0), ScoreRecord(ctx, "test", a8, 1.0),
        ])
        assert list(table.scores(ctx, "test").items()) == [(a8, 1.0), (b16, 2.0)]
        assert table.scores(ctx, "validation") == {}
        assert table.score(ctx, "test", b16) == 2.0
        outside = Configuration((("lr", "c"), ("bs", "8")))
        assert table.score(ctx, "test", outside) is None
        assert table.score(ctx, "test", Configuration((("lr", "a"),))) is None

    def test_upper_bound_and_fixed_config_to_dict(self):
        config = self.space.configuration(["b", 16])
        bound = UpperBoundResult(Context("d", 100), config, 0.5, 0.75)
        assert bound.to_dict() == {
            "context": "d@100",
            "config": {"lr": "b", "bs": "16"},
            "validation_score": 0.5,
            "test_score": 0.75,
        }
        fixed = FixedConfigResult(
            config, ((Context("d", 100), 1.0), (Context("e", 100), 3.0)), (("all", 2.0),)
        )
        assert fixed.to_dict() == {
            "config": {"lr": "b", "bs": "16"},
            "scores": {"d@100": 1.0, "e@100": 3.0},
            "macro_averages": {"all": 2.0},
        }

    def entry(self, values, covered):
        return RankingEntry(
            self.space.configuration(values), float(len(covered)),
            frozenset(Context(d, 100) for d in covered),
        )

    def test_ranking_recommended_and_invariants(self):
        wide, narrow = self.entry(["a", 8], "de"), self.entry(["b", 16], "f")
        ranking = CoverageRanking((wide, narrow), (), "test", 0.9)
        assert ranking.recommended == wide.config
        with pytest.raises(DataError, match="^ranking is empty$"):
            CoverageRanking((), (), "test", 0.9).recommended
        with pytest.raises(ValidationError, match="^ranking entries must be sorted by coverage size$"):
            CoverageRanking((narrow, wide), (), "test", 0.9)
        with pytest.raises(ValidationError, match="^ranking entries must be unique per configuration$"):
            CoverageRanking((wide, wide), (), "test", 0.9)

    def test_budget_curve_needs_every_k(self):
        points = (BudgetPoint(1, 0.5), BudgetPoint(3, 0.7))
        with pytest.raises(ValidationError, match=r"^budget points must cover k = 1..max_budget$"):
            BudgetCurve(points, (), 0.9, "test", "test_max")

    @pytest.mark.parametrize("kwargs,message", [
        ({"distributions": ((1.5, -0.5),)}, "^probability vectors must be non-negative$"),
        ({"distributions": ((0.5, 0.4),)}, "^probability vector sums to 0.9, not 1$"),
        ({"js_score": 1.5}, r"^js_score out of \[0, 1\]: 1.5$"),
        ({"js_pval": -0.1}, r"^js_pval out of \[0, 1\]: -0.1$"),
    ])
    def test_importance_range_checks(self, kwargs, message):
        fields = {"distributions": ((0.5, 0.5),), "js_score": 0.5, "js_pval": 0.5, **kwargs}
        with pytest.raises(ValidationError, match=message):
            HpImportance("lr", ("d",), **fields)
        HpImportance("lr", ("d",), **fields, error="recorded")  # an error entry skips the checks


# One valid instance of every record type: its fields in declaration order,
# then one field with another valid value.
HP = Hyperparameter("hp", "categorical", ("x", "y"))
CFG = Configuration((("hp", "x"),))
CTX = Context("a", 100)
ENTRY = RankingEntry(CFG, 1.0, frozenset({CTX}))
RANKING = CoverageRanking((ENTRY,), (CTX,), "test", 0.9)
RECORDS = [
    (Hyperparameter, {"name": "hp", "kind": "categorical", "domain": ("x", "y")}, ("name", "lr")),
    (Configuration, {"items": (("hp", "x"),)}, ("items", (("hp", "y"),))),
    (ConfigSpace, {"hyperparameters": (HP,), "label": "s"}, ("label", "t")),
    (Context, {"dataset": "a", "train_size": 100}, ("train_size", 1000)),
    (ScoreRecord, {"context": CTX, "split": "test", "config": CFG, "score": 1.0},
     ("split", "validation")),
    (RankingEntry, {"config": CFG, "score_sum": 1.0, "coverage": frozenset({CTX})},
     ("score_sum", 2.0)),
    (CoverageRanking, {"entries": (ENTRY,), "contexts": (CTX,), "split": "test",
                       "threshold": 0.9}, ("threshold", 0.8)),
    (LooScore, {"context": CTX, "test_score": 1.0, "normalized_test_score": 1.0},
     ("test_score", 2.0)),
    (LooResult, {"held_out_dataset": "a", "recommended_config": CFG,
                 "scores": (LooScore(CTX, 1.0, 1.0),), "ranking": RANKING},
     ("held_out_dataset", "b")),
    (UpperBoundResult, {"context": CTX, "config": CFG, "validation_score": 1.0,
                        "test_score": 2.0}, ("test_score", 3.0)),
    (BudgetPoint, {"k": 1, "mean_normalized_test_score": 0.5}, ("k", 2)),
    (BudgetDetail, {"k": 1, "context": CTX, "config": CFG, "validation_score": 1.0,
                    "test_score": 2.0, "normalized_test_score": 0.5, "clamped": False},
     ("clamped", True)),
    (BudgetCurve, {"points": (BudgetPoint(1, 0.5),), "details": (), "threshold": 0.9,
                   "split": "test", "normalize_by": "test_max"},
     ("normalize_by", "upper_bound")),
    (FixedConfigResult, {"config": CFG, "scores": ((CTX, 1.0),),
                         "macro_averages": (("t", 1.0),)}, ("macro_averages", ())),
    (CompareRow, {"task": "t", "train_size": 100, "n_datasets": 2, "default_score": None,
                  "cbs1_score": 1.0, "upper_bound_score": 2.0}, ("default_score", 0.5)),
    (HpImportance, {"name": "hp", "datasets": ("a", "b"),
                    "distributions": ((1.0, 0.0), (0.0, 1.0)), "js_score": 1.0,
                    "js_pval": 0.5, "error": None}, ("error", "recorded")),
    (ImportanceReport, {"entries": (), "threshold": 0.9, "permutations": 10, "seed": 0,
                        "split": "test", "train_sizes": (100,), "datasets": ("a", "b")},
     ("seed", 1)),
    (CompletenessReport, {"missing": ((CTX, "test", ()),), "single_split": ()},
     ("single_split", ((CTX, "test"),))),
    (CatalogEntry, {"model": "m", "method": "lora", "source": "cbs_recommendation",
                    "rank": 1, "config": CFG}, ("rank", 2)),
    (TopSet, {"context": CTX, "split": "test", "threshold": 0.9,
              "space": ConfigSpace((HP,)), "id_members": ((0, 1.0),)},
     ("id_members", ((0, 1.0), (1, 0.95)))),
]


class TestRecords:
    """Every record type: constructed by position or keyword, read-only,
    equal and hashed by class and fields, and shown as a dataclass would."""

    def test_every_record_type_is_covered(self):
        assert {cls for cls, _, _ in RECORDS} == set(_Record.__subclasses__())

    @pytest.mark.parametrize("cls,fields,change", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])
    def test_semantics(self, cls, fields, change):
        record = cls(*fields.values())
        assert cls(**fields) == record and hash(cls(**fields)) == hash(record)
        assert {name: getattr(record, name) for name in fields} == fields
        shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(record) == f"{cls.__name__}({shown})"

        first = next(iter(fields))
        with pytest.raises(TypeError):
            cls(**{name: value for name, value in fields.items() if name != first})
        for name in (first, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, fields[first])
        with pytest.raises(AttributeError):
            delattr(record, first)
        assert getattr(record, first) == fields[first]

        name, value = change
        other = cls(**{**fields, name: value})
        assert other != record and not other == record
        assert len({record, other, cls(**fields)}) == 2
        subclass = type("Sub", (cls,), {})
        assert subclass(**fields) != record and record != subclass(**fields)
        assert record != tuple(fields.values())

    def test_context_order(self):
        contexts = [Context(d, n) for d in ("b", "a") for n in (1000, 100, 20)]
        assert sorted(contexts) == [Context(d, n) for d in ("a", "b") for n in (20, 100, 1000)]
        small, large = Context("a", 20), Context("a", 100)
        assert small < large and small <= large and large > small and large >= small
        assert small <= Context("a", 20) and small >= Context("a", 20)
        assert not small < Context("a", 20)
        for compare in ("__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(small, compare)(("a", 20)) is NotImplemented
        with pytest.raises(TypeError):
            small < ("a", 20)

    def test_cached_values_take_no_part_in_identity(self):
        cached, fresh = ConfigSpace((HP,)), ConfigSpace((HP,))
        assert cached.size == 2 and "size" in vars(cached) and "size" not in vars(fresh)
        assert cached == fresh and hash(cached) == hash(fresh)
