"""Parsing, serialization, completeness, and the bundled catalog."""

import contextlib
import csv
import io
import itertools
import json
import random
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsearch import (
    CatalogEntry,
    ConfigSpace,
    Configuration,
    Context,
    CovsearchError,
    Hyperparameter,
    ParseError,
    ScoreRecord,
    ScoreTable,
    ValidationError,
    builtin_catalog,
    builtin_space,
    builtin_task_map,
    completeness_report,
    load_scores,
    load_space,
    load_task_map,
    parse_scores,
    parse_space,
    serialize_scores,
    serialize_space,
    synthetic_table,
)
import covsearch
from covsearch import ingest
from covsearch.cli import main
from covsearch.ingest import CompletenessReport, _parse_csv_line
from covsearch.model import INTEGER, NUMBER, RESERVED_COLUMNS
from covsearch.report import completeness_pieces, render_completeness
from helpers import build_table, cat_space, make_space

SPACE_DOC = json.dumps(
    {
        "label": "toy",
        "hyperparameters": [
            {"name": "lr", "kind": "real", "domain": ["5e-05", "1e-04"]},
            {"name": "epochs", "kind": "integer", "domain": [5, 10]},
        ],
    }
)


def scores_text(rows, header="dataset,train_size,split,score,lr,epochs"):
    return "\n".join([header] + rows) + "\n"


FULL_ROWS = [
    "d1,100,test,0.5,5e-05,5",
    "d1,100,test,0.7,5e-05,10",
    "d1,100,test,0.4,1e-04,5",
    "d1,100,test,0.9,1e-04,10",
]


class TestSpaceFiles:
    def test_parse_valid(self):
        space = parse_space(SPACE_DOC)
        assert space.label == "toy"
        assert space.size == 4
        assert space.names == ("lr", "epochs")

    def test_roundtrip_identity(self):
        space = parse_space(SPACE_DOC)
        text = serialize_space(space)
        again = parse_space(text)
        assert again == space
        assert serialize_space(again) == text

    def test_manifest_field_tolerated(self):
        doc = json.loads(SPACE_DOC)
        doc["manifest"] = {"command": "synth"}
        assert parse_space(json.dumps(doc)) == parse_space(SPACE_DOC)

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda d: d["hyperparameters"].clear(), "hyperparameters"),
            (lambda d: d["hyperparameters"][0].update(domain=[]), "empty domain"),
            (lambda d: d["hyperparameters"][0].update(kind="float"), "unknown kind"),
            (lambda d: d["hyperparameters"][0].update(name="epochs"), "duplicate"),
            (lambda d: d["hyperparameters"][0].pop("name"), "missing field"),
            (lambda d: d.update(extra=1), "unknown field"),
            (
                lambda d: d["hyperparameters"][0].update(domain=["1e-4", "0.0001"]),
                "duplicate value",
            ),
        ],
    )
    def test_malformed_space(self, mutate, needle):
        doc = json.loads(SPACE_DOC)
        mutate(doc)
        with pytest.raises(ParseError, match=needle):
            parse_space(json.dumps(doc))

    def test_invalid_json_has_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_space("{nope")

    @pytest.mark.parametrize("text,message", [
        ("[" * 100_000 + "]" * 100_000, "arrays or objects nested too deeply"),
        ('{"label": ' + "1" * 5000 + "}", "an integer has too many digits"),
    ], ids=["deep", "long integer"])
    def test_json_the_decoder_refuses(self, tmp_path, text, message):
        with pytest.raises(ParseError, match=f"^invalid JSON: {message}$"):
            parse_space(text)
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            ingest.load_json(path)
        assert str(exc.value) == f"invalid JSON in {path}: {message}"

    def test_numbers_and_strings_mix_in_a_domain(self):
        doc = {"hyperparameters": [{"name": "lr", "kind": "real", "domain": ["1e-4", 5e-05, 1]}]}
        (hp,) = parse_space(json.dumps(doc)).hyperparameters
        assert hp.domain == ("1.0e-4", "5.0e-5", "1.0e0")

    @pytest.mark.parametrize("doc,message", [
        ([], r"^\$: top level must be an object$"),
        ({"label": 1, "hyperparameters": []}, "^label: label must be a string$"),
        ({"hyperparameters": [1]}, r"^hyperparameters\[0\]: entry must be an object$"),
        (
            {"hyperparameters": [{"name": "a", "kind": "integer", "domain": [1], "x": 0}]},
            r"^hyperparameters\[0\]: unknown field\(s\) \['x'\]$",
        ),
        (
            {"hyperparameters": [{"name": "a", "kind": "integer", "domain": 1}]},
            r"^hyperparameters\[0\]\.domain: domain must be an array$",
        ),
        *(
            (
                {"hyperparameters": [{"name": "a", "kind": "categorical", "domain": ["x"],
                                      field: value}]},
                rf"^hyperparameters\[0\]\.{field}: {message}$",
            )
            for field, value, message in [
                ("name", None, "name must be a string"),
                ("name", 1, "name must be a string"),
                ("kind", ["categorical"], "kind must be a string"),
                ("domain", ["x", None], "domain values must be strings or numbers"),
                ("domain", [True, False], "domain values must be strings or numbers"),
                ("domain", ["x", {"x": 1}], "domain values must be strings or numbers"),
                ("domain", [["x"]], "domain values must be strings or numbers"),
            ]
        ),
    ])
    def test_malformed_document_shape(self, doc, message):
        with pytest.raises(ParseError, match=message):
            parse_space(json.dumps(doc))


class TestScoreFiles:
    def setup_method(self):
        self.space = parse_space(SPACE_DOC)

    def test_full_grid(self):
        table = parse_scores(scores_text(FULL_ROWS), self.space, warn_incomplete=False)
        assert len(table) == 4
        assert completeness_report(table).is_complete

    def test_missing_row_warns_and_reports(self):
        with pytest.warns(UserWarning) as caught:
            table = parse_scores(scores_text(FULL_ROWS[:-1]), self.space)
        messages = [str(w.message) for w in caught]
        assert any("missing 1 grid configuration" in m for m in messages)
        assert len(table) == 3
        report = completeness_report(table)
        ((_, _, missing),) = report.missing
        assert [c.values for c in missing] == [("1.0e-4", "10")]

    def test_negative_score_names_line(self):
        rows = FULL_ROWS[:2] + ["d1,100,test,-0.2,1e-04,5"]
        with pytest.raises(ParseError, match="negative score") as exc:
            parse_scores(scores_text(rows), self.space)
        assert exc.value.line == 4

    def test_zero_train_size_names_line(self):
        rows = FULL_ROWS[:2] + ["d1,0,test,0.4,1e-04,5"]
        with pytest.raises(ParseError, match="^line 4: train_size must be >= 1, got 0$"):
            parse_scores(scores_text(rows), self.space)

    def test_row_order_irrelevant(self):
        a = parse_scores(scores_text(FULL_ROWS), self.space, warn_incomplete=False)
        b = parse_scores(scores_text(FULL_ROWS[::-1]), self.space, warn_incomplete=False)
        assert a == b

    def test_hp_columns_any_order(self):
        rows = ["d1,100,test,0.5,5,5e-05"]
        table = parse_scores(
            scores_text(rows, header="dataset,train_size,split,score,epochs,lr"),
            self.space,
            warn_incomplete=False,
        )
        rec = table.records[0]
        assert rec.config.as_dict() == {"lr": "5.0e-5", "epochs": "5"}

    def test_identical_duplicate_collapsed(self):
        table = parse_scores(
            scores_text(FULL_ROWS + [FULL_ROWS[0]]), self.space, warn_incomplete=False
        )
        assert len(table) == 4

    def test_conflicting_duplicate_rejected(self):
        rows = FULL_ROWS + ["d1,100,test,0.6,5e-05,5"]
        with pytest.raises(ParseError, match="conflicting duplicate") as exc:
            parse_scores(scores_text(rows), self.space)
        assert exc.value.line == 6

    def test_comments_and_blanks_ignored(self):
        text = "# generated\n\n" + scores_text(FULL_ROWS) + "# trailing\n"
        assert len(parse_scores(text, self.space, warn_incomplete=False)) == 4

    def test_single_split_context_flagged(self):
        with pytest.warns(UserWarning, match="only for the test split"):
            parse_scores(scores_text(FULL_ROWS), self.space)

    def test_incompleteness_warnings_name_the_caller(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(scores_text(FULL_ROWS[:-1]), encoding="utf-8")
        with pytest.warns(UserWarning) as caught:
            load_scores(path, self.space)
        assert [str(w.message) for w in caught] == [
            "score table is missing 1 grid configuration(s) across 1 context/split cell(s)",
            "context d1@100 has records only for the test split",
        ]
        assert [w.filename for w in caught] == [__file__, __file__]

    def test_roundtrip(self):
        table = parse_scores(scores_text(FULL_ROWS), self.space, warn_incomplete=False)
        text = serialize_scores(table)
        again = parse_scores(text, self.space, warn_incomplete=False)
        assert again == table
        assert serialize_scores(again) == text

    def test_spellings_of_one_value_parse_alike(self):
        spelled = [
            "d1,100,test,0.5,1e-4,5",
            "d1,100,test,0.25,0.0001,10",
            "d2,100,test,0.7,1.0E-4,5.0",
            "d2,100,test,0.1, 5e-05 ,10",
        ]
        canonical = [
            "d1,100,test,0.5,1.0e-4,5",
            "d1,100,test,0.25,1.0e-4,10",
            "d2,100,test,0.7,1.0e-4,5",
            "d2,100,test,0.1,5.0e-5,10",
        ]
        a = parse_scores(scores_text(spelled), self.space, warn_incomplete=False)
        b = parse_scores(scores_text(canonical), self.space, warn_incomplete=False)
        assert a == b
        assert serialize_scores(a) == serialize_scores(b)

    def test_bad_value_reported_at_first_line_every_parse(self):
        rows = [
            "d1,100,test,0.5,1e-4,5",
            "d1,100,test,0.5,1e-4,7",
            "d2,100,test,0.5,1e-4,7",
        ]
        for _ in range(2):
            with pytest.raises(ParseError, match="not in domain") as exc:
                parse_scores(scores_text(rows), self.space)
            assert exc.value.line == 3

    def test_quoted_categorical_values(self):
        space = make_space(("tag", "categorical", ["a,b", "plain"]))
        table = build_table(space, {"test": {("d", 100): {("a,b",): 1.0}}})
        text = serialize_scores(table)
        assert parse_scores(text, space, warn_incomplete=False) == table


# Spellings outside the ASCII decimal grammar or its bounds, as (case, line,
# row): the row replaces FULL_ROWS at that line (the header is line 1) and is
# otherwise valid, so the spelling alone must be rejected.
STRICT_NUMBER_CASES = [
    ("digit-group underscore in a score", 3, "d2,100,test,1_000,5e-05,10"),
    ("digit-group underscore in a train size", 2, "d2,1_00,test,0.5,5e-05,5"),
    ("Arabic-Indic digits in a score", 4, "d2,100,test,\u0661\u0662,1e-04,5"),
    ("Arabic-Indic digit in a real value", 5, "d2,100,test,0.9,\u0665e-5,10"),
    ("digit-group underscore in an integer value", 2, "d2,100,test,0.5,5e-05,1_0"),
    ("train size with a fraction", 3, "d2,100.0,test,0.7,5e-05,10"),
    ("train size with an exponent", 3, "d2,1e2,test,0.7,5e-05,10"),
    ("spelled-out non-finite score", 4, "d2,100,test,Infinity,1e-04,5"),
    ("train size of 5,000 digits", 3, f"d2,{'1' * 5000},test,0.7,5e-05,10"),
]


class TestHeaderErrors:
    def test_duplicate_hyperparameter_column(self):
        text = scores_text(FULL_ROWS, header="dataset,train_size,split,score,lr,epochs,lr")
        with pytest.raises(ParseError, match="^line 1: duplicate hyperparameter column$"):
            parse_scores(text, parse_space(SPACE_DOC))

    @pytest.mark.parametrize("text", ["", "\n", "# a comment only\n\n"])
    def test_missing_header_row(self, text):
        with pytest.raises(ParseError, match="^line 1: missing header row$"):
            parse_scores(text, parse_space(SPACE_DOC))


class TestStrictNumbers:
    @pytest.mark.parametrize(
        "line,row", [c[1:] for c in STRICT_NUMBER_CASES], ids=[c[0] for c in STRICT_NUMBER_CASES]
    )
    def test_rejected_with_line_number(self, line, row):
        rows = list(FULL_ROWS)
        rows[line - 2] = row
        with pytest.raises(ParseError) as exc:
            parse_scores(scores_text(rows), parse_space(SPACE_DOC), warn_incomplete=False)
        assert exc.value.line == line

    def test_train_size_digits_stop_at_the_float_range(self):
        space = parse_space(SPACE_DOC)
        size = "1" + "0" * 308  # 309 digits: exponent 308, as values may have
        for text in (size, "+" + size):  # a sign is no digit
            table = parse_scores(scores_text([f"d1,{text},test,0.5,5e-05,5"]), space,
                                 warn_incomplete=False)
            assert table.train_sizes() == [10**308]
        rows = [f"d1,{size}0,test,0.5,5e-05,5"]
        with pytest.raises(ParseError, match="^line 2: train_size has more than 309 digits$"):
            parse_scores(scores_text(rows), space, warn_incomplete=False)

    def test_a_value_apart_past_the_28th_digit_is_no_domain_value(self):
        space = make_space(("lr", "real", ["1"]))
        row = "d1,100,test,0.5,1.00000000000000000000000000001"
        text = scores_text([row], "dataset,train_size,split,score,lr")
        with pytest.raises(ParseError, match="^line 2: value .* not in domain"):
            parse_scores(text, space, warn_incomplete=False)

    def test_grammar_spellings_parse_as_before(self):
        spelled = [
            "d1,+100,test,+0.5,5e-05,5",
            "d1,0100,test,.7,5e-05,1e1",
            "d1,100,test,4.E-1,+1.0E-4,+5",
            "d1, 100 ,test,9e-1,.0001,10.0",
        ]
        plain = [
            "d1,100,test,0.5,5e-05,5",
            "d1,100,test,0.7,5e-05,10",
            "d1,100,test,0.4,1e-04,5",
            "d1,100,test,0.9,1e-04,10",
        ]
        space = parse_space(SPACE_DOC)
        a = parse_scores(scores_text(spelled), space, warn_incomplete=False)
        assert a == parse_scores(scores_text(plain), space, warn_incomplete=False)


# Characters that str.splitlines() treats as line breaks but a score file
# does not: only "\n", "\r\n" and "\r" end a line.
NOT_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineBreaks:
    def setup_method(self):
        self.space = parse_space(SPACE_DOC)

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS, ids=repr)
    def test_a_comment_keeps_its_line(self, char):
        text = f"# note{char}more\n" + scores_text(FULL_ROWS + ["d1,100,test,-0.2,1e-04,5"])
        with pytest.raises(ParseError, match="negative score") as exc:
            parse_scores(text, self.space)
        assert exc.value.line == 7

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS, ids=repr)
    def test_a_dataset_keeps_its_row(self, char):
        rows = [row.replace("d1", f"A{char}B") for row in FULL_ROWS]
        table = parse_scores(scores_text(rows), self.space, warn_incomplete=False)
        assert table.datasets() == [f"A{char}B"]
        assert len(table) == 4

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=repr)
    def test_carriage_returns_end_lines(self, newline):
        rows = FULL_ROWS[:2] + ["# comment", "", "d1,100,test,0.6,5e-05,5"]
        with pytest.raises(ParseError, match="conflicting duplicate of line 2") as exc:
            parse_scores(scores_text(rows).replace("\n", newline), self.space)
        assert exc.value.line == 6

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=repr)
    def test_space_json_errors_count_carriage_returns(self, tmp_path, newline):
        text = '{\n  "label": "toy",\n\n  "hyperparameters": [\n    oops\n  ]\n}\n'
        text = text.replace("\n", newline)
        path = tmp_path / "space.json"
        path.write_text(text, encoding="utf-8", newline="")
        for parse in (lambda: parse_space(text), lambda: load_space(path)):
            with pytest.raises(ParseError, match="invalid JSON") as exc:
                parse()
            assert exc.value.line == 5

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=repr)
    def test_invalid_utf8_names_its_line(self, tmp_path, newline):
        path = tmp_path / "scores.csv"
        path.write_bytes(newline.join([b"dataset,train_size,split,score,lr,epochs",
                                       b"# comment", b"", b"d1,100,test,\xff,5e-05,5"]))
        with pytest.raises(ParseError, match="invalid UTF-8") as exc:
            load_scores(path, self.space)
        assert exc.value.line == 4


# Characters that a score file must carry through a name: a comment mark, a
# quote, the delimiter, an inner space, NUL and a Unicode line separator.
NAME_CHARS = 'ab#", \x00\u2028'


def accepted(build):
    """A filter keeping the names that ``build`` raises no ValidationError on."""
    def ok(name):
        try:
            build(name)
        except ValidationError:
            return False
        return True
    return ok


@st.composite
def odd_name_tables(draw):
    """A table whose dataset, hyperparameter and value names come from
    NAME_CHARS, with cells on random subsets of the grid."""
    text = st.text(NAME_CHARS, min_size=1, max_size=4)
    names = draw(st.lists(
        text.filter(accepted(lambda n: Hyperparameter(n, "categorical", ("v",)))),
        min_size=1, max_size=3, unique=True,
    ))
    values = st.lists(text.map(str.strip).filter(bool), min_size=1, max_size=3, unique=True)
    space = ConfigSpace(tuple(
        Hyperparameter(name, "categorical", tuple(draw(values))) for name in names
    ))
    datasets = draw(st.lists(
        text.filter(accepted(lambda n: Context(n, 1))), min_size=1, max_size=3, unique=True,
    ))
    scores = st.floats(min_value=0, max_value=1e300)
    cells = {}
    for dataset in datasets:
        for split in draw(st.sampled_from([("test",), ("validation",), ("validation", "test")])):
            ids = draw(st.sets(st.integers(0, space.size - 1), min_size=1))
            cells[Context(dataset, draw(st.sampled_from([1, 100]))), split] = {
                index: draw(scores) for index in ids
            }
    return ScoreTable._from_cells(space, cells)


class TestNamesRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(table=odd_name_tables())
    def test_serialize_then_parse_is_identity(self, table):
        space = parse_space(serialize_space(table.space))
        assert parse_scores(serialize_scores(table), space, warn_incomplete=False) == table

    def test_a_dataset_starting_with_a_comment_mark_is_quoted(self):
        table = synthetic_table(datasets=["#a", "b", "c"], train_sizes=(100,))
        text = serialize_scores(table)
        assert parse_scores(text, table.space, warn_incomplete=False) == table
        # Only the "#a" field differs from what the plain writer makes of a record.
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(
            [r.context.dataset, r.context.train_size, r.split, repr(r.score), *r.config.values]
            for r in table.records
        )
        plain = out.getvalue().splitlines()
        rows = text.splitlines()[1:]
        assert len(rows) == len(plain) == 144
        assert rows[:48] == ['"#a"' + row[2:] for row in plain[:48]]
        assert rows[48:] == plain[48:]

    def test_no_writer_ends_a_line_with_the_delimiter(self, monkeypatch):
        # Python 3.13 rejects a csv writer whose line terminator is its delimiter.
        table = synthetic_table(datasets=["#a", '#"q"', "b"], train_sizes=(100,))
        writer = csv.writer

        def strict(out, *args, **options):
            if options.get("lineterminator", "\r\n") == options.get("delimiter", ","):
                raise TypeError("bad delimiter or lineterminator value")
            return writer(out, *args, **options)

        monkeypatch.setattr(ingest.csv, "writer", strict)
        text = serialize_scores(table)
        assert parse_scores(text, table.space, warn_incomplete=False) == table
        rows = text.splitlines()[1:]
        # Each "#" dataset is the field a quote-all writer makes of it.
        for block, name in (rows[:48], '#"q"'), (rows[48:96], "#a"):
            out = io.StringIO()
            writer(out, lineterminator=",", quoting=csv.QUOTE_ALL).writerow([name])
            assert all(row.startswith(out.getvalue()) for row in block), name
        assert all(row.startswith("b,") for row in rows[96:])

    def test_carriage_return_in_a_dataset(self):
        with pytest.raises(ValidationError, match="^dataset identifier must not contain newlines$"):
            Context("a\rb", 100)

    def test_carriage_return_in_a_hyperparameter_name(self):
        with pytest.raises(ValidationError, match=r"^invalid hyperparameter name 'a\\rb'$"):
            Hyperparameter("a\rb", "categorical", ("v",))


class TestByteOrderMark:
    BOM = "\ufeff"

    def test_score_file(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(self.BOM + scores_text(FULL_ROWS), encoding="utf-8")
        space = parse_space(SPACE_DOC)
        expected = parse_scores(scores_text(FULL_ROWS), space, warn_incomplete=False)
        assert load_scores(path, space, warn_incomplete=False) == expected

    def test_space_file(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(self.BOM + SPACE_DOC, encoding="utf-8")
        assert load_space(path) == parse_space(SPACE_DOC)

    def test_task_map(self, tmp_path):
        path = tmp_path / "tasks.json"
        path.write_text(self.BOM + '{"d1": "nli"}', encoding="utf-8")
        assert load_task_map(path) == {"d1": "nli"}

    def test_invalid_utf8_after_a_mark_names_its_line(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(self.BOM.encode() + b"dataset,train_size,split,score,lr,epochs\n\xff\n")
        with pytest.raises(ParseError, match="byte 0xff") as exc:
            load_scores(path, parse_space(SPACE_DOC))
        assert exc.value.line == 2


class TestCompleteness:
    def test_empty_table_empty_report(self):
        space = cat_space([2])
        report = completeness_report(build_table(space, {}))
        assert report.missing == () and report.is_complete

    def test_missing_two_of_four(self):
        space = cat_space([2, 2])
        table = build_table(
            space,
            {"test": {("d", 100): {("v0", "v0"): 1.0, ("v1", "v1"): 2.0}}},
        )
        ((_, _, missing),) = completeness_report(table).missing
        assert {c.values for c in missing} == {("v0", "v1"), ("v1", "v0")}

    def test_render_does_not_rely_on_shared_configurations(self):
        # The renderer formats each missing Configuration object once; a
        # report of equal but distinct objects must render the same text.
        space = cat_space([2, 3])
        table = build_table(
            space,
            {
                "test": {("d", 100): {("v0", "v0"): 1.0}, ("e", 100): {("v1", "v2"): 2.0}},
                "validation": {("d", 100): {("v0", "v1"): 0.5}},
            },
        )
        report = completeness_report(table)
        copied = CompletenessReport(
            missing=tuple(
                (ctx, split, tuple(Configuration(c.items) for c in missing))
                for ctx, split, missing in report.missing
            ),
            single_split=report.single_split,
        )
        shared = [c for _, _, missing in report.missing for c in missing]
        assert len({id(c) for c in shared}) < len(shared)
        assert copied == report
        text = render_completeness(report)
        assert render_completeness(copied) == text
        assert text.count("  h0=v1 h1=v0\n") == 3


class TestCatalog:
    def test_entry_counts(self):
        entries = builtin_catalog()
        assert len(entries) == 20
        assert sum(e.source == "cbs_recommendation" for e in entries) == 16
        assert sum(e.source == "default_baseline" for e in entries) == 4

    def test_llama_lora_rank_one(self):
        (entry,) = [
            e
            for e in builtin_catalog()
            if e.model == "Llama-3-8B"
            and e.method == "lora"
            and e.rank == 1
            and e.source == "cbs_recommendation"
        ]
        assert entry.config.as_dict() == {
            "batch": "8",
            "lr": "5.0e-5",
            "epochs": "5",
            "lr_scheduler": "cosine",
            "lora_r": "32",
            "lora_alpha": "128",
        }

    def test_mistral_full_ft_rank_one(self):
        (entry,) = [
            e
            for e in builtin_catalog()
            if e.model == "Mistral-7B-v0.3"
            and e.method == "full_ft"
            and e.rank == 1
            and e.source == "cbs_recommendation"
        ]
        assert entry.config.as_dict() == {
            "batch": "8",
            "lr": "5.0e-6",
            "epochs": "5",
            "lr_scheduler": "linear",
        }

    def test_llama_lora_default(self):
        (entry,) = [
            e
            for e in builtin_catalog()
            if e.model == "Llama-3-8B" and e.method == "lora" and e.source == "default_baseline"
        ]
        assert entry.config.as_dict() == {
            "batch": "4",
            "lr": "1.0e-4",
            "epochs": "10",
            "lr_scheduler": "linear",
            "lora_r": "32",
            "lora_alpha": "8",
        }

    def test_recommendations_are_grid_members(self):
        for entry in builtin_catalog():
            if entry.source != "cbs_recommendation":
                continue
            space = builtin_space(entry.model, entry.method)
            space.config_index(entry.config)

    def test_space_sizes(self):
        assert builtin_space("Llama-3-8B", "full_ft").size == 36
        assert builtin_space("Mistral-7B-v0.3", "full_ft").size == 48
        assert builtin_space("Llama-3-8B", "lora").size == 144
        assert builtin_space("Mistral-7B-v0.3", "lora").size == 144

    def test_unknown_space_pair(self):
        with pytest.raises(ValidationError, match=r"^no bundled space for \('Llama-3-8B', 'qlora'\); available: \["):
            builtin_space("Llama-3-8B", "qlora")

    @pytest.mark.parametrize("field,message", [
        ({"method": "qlora"}, "^unknown method 'qlora'$"),
        ({"source": "guess"}, "^unknown source 'guess'$"),
    ])
    def test_catalog_entry_rejects_unknown_labels(self, field, message):
        fields = {
            "model": "m", "method": "lora", "source": "cbs_recommendation", "rank": 1,
            "config": Configuration((("lr", "1.0e-4"),)), **field,
        }
        with pytest.raises(ValidationError, match=message):
            CatalogEntry(**fields)

    def test_catalog_entries_match_model_and_method_in_any_case(self):
        entries = ingest.catalog_entries("LLAMA-3-8b", "LoRA")
        assert entries == [
            e for e in builtin_catalog() if (e.model, e.method) == ("Llama-3-8B", "lora")
        ]
        assert len(entries) == 5

    @pytest.mark.parametrize("source,sources", [
        (None, {"cbs_recommendation", "default_baseline"}),
        ("cbs_recommendation", {"cbs_recommendation"}),
        ("default_baseline", {"default_baseline"}),
    ])
    def test_catalog_entries_keep_a_source(self, source, sources):
        entries = ingest.catalog_entries("mistral-7b-v0.3", source=source)
        assert {e.source for e in entries} == sources
        assert entries == [
            e for e in builtin_catalog() if e.model == "Mistral-7B-v0.3" and e.source in sources
        ]

    def test_catalog_entries_keep_catalog_order(self):
        assert ingest.catalog_entries() == list(builtin_catalog())
        ordered = [e for e in builtin_catalog() if e.method == "full_ft"]
        assert ingest.catalog_entries(method="FULL_FT") == ordered

    def test_catalog_entries_of_an_unknown_model(self):
        message = r"^no bundled model 'mistral-7b'; available: \[\('Llama-3-8B', 'full_ft'\), "
        with pytest.raises(CovsearchError, match=message):
            ingest.catalog_entries("mistral-7b", "lora", "default_baseline")

    def test_task_map(self):
        groups = builtin_task_map()
        assert len(groups) == 15
        assert set(groups.values()) == {"classification", "summarization", "cqa"}

    def test_task_map_is_a_new_dict_per_call(self):
        groups = builtin_task_map()
        groups["zzz"] = "x"
        assert "zzz" not in builtin_task_map()
        assert "zzz" not in load_task_map("builtin")


# ---------------------------------------------------------------------------
# The record-building parser, kept as the reference the one-pass parser must
# agree with: each row becomes a Configuration and a ScoreRecord, duplicates
# are keyed on value tuples, and ScoreTable(space, records) encodes the rows
# again.  Unchanged from the version before the one-pass parser.
# ---------------------------------------------------------------------------


def reference_parse_scores(text: str, space: ConfigSpace, *, warn_incomplete: bool = True) -> ScoreTable:
    """Parse a score file against a space.

    Emits a UserWarning summarizing missing grid cells and single-split
    contexts when ``warn_incomplete`` is set.  Raises ParseError with the
    offending physical line number on any malformed content.
    """
    header: list[str] | None = None
    # Per hyperparameter, in space order: its field position and a memo of
    # stripped raw text -> canonical domain value.  Only values that proved
    # domain members enter it, so a bad value fails on every line it is on.
    columns: list[tuple[Hyperparameter, int, dict[str, str]]] = []
    # (dataset, train size, split, values) -> (first line, record).
    seen: dict[tuple, tuple[int, ScoreRecord]] = {}
    names = space.names

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = _parse_csv_line(line, lineno)
        if header is None:
            header = [f.strip() for f in fields]
            if tuple(header[:4]) != RESERVED_COLUMNS:
                raise ParseError(
                    f"header must start with {','.join(RESERVED_COLUMNS)},"
                    f" got {','.join(header[:4])}",
                    line=lineno,
                )
            hp_names = header[4:]
            unknown = [n for n in hp_names if n not in space.names]
            if unknown:
                raise ParseError(
                    f"unknown hyperparameter column(s) {unknown}", line=lineno
                )
            missing = [n for n in space.names if n not in hp_names]
            if missing:
                raise ParseError(
                    f"missing hyperparameter column(s) {missing}", line=lineno
                )
            if len(set(hp_names)) != len(hp_names):
                raise ParseError("duplicate hyperparameter column", line=lineno)
            columns = [
                (hp, 4 + hp_names.index(hp.name), {}) for hp in space.hyperparameters
            ]
            continue

        if len(fields) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(fields)}",
                line=lineno,
            )
        size_text, score_text = fields[1].strip(), fields[3].strip()
        if not INTEGER.fullmatch(size_text):
            raise ParseError(
                f"train_size must be an integer, got {fields[1]!r}", line=lineno
            )
        if not NUMBER.fullmatch(score_text):
            raise ParseError(f"invalid score {score_text!r}", line=lineno)
        try:
            values = []
            for hp, position, memo in columns:
                text = fields[position].strip()
                value = memo.get(text)
                if value is None:
                    value = memo[text] = hp.domain[hp.index(text)]
                values.append(value)
            key = (fields[0].strip(), int(size_text), fields[2].strip(), tuple(values))
            record = ScoreRecord(
                context=Context(dataset=key[0], train_size=key[1]),
                split=key[2],
                config=Configuration(tuple(zip(names, values))),
                score=float(score_text),
            )
        except ValidationError as exc:
            raise ParseError(str(exc), line=lineno) from None
        first = seen.setdefault(key, (lineno, record))
        if first[1].score != record.score:
            raise ParseError(
                f"conflicting duplicate of line {first[0]}: {record.context}"
                f" {record.split} ({record.config}) has score {first[1].score!r}"
                f" vs {record.score!r}",
                line=lineno,
            )

    if header is None:
        raise ParseError("missing header row", line=1)

    table = ScoreTable(space, (record for _, record in seen.values()))
    if warn_incomplete:
        report = completeness_report(table)
        n_missing = sum(len(m) for _, _, m in report.missing)
        if n_missing:
            cells = sum(1 for _, _, m in report.missing if m)
            warnings.warn(
                f"score table is missing {n_missing} grid configuration(s)"
                f" across {cells} context/split cell(s)",
                stacklevel=2,
            )
        for ctx, split in report.single_split:
            warnings.warn(
                f"context {ctx} has records only for the {split} split",
                stacklevel=2,
            )
    return table


# ---------------------------------------------------------------------------
# The record-based writer and the completeness-based incompleteness warnings,
# kept as the references that writing from the cells and counting gaps from
# cell sizes must agree with.  Unchanged from the versions before them.
# ---------------------------------------------------------------------------


def reference_serialize_scores(table: ScoreTable) -> str:
    """Canonical score-file serialization (sorted rows, shortest floats)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(RESERVED_COLUMNS) + list(table.space.names))
    for rec in table.records:
        writer.writerow(
            [rec.context.dataset, rec.context.train_size, rec.split, repr(rec.score)]
            + list(rec.config.values)
        )
    return out.getvalue()


def reference_warn_incomplete(table: ScoreTable, warn_incomplete: bool = True) -> None:
    if warn_incomplete:
        report = completeness_report(table)
        n_missing = sum(len(m) for _, _, m in report.missing)
        if n_missing:
            cells = sum(1 for _, _, m in report.missing if m)
            warnings.warn(
                f"score table is missing {n_missing} grid configuration(s)"
                f" across {cells} context/split cell(s)",
                stacklevel=2,
            )
        for ctx, split in report.single_split:
            warnings.warn(
                f"context {ctx} has records only for the {split} split",
                stacklevel=2,
            )


# Domain values by kind, each with spellings that canonicalize to it.
SPELLINGS = {
    "real": {
        "1e-4": ["1e-4", "0.0001", "1.0E-4", "+10e-5"],
        "5e-05": ["5e-05", "0.00005", "5.0E-5", ".5e-4"],
        "0.5": ["0.5", ".5", "5e-1", "+0.50"],
        "0": ["0", "0.0", "-0", "-0.0e3"],
        "32.5": ["32.5", "3.25e1", "325E-1"],
    },
    "integer": {
        "5": ["5", "5.0", "+5", "05", "0.5e1"],
        "10": ["10", "1e1", "10.00", "+010"],
        "0": ["0", "-0", "0.0", "+0"],
        "128": ["128", "1.28e2", "128.0"],
    },
    "categorical": {
        "cosine": ["cosine", " cosine ", '"cosine"'],
        "linear": ["linear", "linear  "],
        "a,b": ['"a,b"'],
    },
}
DATASET_SPELLINGS = {"A": ["A", " A", "A "], "b2": ["b2"], "c d": ["c d", " c d "]}
SIZE_SPELLINGS = {1: ["1", "+1", "01"], 100: ["100", "+0100", " 100 "], 1000: ["1000", "001000"]}
SPLIT_SPELLINGS = {"validation": ["validation", " validation"], "test": ["test", "test "]}
SCORES = [0.0, 1.0, 0.5, 99.25, 1e-300, 123.456, 7.0]


def score_spellings(score):
    spellings = [repr(score), repr(score).upper(), "+" + repr(score)]
    return spellings + ["-0", "0", "-0.0", ".0e5"] if score == 0 else spellings


# Quoted and padded respellings of a quote-free field.
RESPELLINGS = ['"{}"', " {}", "{}  ", '" {} "']


# Faults that replace one field of a data row, as (name, field, text); the
# field is a position among the reserved columns, or None for a value.
FIELD_FAULTS = [
    ("empty dataset identifier", 0, ""),
    ("non-integer train size", 1, "many"),
    ("zero train size", 1, "0"),
    ("invalid split", 2, "dev"),
    ("non-numeric score", 3, "best"),
    ("non-finite score", 3, "nan"),
    ("negative score", 3, "-0.2"),
    ("overflowing score", 3, "1e400"),
    ("value outside the domain", None, "3e-03"),
    ("value outside the domain", None, "7"),
    ("value outside the domain", None, "zzz"),
    ("value outside the grammar", None, "1_0"),
]
HEADER_FAULTS = ["missing required column", "unknown column", "missing column"]


@st.composite
def faulty_score_files(draw):
    """(space, text): a random space and a score file against it with
    partial grids, respelled values (quoted and padded too), identical
    duplicates, shuffled rows, comments, blank lines and zero to two
    injected faults, some just after clean copies of their row."""
    hps = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(sorted(SPELLINGS)))
        domain = draw(st.lists(st.sampled_from(sorted(SPELLINGS[kind])), min_size=1,
                               max_size=3, unique=True))
        hps.append((f"h{i}", kind, domain))
    space = make_space(*hps)
    order = draw(st.permutations(range(len(hps))))
    header = [*RESERVED_COLUMNS, *(hps[k][0] for k in order)]
    grid = list(itertools.product(*(domain for _, _, domain in hps)))
    cells = draw(st.lists(
        st.tuples(st.sampled_from(sorted(DATASET_SPELLINGS)),
                  st.sampled_from(sorted(SIZE_SPELLINGS)),
                  st.sampled_from(sorted(SPLIT_SPELLINGS)),
                  st.integers(0, len(grid) - 1),
                  st.sampled_from(SCORES)),
        max_size=25, unique_by=lambda cell: cell[:4],
    ))

    def respelled(texts):
        """texts with at most one quote-free field quoted or padded."""
        texts = list(texts)
        if draw(st.booleans()):
            at = draw(st.integers(0, len(texts) - 1))
            if '"' not in texts[at]:
                texts[at] = draw(st.sampled_from(RESPELLINGS)).format(texts[at])
        return texts

    # Raw texts already written, per cell prefix and per grid id.  A row
    # reuses one two times in three, so that the parser meets one value both
    # in raw texts it has seen and in new ones.
    used = {}

    def reused(key, texts):
        earlier = used.setdefault(key, [])
        if earlier and draw(st.integers(0, 2)):
            return draw(st.sampled_from(earlier))
        earlier.append(texts)
        return texts

    def spelled(cell):
        dataset, size, split, index, score = cell
        prefix = respelled([draw(st.sampled_from(DATASET_SPELLINGS[dataset])),
                            draw(st.sampled_from(SIZE_SPELLINGS[size])),
                            draw(st.sampled_from(SPLIT_SPELLINGS[split]))])
        values = respelled(
            [draw(st.sampled_from(SPELLINGS[hps[k][1]][grid[index][k]])) for k in order]
        )
        return [*reused(cell[:3], prefix),
                *respelled([draw(st.sampled_from(score_spellings(score)))]),
                *reused(index, values)]

    rows = [spelled(cell) for cell in cells for _ in range(draw(st.integers(1, 2)))]
    rows = list(draw(st.permutations(rows)))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(
            ["field", "two fields", "field count", "conflict", "warm", "header"]
        ))
        if kind == "header":
            fault = draw(st.sampled_from(HEADER_FAULTS))
            if fault == "missing required column":
                header = ["dataset", "size", *header[2:]]
            elif fault == "unknown column":
                header = [*header, "extra"]
            else:
                header = header[:-1]
            continue
        if not rows:
            continue
        at = draw(st.integers(0, len(rows) - 1))
        row = list(rows[at])
        if kind == "field count":
            rows[at] = row + ["oops"]
        elif kind == "warm":
            # Clean rows with the faulted row's prefix and suffix go just
            # before it: the same row, or one row carrying its dataset, train
            # size and split and another carrying its values.  Quote-free
            # rows, where there are any, take the memos' fast path.
            plain = [r for r in rows if '"' not in "".join(r)] or rows
            row, other = list(draw(st.sampled_from(plain))), draw(st.sampled_from(plain))
            if draw(st.booleans()):
                clean = [list(row)]
            else:
                clean = [row[:3] + other[3:], other[:4] + row[4:]]
            _, field, text = draw(st.sampled_from(FIELD_FAULTS + [("conflict", 3, "777.0")]))
            row[field if field is not None else draw(st.integers(4, len(row) - 1))] = text
            rows[at:at] = [*clean, row]
        elif kind == "conflict":
            row[3] = "777.0"
            rows.insert(draw(st.integers(0, len(rows))), row)
        else:
            faults = draw(st.lists(st.sampled_from(FIELD_FAULTS), min_size=1,
                                   max_size=1 if kind == "field" else 2, unique=True))
            for _, field, text in faults:
                if field is None:
                    field = draw(st.integers(4, len(row) - 1))
                row[field] = text
            rows[at] = row

    lines = [",".join(header)] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["# comment", "", "   ", "  # indented"])))
    return space, "\n".join(lines) + "\n"


def parse_outcome(parse, text, space):
    try:
        table = parse(text, space, warn_incomplete=False)
    except ParseError as exc:
        return "error", exc.line, str(exc)
    return "table", table, serialize_scores(table)


class TestOnePassParse:
    @settings(max_examples=300, deadline=None)
    @given(case=faulty_score_files())
    def test_agrees_with_the_record_parser(self, case):
        space, text = case
        assert parse_outcome(parse_scores, text, space) == parse_outcome(
            reference_parse_scores, text, space
        )

    def test_builds_no_records_or_configurations(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("one-pass construction must not get here")

        space = parse_space(SPACE_DOC)
        rows = FULL_ROWS + [r.replace("test", "validation") for r in FULL_ROWS]
        text = scores_text(rows + [FULL_ROWS[0], "d1,100,test,0.5,0.00005,5.0"])
        monkeypatch.setattr(ConfigSpace, "config_index", forbidden)
        monkeypatch.setattr(ScoreRecord, "__post_init__", forbidden)
        monkeypatch.setattr(Configuration, "__init__", forbidden)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(parse_scores(text, space)) == 8
        assert len(synthetic_table(datasets=2)) == 2 * 2 * 2 * 24


def with_warnings(call):
    """call()'s result and the messages of the warnings it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [str(w.message) for w in caught]


class TestFromCells:
    @settings(max_examples=300, deadline=None)
    @given(case=faulty_score_files(), data=st.data())
    def test_agrees_with_the_record_writer_and_the_report_warnings(self, case, data):
        space, text = case
        try:
            parsed = parse_scores(text, space, warn_incomplete=False)
        except ParseError:
            return
        # Fill some cells to the full grid, so that full, partial and
        # single-split cells mix in one table.
        cells = {
            (ctx, split): dict(parsed.cell(ctx, split))
            for ctx in parsed.contexts()
            for split in parsed.splits_for(ctx)
        }
        if cells:
            for key in data.draw(st.lists(st.sampled_from(list(cells)), unique=True)):
                cells[key] = {i: cells[key].get(i, 1.0) for i in range(space.size)}
        table = ScoreTable._from_cells(space, cells)
        text = reference_serialize_scores(table)
        assert serialize_scores(table) == text
        warned, messages = with_warnings(lambda: parse_scores(text, space))
        assert warned == table
        assert messages == with_warnings(lambda: reference_warn_incomplete(table))[1]

    def test_builds_no_records(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("writing and warning read the cells")

        space = parse_space(SPACE_DOC)
        text = scores_text(FULL_ROWS[:3] + ["d2,100,validation,0.1,5e-05,5"])
        monkeypatch.setattr(ScoreRecord, "__post_init__", forbidden)
        table, messages = with_warnings(lambda: parse_scores(text, space, warn_incomplete=True))
        assert messages == [
            "score table is missing 4 grid configuration(s) across 2 context/split cell(s)",
            "context d1@100 has records only for the test split",
            "context d2@100 has records only for the validation split",
        ]
        assert serialize_scores(table) == "\n".join([
            "dataset,train_size,split,score,lr,epochs",
            "d1,100,test,0.5,5.0e-5,5",
            "d1,100,test,0.7,5.0e-5,10",
            "d1,100,test,0.4,1.0e-4,5",
            "d2,100,validation,0.1,5.0e-5,5",
        ]) + "\n"


class TestFastPath:
    """Rows whose raw prefix and suffix the row parser has already accepted
    skip it; every other line, and every error, goes through it."""

    def test_row_parser_runs_once_per_new_prefix_or_suffix(self, monkeypatch):
        table = synthetic_table(datasets=3, seed=1)
        text = "# generated\n" + serialize_scores(table)
        lines = text.split("\n")
        data = [line.split(",", 4) for line in lines[2:] if line]
        suffixes = {parts[4] for parts in data}
        cells = {tuple(parts[:3]) for parts in data}
        calls = counted(monkeypatch, ingest._ScoreRows, "parse")
        assert parse_scores(text, table.space, warn_incomplete=False) == table
        # The header, the comment and the empty text after the last newline.
        assert len(calls) <= len(suffixes) + len(cells) + 3
        assert len(calls) < len(data) / 4

    @pytest.mark.parametrize("fault,clean", [
        *((fault, "copy") for fault in FIELD_FAULTS + [("conflicting duplicate", 3, "0.6")]),
        *((fault, "prefix and suffix") for fault in FIELD_FAULTS),
    ], ids=lambda case: case if isinstance(case, str) else case[0])
    def test_faults_after_clean_rows(self, fault, clean):
        # FULL_ROWS[0] faulted, after a clean copy of it or after rows that
        # carry its prefix and its suffix.
        _, field, text = fault
        row = FULL_ROWS[0].split(",")
        row[field if field is not None else 4] = text
        rows = {"copy": FULL_ROWS,
                "prefix and suffix": FULL_ROWS[1:] + ["d1,100,validation,0.5,5e-05,5"]}[clean]
        rows = rows + [",".join(row)]
        space = parse_space(SPACE_DOC)
        outcome = parse_outcome(parse_scores, scores_text(rows), space)
        assert outcome == parse_outcome(reference_parse_scores, scores_text(rows), space)
        assert outcome[:2] == ("error", len(rows) + 1)

    def test_a_quoted_comma_fills_no_memo(self):
        # Split at its commas, the first row would map "0.5,5e-05,5" to a
        # grid id, and the last row would then pass with a field too many.
        rows = ['"x,y",100,test,0.5,5e-05,5', FULL_ROWS[1], "d1,100,test,0.1,0.5,5e-05,5"]
        with pytest.raises(ParseError, match="expected 6 fields, got 7") as exc:
            parse_scores(scores_text(rows), parse_space(SPACE_DOC))
        assert exc.value.line == 4

    def test_a_field_over_the_csv_limit_on_a_warm_line(self):
        rows = FULL_ROWS + ["d1,100,test,0.50000000000000000000,5e-05,5"]
        space = parse_space(SPACE_DOC)
        limit = csv.field_size_limit(16)
        try:
            outcome = parse_outcome(parse_scores, scores_text(rows), space)
        finally:
            csv.field_size_limit(limit)
        assert outcome == ("error", 6, "line 6: malformed delimited line")


# ---------------------------------------------------------------------------
# The per-cell gap report and its renderer, kept as the references that the
# report on grid-id complements and the block renderer must agree with.
# Unchanged from the versions before them.
# ---------------------------------------------------------------------------


def reference_completeness_report(table: ScoreTable) -> CompletenessReport:
    grid = range(table.space.size)
    decode = table.space.config_at
    missing = []
    single = []
    for ctx in table.contexts():
        splits = table.splits_for(ctx)
        for split in splits:
            present = table.cell(ctx, split)
            missing.append((ctx, split, tuple(decode(i) for i in grid if i not in present)))
        if len(splits) == 1:
            single.append((ctx, splits[0]))
    return CompletenessReport(missing=tuple(missing), single_split=tuple(single))


def reference_render_completeness(report: CompletenessReport) -> str:
    lines = []
    if report.is_complete:
        lines.append("grid complete")
    # The same configurations go missing in many cells; format each once.
    # Keyed by id(), not by hashing the dataclass: config_at shares one object
    # per grid id, and the report keeps every object alive while this runs, so
    # no id is reused.  Equal but distinct objects are merely formatted twice.
    rows: dict[int, str] = {}
    for ctx, split, missing in report.missing:
        if missing:
            lines.append(f"{ctx} [{split}]: {len(missing)} missing configuration(s)")
            for cfg in missing:
                row = rows.get(id(cfg))
                if row is None:
                    row = rows[id(cfg)] = f"  {cfg}"
                lines.append(row)
    for ctx, split in report.single_split:
        lines.append(f"warning: {ctx} has records only for the {split} split")
    return "\n".join(lines) + "\n"


@st.composite
def gap_tables(draw):
    """A table on a fresh space of 1-4 hyperparameters whose cells draw their
    id sets from a few shared sets, one-id variants of them (the full grid
    less one id among them) and sets of their own; some contexts have one
    split."""
    space = cat_space(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    grid = range(space.size)
    own = st.sets(st.sampled_from(grid), min_size=1)
    shared = draw(st.lists(own | st.just(set(grid)), min_size=1, max_size=3))

    @st.composite
    def variant(draw):
        ids = set(draw(st.sampled_from(shared)))
        ids.symmetric_difference_update({draw(st.sampled_from(grid))})
        return ids or set(grid)

    id_sets = st.sampled_from(shared) | variant() | own
    cells = {}
    for k in range(draw(st.integers(1, 6))):
        ctx = Context(f"d{k % 3}", 100 * (1 + k // 3))
        for split in draw(st.sampled_from([("test",), ("validation",), ("validation", "test")])):
            cells[ctx, split] = dict.fromkeys(draw(id_sets), 1.0)
    for index in draw(st.lists(st.sampled_from(grid))):  # some ids decoded before
        space.config_at(index)
    return ScoreTable._from_cells(space, cells)


def on_fresh_space(table: ScoreTable) -> ScoreTable:
    """An equal table on an equal space with a decode memo of its own."""
    space = ConfigSpace(table.space.hyperparameters, table.space.label)
    return ScoreTable._from_cells(space, {
        (ctx, split): table.cell(ctx, split)
        for ctx in table.contexts()
        for split in table.splits_for(ctx)
    })


def counted(monkeypatch, owner, name):
    """Patch ``owner.name`` to record each call in the returned list."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestGapReport:
    @settings(max_examples=300, deadline=None)
    @given(table=gap_tables())
    def test_agrees_with_the_per_cell_report_and_renderer(self, table):
        report = completeness_report(table)
        expected = reference_completeness_report(on_fresh_space(table))
        assert report == expected
        assert render_completeness(report) == reference_render_completeness(expected)

    def test_shared_gaps_are_built_and_formatted_once(self, monkeypatch):
        space = cat_space([3, 4, 2])
        present = {0, 5, 17}
        cells = {
            (Context(d, size), split): dict.fromkeys(present, 1.0)
            for d in "abc" for size in (100, 1000) for split in ("validation", "test")
        }
        table = ScoreTable._from_cells(space, cells)
        built = counted(monkeypatch, Configuration, "__init__")
        formatted = counted(monkeypatch, Configuration, "__str__")
        report = completeness_report(table)
        assert len({id(missing) for _, _, missing in report.missing}) == 1
        assert len(built) == space.size - len(present)
        completeness_report(table)
        assert len(built) == space.size - len(present)
        render_completeness(report)
        assert len(formatted) == space.size - len(present)

    def test_grid_returns_the_config_at_objects(self):
        space = cat_space([2, 3, 2])
        early = {i: space.config_at(i) for i in (1, 7, 11)}
        grid = space.grid()
        assert all(grid[i] is config for i, config in early.items())
        assert all(config is space.config_at(i) for i, config in enumerate(grid))
        assert all(a is b for a, b in zip(space.grid(), grid))


# The benchmark's sparse-grid shape: 7 hyperparameters, 8,640 configurations.
WIDE = (
    ("lr", "real", ["1e-06", "5e-06", "1e-05", "5e-05", "1e-04", "5e-04"]),
    ("batch", "integer", ["4", "8", "16", "32", "64"]),
    ("epochs", "integer", ["1", "3", "5", "10"]),
    ("warmup", "real", ["0.0", "0.03", "0.06", "0.1"]),
    ("dropout", "real", ["0.0", "0.05", "0.1"]),
    ("lr_scheduler", "categorical", ["constant", "cosine", "linear"]),
    ("weight_decay", "real", ["0.0", "0.01"]),
)


def validate_argv(directory: Path, table: ScoreTable) -> list[str]:
    """``validate``'s argv over ``table`` written to ``directory``."""
    space, scores = directory / "space.json", directory / "scores.csv"
    space.write_text(serialize_space(table.space), encoding="utf-8")
    scores.write_text(serialize_scores(table), encoding="utf-8")
    return ["validate", "--space", str(space), "--scores", str(scores)]


class TestGapReportOutput:
    """validate writes the gap report's pieces to --out one at a time and to
    stdout in one write: both hold the reference text, and a file target
    never needs the whole text in memory."""

    @settings(max_examples=100, deadline=None)
    @given(table=gap_tables())
    def test_out_and_stdout_hold_the_reference_text(self, table):
        report = completeness_report(table)
        pieces = list(completeness_pieces(report))
        assert render_completeness(report) == "".join(pieces)
        assert all(piece.endswith("\n") for piece in pieces)  # whole lines
        expected = reference_render_completeness(
            reference_completeness_report(on_fresh_space(table))
        )
        with tempfile.TemporaryDirectory() as directory:
            argv = validate_argv(Path(directory), table)
            out = Path(directory) / "out.txt"
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                assert main(argv) == 0
            assert main([*argv, "--out", str(out)]) == 0
            manifest = (
                f"# covsearch validate\n# version: {covsearch.__version__}\n"
                f"# space: {argv[2]}\n# scores: {argv[4]}\n"
            )
            assert out.read_bytes() == stdout.getvalue().encode() == (manifest + expected).encode()

    @pytest.mark.parametrize("shared", [True, False], ids=["one shared gap", "distinct gaps"])
    def test_a_file_target_never_holds_the_whole_text(self, tmp_path, shared):
        # 16 cells of 200 configurations each: all the same ones, so that
        # every cell misses the same 8,440, or drawn apart for each cell.
        space = make_space(*WIDE)
        rng = random.Random(0)
        ids = rng.sample(range(space.size), 200)
        cells = {
            (Context(dataset, size), split): dict.fromkeys(
                ids if shared else rng.sample(range(space.size), 200), 0.5
            )
            for dataset in "abcd" for size in (100, 1000) for split in ("validation", "test")
        }
        argv = validate_argv(tmp_path, ScoreTable._from_cells(space, cells))
        out = tmp_path / "out.txt"
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert size > 13_000_000
        # Holding the whole text, the writer peaked at 2.41 times the file's
        # size with one shared gap and at 2.48 times with distinct gaps.
        assert peak < (size / 2 if shared else size)
