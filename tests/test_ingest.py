"""Parsing, serialization, completeness, and the bundled catalog."""

import json

import pytest

from covsearch import (
    ParseError,
    builtin_catalog,
    builtin_space,
    builtin_task_map,
    completeness_report,
    parse_scores,
    parse_space,
    serialize_scores,
    serialize_space,
)
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
            space.validate_config(entry.config)

    def test_space_sizes(self):
        assert builtin_space("Llama-3-8B", "full_ft").size == 36
        assert builtin_space("Mistral-7B-v0.3", "full_ft").size == 48
        assert builtin_space("Llama-3-8B", "lora").size == 144
        assert builtin_space("Mistral-7B-v0.3", "lora").size == 144

    def test_task_map(self):
        groups = builtin_task_map()
        assert len(groups) == 15
        assert set(groups.values()) == {"classification", "summarization", "cqa"}
