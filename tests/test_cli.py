"""CLI behavior: exit codes, formats, determinism, pipelines."""

import contextlib
import copy
import errno
import json
import math
import os
import resource
import stat
import subprocess
import sys
import tempfile
from io import StringIO
from itertools import takewhile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covsearch

from covsearch import (
    ConfigSpace,
    Hyperparameter,
    builtin_catalog,
    builtin_models,
    builtin_space,
    load_scores,
    load_space,
    serialize_space,
)
from covsearch import report
from covsearch.cli import build_parser, main
from covsearch.importance import DEFAULT_PERMUTATIONS, _PURE_WORK
from covsearch.ingest import CATALOG_METHODS, CATALOG_SOURCES
from covsearch.model import SPLITS
from covsearch.protocols import DEFAULT_MAX_BUDGET, NORMALIZE_MODES
from covsearch.report import catalog_csv
from helpers import cat_space

SPACE_DOC = json.dumps(
    {
        "label": "toy",
        "hyperparameters": [
            {"name": "hp", "kind": "categorical", "domain": ["x", "y", "z", "w"]}
        ],
    }
)


def write_inputs(tmp_path, rows):
    space = tmp_path / "space.json"
    scores = tmp_path / "scores.csv"
    space.write_text(SPACE_DOC, encoding="utf-8")
    scores.write_text(
        "\n".join(["dataset,train_size,split,score,hp"] + rows) + "\n",
        encoding="utf-8",
    )
    return str(space), str(scores)


THREE_CONTEXT_ROWS = [
    "A,100,test,100,x",
    "A,100,test,98,y",
    "A,100,test,50,w",
    "B,100,test,100,x",
    "B,100,test,10,w",
    "C,100,test,100,z",
    "C,100,test,50,x",
    "C,100,test,50,y",
]


class TestValidate:
    def test_full_grid(self, tmp_path, capsys):
        space, scores = write_inputs(
            tmp_path,
            [f"A,100,test,{s},{v}" for v, s in zip("xyzw", (1, 2, 3, 4))],
        )
        assert main(["validate", "--space", space, "--scores", scores]) == 0
        assert "grid complete" in capsys.readouterr().out

    def test_partial_grid_lists_missing(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, ["A,100,test,1,x", "A,100,test,2,y"])
        assert main(["validate", "--space", space, "--scores", scores]) == 0
        out = capsys.readouterr().out
        assert "2 missing configuration(s)" in out
        assert "hp=z" in out and "hp=w" in out

    def test_malformed_row_exits_2(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, ["A,100,test,oops,x"])
        assert main(["validate", "--space", space, "--scores", scores]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        space, _ = write_inputs(tmp_path, ["A,100,test,1,x"])
        assert main(["validate", "--space", space, "--scores", "/nope.csv"]) == 2

    def test_a_file_without_records_says_so(self, tmp_path, capsys):
        # Only the header line: the analysis commands stop, validate says why.
        space, scores = write_inputs(tmp_path, [])
        assert main(["rank", "--space", space, "--scores", scores]) == 2
        capsys.readouterr()
        assert main(["validate", "--space", space, "--scores", scores]) == 0
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if not line.startswith("#")] == ["no records"]


class TestRank:
    def test_three_context_fixture(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        assert main(["rank", "--space", space, "--scores", scores]) == 0
        out = capsys.readouterr().out
        body = [line.split() for line in out.splitlines() if line.strip() and line.strip()[0].isdigit()]
        assert [cols[3] for cols in body] == ["hp=x", "hp=z", "hp=y"]

    def test_top_limits_rows(self, tmp_path, capsys):
        space, scores = write_inputs(
            tmp_path,
            [f"{d},100,test,{s},{v}" for d in "ABCD" for v, s in zip("xyzw", (100, 99, 98, 97.5))],
        )
        assert main(["rank", "--space", space, "--scores", scores, "--top", "4", "--threshold", "0.9"]) == 0
        out = capsys.readouterr().out
        body = [line for line in out.splitlines() if line.strip() and line.strip()[0].isdigit()]
        assert len(body) == 4

    def test_bad_threshold_is_usage_error(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, ["A,100,test,1,x"])
        assert main(["rank", "--space", space, "--scores", scores, "--threshold", "1.5"]) == 1

    def test_top_limits_machine_entries(self, tmp_path, capsys):
        scores, space = tmp_path / "s.csv", tmp_path / "space.json"
        main([
            "synth", "--out-scores", str(scores), "--out-space", str(space),
            "--datasets", "4", "--seed", "2",
        ])
        io = ["rank", "--space", str(space), "--scores", str(scores), "--format", "machine"]
        capsys.readouterr()
        assert main(io) == 0
        full = json.loads(capsys.readouterr().out)["ranking"]
        assert len(full["entries"]) > 2
        assert main([*io, "--top", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["manifest"]["options"]["top"] == "2"
        assert doc["ranking"] == {**full, "entries": full["entries"][:2]}

    def test_machine_output_carries_manifest(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        assert main(["rank", "--space", space, "--scores", scores, "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["manifest"]["command"] == "rank"
        assert doc["manifest"]["version"]
        assert [e["config"]["hp"] for e in doc["ranking"]["entries"]] == ["x", "z", "y"]


class TestRecommend:
    def test_llama_lora_rows(self, capsys):
        assert main(["recommend", "--model", "Llama-3-8B", "--method", "lora"]) == 0
        out = capsys.readouterr().out
        body = [
            line
            for line in out.splitlines()
            if "cbs_recommendation" in line and not line.startswith("#")
        ]
        assert len(body) == 4
        assert "lr=5.0e-5" in body[0] and "lora_alpha=128" in body[0]

    def test_top_filter(self, capsys):
        assert main(["recommend", "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert (
            sum(
                "cbs_recommendation" in line and not line.startswith("#")
                for line in out.splitlines()
            )
            == 4
        )

    def test_machine_matches_golden_file(self, capsys):
        assert main(["recommend", "--source", "all", "--format", "machine"]) == 0
        out = capsys.readouterr().out
        body = "".join(
            line + "\n" for line in out.splitlines() if not line.startswith("#")
        )
        golden = Path(__file__).with_name("data").joinpath("golden_recommend.csv")
        assert body == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("flags", [[], ["--method", "lora"], ["--source", "all"]])
    def test_unknown_model_is_a_data_error(self, capsys, flags):
        assert main(["recommend", "--model", "mistral-7b", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"covsearch: error: no bundled model 'mistral-7b'; available: {builtin_models()}\n"
        )

    def test_method_matches_in_any_case(self, capsys):
        assert main(["recommend", "--model", "llama-3-8b", "--method", "lora"]) == 0
        expected = capsys.readouterr().out
        assert main(["recommend", "--model", "llama-3-8b", "--method", "LORA"]) == 0
        assert capsys.readouterr().out == expected

    def test_unknown_method_is_a_usage_error(self, capsys):
        assert main(["recommend", "--model", "llama-3-8b", "--method", "bogus"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error" in line] == [
            "covsearch recommend: error: argument --method: invalid choice: 'bogus'"
            " (choose from 'full_ft', 'lora')"
        ]

    def test_catalog_csv_matches_golden_file(self):
        golden = Path(__file__).with_name("data").joinpath("golden_recommend.csv")
        assert catalog_csv(builtin_catalog()) == golden.read_text(encoding="utf-8")

    def test_catalog_columns_come_from_the_bundled_spaces(self, monkeypatch):
        def with_warmup(model, method):
            space = builtin_space(model, method)
            warmup = Hyperparameter("warmup", "integer", ("0", "100"))
            return ConfigSpace((*space.hyperparameters, warmup), space.label)

        monkeypatch.setattr(report, "builtin_space", with_warmup)
        header = catalog_csv(builtin_catalog()).splitlines()[0]
        # First seen in Llama-3-8B full_ft, the first of builtin_models().
        assert header == "model,method,source,rank,batch,lr,epochs,lr_scheduler,warmup,lora_r,lora_alpha"


class TestSynthPipeline:
    def test_synth_output_reparses(self, tmp_path):
        scores = tmp_path / "s.csv"
        space = tmp_path / "space.json"
        assert main([
            "synth", "--out-scores", str(scores), "--out-space", str(space),
            "--datasets", "3", "--seed", "5",
        ]) == 0
        loaded_space = load_space(space)
        table = load_scores(scores, loaded_space)
        assert len(table.contexts()) == 6
        assert scores.read_text(encoding="utf-8").startswith("# covsearch synth")

    def test_synth_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["synth", "--out-scores", str(out), "--seed", "9"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_budget_k1_equals_loo_mean(self, tmp_path, capsys):
        scores, space = tmp_path / "s.csv", tmp_path / "space.json"
        main([
            "synth", "--out-scores", str(scores), "--out-space", str(space),
            "--datasets", "4", "--seed", "2", "--correlation", "0.5",
        ])
        capsys.readouterr()
        assert main([
            "budget", "--space", str(space), "--scores", str(scores),
            "--max-budget", "1", "--format", "machine",
        ]) == 0
        curve = json.loads(capsys.readouterr().out)["curve"]
        assert main([
            "loo", "--space", str(space), "--scores", str(scores),
            "--format", "machine",
        ]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        normalized = [
            s["normalized_test_score"] for r in results for s in r["scores"]
        ]
        assert curve["points"][0]["mean_normalized_test_score"] == math.fsum(
            normalized
        ) / len(normalized)


RAGGED_ROWS = [  # C lacks train size 1000
    f"{d},{m},test,{s},{v}"
    for d, m, scores in [
        ("A", 100, (100, 99, 10, 5)),
        ("A", 1000, (10, 100, 99, 5)),
        ("B", 100, (100, 10, 10, 5)),
        ("B", 1000, (99, 10, 100, 5)),
        ("C", 100, (10, 10, 100, 5)),
    ]
    for v, s in zip("xyzw", scores)
]


class TestImportanceCommand:
    @pytest.mark.parametrize("scope,datasets", [
        ([], [["A", "B", "C"], ["A", "B"]]),
        (["--combine-sizes"], [["A", "B", "C"]]),
        (["--train-size", "1000"], [["A", "B"]]),
    ])
    def test_ragged_table(self, tmp_path, capsys, scope, datasets):
        space, scores = write_inputs(tmp_path, RAGGED_ROWS)
        assert main([
            "importance", "--space", space, "--scores", scores, "--permutations", "5",
            "--format", "machine", *scope,
        ]) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert [r["datasets"] for r in reports] == datasets

    @pytest.mark.parametrize("scope", [  # C and D lack train size 1000
        ["--split", "validation"],
        ["--datasets", "C,D", "--train-sizes", "1000"],
        ["--datasets", "C,D", "--train-sizes", "100,1000"],
        ["--datasets", "C,D", "--train-size", "1000"],
    ])
    def test_scope_without_two_datasets(self, tmp_path, capsys, scope):
        d_rows = [f"D,100,test,{s},{v}" for v, s in zip("xyzw", (10, 100, 10, 5))]
        space, scores = write_inputs(tmp_path, RAGGED_ROWS + d_rows)
        assert main([
            "importance", "--space", space, "--scores", scores, "--permutations", "5", *scope,
        ]) == 2
        assert capsys.readouterr().err == (
            "covsearch: error: need at least two datasets to compare distributions\n"
        )

    def test_default_run_skips_a_size_without_two_datasets(self, tmp_path, capsys):
        scores, space = tmp_path / "s.csv", tmp_path / "space.json"
        main(["synth", "--out-scores", str(scores), "--out-space", str(space), "--datasets", "3"])
        lines = scores.read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [l for l in lines if not l.startswith(("ds01,1000,", "ds02,1000,"))]
        scores.write_text("".join(kept), encoding="utf-8")
        capsys.readouterr()
        assert main([
            "importance", "--space", str(space), "--scores", str(scores),
            "--permutations", "5", "--format", "machine",
        ]) == 0
        captured = capsys.readouterr()
        reports = json.loads(captured.out)["reports"]
        assert [(r["train_sizes"], r["datasets"]) for r in reports] == [
            ([100], ["ds00", "ds01", "ds02"])
        ]
        assert captured.err == (
            "covsearch: warning: train size 1000 has fewer than two datasets; skipped\n"
        )

    def test_unknown_train_size_fails_before_any_scope(self, tmp_path, capsys, monkeypatch):
        space, scores = write_inputs(tmp_path, RAGGED_ROWS)
        monkeypatch.setattr(covsearch.cli, "importance_report", None)
        assert main([
            "importance", "--space", space, "--scores", scores, "--train-sizes", "100,7",
        ]) == 2
        assert capsys.readouterr().err == "covsearch: error: train size(s) not in table: [7]\n"

    def test_byte_identical_reruns(self, tmp_path):
        scores, space = tmp_path / "s.csv", tmp_path / "space.json"
        main([
            "synth", "--out-scores", str(scores), "--out-space", str(space),
            "--datasets", "5", "--seed", "3",
        ])
        outputs = []
        for name in ("one.txt", "two.txt"):
            out = tmp_path / name
            assert main([
                "importance", "--space", str(space), "--scores", str(scores),
                "--permutations", "100", "--seed", "7", "--out", str(out),
            ]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_matrix_has_one_column_per_size(self, tmp_path, capsys):
        scores, space = tmp_path / "s.csv", tmp_path / "space.json"
        main([
            "synth", "--out-scores", str(scores), "--out-space", str(space),
            "--datasets", "4", "--seed", "3",
        ])
        assert main([
            "importance", "--space", str(space), "--scores", str(scores),
            "--permutations", "10",
        ]) == 0
        out = capsys.readouterr().out
        matrix_header = [l for l in out.splitlines() if l.startswith("hyperparameter\t")]
        assert matrix_header == ["hyperparameter\t100\t1000"]


    def test_train_sizes_are_the_scopes(self, tmp_path, capsys):
        scores, space = tmp_path / "s.csv", tmp_path / "space.json"
        main([
            "synth", "--out-scores", str(scores), "--out-space", str(space),
            "--datasets", "4", "--seed", "3",
        ])
        io = ["importance", "--space", str(space), "--scores", str(scores),
              "--permutations", "3"]
        capsys.readouterr()
        assert main([*io, "--train-sizes", "1000"]) == 0
        out = capsys.readouterr().out
        matrix_header = [l for l in out.splitlines() if l.startswith("hyperparameter\t")]
        assert matrix_header == ["hyperparameter\t1000"]
        assert main([*io, "--train-sizes", "100,7"]) == 2
        assert "train size(s) not in table: [7]" in capsys.readouterr().err
        assert main([*io, "--train-sizes", "100", "--train-size", "100"]) == 1
        assert main([*io, "--train-sizes", "100", "--combine-sizes"]) == 1


class TestCompareCommand:
    def test_compare_report(self, tmp_path, capsys):
        scores, space = tmp_path / "s.csv", tmp_path / "space.json"
        main([
            "synth", "--out-scores", str(scores), "--out-space", str(space),
            "--datasets", "a1,a2,b1,b2", "--seed", "4",
        ])
        capsys.readouterr()
        task_map = tmp_path / "tasks.json"
        task_map.write_text(
            json.dumps({"a1": "ta", "a2": "ta", "b1": "tb", "b2": "tb"}),
            encoding="utf-8",
        )
        assert main([
            "compare", "--space", str(space), "--scores", str(scores),
            "--task-map", str(task_map), "--format", "machine",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [(r["task"], r["train_size"]) for r in rows] == [
            ("ta", 100), ("ta", 1000), ("tb", 100), ("tb", 1000),
        ]
        for r in rows:
            assert r["cbs_1"] <= r["upper_bound"] * 1.5  # sanity scale check
            assert r["default"] is None


# Both splits of THREE_CONTEXT_ROWS, so that compare has its upper bound.
BOTH_SPLIT_ROWS = THREE_CONTEXT_ROWS + [
    row.replace(",test,", ",validation,") for row in THREE_CONTEXT_ROWS
]

# A space whose domains hold the bundled Llama-3-8B LoRA default (batch=4,
# outside the bundled grid's {8, 32}), and scores for its two configurations.
LLAMA_LORA_DEFAULT_DOC = json.dumps({
    "hyperparameters": [
        {"name": "batch", "kind": "integer", "domain": [4, 8]},
        {"name": "lr", "kind": "real", "domain": ["1.0e-4"]},
        {"name": "epochs", "kind": "integer", "domain": [10]},
        {"name": "lr_scheduler", "kind": "categorical", "domain": ["linear"]},
        {"name": "lora_r", "kind": "integer", "domain": [32]},
        {"name": "lora_alpha", "kind": "integer", "domain": [8]},
    ],
})
LLAMA_LORA_HEADER = "dataset,train_size,split,score,batch,lr,epochs,lr_scheduler,lora_r,lora_alpha"


class TestCompareDefaultColumn:
    def test_default_config_file(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, BOTH_SPLIT_ROWS)
        task_map, default = tmp_path / "tasks.json", tmp_path / "default.json"
        task_map.write_text('{"A": "t", "B": "t", "C": "u"}', encoding="utf-8")
        default.write_text('{"hp": "x"}', encoding="utf-8")
        assert main([
            "compare", "--space", space, "--scores", scores, "--task-map", str(task_map),
            "--default-config", str(default), "--format", "machine",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [(r["task"], r["default"]) for r in rows] == [("t", 100.0), ("u", 50.0)]

    def test_bundled_default_on_a_space_that_holds_it(self, tmp_path, capsys):
        space, scores = tmp_path / "space.json", tmp_path / "scores.csv"
        space.write_text(LLAMA_LORA_DEFAULT_DOC, encoding="utf-8")
        rows = [
            f"{d},100,{split},{s},{batch},1e-4,10,linear,32,8"
            for d, by_batch in {"A": (90, 100), "B": (100, 50), "C": (80, 100)}.items()
            for batch, s in zip((4, 8), by_batch)
            for split in ("validation", "test")
        ]
        scores.write_text("\n".join([LLAMA_LORA_HEADER, *rows]) + "\n", encoding="utf-8")
        task_map = tmp_path / "tasks.json"
        task_map.write_text('{"A": "t", "B": "t", "C": "t"}', encoding="utf-8")
        assert main([
            "compare", "--space", str(space), "--scores", str(scores),
            "--task-map", str(task_map), "--model", "Llama-3-8B", "--method", "lora",
            "--format", "machine",
        ]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["default"] == 90.0  # batch=4 scores 90, 100 and 80

    def test_bundled_method_matches_in_any_case(self, tmp_path, capsys):
        space, scores = tmp_path / "space.json", tmp_path / "scores.csv"
        space.write_text(LLAMA_LORA_DEFAULT_DOC, encoding="utf-8")
        rows = [
            f"{d},100,{split},{s},{batch},1e-4,10,linear,32,8"
            for d, by_batch in {"A": (90, 100), "B": (100, 50)}.items()
            for batch, s in zip((4, 8), by_batch)
            for split in ("validation", "test")
        ]
        scores.write_text("\n".join([LLAMA_LORA_HEADER, *rows]) + "\n", encoding="utf-8")
        task_map = tmp_path / "tasks.json"
        task_map.write_text('{"A": "t", "B": "t"}', encoding="utf-8")
        outputs = []
        for method in ("lora", "LORA"):
            assert main([
                "compare", "--space", str(space), "--scores", str(scores),
                "--task-map", str(task_map), "--model", "llama-3-8b", "--method", method,
                "--format", "machine",
            ]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        doc = json.loads(outputs[1])
        assert doc["manifest"]["options"]["method"] == "lora"
        assert doc["rows"][0]["default"] == 95.0  # batch=4 scores 90 and 100


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["rank"]) == 1

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip()

    def test_exclusive_importance_scopes(self, tmp_path):
        space, scores = write_inputs(tmp_path, ["A,100,test,1,x"])
        assert main([
            "importance", "--space", space, "--scores", scores,
            "--train-size", "100", "--combine-sizes",
        ]) == 1

    def test_importance_has_no_skip_degenerate(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS + ["D,100,test,0,x"])
        assert main([
            "importance", "--space", space, "--scores", scores, "--skip-degenerate",
        ]) == 1
        assert "unrecognized arguments: --skip-degenerate" in capsys.readouterr().err


class TestFlagCombinations:
    """Combinations argparse does not check are usage errors too: exit 1 with
    one error line, before any input is read."""

    @staticmethod
    def assert_one_usage_error(capsys, command, message):
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"covsearch {command}: error: {message}"
        ]
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags,message", [
        (["--model", "Llama-3-8B"], "--model and --method must be given together"),
        (["--method", "lora"], "--model and --method must be given together"),
        (["--default-config", "DEFAULT", "--method", "lora"],
         "--model and --method must be given together"),
        (["--default-config", "DEFAULT", "--model", "Llama-3-8B", "--method", "lora"],
         "--default-config excludes --model and --method"),
        (["--model", "llama-3-8b", "--method", "bogus"],
         "argument --method: invalid choice: 'bogus' (choose from 'full_ft', 'lora')"),
    ])
    def test_compare(self, tmp_path, capsys, flags, message):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        task_map, default = tmp_path / "tasks.json", tmp_path / "default.json"
        task_map.write_text('{"A": "t", "B": "t", "C": "u"}', encoding="utf-8")
        default.write_text('{"hp": "x"}', encoding="utf-8")
        flags = [str(default) if flag == "DEFAULT" else flag for flag in flags]
        assert main([
            "compare", "--space", space, "--scores", scores, "--task-map", str(task_map),
            *flags,
        ]) == 1
        self.assert_one_usage_error(capsys, "compare", message)

    @pytest.mark.parametrize("scope", [["--train-size", "100"], ["--combine-sizes"]])
    def test_importance(self, tmp_path, capsys, scope):
        missing = str(tmp_path / "missing")
        assert main([
            "importance", "--space", missing, "--scores", missing, "--train-sizes", "100",
            *scope,
        ]) == 1
        self.assert_one_usage_error(
            capsys, "importance", "--train-sizes excludes --train-size and --combine-sizes"
        )


class TestParserConstants:
    def test_choices_and_defaults_are_the_library_constants(self):
        commands = build_parser()._subparsers._group_actions[0].choices

        def option(command, flag):
            return commands[command]._option_string_actions[flag]

        for command in ("rank", "loo", "budget", "importance", "compare"):
            assert tuple(option(command, "--split").choices) == SPLITS
        assert tuple(option("budget", "--normalize-by").choices) == NORMALIZE_MODES
        assert option("budget", "--max-budget").default == DEFAULT_MAX_BUDGET
        assert option("importance", "--permutations").default == DEFAULT_PERMUTATIONS
        for command in ("compare", "recommend"):
            assert tuple(option(command, "--method").choices) == CATALOG_METHODS
        assert tuple(option("recommend", "--source").choices) == (*CATALOG_SOURCES, "all")


# Each numeric flag with a spelling outside the number grammar, a negative
# seed, or a zero --top.
BAD_NUMERIC_FLAGS = [
    ("rank", "--train-sizes", "1_00"),
    ("rank", "--threshold", "0.9_7"),
    ("rank", "--top", "1_0"),
    ("rank", "--top", "0"),
    ("budget", "--max-budget", "1_0"),
    ("importance", "--train-size", "1_00"),
    ("importance", "--permutations", "1_0"),
    ("importance", "--seed", "1_0"),
    ("importance", "--seed", "-1"),
    ("synth", "--datasets", "\u0661\u0662"),
    ("synth", "--train-sizes", "1_00"),
    ("synth", "--correlation", "0.7_0"),
    ("synth", "--noise", "0.1_0"),
    ("synth", "--scale", "1_00"),
    ("synth", "--seed", "-1"),
]


class TestNumericFlags:
    @pytest.mark.parametrize("command,flag,value", BAD_NUMERIC_FLAGS)
    def test_usage_error(self, tmp_path, capsys, command, flag, value):
        if command == "synth":
            io = ["--out-scores", str(tmp_path / "out.csv")]
        else:
            space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
            io = ["--space", space, "--scores", scores]
        assert main([command, *io, flag, value]) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err and "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()


# A range error is a usage error worded by the library's own check.
OUT_OF_RANGE_FLAGS = [
    ("rank", "--threshold", "1.5", "threshold must be in (0, 1), got 1.5"),
    ("rank", "--top", "0", "top must be >= 1, got 0"),
    ("budget", "--max-budget", "0", "max_budget must be >= 1, got 0"),
    ("importance", "--train-size", "0", "train_size must be >= 1, got 0"),
    ("importance", "--permutations", "-3", "permutations must be >= 1, got -3"),
    ("importance", "--seed", "-1", "seed must be non-negative, got -1"),
    ("recommend", "--top", "0", "top must be >= 1, got 0"),
    ("synth", "--seed", "-2", "seed must be non-negative, got -2"),
    ("synth", "--correlation", "2", "correlation must be in [0, 1], got 2.0"),
    ("synth", "--noise", "1", "noise must be in [0, 1), got 1.0"),
    ("synth", "--scale", "0", "scale must be positive, got 0.0"),
    ("synth", "--datasets", "0", "datasets must be >= 1, got 0"),
    ("synth", "--train-sizes", "0", "train_size must be >= 1, got 0"),
    ("synth", "--train-sizes", "100,-5", "train_size must be >= 1, got -5"),
    ("loo", "--train-sizes", "0", "train_size must be >= 1, got 0"),
]


class TestRangeFlags:
    @pytest.mark.parametrize("command,flag,value,message", OUT_OF_RANGE_FLAGS)
    def test_library_wording(self, tmp_path, capsys, command, flag, value, message):
        missing = str(tmp_path / "missing")  # never read: the flag fails first
        io = {
            "recommend": [],
            "synth": ["--out-scores", missing],
        }.get(command, ["--space", missing, "--scores", missing])
        assert main([command, *io, flag, value]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"covsearch {command}: error: argument {flag}: {message}"
        assert not Path(missing).exists()


class TestErrorContract:
    """Malformed inputs exit 2 with one diagnostic line, never a traceback."""

    @staticmethod
    def assert_one_line_error(capsys, *fragments):
        err = capsys.readouterr().err
        assert err.startswith("covsearch: error: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        for fragment in fragments:
            assert fragment in err

    def test_malformed_task_map_json(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        task_map = tmp_path / "tasks.json"
        task_map.write_text('{"A": "t",\n  oops}', encoding="utf-8")
        assert main([
            "compare", "--space", space, "--scores", scores,
            "--task-map", str(task_map),
        ]) == 2
        self.assert_one_line_error(capsys, "line 2", "invalid JSON")

    def test_malformed_default_config_json(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        task_map = tmp_path / "tasks.json"
        task_map.write_text('{"A": "t", "B": "t", "C": "t"}', encoding="utf-8")
        default = tmp_path / "default.json"
        default.write_text('{"hp": "x"', encoding="utf-8")
        assert main([
            "compare", "--space", space, "--scores", scores,
            "--task-map", str(task_map), "--default-config", str(default),
        ]) == 2
        self.assert_one_line_error(capsys, "line 1", "invalid JSON")

    @pytest.mark.parametrize("flag", ["--space", "--task-map", "--default-config"])
    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,  # nested past the decoder's recursion limit
        '{"A": ' + "1" * 5000 + "}",  # an integer past int()'s digit limit
    ], ids=["deep", "long integer"])
    def test_json_the_decoder_refuses(self, tmp_path, capsys, flag, text):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        argv = {
            "--space": ["rank", "--space", str(bad), "--scores", scores],
            "--task-map": ["compare", "--space", space, "--scores", scores,
                           "--task-map", str(bad)],
            "--default-config": ["compare", "--space", space, "--scores", scores,
                                 "--task-map", "builtin", "--default-config", str(bad)],
        }[flag]
        assert main(argv) == 2
        named = [] if flag == "--space" else [f"in {bad}:"]
        self.assert_one_line_error(capsys, "invalid JSON", *named)

    def test_train_size_past_the_digit_bound(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, ["A,100,test,1,x", f"A,{'1' * 5000},test,1,y"])
        assert main(["rank", "--space", space, "--scores", scores]) == 2
        self.assert_one_line_error(capsys, "line 3: train_size has more than 309 digits")

    @pytest.mark.parametrize("field,value", [("name", None), ("domain", [True, "y"])])
    def test_space_field_of_another_json_type(self, tmp_path, capsys, field, value):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        doc = json.loads(SPACE_DOC)
        doc["hyperparameters"][0][field] = value
        Path(space).write_text(json.dumps(doc), encoding="utf-8")
        assert main(["rank", "--space", space, "--scores", scores]) == 2
        self.assert_one_line_error(capsys, f"hyperparameters[0].{field}: ")

    def test_number_outside_the_ascii_grammar(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, ["A,100,test,1,x", "A,100,test,1_000,y"])
        assert main(["rank", "--space", space, "--scores", scores]) == 2
        self.assert_one_line_error(capsys, "line 3", "invalid score '1_000'")

    def test_non_object_default_config(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        default = tmp_path / "default.json"
        default.write_text("7", encoding="utf-8")
        assert main([
            "compare", "--space", space, "--scores", scores,
            "--task-map", "builtin", "--default-config", str(default),
        ]) == 2
        self.assert_one_line_error(capsys, "default configuration")

    def test_default_config_json_string(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        default = tmp_path / "default.json"
        default.write_text('"x"', encoding="utf-8")
        assert main([
            "compare", "--space", space, "--scores", scores,
            "--task-map", "builtin", "--default-config", str(default),
        ]) == 2
        self.assert_one_line_error(capsys, "default configuration", "must be an object")

    def test_bundled_default_outside_the_bundled_grid(self, tmp_path, capsys):
        space, scores = tmp_path / "space.json", tmp_path / "scores.csv"
        space.write_text(serialize_space(builtin_space("Llama-3-8B", "lora")), encoding="utf-8")
        scores.write_text(
            LLAMA_LORA_HEADER + "\nA,100,test,1,8,1e-4,10,cosine,32,8\n", encoding="utf-8"
        )
        assert main([
            "compare", "--space", str(space), "--scores", str(scores),
            "--task-map", "builtin", "--model", "Llama-3-8B", "--method", "lora",
        ]) == 2
        self.assert_one_line_error(capsys, "value '4' not in domain of hyperparameter 'batch'")

    def test_task_map_not_an_object(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        task_map = tmp_path / "tasks.json"
        task_map.write_text('["A", "B", "C"]', encoding="utf-8")
        assert main([
            "compare", "--space", space, "--scores", scores, "--task-map", str(task_map),
        ]) == 2
        self.assert_one_line_error(capsys, "$: task map must be an object of dataset -> task")

    def test_non_utf8_scores(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        with open(scores, "ab") as handle:
            handle.write(b"D,100,test,1,\xff\n")
        assert main(["validate", "--space", space, "--scores", scores]) == 2
        self.assert_one_line_error(capsys, "line 10", "UTF-8")

    def test_exponent_beyond_float_range(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        scores = tmp_path / "scores.csv"
        hps = [{"name": "lr", "kind": "real", "domain": ["1e-4", "1e9999999"]}]
        space.write_text(json.dumps({"hyperparameters": hps}), encoding="utf-8")
        scores.write_text("dataset,train_size,split,score,lr\n", encoding="utf-8")
        io = ["validate", "--space", str(space), "--scores", str(scores)]
        assert main(io) == 2
        self.assert_one_line_error(capsys, "hyperparameters[0]", "1e9999999")

        hps[0]["domain"] = ["1e-4"]
        space.write_text(json.dumps({"hyperparameters": hps}), encoding="utf-8")
        scores.write_text(
            "dataset,train_size,split,score,lr\nA,100,test,1,1e-4\nA,100,test,1,1e9999999\n",
            encoding="utf-8",
        )
        assert main(io) == 2
        self.assert_one_line_error(capsys, "line 3", "1e9999999")

    def test_synth_scale_overflow(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["synth", "--out-scores", str(out), "--scale", "1.7e308"]) == 2
        self.assert_one_line_error(capsys, "score must be finite, got inf")
        assert not out.exists()

    @pytest.mark.parametrize("scope", [
        [], ["--combine-sizes"], ["--train-size", "100"], ["--train-sizes", "100"],
        ["--datasets", "X"],
    ])
    def test_importance_on_a_header_only_file(self, tmp_path, capsys, scope):
        space, scores = write_inputs(tmp_path, [])
        assert main(["importance", "--space", space, "--scores", scores, *scope]) == 2
        self.assert_one_line_error(capsys, "covsearch: error: score table has no records\n")

    def test_compare_without_a_bundled_default(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, BOTH_SPLIT_ROWS)
        assert main([
            "compare", "--space", space, "--scores", scores, "--task-map", "builtin",
            "--model", "X", "--method", "lora",
        ]) == 2
        self.assert_one_line_error(capsys, "no bundled model 'X'; available: [")

    def test_compare_with_an_empty_bundled_match(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(covsearch.cli, "catalog_entries", lambda *query: [])
        space, scores = write_inputs(tmp_path, BOTH_SPLIT_ROWS)
        assert main([
            "compare", "--space", space, "--scores", scores, "--task-map", "builtin",
            "--model", "Llama-3-8B", "--method", "lora",
        ]) == 2
        self.assert_one_line_error(capsys, "no bundled default for ('Llama-3-8B', 'lora')")

    def test_non_utf8_space(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        Path(space).write_bytes(b'{"label": "\xe9"}')
        assert main(["rank", "--space", space, "--scores", scores]) == 2
        self.assert_one_line_error(capsys, "line 1", "UTF-8")


class TestContextSelector:
    def test_rank_rejects_unknown_dataset_like_loo(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        for command in ("rank", "loo"):
            assert main([
                command, "--space", space, "--scores", scores,
                "--datasets", "A,nosuch",
            ]) == 2
            assert "dataset(s) not in table: ['nosuch']" in capsys.readouterr().err

    def test_rank_rejects_unknown_train_size(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        assert main([
            "rank", "--space", space, "--scores", scores, "--train-sizes", "100,7",
        ]) == 2
        assert "train size(s) not in table: [7]" in capsys.readouterr().err

    def test_rank_filter_keeps_named_contexts(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        assert main([
            "rank", "--space", space, "--scores", scores,
            "--datasets", "A,B", "--format", "machine",
        ]) == 0
        ranking = json.loads(capsys.readouterr().out)["ranking"]
        assert ranking["contexts"] == ["A@100", "B@100"]

    def test_importance_rejects_unknown_dataset(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        assert main([
            "importance", "--space", space, "--scores", scores,
            "--datasets", "A,B,nosuch", "--permutations", "2",
        ]) == 2
        assert "dataset(s) not in table: ['nosuch']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["rank", "loo", "budget", "compare", "importance", "synth"]
    )
    @pytest.mark.parametrize("flag", ["--datasets", "--train-sizes"])
    @pytest.mark.parametrize("value", ["", " , "])
    def test_empty_list_is_a_usage_error(self, tmp_path, capsys, command, flag, value):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        task_map = tmp_path / "tasks.json"
        task_map.write_text('{"A": "t", "B": "t", "C": "u"}', encoding="utf-8")
        io = {
            "compare": ["--space", space, "--scores", scores, "--task-map", str(task_map)],
            "synth": ["--out-scores", str(tmp_path / "out.csv")],
        }.get(command, ["--space", space, "--scores", scores])
        assert main([command, *io, flag, value]) == 1
        assert not (tmp_path / "out.csv").exists()
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [
            f"covsearch {command}: error: argument {flag}: expected a"
            f" comma-separated list, got {value!r}"
        ]
        assert "Traceback" not in err


class TestStartup:
    def test_light_commands_never_load_numpy_or_scipy(self, tmp_path):
        validation = [r.replace(",test,", ",validation,") for r in THREE_CONTEXT_ROWS]
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS + validation)
        task_map = tmp_path / "tasks.json"
        task_map.write_text('{"A": "t", "B": "t", "C": "t"}', encoding="utf-8")
        io = ["--space", space, "--scores", scores]
        commands = [
            ["validate", *io],
            ["rank", *io],
            ["loo", *io],
            ["budget", *io, "--max-budget", "2"],
            ["compare", *io, "--task-map", str(task_map)],
        ]
        # A few permutations stay within the pure-Python test's budget.
        commands.append(["importance", *io, "--permutations", "5"])
        # Each permutation deals a 4-slot pool and scores 3 dataset pairs
        # over 4 values: 16 work units, so this many pass the budget.
        past = str(_PURE_WORK // 16 + 1)
        importance = ["importance", *io, "--permutations", past]
        script = f"""
import sys
def heavy():
    return sorted({{m.split(".")[0] for m in sys.modules}} & {{"numpy", "scipy"}})
import covsearch.cli
assert heavy() == [], ("import", heavy())
for argv in {commands!r}:
    assert covsearch.cli.main(argv) == 0, argv
    assert heavy() == [], (argv[0], heavy())
# The chunked permutation test needs numpy, and no more.
assert covsearch.cli.main({importance!r}) == 0
assert heavy() == ["numpy"], ("importance", heavy())
"""
        src = str(Path(covsearch.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr


class TestPurePermutationPath:
    """A light ``importance`` run writes the same bytes whether it finds numpy
    unloaded, and runs the pure-Python permutation test, or already
    imported, and runs the chunked numpy test."""

    SCRIPT = """
import sys
{preload}
import covsearch.cli
code = covsearch.cli.main({argv!r})
sys.stdout.flush()
sys.stderr.write("\\n" + repr((code, "numpy" in sys.modules)))
"""

    @pytest.fixture(params=["ragged", "synth"])
    def io(self, request, tmp_path, capsys):
        if request.param == "ragged":
            space, scores = write_inputs(tmp_path, RAGGED_ROWS)
            return ["--space", space, "--scores", scores]
        scores, space = tmp_path / "s.csv", tmp_path / "space.json"
        main(["synth", "--out-scores", str(scores), "--out-space", str(space),
              "--datasets", "4", "--seed", "3"])
        capsys.readouterr()
        lines = scores.read_text(encoding="utf-8").splitlines(keepends=True)
        scores.write_text("".join(l for l in lines if not l.startswith("ds01,1000,")),
                          encoding="utf-8")
        return ["--space", str(space), "--scores", str(scores)]

    def run(self, argv, preload):
        src = str(Path(covsearch.__file__).resolve().parents[1])
        script = self.SCRIPT.format(preload=preload, argv=argv)
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env={**os.environ, "PYTHONPATH": src})
        *_, status = done.stderr.decode().rsplit("\n", 1)
        return done.stdout, status

    @pytest.mark.parametrize("options", [
        [],
        ["--format", "machine"],
        ["--combine-sizes"],
        ["--seed", str(10**30), "--format", "machine"],
    ], ids=lambda options: " ".join(options)[:20] or "text")
    def test_both_paths_write_the_same_bytes(self, io, options):
        argv = ["importance", *io, "--permutations", "10", *options]
        pure, pure_status = self.run(argv, "")
        chunked, chunked_status = self.run(argv, "import numpy")
        assert (pure_status, chunked_status) == ("(0, False)", "(0, True)")
        assert pure == chunked


class TestWithoutNumpy:
    """Every command runs where numpy cannot be imported and writes the bytes
    of a run that has numpy; importance past the pure budget then takes the
    pure-Python test at any size."""

    SCRIPT = """
import json, sys
{preload}
import covsearch.cli
io = ["--space", "space.json", "--scores", "s.csv"]
runs = [
    ["synth", "--out-scores", "s.csv", "--out-space", "space.json", "--datasets", "4",
     "--seed", str(2**64 + 3)],
    ["validate", *io],
    ["rank", *io], ["rank", *io, "--format", "machine"],
    ["loo", *io, "--format", "machine"],
    ["budget", *io, "--details"],
    ["compare", *io, "--task-map", "tasks.json"],
    ["importance", *io, "--permutations", "10"],
    ["importance", *io, "--permutations", {past!r}],
    ["importance", *io, "--permutations", "300", "--combine-sizes"],
    ["recommend", "--top", "2"],
]
with open("tasks.json", "w") as tasks:
    json.dump({{f"ds{{i:02d}}": f"t{{i % 2}}" for i in range(4)}}, tasks)
codes = []
for argv in runs:
    codes.append(covsearch.cli.main(argv))
    if argv[0] == "synth":
        with open("s.csv") as full, open("gaps.csv", "w") as gaps:
            gaps.writelines(line for i, line in enumerate(full) if i % 7 != 1)
        codes.append(covsearch.cli.main(["validate", "--space", "space.json",
                                         "--scores", "gaps.csv"]))
print(open("s.csv").read() + open("space.json").read(), flush=True)
sys.stderr.write("\\n" + repr((codes, sys.modules.get("numpy") is not None)))
"""

    def run(self, directory, preload):
        directory.mkdir()
        src = str(Path(covsearch.__file__).resolve().parents[1])
        # Each permutation scores 6 dataset pairs over 9 values: more than 16 units.
        script = self.SCRIPT.format(preload=preload, past=str(_PURE_WORK // 16 + 1))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              cwd=directory, env={**os.environ, "PYTHONPATH": src})
        err, status = done.stderr.decode().rsplit("\n", 1)
        return done.stdout, err, status

    def test_every_command_writes_the_bytes_of_a_numpy_run(self, tmp_path):
        blocked = self.run(tmp_path / "blocked", 'sys.modules["numpy"] = None')
        normal = self.run(tmp_path / "normal", "")
        assert blocked[2] == repr(([0] * 12, False)), blocked[1]
        assert normal[2] == repr(([0] * 12, True)), normal[1]
        assert blocked[:2] == normal[:2]
        assert "missing configuration(s)" in blocked[0].decode()

    def test_synth_loads_neither_numpy_nor_scipy(self, tmp_path):
        script = f"""
import sys
import covsearch.cli
assert covsearch.cli.main(["synth", "--out-scores", {str(tmp_path / "s.csv")!r},
                           "--datasets", "7", "--seed", str(2**200)]) == 0
heavy = sorted({{m.split(".")[0] for m in sys.modules}} & {{"numpy", "scipy"}})
assert heavy == [], heavy
"""
        src = str(Path(covsearch.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr


class TestManifest:
    """The manifest records every option that shaped a result."""

    @pytest.fixture
    def inputs(self, tmp_path, capsys):
        scores, space = tmp_path / "s.csv", tmp_path / "space.json"
        main([
            "synth", "--out-scores", str(scores), "--out-space", str(space),
            "--datasets", "a1,a2,b1", "--seed", "4",
        ])
        task_map = tmp_path / "tasks.json"
        task_map.write_text('{"a1": "ta", "a2": "ta", "b1": "tb"}', encoding="utf-8")
        capsys.readouterr()
        return ["--space", str(space), "--scores", str(scores)], str(task_map)

    @staticmethod
    def text_manifest(out):
        lines = takewhile(lambda line: line.startswith("# "), out.splitlines())
        return dict(line[2:].split(": ", 1) for line in list(lines)[2:])

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--split", "validation", "--threshold", "0.9", "--datasets",
             "a1,b1", "--train-sizes", "100", "--skip-degenerate", "--top", "2"],
            ["loo", "--threshold", "0.9", "--train-sizes", "1000", "--skip-degenerate"],
            ["budget", "--details", "--skip-degenerate", "--max-budget", "3",
             "--normalize-by", "upper_bound"],
            ["importance", "--split", "validation", "--datasets", "a1,a2",
             "--train-size", "100", "--permutations", "3", "--seed", "5"],
            ["importance", "--combine-sizes", "--permutations", "2"],
            ["compare", "--task-map", "TASKS", "--skip-degenerate", "--threshold", "0.8"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_every_flag_is_recorded(self, inputs, capsys, argv):
        io, task_map = inputs
        argv = [task_map if a == "TASKS" else a for a in argv]
        assert main([*argv, *io]) == 0
        text = self.text_manifest(capsys.readouterr().out)
        assert main([*argv, *io, "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)["manifest"]
        assert doc["command"] == argv[0]
        assert doc["options"] == text
        expected = {"space": io[1], "scores": io[3]}
        flags = argv[1:]
        for i, flag in enumerate(flags):
            if flag.startswith("--"):
                nxt = flags[i + 1] if i + 1 < len(flags) else "--"
                expected[flag[2:]] = "true" if nxt.startswith("--") else nxt
        assert expected.items() <= text.items()

    def test_skipped_context_warns_in_one_line(self, tmp_path, capsys):
        rows = THREE_CONTEXT_ROWS + ["D,100,test,0,x", "D,100,test,0,y"]
        space, scores = write_inputs(tmp_path, rows)
        assert main([
            "rank", "--space", space, "--scores", scores, "--skip-degenerate",
        ]) == 0
        captured = capsys.readouterr()
        assert captured.err == "covsearch: warning: skipping degenerate context D@100\n"
        assert "# skip-degenerate: true\n" in captured.out

    def test_option_bytes_that_are_not_utf8_show_escaped(self, inputs, tmp_path, capsys):
        io, task_map = inputs
        odd = tmp_path / os.fsdecode(b"t\xff.json")  # as argv holds such a byte
        odd.write_bytes(Path(task_map).read_bytes())
        argv = ["compare", *io, "--task-map", str(odd)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"# task-map: {tmp_path}/t\\xff.json\n" in out
        assert main([*argv, "--out", str(tmp_path / "o.txt")]) == 0
        assert (tmp_path / "o.txt").read_text(encoding="utf-8") == out
        assert main([*argv, "--format", "machine"]) == 0
        manifest = json.loads(capsys.readouterr().out)["manifest"]
        assert manifest["options"]["task-map"] == f"{tmp_path}/t\\xff.json"

    def test_synth_space_path_that_is_not_utf8(self, inputs, tmp_path, capsys):
        io, _ = inputs
        odd = tmp_path / os.fsdecode(b"sp\xff.json")
        odd.write_bytes(Path(io[1]).read_bytes())
        scores = tmp_path / os.fsdecode(b"s\xff.csv")
        assert main(["synth", "--space", str(odd), "--out-scores", str(scores)]) == 0
        assert capsys.readouterr().out.endswith(f" to {tmp_path}/s\\xff.csv\n")
        assert f"# space: {tmp_path}/sp\\xff.json\n" in scores.read_text(encoding="utf-8")
        assert main(["rank", "--space", io[1], "--scores", str(scores)]) == 0


# Three datasets scored on both splits; the A@100 test cell is all zero.
DEGENERATE_TEST_ROWS = [
    f"{d},100,{split},{score},{hp}"
    for d, split, scores in [
        ("A", "validation", (90, 80, 10)), ("A", "test", (0, 0, 0)),
        ("B", "validation", (50, 99, 10)), ("B", "test", (100, 98, 10)),
        ("C", "validation", (70, 60, 65)), ("C", "test", (40, 100, 99)),
    ]
    for hp, score in zip("xyz", scores)
]


class TestDegenerateHeldOut:
    """--skip-degenerate also skips an all-zero held-out test context."""

    @pytest.mark.parametrize("command", [["loo"], ["budget", "--details"], ["compare"]])
    def test_skipped_with_one_warning(self, tmp_path, capsys, command):
        space, scores = write_inputs(tmp_path, DEGENERATE_TEST_ROWS)
        task_map = tmp_path / "tasks.json"
        task_map.write_text('{"A": "t", "B": "t", "C": "u"}', encoding="utf-8")
        if command == ["compare"]:
            command = ["compare", "--task-map", str(task_map)]
        argv = [*command, "--space", space, "--scores", scores, "--skip-degenerate"]
        assert main([*argv, "--format", "machine"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "covsearch: warning: skipping degenerate context A@100\n"
        doc = json.loads(captured.out)
        if "results" in doc:
            contexts = [s["context"] for r in doc["results"] for s in r["scores"]]
        elif "curve" in doc:
            contexts = [d["context"] for d in doc["curve"]["details"]]
        else:
            assert [(r["task"], r["n_datasets"]) for r in doc["rows"]] == [("t", 1), ("u", 1)]
            contexts = []
        assert "A@100" not in contexts
        # Each main() call prints its warnings afresh.
        assert main(argv) == 0
        assert capsys.readouterr().err.count("warning") == 1


# A score file on which validate, rank, loo and budget all succeed, and the
# byte strings mutations splice into it.
FUZZ_BASE = (
    "dataset,train_size,split,score,hp\n"
    + "\n".join(
        f"{d},{m},{split},{score},{hp}"
        for d in "ABC"
        for m in (100, 1000)
        for split in ("validation", "test")
        for hp, score in zip("xyzw", (90, 98.5, 10, 0.25))
    )
    + "\n"
).encode()
FUZZ_TOKENS = [b"\x00", b"\xef\xbb\xbf", b"1e400", b"nan", "\u0661".encode(), b",",
               b"\n", b"\r", b'"', b"-", b"0", b"1_0", b"\xff"]


@st.composite
def mutated_score_files(draw):
    data = bytearray(FUZZ_BASE)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        token = draw(st.sampled_from(FUZZ_TOKENS) | st.binary(min_size=1, max_size=3))
        action = draw(st.sampled_from(["insert", "delete", "replace"]))
        if action == "insert":
            data[pos:pos] = token
        elif action == "delete":
            del data[pos : pos + draw(st.integers(1, 12))]
        else:
            data[pos : pos + len(token)] = token
    return bytes(data)


class TestFuzzedScores:
    @settings(max_examples=150, deadline=None)
    @given(data=mutated_score_files())
    def test_never_a_traceback(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            space, scores = Path(tmp, "space.json"), Path(tmp, "scores.csv")
            space.write_text(SPACE_DOC, encoding="utf-8")
            scores.write_bytes(data)
            io = ["--space", str(space), "--scores", str(scores), "--out", str(Path(tmp, "o"))]
            for command in ("validate", "rank", "loo", "budget"):
                assert main([command, *io]) in (0, 1, 2)

    def test_base_file_succeeds(self, tmp_path):
        space, scores = tmp_path / "space.json", tmp_path / "scores.csv"
        space.write_text(SPACE_DOC, encoding="utf-8")
        scores.write_bytes(FUZZ_BASE)
        io = ["--space", str(space), "--scores", str(scores), "--out", str(tmp_path / "o")]
        for command in ("validate", "rank", "loo", "budget"):
            assert main([command, *io]) == 0


# The JSON documents the commands read besides the score file, each valid
# with FUZZ_BASE, and the JSON values mutations put in place of their parts.
FUZZ_JSON = {
    "space": json.loads(SPACE_DOC),
    "task_map": {"A": "t", "B": "t", "C": "u"},
    "default": {"hp": "x"},
}
FUZZ_WORDS = ["x", "A", "hp", "name", "kind", "domain", "label", "hyperparameters",
              "real", "integer", "categorical", "1e400", "1_0", "a,b", " x", "x\n"]
FUZZ_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from(FUZZ_WORDS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(FUZZ_WORDS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
FUZZ_JSON_TOKENS = [b"{", b"}", b"[", b"]", b",", b":", b'"', b"\\", b"\xff", b"\x00",
                    b"\xef\xbb\xbf", b"NaN", b"-", b"\n"]


def json_paths(node, path=()):
    """The path of a JSON document's root and of each of its parts."""
    yield path
    if isinstance(node, (dict, list)):
        for key in list(node) if isinstance(node, dict) else range(len(node)):
            yield from json_paths(node[key], (*path, key))


@st.composite
def mutated_json_inputs(draw):
    """One of FUZZ_JSON's documents with one or two parts replaced or
    deleted, and in one case of four a token spliced into its text."""
    name = draw(st.sampled_from(sorted(FUZZ_JSON)))
    doc = copy.deepcopy(FUZZ_JSON[name])
    for _ in range(draw(st.integers(1, 2))):
        *parents, key = draw(st.sampled_from(list(json_paths(doc)))) or (None,)
        value = draw(st.sampled_from(FUZZ_WORDS) | FUZZ_JSON_VALUES)
        if key is None:
            doc = value
            continue
        parent = doc
        for step in parents:
            parent = parent[step]
        if draw(st.sampled_from(["replace", "delete"])) == "replace":
            parent[key] = value
        else:
            del parent[key]
    data = json.dumps(doc, ensure_ascii=draw(st.booleans())).encode()
    if draw(st.integers(0, 3)) == 0:
        pos = draw(st.integers(0, len(data)))
        data = data[:pos] + draw(st.sampled_from(FUZZ_JSON_TOKENS)) + data[pos:]
    return name, data


class TestFuzzedJsonInputs:
    """Mutated space files through validate and rank, and mutated task maps
    and default configurations through compare: exit 0, 1 or 2, never a
    traceback, and one error line on exit 2."""

    @settings(max_examples=120, deadline=None)
    @given(case=mutated_json_inputs())
    def test_never_a_traceback(self, case):
        name, data = case
        with tempfile.TemporaryDirectory() as tmp:
            paths = {n: Path(tmp, f"{n}.json") for n in FUZZ_JSON}
            for n, doc in FUZZ_JSON.items():
                paths[n].write_text(json.dumps(doc), encoding="utf-8")
            paths[name].write_bytes(data)
            scores = Path(tmp, "scores.csv")
            scores.write_bytes(FUZZ_BASE)
            io = ["--space", str(paths["space"]), "--scores", str(scores), "--out", str(Path(tmp, "o"))]
            if name == "space":
                runs = [["validate", *io], ["rank", *io]]
            else:
                runs = [["compare", *io, "--task-map", str(paths["task_map"]),
                         "--default-config", str(paths["default"])]]
            for argv in runs:
                err = StringIO()
                with contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 1, 2)
                assert "Traceback" not in err.getvalue()
                if code == 2:
                    assert err.getvalue().startswith("covsearch: error: ")
                    assert err.getvalue().count("\n") == 1

    def test_base_documents_succeed(self, tmp_path):
        paths = {n: tmp_path / f"{n}.json" for n in FUZZ_JSON}
        for n, doc in FUZZ_JSON.items():
            paths[n].write_text(json.dumps(doc), encoding="utf-8")
        scores = tmp_path / "scores.csv"
        scores.write_bytes(FUZZ_BASE)
        io = ["--space", str(paths["space"]), "--scores", str(scores), "--out", str(tmp_path / "o")]
        assert main(["validate", *io]) == 0
        assert main(["rank", *io]) == 0
        assert main(["compare", *io, "--task-map", str(paths["task_map"]),
                     "--default-config", str(paths["default"])]) == 0


GOLDEN_DIR = Path(__file__).with_name("data")


def json_shape(value):
    """A JSON value's key order and value types, without its values."""
    if isinstance(value, dict):
        return [(key, json_shape(item)) for key, item in value.items()]
    if isinstance(value, list):
        return [json_shape(item) for item in value]
    return type(value).__name__


class TestGoldenMachineOutput:
    """``--format machine`` on a seeded synth table, against the files
    ``tests/data/golden_*.json``: byte for byte, but importance only in key
    order and value types, since its floats follow the platform's libm."""

    @pytest.fixture
    def io(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # relative paths, so that the manifests match
        assert main([
            "synth", "--out-scores", "scores.csv", "--out-space", "space.json",
            "--datasets", "3", "--train-sizes", "100", "--seed", "1",
        ]) == 0
        Path("tasks.json").write_text(
            '{"ds00": "ta", "ds01": "ta", "ds02": "tb"}', encoding="utf-8"
        )
        Path("default.json").write_text(
            '{"batch": 8, "lr": "1e-4", "epochs": 5, "lr_scheduler": "cosine"}',
            encoding="utf-8",
        )
        capsys.readouterr()
        return ["--space", "space.json", "--scores", "scores.csv", "--format", "machine"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank"],
            ["loo"],
            ["budget", "--details"],
            ["compare", "--task-map", "tasks.json", "--default-config", "default.json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_byte_for_byte(self, io, capsys, argv):
        assert main([*argv, *io]) == 0
        golden = GOLDEN_DIR / f"golden_{argv[0]}.json"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_importance_key_order_and_types(self, io, capsys):
        assert main(["importance", *io]) == 0
        golden = GOLDEN_DIR / "golden_importance.json"
        expected = json.loads(golden.read_text(encoding="utf-8"))
        assert json_shape(json.loads(capsys.readouterr().out)) == json_shape(expected)


class TestLongIntegerFlags:
    """An integer flag of more than 309 digits, the score file's train-size
    bound, is a usage error that does not echo the digits."""

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("rank", "--top", "1" * 5000),
            ("importance", "--seed", "1" * 5000),
            ("synth", "--datasets", "1" * 5000),
            ("loo", "--train-sizes", "100," + "1" * 5000),
        ],
        ids=lambda value: value[:20],
    )
    def test_usage_error(self, tmp_path, capsys, command, flag, value):
        missing = str(tmp_path / "missing")  # never read: the flag fails first
        io = ["--out-scores", missing] if command == "synth" else ["--space", missing]
        assert main([command, *io, flag, value]) == 1
        last = capsys.readouterr().err.splitlines()[-1]
        message = "integer has more than 309 digits"
        assert last == f"covsearch {command}: error: argument {flag}: {message}"
        assert len(last) < 200
        assert not Path(missing).exists()

    def test_309_digits_are_an_integer(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        assert main(["rank", "--space", space, "--scores", scores, "--top", "9" * 309]) == 0
        assert f"# top: {'9' * 309}\n" in capsys.readouterr().out



class TestDefaultConfigValues:
    """A default configuration's values follow the space file's value rule:
    JSON strings or numbers.  The domain below holds the text that ``str()``
    makes of each value of another JSON type, so only the rule stops it."""

    DOMAIN = ["x", "y", "None", "True", "['x']", "{'x': 1}"]

    @pytest.mark.parametrize("value", [None, True, ["x"], {"x": 1}], ids=repr)
    @pytest.mark.parametrize("shape", ["object", "array"])
    def test_value_of_another_json_type(self, tmp_path, capsys, value, shape):
        space, scores = write_inputs(tmp_path, ["A,100,test,1,x", "B,100,test,1,y"])
        hps = [{"name": "hp", "kind": "categorical", "domain": self.DOMAIN}]
        Path(space).write_text(json.dumps({"hyperparameters": hps}), encoding="utf-8")
        task_map = tmp_path / "tasks.json"
        task_map.write_text('{"A": "t", "B": "t"}', encoding="utf-8")
        default = tmp_path / "default.json"
        doc = {"hp": value} if shape == "object" else [value]
        default.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out.txt"
        assert main([
            "compare", "--space", space, "--scores", scores, "--task-map", str(task_map),
            "--default-config", str(default), "--out", str(out),
        ]) == 2
        TestErrorContract.assert_one_line_error(
            capsys, f"values of the default configuration in {default} must be strings"
        )
        assert not out.exists()


class TestRealFlagRange:
    """A real flag follows the space file's exponent range, ±308: beyond it
    the value would read as inf or 0.0, so it is a usage error naming the
    range, and no output file is written."""

    @pytest.mark.parametrize("command,flag,value", [
        ("rank", "--threshold", "1e999"),
        ("rank", "--threshold", "1e-999"),
        ("synth", "--scale", "1e400"),
    ])
    def test_usage_error(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out.csv"
        if command == "synth":
            io = ["--out-scores", str(out)]
        else:
            space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
            io = ["--space", space, "--scores", scores, "--out", str(out)]
        assert main([command, *io, flag, value]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [
            f"covsearch {command}: error: argument {flag}: value {value!r}"
            f" has a decimal exponent outside [-308, 308]"
        ]
        assert not out.exists()

    def test_the_range_edge_is_a_value(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        assert main(["rank", "--space", space, "--scores", scores, "--threshold", "1e-308"]) == 0
        assert "# threshold: 1e-308\n" in capsys.readouterr().out


class TestLongFlagArguments:
    """A flag error quotes a long argument cut, so it stays one short line."""

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("rank", "--top", "x" * 5000),
            ("rank", "--threshold", "x" * 5000),
            ("rank", "--threshold", "9" * 5000),
            ("rank", "--datasets", "," * 5000),
            ("synth", "--datasets", "\u0663" * 5000),
        ],
        ids=lambda value: value[:12],
    )
    def test_one_short_line(self, tmp_path, capsys, command, flag, value):
        missing = str(tmp_path / "missing")  # never read: the flag fails first
        io = ["--out-scores", missing] if command == "synth" else ["--space", missing]
        assert main([command, *io, flag, value]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and len(errors[0]) < 200
        assert errors[0].startswith(f"covsearch {command}: error: argument {flag}: ")
        assert not Path(missing).exists()


LONG = "x" * 5000


def run_main(argv):
    """``main(argv)``'s exit code and stderr, after checking that stderr
    holds only whole lines of at most 199 characters, no traceback, and
    exactly one error line when the command fails."""
    err = StringIO()
    # argparse wraps its usage lines to the terminal's width
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(StringIO()):
        code = main(argv)
    text = err.getvalue()
    assert code in (0, 1, 2)
    lines = text.splitlines()
    assert "Traceback" not in text and text == "".join(f"{line}\n" for line in lines)
    assert all(len(line) <= 199 for line in lines)
    assert sum(": error: " in line for line in lines) == (code != 0)
    return code, text


class TestDiagnosticLines:
    """Every error or warning line is one line of at most 199 characters,
    however long the value it echoes, with a line break shown as its
    escape, such as ``\\n``."""

    @pytest.mark.parametrize("command,flag,code", [
        ("rank", "--split", 1),  # argparse's own choice check
        ("rank", "--space", 2),  # an OSError's file name
        ("rank", "--datasets", 2),  # a data error of the library
        ("recommend", "--model", 2),
    ])
    def test_long_flag_argument(self, tmp_path, command, flag, code):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        io = ["--space", space, "--scores", scores] if command == "rank" else []
        assert run_main([command, *io, flag, LONG])[0] == code

    def test_long_score_file_value(self, tmp_path):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"label": "r", "hyperparameters": [
            {"name": "hp", "kind": "real", "domain": [1, 2]}]}), encoding="utf-8")
        scores = tmp_path / "scores.csv"
        scores.write_text(f"dataset,train_size,split,score,hp\nA,100,test,1,{LONG}\n",
                          encoding="utf-8")
        code, err = run_main(["validate", "--space", str(space), "--scores", str(scores)])
        assert code == 2
        assert err.startswith("covsearch: error: line 2: value 'xxx") and "..." in err

    @pytest.mark.parametrize("brk", ["\n", "\r", "\v", "\u2028"])
    def test_line_break_in_a_path(self, tmp_path, brk):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        task_map = tmp_path / "tasks.json"
        task_map.write_text('{"A": "t", "B": "t", "C": "u"}', encoding="utf-8")
        default = tmp_path / f"d{brk}x.json"
        default.write_text("{bad", encoding="utf-8")
        code, err = run_main(["compare", "--space", space, "--scores", scores,
                              "--task-map", str(task_map), "--default-config", str(default)])
        assert code == 2 and f"d{repr(brk)[1:-1]}x.json" in err

    def test_long_name_in_a_warning(self, tmp_path):
        rows = THREE_CONTEXT_ROWS + [f"{LONG},100,test,0,x", f"{LONG},100,test,0,y"]
        space, scores = write_inputs(tmp_path, rows)
        code, err = run_main(["rank", "--space", space, "--scores", scores, "--skip-degenerate"])
        assert code == 0
        assert err.startswith("covsearch: warning: skipping degenerate context xxx")
        assert err.endswith("xxx@100\n") and len(err) == 200


class TestFailedSynthWritesNothing:
    def test_unwritable_space_file(self, tmp_path, capsys):
        argv = ["synth", "--out-scores", str(tmp_path / "ok.csv"),
                "--out-space", str(tmp_path / "missing" / "s.json")]
        assert main(argv) == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_an_existing_file_stays(self, tmp_path):
        scores = tmp_path / "ok.csv"
        scores.write_text("mine", encoding="utf-8")
        argv = ["synth", "--out-scores", str(scores), "--out-space", str(tmp_path)]
        assert main(argv) == 2
        assert list(tmp_path.iterdir()) == [scores]

    def test_an_existing_file_is_unchanged(self, tmp_path, capsys):
        keep = tmp_path / "keep.csv"
        keep.write_bytes(b"keep\n")
        argv = ["synth", "--out-scores", str(keep), "--out-space", str(tmp_path / "no" / "s.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"covsearch: error: [Errno 2] No such file or directory: '{tmp_path}/no/s.json'\n"
        )
        assert keep.read_bytes() == b"keep\n"
        assert list(tmp_path.iterdir()) == [keep]

    def test_a_target_that_is_not_a_regular_file_is_written_in_place(self, tmp_path):
        space = tmp_path / "s.json"
        argv = ["synth", "--out-scores", os.devnull, "--out-space", str(space)]
        assert main(argv) == 0
        assert Path(os.devnull).is_char_device()
        load_space(space)
        assert list(tmp_path.iterdir()) == [space]

    def test_outputs_naming_one_file_are_a_usage_error(self, tmp_path, capsys):
        same = tmp_path / "same.out"
        argv = ["synth", "--out-scores", str(same), "--out-space", str(same),
                "--space", str(tmp_path / "missing.json")]  # not read: the usage error comes first
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", "covsearch synth: error: --out-scores and --out-space name the same file\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_outputs_naming_one_file_through_a_link_are_a_usage_error(self, tmp_path, capsys):
        same, link = tmp_path / "same.out", tmp_path / "link.out"
        same.write_bytes(b"keep\n")
        link.symlink_to(same.name)
        argv = ["synth", "--out-scores", str(same), "--out-space", str(link)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "covsearch synth: error: --out-scores and --out-space name the same file\n"
        )
        assert same.read_bytes() == b"keep\n" and os.readlink(link) == same.name
        assert sorted(tmp_path.iterdir()) == [link, same]

    def test_a_symlinked_target_keeps_its_link(self, tmp_path):
        scores, link = tmp_path / "s.csv", tmp_path / "link.csv"
        scores.write_bytes(b"keep\n")
        link.symlink_to(scores.name)
        space = tmp_path / "sp.json"
        assert main(["synth", "--out-scores", str(link), "--out-space", str(space)]) == 0
        assert os.readlink(link) == scores.name
        load_scores(scores, load_space(space))


# Each command that takes --out, with its arguments over the inputs that
# ``out_argv`` writes: a synthetic table and a task map.
OUT_COMMANDS = {
    "validate": ["--space", "{space}", "--scores", "{scores}"],
    "rank": ["--space", "{space}", "--scores", "{scores}"],
    "loo": ["--space", "{space}", "--scores", "{scores}"],
    "budget": ["--space", "{space}", "--scores", "{scores}", "--details"],
    "importance": ["--space", "{space}", "--scores", "{scores}", "--permutations", "10"],
    "compare": ["--space", "{space}", "--scores", "{scores}", "--task-map", "{tasks}"],
    "recommend": [],
}
# A file-size limit below every report of OUT_COMMANDS.
SIZE_LIMIT = 64


def out_argv(tmp_path, command):
    """``command``'s argv over inputs written to ``tmp_path/in``."""
    inputs = tmp_path / "in"
    files = {name: inputs / name for name in ("space", "scores", "tasks")}
    if not inputs.exists():
        inputs.mkdir()
        main(["synth", "--out-scores", str(files["scores"]), "--out-space", str(files["space"]),
              "--datasets", "a1,a2,b1,b2"])
        tasks = {"a1": "ta", "a2": "ta", "b1": "tb", "b2": "tb"}
        files["tasks"].write_text(json.dumps(tasks), encoding="utf-8")
    return [command, *(arg.format(**files) for arg in OUT_COMMANDS[command])]


class TestFailedWritesKeepFiles:
    """Every --out is staged as synth's files are: written beside its target
    and renamed over it, so a failed write leaves the old file as it was."""

    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_a_write_over_the_file_size_limit(self, tmp_path, command):
        argv = out_argv(tmp_path, command)
        assert main([*argv, "--out", str(tmp_path / "in" / "full")]) == 0
        assert (tmp_path / "in" / "full").stat().st_size > SIZE_LIMIT
        out = tmp_path / "out.txt"
        out.write_bytes(b"keep\n")
        hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
        done = subprocess.run(  # the limit holds in the child only; Python ignores SIGXFSZ
            [sys.executable, "-m", "covsearch.cli", *argv, "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(Path(covsearch.__file__).resolve().parents[1]),
                 "PYTHONDONTWRITEBYTECODE": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (SIZE_LIMIT, hard)),
            capture_output=True,
            text=True,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            f"covsearch: error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: '{out}'\n"
        )
        assert out.read_bytes() == b"keep\n"
        assert sorted(tmp_path.iterdir()) == [tmp_path / "in", out]

    def test_a_target_that_is_not_a_regular_file_is_written_in_place(self, tmp_path):
        argv = out_argv(tmp_path, "rank")
        before = sorted((tmp_path / "in").iterdir())
        assert main([*argv, "--out", os.devnull]) == 0
        assert Path(os.devnull).is_char_device()
        assert sorted((tmp_path / "in").iterdir()) == before
        assert list(tmp_path.iterdir()) == [tmp_path / "in"]

    def test_a_symlinked_target_keeps_its_link(self, tmp_path, capsys):
        argv = out_argv(tmp_path, "rank")
        target, link = tmp_path / "report.txt", tmp_path / "link.txt"
        target.write_bytes(b"keep\n")
        link.symlink_to(target.name)
        capsys.readouterr()
        assert main(argv) == 0
        assert main([*argv, "--out", str(link)]) == 0
        assert os.readlink(link) == target.name
        assert target.read_text(encoding="utf-8") == capsys.readouterr().out

    def test_a_replaced_file_takes_a_new_files_permissions(self, tmp_path):
        argv = out_argv(tmp_path, "recommend")
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        old.write_bytes(b"keep\n")
        old.chmod(0o600)
        assert main([*argv, "--out", str(new)]) == main([*argv, "--out", str(old)]) == 0
        assert stat.S_IMODE(old.stat().st_mode) == stat.S_IMODE(new.stat().st_mode)
        assert old.read_bytes() == new.read_bytes()


class TestClosedStdout:
    """A reader that closes stdout after the first line leaves the command
    quiet: the report goes to the pipe in one write, which the pipe holds,
    so no later write meets the closed pipe.  Unbuffered (``python -u``),
    a report written in pieces would reach the pipe piece by piece."""

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [["validate"], ["loo", "--format", "machine"]], ids=" ".join)
    def test_a_reader_that_stops_after_one_line(self, tmp_path, argv, unbuffered):
        argv = out_argv(tmp_path, argv[0]) + argv[1:]
        scores = tmp_path / "in" / "scores"
        lines = scores.read_text(encoding="utf-8").splitlines(keepends=True)
        scores.write_text("".join(lines[:10] + lines[10::2]), encoding="utf-8")  # every cell has gaps
        env = {**os.environ, "PYTHONPATH": str(Path(covsearch.__file__).resolve().parents[1]),
               "PYTHONDONTWRITEBYTECODE": "1", "PYTHONUNBUFFERED": "1" if unbuffered else ""}
        child = subprocess.Popen(
            [sys.executable, "-m", "covsearch.cli", *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            assert child.stdout.readline() != b""
            child.stdout.close()
            stderr = child.stderr.read()
        finally:
            returncode = child.wait(timeout=60)
            child.stderr.close()
        assert (returncode, stderr) == (0, b"")


class TestClosedPipe:
    """A reader that closed the pipe before the command writes its report
    ends the command with exit 0 and nothing on stderr, however large the
    report: buffered, the write fails at once, or at the flush on exit."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """Inputs on a 14-hyperparameter binary grid: one context holds the
        whole grid and ranks it all, another one point and misses the rest,
        so both the ranking and the gap report run over 1 MiB."""
        tmp = tmp_path_factory.mktemp("pipe")
        space = cat_space([2] * 14)
        rows = [f"a,100,test,1.0,{','.join(c.values)}" for c in space.grid()]
        rows.append(f"b,100,test,1.0,{','.join(['v0'] * 14)}")
        (tmp / "space.json").write_text(serialize_space(space), encoding="utf-8")
        header = "dataset,train_size,split,score," + ",".join(space.names)
        (tmp / "scores.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        return ["--space", str(tmp / "space.json"), "--scores", str(tmp / "scores.csv")]

    @staticmethod
    def run_closed(argv, unbuffered):
        """``(exit code, stderr)`` of a child whose stdout pipe has no reader."""
        env = {**os.environ, "PYTHONPATH": str(Path(covsearch.__file__).resolve().parents[1]),
               "PYTHONDONTWRITEBYTECODE": "1", "PYTHONUNBUFFERED": "1" if unbuffered else ""}
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "covsearch.cli", *argv],
                env=env, stdout=write, stderr=subprocess.PIPE, timeout=120,
            )
        finally:
            os.close(write)
        return done.returncode, done.stderr

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("command", ["rank", "validate"])
    def test_a_reader_gone_before_the_report(self, tmp_path, inputs, command, unbuffered):
        out = tmp_path / "report"
        assert main([command, *inputs, "--out", str(out)]) == 0
        assert out.stat().st_size > 1 << 20
        assert self.run_closed([command, *inputs], unbuffered) == (0, b"")

    def test_a_short_report_fails_only_at_the_flush_on_exit(self, inputs):
        assert self.run_closed(["rank", *inputs, "--top", "1"], False) == (0, b"")

    def test_a_command_started_without_stdout_writes_its_out_file(self, tmp_path, inputs):
        out = tmp_path / "ranking"
        done = subprocess.run(
            [sys.executable, "-m", "covsearch.cli", "rank", *inputs, "--top", "1", "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(Path(covsearch.__file__).resolve().parents[1])},
            stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert out.read_text(encoding="utf-8").startswith("# covsearch rank\n")


# Each subcommand's flags that take a value.
VALUE_FLAGS = sorted(
    (command, action.option_strings[-1])
    for command, parser in build_parser()._subparsers._group_actions[0].choices.items()
    for action in parser._actions
    if action.option_strings and action.nargs != 0
)
# 5,000 characters: a short text repeated.
LONG_TOKENS = st.text("x9,.\n \"\u0663\u00e9", min_size=1, max_size=3).map(
    lambda text: (text * 5000)[:5000]
)


@st.composite
def long_token_inputs(draw):
    """A mutated score file or JSON input with a 5,000-character token
    spliced into it, as ``(name, data)``."""
    name, data = draw(st.sampled_from([
        mutated_json_inputs(), mutated_score_files().map(lambda data: ("scores", data)),
    ]).flatmap(lambda inputs: inputs))
    pos = draw(st.integers(0, len(data)))
    return name, data[:pos] + draw(LONG_TOKENS).encode() + data[pos:]


class TestLongTokens:
    """A 5,000-character token in any input or flag: exit 0, 1 or 2, each
    stderr line at most 199 characters, one error line on failure, no
    traceback, and no output file left by a failed command."""

    @staticmethod
    def run(tmp, runs, inputs=None):
        """Each of ``runs``, a command and its arguments before the input
        files, with FUZZ_BASE and FUZZ_JSON's documents as those files, but
        for ``inputs``, a (name, data) pair, and with output files."""
        files = {n: Path(tmp, f"{n}.json") for n in FUZZ_JSON}
        for n, doc in FUZZ_JSON.items():
            files[n].write_text(json.dumps(doc), encoding="utf-8")
        files["scores"] = Path(tmp, "scores.csv")
        files["scores"].write_bytes(FUZZ_BASE)
        if inputs:
            files[inputs[0]].write_bytes(inputs[1])
        io = {"--space": files["space"], "--scores": files["scores"]}
        inputs_of = {
            "compare": {**io, "--task-map": files["task_map"], "--default-config": files["default"]},
            "recommend": {},
            "synth": {},
        }
        for i, argv in enumerate(runs):
            outputs = {"--out": Path(tmp, f"out{i}")}
            if argv[0] == "synth":
                outputs = {"--out-scores": Path(tmp, f"out{i}.csv"),
                           "--out-space": Path(tmp, f"out{i}.json")}
            for flag, path in {**inputs_of.get(argv[0], io), **outputs}.items():
                if flag not in argv:
                    argv = [*argv, flag, str(path)]
            code, _ = run_main(argv)
            if code:
                assert not any(path.exists() for path in outputs.values())

    @settings(max_examples=100, deadline=None)
    @given(inputs=long_token_inputs())
    def test_in_an_input(self, inputs):
        commands = {"scores": ["validate", "rank", "loo", "budget"],
                    "space": ["validate", "rank"]}.get(inputs[0], ["compare"])
        with tempfile.TemporaryDirectory() as tmp:
            self.run(tmp, [[command] for command in commands], inputs)

    @pytest.mark.parametrize("command,flag", VALUE_FLAGS)
    @settings(max_examples=4, deadline=None)
    @given(token=LONG_TOKENS)
    def test_as_a_flag_value(self, command, flag, token):
        with tempfile.TemporaryDirectory() as tmp:
            self.run(tmp, [[command, flag, token]])


class TestModuleEntrypoint:
    """``python -m covsearch.cli`` goes through ``entrypoint``, as the
    ``covsearch`` console script does; the rest of the suite calls ``main``."""

    @staticmethod
    def run(*argv):
        src = str(Path(covsearch.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, "-m", "covsearch.cli", *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )

    def test_version(self):
        done = self.run("--version")
        assert (done.returncode, done.stdout) == (0, f"{covsearch.__version__}\n")

    def test_usage_error(self):
        done = self.run("frobnicate")
        assert done.returncode == 1 and done.stdout == ""
        assert "covsearch: error: argument command: invalid choice" in done.stderr
