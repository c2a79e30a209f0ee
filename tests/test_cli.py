"""CLI behavior: exit codes, formats, determinism, pipelines."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import covsearch

from covsearch import builtin_catalog, load_scores, load_space
from covsearch.cli import main
from covsearch.report import catalog_csv

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

    def test_catalog_csv_matches_golden_file(self):
        golden = Path(__file__).with_name("data").joinpath("golden_recommend.csv")
        assert catalog_csv(builtin_catalog()) == golden.read_text(encoding="utf-8")


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


class TestImportanceCommand:
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

    def test_non_object_default_config(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        default = tmp_path / "default.json"
        default.write_text("7", encoding="utf-8")
        assert main([
            "compare", "--space", space, "--scores", scores,
            "--task-map", "builtin", "--default-config", str(default),
        ]) == 2
        self.assert_one_line_error(capsys, "default configuration")

    def test_non_utf8_scores(self, tmp_path, capsys):
        space, scores = write_inputs(tmp_path, THREE_CONTEXT_ROWS)
        with open(scores, "ab") as handle:
            handle.write(b"D,100,test,1,\xff\n")
        assert main(["validate", "--space", space, "--scores", scores]) == 2
        self.assert_one_line_error(capsys, "line 10", "UTF-8")

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
        script = f"""
import sys
def heavy():
    return sorted({{m.split(".")[0] for m in sys.modules}} & {{"numpy", "scipy"}})
import covsearch.cli
assert heavy() == [], ("import", heavy())
for argv in {commands!r}:
    assert covsearch.cli.main(argv) == 0, argv
    assert heavy() == [], (argv[0], heavy())
"""
        src = str(Path(covsearch.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
