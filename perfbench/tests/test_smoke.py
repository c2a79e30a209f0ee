"""Smoke test of the benchmark harness at toy sizes.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
It is outside the package's test suite on purpose (pytest's configured
test path is ``tests``), so it costs the suite nothing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from passes import output_digest  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import FULL_FT, Command, Workload, WorkloadError, check_inputs, generate  # noqa: E402

TOY = Workload(
    "toy",
    datasets=3,
    hps=FULL_FT,
    commands=(
        Command("rank", {"top": 2}),
        Command("loo", {"format": "machine"}),
        Command("importance", {"train_size": 100, "permutations": 5, "seed": 0}),
    ),
)


def test_generator_is_seeded_and_checked(tmp_path):
    a = generate(TOY, 3, tmp_path / "a")
    b = generate(TOY, 3, tmp_path / "b")
    c = generate(TOY, 4, tmp_path / "c")
    assert a.scores.read_bytes() == b.scores.read_bytes()
    assert a.scores.read_bytes() != c.scores.read_bytes()
    assert (a.rows, a.contexts, a.fill_ratio) == (3 * 2 * 2 * 36, 6, 1.0)
    with pytest.raises(WorkloadError):
        check_inputs(replace(TOY, datasets=4), a)


def test_sparse_generator_keeps_the_same_configs_everywhere(tmp_path):
    w = replace(TOY, configs_per_context=5)
    inputs = generate(w, 1, tmp_path)
    rows = inputs.scores.read_text().splitlines()[1:]
    configs = {tuple(r.split(",")[4:]) for r in rows}
    assert len(rows) == 3 * 2 * 2 * 5 and len(configs) == 5
    assert inputs.fill_ratio == 5 / 36


def test_digest_ignores_the_manifest():
    body = "coverage ranking\n1 a\n"
    assert output_digest("# covsearch rank\n# version: 1\n" + body, False) == \
        output_digest(body, False)
    doc = {"results": [1.5, {"b": 2}]}
    with_manifest = json.dumps({"manifest": {"command": "loo"}, **doc}, indent=2)
    assert output_digest(with_manifest, True) == output_digest(json.dumps(doc), True)
    assert output_digest(body + "x", False) != output_digest(body, False)


def test_self_time_subtracts_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    def outer():
        with tracer.span("ranking.top_set"):
            pass
        with tracer.span("protocols.loo_cbs"):
            with tracer.span("ranking.rank"):
                leaf()

    with tracer.span("ingest.parse_scores"):
        pass
    outer()
    figures = layer_metrics(tracer, 0)
    assert figures["protocols.total_s"] >= 0.02
    assert figures["protocols.self_s"] < 0.01
    assert figures["ranking.self_s"] >= 0.02
    assert figures["ranking.rank.calls"] == 1


def test_timed_and_traced_runs_on_a_toy_workload(tmp_path):
    report: list[str] = []
    metrics, checks = run.timed_run(TOY, 5, 0.0, tmp_path / "timed", report)
    assert checks.errors == [] and checks.attempted > 0
    assert set(metrics) == {"pipeline_s", "api_s", "peak_rss_mb", "setup_s"}
    assert all(v > 0 for v in metrics.values())

    metrics, checks = run.traced_run(TOY, 5, 0.0, tmp_path / "traced", report)
    assert checks.errors == []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= set(metrics)
    assert metrics["importance.js_distance.calls"] > 0
    assert metrics["protocols.loo_cbs.calls"] > 0
    assert metrics["ranking.rank_s"] > 0 and metrics["protocols.loo_cbs_s"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loo-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_scaling_probe_fits_exponents(tmp_path):
    import scaling

    assert abs(scaling.fit_exponent([(10, 3.0), (40, 48.0), (160, 768.0)]) - 2.0) < 1e-12
    cell = scaling.time_cell(2, 36, tmp_path)
    assert set(cell) == {"parse_scores", "rank", "loo_cbs", "budget_curve",
                         "importance_report"}
    assert all(t > 0 for t in cell.values())
