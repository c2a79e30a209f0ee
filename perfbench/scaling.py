"""Scaling probe: layer timings over a ladder of dataset counts and grid sizes.

Usage, from the root of the repository::

    python3 perfbench/scaling.py [--out scaling.json]

Information only: it is not one of the benchmark's workloads and gates
nothing.  For each D datasets (x 2 train sizes) and G grid points of the
ladder below it times ``parse_scores``, ``rank``, ``loo_cbs``,
``budget_curve`` and, for D <= 40, ``importance_report`` with 100
permutations, then fits the exponent b of t ~ D^b at each G and of
t ~ G^b at each D by least squares on log-log points.  Cells above
``MAX_ROWS`` score rows are skipped and listed.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
import time
from pathlib import Path

from workloads import FULL_FT, Workload, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Grids of 36, 288 and 1152 points: the bundled full fine-tuning shape, the
# LoRA shape with a second scheduler, and that with a dropout axis.
GRIDS = {36: FULL_FT}
GRIDS[288] = (
    ("batch", "integer", ("8", "32")),
    ("lr", "real", ("5e-05", "1e-04", "5e-04", "1e-03")),
    ("epochs", "integer", ("5", "10")),
    ("lr_scheduler", "categorical", ("cosine", "linear")),
    ("lora_r", "integer", ("4", "32", "128")),
    ("lora_alpha", "integer", ("8", "64", "128")),
)
GRIDS[1152] = GRIDS[288] + (("dropout", "real", ("0.0", "0.05", "0.1", "0.2")),)
DATASETS = (10, 40, 160)
IMPORTANCE_MAX_DATASETS = 40
MAX_ROWS = 250_000
REPEATS = 1  # each figure is the fastest of this many calls
SEED = 0


def fit_exponent(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of log t against log x."""
    if len(points) < 2:
        return None
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


def time_cell(d: int, g: int, work: Path) -> dict[str, float]:
    import covsearch.importance as importance
    import covsearch.ingest as ingest
    import covsearch.protocols as protocols
    import covsearch.ranking as ranking

    w = Workload(f"scale-d{d}-g{g}", datasets=d, hps=GRIDS[g], commands=())
    inputs = generate(w, SEED, work)
    space = ingest.load_space(inputs.space)
    text = inputs.scores.read_text(encoding="utf-8")
    table = ingest.parse_scores(text, space, warn_incomplete=False)
    stages = {
        "parse_scores": lambda: ingest.parse_scores(text, space, warn_incomplete=False),
        "rank": lambda: ranking.rank(table),
        "loo_cbs": lambda: protocols.loo_cbs(table),
        "budget_curve": lambda: protocols.budget_curve(table, max_budget=10),
    }
    if d <= IMPORTANCE_MAX_DATASETS:
        stages["importance_report"] = lambda: importance.importance_report(
            table, train_size=100, permutations=100, seed=0
        )
    out = {}
    for name, call in stages.items():
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        out[name] = min(times)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="layer scaling probe")
    parser.add_argument("--out", default=None, help="also write the JSON here")
    args = parser.parse_args(argv)
    ds, gs = DATASETS, sorted(GRIDS)

    sys.path.insert(0, str(ROOT / "src"))
    from run import WORK, environment

    cells, skipped = {}, []
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="scaling-", dir=WORK))
    try:
        for d in ds:
            for g in gs:
                if d * 2 * 2 * g > MAX_ROWS:
                    skipped.append(f"D={d} G={g}")
                    continue
                cells[(d, g)] = time_cell(d, g, work / f"{d}-{g}")
                print(f"D={d:<4} G={g:<5} " + "  ".join(
                    f"{k} {v:.4f}s" for k, v in cells[(d, g)].items()), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stages = sorted({s for t in cells.values() for s in t})
    exponents = {}
    for stage in stages:
        exponents[stage] = {
            "in_D": {f"G={g}": fit_exponent([(d, cells[(d, g)][stage]) for d in ds
                                             if stage in cells.get((d, g), {})])
                     for g in gs},
            "in_G": {f"D={d}": fit_exponent([(g, cells[(d, g)][stage]) for g in gs
                                             if stage in cells.get((d, g), {})])
                     for d in ds},
        }
    doc = {
        "environment": environment(),
        "repeats": REPEATS,
        "timings_s": {f"D={d},G={g}": t for (d, g), t in cells.items()},
        "skipped": skipped,
        "exponents": exponents,
    }
    text = json.dumps(doc, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(HERE))
    sys.exit(main())
