"""Seeded workloads: input tables, the CLI command list, and their checks.

The generator is the benchmark's own numpy code, not ``covsearch.synth``, so
a change to the program cannot change what the benchmark feeds it.  A seed
fixes every score; the program sees only the files written here.

Every workload reaches ``rank``, ``loo_cbs``, ``budget_curve``,
``compare_protocols`` and ``importance_report``, so every layer and each of
these functions is measured on every workload.  What differs is where the
work goes: one layer is made heavy per workload and the other commands stay
light (a few datasets, a small budget, few permutations).  README.md says why
each workload has the shape it has.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SIZES = (100, 1000)
SPLITS = ("validation", "test")
N_TASKS = 4
BAND = 0.03  # the program's default top-set band: scores above 0.97 of the best

# Grid shapes, hyperparameters in declaration order (the grid order).
FULL_FT = (
    ("batch", "integer", ("8", "32")),
    ("lr", "real", ("1e-06", "5e-06", "1e-05")),
    ("epochs", "integer", ("5", "10")),
    ("lr_scheduler", "categorical", ("constant", "cosine", "linear")),
)
LORA = (
    ("batch", "integer", ("8", "32")),
    ("lr", "real", ("5e-05", "1e-04", "5e-04", "1e-03")),
    ("epochs", "integer", ("5", "10")),
    ("lr_scheduler", "categorical", ("cosine",)),
    ("lora_r", "integer", ("4", "32", "128")),
    ("lora_alpha", "integer", ("8", "64", "128")),
)
WIDE = (
    ("lr", "real", ("1e-06", "5e-06", "1e-05", "5e-05", "1e-04", "5e-04")),
    ("batch", "integer", ("4", "8", "16", "32", "64")),
    ("epochs", "integer", ("1", "3", "5", "10")),
    ("warmup", "real", ("0.0", "0.03", "0.06", "0.1")),
    ("dropout", "real", ("0.0", "0.05", "0.1")),
    ("lr_scheduler", "categorical", ("constant", "cosine", "linear")),
    ("weight_decay", "real", ("0.0", "0.01")),
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: a subcommand and its options (no file paths)."""

    sub: str
    opts: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        parts = [self.sub]
        for key, value in self.opts.items():
            if value is True:
                parts.append(key)
            elif isinstance(value, (list, tuple)):
                parts.append(f"{key}={len(value)}" if len(value) > 2 else
                             f"{key}={','.join(map(str, value))}")
            else:
                parts.append(f"{key}={value}")
        return " ".join(parts)

    def argv(self, space: Path, scores: Path, tasks: Path, out: Path) -> list[str]:
        args = [self.sub, "--space", str(space), "--scores", str(scores)]
        if self.sub == "compare":
            args += ["--task-map", str(tasks)]
        for key, value in self.opts.items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                args.append(flag)
            elif isinstance(value, (list, tuple)):
                args += [flag, ",".join(map(str, value))]
            else:
                args += [flag, str(value)]
        return args + ["--out", str(out)]


@dataclass(frozen=True)
class Workload:
    name: str
    datasets: int
    hps: tuple
    commands: tuple[Command, ...]
    # Configurations present per context; None means the full grid.
    configs_per_context: int | None = None
    # Members of every context's top set, on both splits.
    top_set: int = 10

    @property
    def grid_size(self) -> int:
        return math.prod(len(d) for _, _, d in self.hps)

    @property
    def n_configs(self) -> int:
        return self.configs_per_context or self.grid_size

    @property
    def rows(self) -> int:
        return self.datasets * len(SIZES) * len(SPLITS) * self.n_configs

    @property
    def fill_ratio(self) -> float:
        return self.n_configs / self.grid_size


def _names(n: int) -> list[str]:
    return [f"ds{i:03d}" for i in range(n)]


def _light_importance(**opts) -> Command:
    """An importance run small enough not to shift the workload's focus."""
    return Command("importance", {**opts, "train_size": 100, "permutations": 10,
                                  "seed": 0})


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "loo-wide",
            datasets=32,
            hps=FULL_FT,
            top_set=10,
            commands=(
                Command("loo", {"format": "machine"}),
                Command("budget", {"max_budget": 10, "details": True}),
                Command("compare"),
                _light_importance(datasets=_names(6)),
            ),
        ),
        Workload(
            "perm-heavy",
            datasets=8,
            hps=LORA,
            top_set=20,
            commands=(
                Command("compare", {"datasets": _names(4)}),
                Command("budget", {"datasets": _names(4), "max_budget": 4}),
                Command("importance", {"permutations": 100, "seed": 0}),
                Command("importance", {"combine_sizes": True, "permutations": 100,
                                       "seed": 0}),
            ),
        ),
        Workload(
            "grid-sparse",
            datasets=4,
            hps=WIDE,
            configs_per_context=200,
            top_set=12,
            commands=(
                Command("rank"),
                Command("validate"),
                Command("compare"),
                Command("budget", {"max_budget": 4}),
                _light_importance(),
            ),
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    space: Path
    scores: Path
    tasks: Path
    rows: int
    contexts: int
    fill_ratio: float
    input_bytes: int


def _space_doc(w: Workload) -> dict:
    return {
        "label": f"perfbench/{w.name}",
        "hyperparameters": [
            {"name": n, "kind": k, "domain": list(d)} for n, k, d in w.hps
        ],
    }


def _grid_values(hps: tuple, ids: np.ndarray) -> np.ndarray:
    """Per-configuration domain positions (configs x hps) for grid ids."""
    sizes = [len(d) for _, _, d in hps]
    out = np.empty((len(ids), len(sizes)), dtype=np.int64)
    rest = ids.copy()
    for j in range(len(sizes) - 1, -1, -1):
        out[:, j] = rest % sizes[j]
        rest //= sizes[j]
    return out


def banded(z: np.ndarray, k: int) -> np.ndarray:
    """Scores in the order of ``z`` whose top set holds exactly its ``k``
    best entries (all but one when there are no more than ``k``).

    The midpoint between the k-th and the next value of ``z`` maps to 0.97
    of the best score, and the rest follow linearly.  A top set of fixed
    size fixes the work per context, so a workload costs the same whatever
    the seed.
    """
    top = np.sort(z)[::-1]
    k = min(k, len(top) - 1)
    cut = (top[k - 1] + top[k]) / 2
    return 0.8 * (1 - BAND * (top[0] - z) / (top[0] - cut))


def generate(w: Workload, seed: int, directory: Path) -> Inputs:
    """Write the space, score and task-map files of one workload.

    Configurations are ordered by an additive model: a global per-value
    effect shared by all datasets, a per-dataset per-value effect, and
    per-context noise.  ``banded`` turns that order into scores whose top
    set has ``w.top_set`` members in every context and split.  Scores are
    written with six decimals, so the CSV holds exactly the floats the
    program will parse.
    """
    rng = np.random.default_rng([seed, len(w.name), sum(map(ord, w.name))])
    sizes = [len(d) for _, _, d in w.hps]
    n_hp = len(sizes)
    if w.configs_per_context is None:
        ids = np.arange(w.grid_size)
    else:
        ids = np.sort(rng.choice(w.grid_size, w.configs_per_context, replace=False))
    values = _grid_values(w.hps, ids)
    global_effect = [rng.normal(size=k) for k in sizes]
    shared = sum(global_effect[j][values[:, j]] for j in range(n_hp))

    names = _names(w.datasets)
    directory.mkdir(parents=True, exist_ok=True)
    value_text = [[d[i] for i in values[:, j]] for j, (_, _, d) in enumerate(w.hps)]
    config_text = [",".join(parts) for parts in zip(*value_text)]

    lines = ["dataset,train_size,split,score," + ",".join(n for n, _, _ in w.hps)]
    contexts = set()
    for name in names:
        own = [rng.normal(size=k) for k in sizes]
        preference = sum(own[j][values[:, j]] for j in range(n_hp))
        for size in SIZES:
            contexts.add((name, size))
            z = (0.6 * shared + 0.8 * preference) / math.sqrt(n_hp)
            z = z + 0.6 * rng.normal(size=len(ids))
            test = banded(z, w.top_set)
            validation = banded(z + 0.25 * rng.normal(size=len(ids)), w.top_set)
            for split, scores in (("validation", validation), ("test", test)):
                scores = np.clip(scores, 0.05, None)
                prefix = f"{name},{size},{split},"
                lines.extend(
                    f"{prefix}{s:.6f},{c}" for s, c in zip(scores.tolist(), config_text)
                )
    text = "\n".join(lines) + "\n"

    space_path = directory / "space.json"
    scores_path = directory / "scores.csv"
    tasks_path = directory / "tasks.json"
    space_path.write_text(json.dumps(_space_doc(w), indent=2) + "\n", encoding="utf-8")
    scores_path.write_text(text, encoding="utf-8")
    tasks_path.write_text(
        json.dumps({n: f"task{i % N_TASKS}" for i, n in enumerate(names)}, indent=2),
        encoding="utf-8",
    )

    inputs = Inputs(
        space=space_path,
        scores=scores_path,
        tasks=tasks_path,
        rows=len(lines) - 1,
        contexts=len(contexts),
        fill_ratio=len(set(config_text)) / w.grid_size,
        input_bytes=len(text.encode("utf-8")),
    )
    check_inputs(w, inputs)
    return inputs


class WorkloadError(RuntimeError):
    """Generated inputs do not have the shape the workload declares."""


def check_inputs(w: Workload, inputs: Inputs) -> None:
    """Row count, context count and fill ratio, checked before any timing."""
    expected = (w.rows, w.datasets * len(SIZES), w.fill_ratio)
    actual = (inputs.rows, inputs.contexts, inputs.fill_ratio)
    if actual != expected:
        raise WorkloadError(
            f"{w.name}: generated (rows, contexts, fill) {actual}, expected {expected}"
        )
