"""Offline evaluation protocols over a score table.

Four ways to answer "how good is a recommendation strategy on a dataset it
has never seen":

* fixed_config_eval: one configuration applied everywhere (the published-
  default baseline), reported as raw test scores with task macro-averages.
* upper_bound: per-context full grid search, selecting on validation and
  reporting on test.
* loo_cbs: leave-one-dataset-out simulation of the coverage ranking's
  single top recommendation.
* budget_curve: the same simulation with a budget of k ranked candidates,
  selecting among them on the held-out validation split.

Normalized test scores divide by the per-context test maximum, so 1.0 means
the held-out grid search could not have done better.  A flag switches the
budget-curve denominator to the upper-bound protocol's test score instead
(the validation-selected configuration's test score, which can sit below
the test maximum, letting ratios exceed 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .model import (
    BudgetCurve,
    BudgetDetail,
    BudgetPoint,
    Configuration,
    Context,
    CoverageRanking,
    DataError,
    FixedConfigResult,
    LooResult,
    LooScore,
    ScoreTable,
    UpperBoundResult,
    ValidationError,
)
# normalize and rank are not called here (held-out scores divide by the cell
# maximum, and _held_out ranks through ranking._ranker); they stay module
# attributes, which perfbench/tracing.py wraps.
from .ranking import (  # noqa: F401
    DEFAULT_THRESHOLD,
    _cell_and_best,
    _ranker,
    _usable,
    normalize,
    rank,
)

DEFAULT_MAX_BUDGET = 10
NORMALIZE_MODES = ("test_max", "upper_bound")


def fixed_config_eval(
    table: ScoreTable,
    config: Configuration,
    contexts: Iterable[Context] | None = None,
    task_map: Mapping[str, str] | None = None,
) -> FixedConfigResult:
    """Raw test scores of one configuration plus per-task macro-averages.

    ``task_map`` maps dataset names to task labels; without one, all
    contexts fall into a single "all" group.  The macro-average is the
    unweighted mean over the contexts of each task.
    """
    index = table.space.config_index(config)
    selected = sorted(dict.fromkeys(contexts)) if contexts is not None else table.contexts("test")
    if not selected:
        raise DataError("no contexts to evaluate")
    missing = [ctx for ctx in selected if index not in table.cell(ctx, "test")]
    if missing:
        raise DataError(
            f"configuration ({config}) has no test record for context(s):"
            f" {', '.join(str(c) for c in missing)}"
        )
    if task_map is not None:
        unknown = sorted({ctx.dataset for ctx in selected} - set(task_map))
        if unknown:
            raise DataError(f"dataset(s) missing from task map: {unknown}")

    scores = tuple((ctx, table.cell(ctx, "test")[index]) for ctx in selected)
    groups: dict[str, list[float]] = {}
    for ctx, score in scores:
        task = task_map[ctx.dataset] if task_map is not None else "all"
        groups.setdefault(task, []).append(score)
    macro = tuple(
        (task, math.fsum(vals) / len(vals)) for task, vals in sorted(groups.items())
    )
    return FixedConfigResult(config=config, scores=scores, macro_averages=macro)


def upper_bound(table: ScoreTable, context: Context) -> UpperBoundResult:
    """Validation argmax of one context, reported on its test split.

    Validation ties break toward the configuration earliest in grid order.
    """
    val = table.cell(context, "validation")
    if not val:
        raise DataError(f"validation split unavailable for context {context}")
    test = table.cell(context, "test")
    if not test:
        raise DataError(f"test split unavailable for context {context}")
    best_id = max(val, key=val.__getitem__)  # grid order: first maximum wins ties
    best_config = table.space.config_at(best_id)
    test_score = test.get(best_id)
    if test_score is None:
        raise DataError(
            f"validation-selected configuration ({best_config}) has no test"
            f" record for context {context}"
        )
    return UpperBoundResult(
        context=context,
        config=best_config,
        validation_score=val[best_id],
        test_score=test_score,
    )


def _select_contexts(
    table: ScoreTable,
    datasets: Sequence[str] | None,
    train_sizes: Sequence[int] | None,
) -> tuple[list[str], list[int]]:
    all_datasets = table.datasets()
    all_sizes = table.train_sizes()
    ds = sorted(set(datasets)) if datasets is not None else all_datasets
    sizes = sorted(set(train_sizes)) if train_sizes is not None else all_sizes
    unknown = [d for d in ds if d not in all_datasets]
    if unknown:
        raise DataError(f"dataset(s) not in table: {unknown}")
    unknown_sizes = [m for m in sizes if m not in all_sizes]
    if unknown_sizes:
        raise DataError(f"train size(s) not in table: {unknown_sizes}")
    return ds, sizes


def _contexts_of(
    table: ScoreTable, split: str, datasets: Sequence[str], train_sizes: Sequence[int]
) -> list[Context]:
    """Contexts with ``split`` records among the given datasets and train sizes."""
    return [
        ctx
        for ctx in table.contexts(split)
        if ctx.dataset in datasets and ctx.train_size in train_sizes
    ]


def _held_out(
    table: ScoreTable,
    datasets: Sequence[str] | None,
    train_sizes: Sequence[int] | None,
    split: str,
    threshold: float,
    skip_degenerate: bool,
) -> Iterator[tuple[str, CoverageRanking, dict[Context, tuple[Mapping[int, float], float]]]]:
    """For each selected dataset in name order: the dataset, the coverage
    ranking over every other dataset's contexts (all requested train sizes
    together), and its own test contexts, each mapped to its test cell and
    that cell's maximum.  Both sets of contexts are selected once, then split
    by dataset; ``skip_degenerate`` applies to both.

    Each ranking is ``ranking._ranker`` over the pool without the held-out
    dataset, the ranking ``rank`` gives over the other datasets' contexts.
    The ranker builds every top set of the pool before the first dataset is
    yielded, so a degenerate pool context raises (or warns) once."""
    ds, sizes = _select_contexts(table, datasets, train_sizes)
    if len(ds) < 2:
        raise DataError("leave-one-out requires at least 2 datasets")
    pool = _contexts_of(table, split, ds, sizes)
    tests = _contexts_of(table, "test", ds, sizes)
    without = _ranker(table, pool, split, threshold, skip_degenerate)
    for held_out in ds:
        if all(ctx.dataset == held_out for ctx in pool):
            raise DataError(f"no contexts remain after holding out {held_out!r}")
        ranking = without(held_out)
        held_out_contexts = [ctx for ctx in tests if ctx.dataset == held_out]
        if not held_out_contexts:
            raise DataError(
                f"held-out dataset {held_out!r} has no test records for the"
                f" requested train sizes"
            )
        yield held_out, ranking, _usable(
            held_out_contexts, skip_degenerate, lambda ctx: _cell_and_best(table, ctx, "test")
        )


def loo_cbs(
    table: ScoreTable,
    datasets: Sequence[str] | None = None,
    train_sizes: Sequence[int] | None = None,
    *,
    split: str = "test",
    threshold: float = DEFAULT_THRESHOLD,
    skip_degenerate: bool = False,
) -> list[LooResult]:
    """Leave-one-dataset-out evaluation of the top-ranked configuration.

    For each held-out dataset, a ranking is built once over all remaining
    datasets' contexts (all requested train sizes together); the rank-1
    configuration's raw and normalized test scores are then reported on
    each held-out (dataset, train size) context.
    """
    results = []
    for held_out, ranking, tests in _held_out(
        table, datasets, train_sizes, split, threshold, skip_degenerate
    ):
        recommended = ranking.recommended
        index = table.space.config_index(recommended)
        scores = []
        for ctx, (cell, best) in tests.items():
            raw = cell.get(index)
            if raw is None:
                raise DataError(
                    f"recommended configuration ({recommended}) has no test"
                    f" record on held-out context {ctx}"
                )
            scores.append(
                LooScore(context=ctx, test_score=raw, normalized_test_score=raw / best)
            )
        results.append(
            LooResult(
                held_out_dataset=held_out,
                recommended_config=recommended,
                scores=tuple(scores),
                ranking=ranking,
            )
        )
    return results


def budget_curve(
    table: ScoreTable,
    datasets: Sequence[str] | None = None,
    train_sizes: Sequence[int] | None = None,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    max_budget: int = DEFAULT_MAX_BUDGET,
    split: str = "test",
    normalize_by: str = "test_max",
    skip_degenerate: bool = False,
) -> BudgetCurve:
    """Held-out performance when the practitioner can try k candidates.

    For each held-out (dataset, train size) and each budget k, the top-k
    ranked configurations compete on the held-out validation split; the
    winner's normalized test score enters the curve.  Validation ties break
    toward the earlier ranking position.  Budgets beyond the ranking length
    are clamped and flagged in the detail rows.
    """
    if max_budget < 1:
        raise ValidationError(f"max_budget must be >= 1, got {max_budget}")
    if normalize_by not in NORMALIZE_MODES:
        raise ValidationError(
            f"normalize_by must be one of {NORMALIZE_MODES}, got {normalize_by!r}"
        )

    details: list[BudgetDetail] = []
    per_k: dict[int, list[float]] = {k: [] for k in range(1, max_budget + 1)}
    for _, ranking, tests in _held_out(
        table, datasets, train_sizes, split, threshold, skip_degenerate
    ):
        candidates = [
            (table.space.config_index(e.config), e.config) for e in ranking.top(max_budget)
        ]
        for ctx, (test, test_max) in tests.items():
            val = table.cell(ctx, "validation")
            if not val:
                raise DataError(f"validation split unavailable for context {ctx}")
            if normalize_by == "test_max":
                denominator = test_max
            else:
                denominator = upper_bound(table, ctx).test_score
                if denominator <= 0:
                    raise DataError(
                        f"upper-bound test score is zero for context {ctx};"
                        f" cannot normalize"
                    )
            best, best_val = None, -1.0
            for k in range(1, max_budget + 1):
                if k <= len(candidates):
                    cand_val = val.get(candidates[k - 1][0])
                    if cand_val is not None and cand_val > best_val:
                        best, best_val = candidates[k - 1], cand_val
                if best is None:
                    raise DataError(
                        f"no top-{k} candidate has a validation record on {ctx}"
                    )
                best_id, best_config = best
                test_score = test.get(best_id)
                if test_score is None:
                    raise DataError(
                        f"selected configuration ({best_config}) has no test"
                        f" record on {ctx}"
                    )
                normalized = test_score / denominator
                per_k[k].append(normalized)
                details.append(
                    BudgetDetail(
                        k=k,
                        context=ctx,
                        config=best_config,
                        validation_score=best_val,
                        test_score=test_score,
                        normalized_test_score=normalized,
                        clamped=k > len(candidates),
                    )
                )
    if not details:
        raise DataError("all held-out test contexts are degenerate")
    points = tuple(
        BudgetPoint(k=k, mean_normalized_test_score=math.fsum(vals) / len(vals))
        for k, vals in sorted(per_k.items())
    )
    return BudgetCurve(
        points=points,
        details=tuple(details),
        threshold=threshold,
        split=split,
        normalize_by=normalize_by,
    )


@dataclass(frozen=True)
class CompareRow:
    """One task x train-size row of the protocol comparison report."""

    task: str
    train_size: int
    n_datasets: int
    default_score: float | None
    cbs1_score: float
    upper_bound_score: float

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "train_size": self.train_size,
            "n_datasets": self.n_datasets,
            "default": self.default_score,
            "cbs_1": self.cbs1_score,
            "upper_bound": self.upper_bound_score,
        }


def compare_protocols(
    table: ScoreTable,
    task_map: Mapping[str, str],
    default_config: Configuration | None = None,
    *,
    datasets: Sequence[str] | None = None,
    train_sizes: Sequence[int] | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    split: str = "test",
    skip_degenerate: bool = False,
) -> tuple[CompareRow, ...]:
    """Macro-averaged raw test scores per task and train size.

    Columns: the fixed default configuration (when given), the
    leave-one-out top recommendation, and the per-dataset upper bound.
    Every column averages over the contexts with a leave-one-out score, so
    held-out contexts skipped as degenerate are left out of the row.
    """
    ds, sizes = _select_contexts(table, datasets, train_sizes)
    unknown = sorted(set(ds) - set(task_map))
    if unknown:
        raise DataError(f"dataset(s) missing from task map: {unknown}")

    loo = {
        s.context: s.test_score
        for res in loo_cbs(
            table,
            ds,
            sizes,
            split=split,
            threshold=threshold,
            skip_degenerate=skip_degenerate,
        )
        for s in res.scores
    }

    groups: dict[tuple[str, int], list[Context]] = {}
    for ctx in loo:
        groups.setdefault((task_map[ctx.dataset], ctx.train_size), []).append(ctx)
    rows = []
    for (task, size), contexts in sorted(groups.items()):
        cbs1_scores = [loo[ctx] for ctx in contexts]
        ub_scores = [upper_bound(table, ctx).test_score for ctx in contexts]
        default_score = None
        if default_config is not None:
            fixed = fixed_config_eval(table, default_config, contexts)
            default_score = fixed.macro_map["all"]
        rows.append(
            CompareRow(
                task=task,
                train_size=size,
                n_datasets=len(contexts),
                default_score=default_score,
                cbs1_score=math.fsum(cbs1_scores) / len(cbs1_scores),
                upper_bound_score=math.fsum(ub_scores) / len(ub_scores),
            )
        )
    return tuple(rows)
