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
from itertools import groupby
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .model import (
    BudgetCurve,
    BudgetDetail,
    BudgetPoint,
    CompareRow,
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
    _check_count,
    _select,
)
# normalize and rank are not called here (held-out scores divide by the cell
# maximum, and _held_out ranks through ranking._Pool); they stay module
# attributes, which perfbench/tracing.py wraps.
from .ranking import (  # noqa: F401
    DEFAULT_THRESHOLD,
    _cell_and_best,
    _Pool,
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
    selected = _select(table, "test")[1] if contexts is None else sorted(dict.fromkeys(contexts))
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


def _cell(table: ScoreTable, context: Context, split: str) -> Mapping[int, float]:
    """The context's cell on ``split``, which must hold a record."""
    cell = table.cell(context, split)
    if not cell:
        raise DataError(f"{split} split unavailable for context {context}")
    return cell


def _selected(val: Mapping[int, float], ids: Iterable[int] | None = None) -> int:
    """Selection on validation: the first of ``ids`` (default: every id of ``val``, in grid
    order) with the highest score in ``val``, skipping ids it lacks; one of them must be in it."""
    candidates = val if ids is None else filter(val.__contains__, ids)
    return max(candidates, key=val.__getitem__)


def _test_score(
    table: ScoreTable, pick: int, test: Mapping[int, float], ctx: Context, role: str, held_out=False
) -> float:
    """The ``role`` configuration's (grid id ``pick``'s) score in ``ctx``'s test cell."""
    score = test.get(pick)
    if score is None:
        where = f"held-out context {ctx}" if held_out else ctx
        raise DataError(
            f"{role} configuration ({table.space.config_at(pick)}) has no test record on {where}"
        )
    return score


def upper_bound(table: ScoreTable, context: Context) -> UpperBoundResult:
    """Validation argmax of one context, reported on its test split.

    Validation ties break toward the configuration earliest in grid order.
    """
    val = _cell(table, context, "validation")
    test = _cell(table, context, "test")
    best = _selected(val)
    return UpperBoundResult(
        context=context,
        config=table.space.config_at(best),
        validation_score=val[best],
        test_score=_test_score(table, best, test, context, "validation-selected"),
    )


# A held-out dataset's test contexts, each mapped to its cell and the cell's maximum.
_Tests = Mapping[Context, tuple[Mapping[int, float], float]]


def _held_out(
    table: ScoreTable,
    datasets: Sequence[str] | None,
    train_sizes: Sequence[int] | None,
    split: str,
    threshold: float,
    skip_degenerate: bool,
) -> Iterator[tuple[str, list[int], Callable[[], CoverageRanking], _Tests]]:
    """For each selected dataset in name order: the dataset, the grid ids of
    the coverage ranking over every other dataset's contexts (all requested
    train sizes together) in ranking order, a function that builds that
    ranking, and the dataset's own test contexts, each mapped to its test
    cell and that cell's maximum.  Both sets of contexts are selected once,
    then split by dataset; ``skip_degenerate`` applies to both.

    The order is ``ranking._Pool.order``'s without the held-out dataset, the
    order of the ranking ``rank`` gives over the other datasets' contexts;
    only a caller that returns the ranking builds it.  The pool builds every
    top set before the first dataset is yielded, so a degenerate pool
    context raises (or warns) once; ``order`` raises if no context remains."""
    names, pool = _select(table, split, datasets, train_sizes)
    if len(names) < 2:
        raise DataError("leave-one-out requires at least 2 datasets")
    _, tested = _select(table, "test", names, train_sizes)  # sorted: by dataset first
    tests = {dataset: list(group) for dataset, group in groupby(tested, attrgetter("dataset"))}
    order = _Pool(table, pool, split, threshold, skip_degenerate).order
    for held_out in names:
        ordered, ranking = order(held_out)
        held_out_contexts = tests.get(held_out)
        if not held_out_contexts:
            raise DataError(
                f"held-out dataset {held_out!r} has no test records for the"
                f" requested train sizes"
            )
        yield held_out, ordered, ranking, _usable(
            held_out_contexts, skip_degenerate, lambda ctx: _cell_and_best(table, ctx, "test")
        )


def _held_out_scores(table: ScoreTable, recommended: int, tests: _Tests) -> tuple[LooScore, ...]:
    """The raw and normalized test scores of the recommended grid id on each
    held-out test context."""
    scores = []
    for ctx, (cell, best) in tests.items():
        raw = _test_score(table, recommended, cell, ctx, "recommended", held_out=True)
        scores.append(LooScore(context=ctx, test_score=raw, normalized_test_score=raw / best))
    return tuple(scores)


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
    return [
        LooResult(
            held_out_dataset=held_out,
            recommended_config=table.space.config_at(ordered[0]),
            scores=_held_out_scores(table, ordered[0], tests),
            ranking=ranking(),
        )
        for held_out, ordered, ranking, tests in _held_out(
            table, datasets, train_sizes, split, threshold, skip_degenerate
        )
    ]


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
    _check_count("max_budget", max_budget)
    if normalize_by not in NORMALIZE_MODES:
        raise ValidationError(
            f"normalize_by must be one of {NORMALIZE_MODES}, got {normalize_by!r}"
        )

    by_upper_bound = normalize_by == "upper_bound"
    details: list[BudgetDetail] = []
    per_k: dict[int, list[float]] = {k: [] for k in range(1, max_budget + 1)}
    for _, ordered, _, tests in _held_out(
        table, datasets, train_sizes, split, threshold, skip_degenerate
    ):
        top = ordered[:max_budget]
        for ctx, (test, test_max) in tests.items():
            val = _cell(table, ctx, "validation")
            denominator = upper_bound(table, ctx).test_score if by_upper_bound else test_max
            if denominator <= 0:  # only an upper bound can be: a test maximum is positive
                raise DataError(
                    f"upper-bound test score is zero for context {ctx}; cannot normalize"
                )
            if top[0] not in val:  # every longer prefix holds top[0], so only k = 1 can fail
                raise DataError(f"no top-1 candidate has a validation record on {ctx}")
            picks, k = [], max_budget
            while k:  # the winner of top[:k] also wins each shorter prefix that holds it
                best = _selected(val, top[:k])
                picks.append((best, k))
                k = top.index(best)
            for best, last in reversed(picks):  # best wins each budget from its own rank to last
                config, best_val = table.space.config_at(best), val[best]
                test_score = _test_score(table, best, test, ctx, "validation-selected")
                normalized = test_score / denominator
                for k in range(top.index(best) + 1, last + 1):
                    per_k[k].append(normalized)
                    details.append(
                        BudgetDetail(k, ctx, config, best_val, test_score, normalized, k > len(top))
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
    names, _ = _select(table, split, datasets, train_sizes)
    unknown = sorted(set(names) - set(task_map))
    if unknown:
        raise DataError(f"dataset(s) missing from task map: {unknown}")

    loo = {
        s.context: s.test_score
        for _, ordered, _, tests in _held_out(
            table, names, train_sizes, split, threshold, skip_degenerate
        )
        for s in _held_out_scores(table, ordered[0], tests)
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
            default_score = fixed_config_eval(table, default_config, contexts).macro_map["all"]
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
