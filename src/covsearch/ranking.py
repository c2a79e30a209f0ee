"""Coverage-based ranking of grid-search results.

Per (dataset, train size) context, scores are normalized by the context
maximum, and the configurations strictly above a threshold band form the
context's top set.  Each configuration's score sum adds up its normalized
scores over the contexts where it made the top set.  A configuration covers
a context when it is in that context's top set and no configuration with a
strictly larger score sum is.  The final ranking orders configurations by
how many contexts they cover.

Determinism: contexts are processed in sorted order, configurations in grid
order, and score sums use exact (fsum) accumulation, so equal inputs yield
bit-identical rankings regardless of record order.  Configurations are
handled as grid ids throughout and decoded only into the results.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .model import (
    ConfigSpace,
    Configuration,
    Context,
    CoverageRanking,
    DataError,
    DegenerateContextError,
    EmptyContextError,
    RankingEntry,
    ScoreTable,
    _check_split,
    _check_threshold,
)

DEFAULT_THRESHOLD = 0.97


@dataclass(frozen=True)
class TopSet:
    """Configurations within the threshold band of one context's best score.

    Members carry their normalized score and are listed in grid order; the
    context argmax (normalized score exactly 1.0) is always a member.
    ``id_members`` holds them as (grid id, normalized score) pairs.
    """

    context: Context
    split: str
    threshold: float
    space: ConfigSpace
    id_members: tuple[tuple[int, float], ...]

    @property
    def members(self) -> tuple[tuple[Configuration, float], ...]:
        return tuple((self.space.config_at(i), sn) for i, sn in self.id_members)

    @property
    def configs(self) -> tuple[Configuration, ...]:
        return tuple(self.space.config_at(i) for i, _ in self.id_members)

    def __len__(self) -> int:
        return len(self.id_members)

    def __contains__(self, config: Configuration) -> bool:
        return config in self.configs


def _cell_and_best(
    table: ScoreTable, context: Context, split: str
) -> tuple[Mapping[int, float], float]:
    """The id-keyed scores of one (context, split) and their maximum, which
    must be positive (EmptyContextError, DegenerateContextError)."""
    _check_split(split)
    cell = table.cell(context, split)
    if not cell:
        raise EmptyContextError(f"empty context: no {split} records for {context}")
    best = max(cell.values())
    if best <= 0:
        raise DegenerateContextError(
            f"degenerate context: all {split} scores are zero for {context}"
        )
    return cell, best


def _usable(
    contexts: Iterable[Context], skip_degenerate: bool, build: Callable[[Context], object]
) -> dict[Context, object]:
    """``build(ctx)`` per context; an all-zero context (DegenerateContextError)
    is an error, or, with ``skip_degenerate``, left out with a warning."""
    built = {}
    for ctx in contexts:
        try:
            built[ctx] = build(ctx)
        except DegenerateContextError:
            if not skip_degenerate:
                raise
            warnings.warn(f"skipping degenerate context {ctx}", stacklevel=3)
    return built


def normalize(
    table: ScoreTable, context: Context, split: str
) -> dict[Configuration, float]:
    """Scores of one (context, split) divided by their maximum.

    The configuration(s) attaining the maximum map to exactly 1.0.  Raises
    EmptyContextError when no records exist and DegenerateContextError when
    the maximum score is zero.
    """
    cell, best = _cell_and_best(table, context, split)
    config_at = table.space.config_at
    return {config_at(i): score / best for i, score in cell.items()}


def top_set(
    table: ScoreTable,
    context: Context,
    split: str,
    threshold: float = DEFAULT_THRESHOLD,
) -> TopSet:
    """Configurations with normalized score strictly above the threshold."""
    _check_threshold(threshold)
    cell, best = _cell_and_best(table, context, split)
    scaled = ((i, score / best) for i, score in cell.items())
    members = tuple(pair for pair in scaled if pair[1] > threshold)
    return TopSet(context, split, threshold, table.space, members)


def rank(
    table: ScoreTable,
    contexts: Iterable[Context] | None = None,
    split: str = "test",
    threshold: float = DEFAULT_THRESHOLD,
    *,
    skip_degenerate: bool = False,
) -> CoverageRanking:
    """Build the coverage ranking over the given contexts.

    ``contexts`` defaults to every context with records for ``split``.
    Degenerate contexts (all-zero scores) are a hard error unless
    ``skip_degenerate`` is set, in which case they are dropped with a
    warning and excluded from the ranking provenance.
    """
    _check_split(split)
    _check_threshold(threshold)
    if contexts is None:
        selected = table.contexts(split)
    else:
        selected = sorted(set(contexts))
    if not selected:
        raise DataError("no contexts to rank over")

    top_sets = _usable(
        selected, skip_degenerate, lambda ctx: top_set(table, ctx, split, threshold)
    )
    if not top_sets:
        raise DataError("all requested contexts are degenerate")

    used = sorted(top_sets)

    # Score sum per grid id over the contexts where it is a top-set member.
    # fsum makes the result independent of accumulation order.
    member_scores: dict[int, list[float]] = {}
    for ctx in used:
        for i, sn in top_sets[ctx].id_members:
            member_scores.setdefault(i, []).append(sn)
    score_sum = {i: math.fsum(vals) for i, vals in member_scores.items()}

    # A configuration covers a context iff it is in the top set and ties the
    # maximal score sum there; no strictly higher-ranked member can then be
    # present, which is the set-difference definition in closed form.
    coverage: dict[int, set[Context]] = {i: set() for i in score_sum}
    for ctx in used:
        best = max(score_sum[i] for i, _ in top_sets[ctx].id_members)
        for i, _ in top_sets[ctx].id_members:
            if score_sum[i] == best:
                coverage[i].add(ctx)

    ordered = sorted(score_sum, key=lambda i: (-len(coverage[i]), -score_sum[i], i))
    config_at = table.space.config_at
    entries = tuple(
        RankingEntry(
            config=config_at(i),
            score_sum=score_sum[i],
            coverage=frozenset(coverage[i]),
        )
        for i in ordered
    )
    return CoverageRanking(
        entries=entries, contexts=tuple(used), split=split, threshold=threshold
    )
