"""Coverage-based ranking of grid-search results.

Per (dataset, train size) context, scores are normalized by the context
maximum, and the configurations strictly above a threshold band form the
context's top set.  Each configuration's score sum adds up its normalized
scores over the contexts where it made the top set.  A configuration covers
a context when it is in that context's top set and no configuration with a
strictly larger score sum is.  The final ranking orders configurations by
how many contexts they cover.

``_ranker`` builds every ranking.  Over the given contexts it builds each
top set once and adds each grid id's normalized scores once, as exact
integers: multiples of 2**-1074, the smallest subnormal float.  It returns a
function that ranks without one dataset.  That function subtracts the
dataset's exact partial sums, which leaves exactly the sum over the others,
and divides once, correctly rounded, so each score sum is the float that
fsum over the others gives.  The coverage step (``_coverage``) then runs
over the other datasets' top sets.  ``rank`` is that function with nothing
held out, and ``protocols._held_out`` calls it once per dataset: O(D*G +
D^2*T) for D datasets, G grid points and top sets of mean size T, instead
of O(D^2*G) for one ``rank`` per held-out dataset.

Determinism: contexts are processed in sorted order, configurations in grid
order, and score sums are exact before their one rounding, so equal inputs
yield bit-identical rankings regardless of record order.  Configurations are
handled as grid ids throughout and decoded only into the results.
"""

from __future__ import annotations

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
    _warn,
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
    contexts: Iterable[Context],
    skip_degenerate: bool,
    build: Callable[[Context], object],
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
            _warn(f"skipping degenerate context {ctx}")
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


# Every float is an integer multiple of 2**-1074, the smallest subnormal.
_SUM_UNIT = 1 << 1074


def _exact_sums(top_sets: Iterable[TopSet]) -> dict[int, int]:
    """The score-sum step: each member id's normalized scores summed over
    ``top_sets`` exactly, as an integer multiple of 1 / ``_SUM_UNIT``.

    No addition, nor the subtraction of a partial sum, rounds.  Dividing by
    ``_SUM_UNIT`` (int true division) rounds once, correctly, as fsum does,
    so the float sum does not depend on accumulation order.
    """
    sums: dict[int, int] = {}
    for top in top_sets:
        for i, sn in top.id_members:
            n, d = sn.as_integer_ratio()  # d is a power of two up to 2**1074
            sums[i] = sums.get(i, 0) + (n << (1075 - d.bit_length()))
    return sums


def _coverage(
    space: ConfigSpace,
    top_sets: Mapping[Context, TopSet],
    score_sum: Mapping[int, float],
    split: str,
    threshold: float,
) -> CoverageRanking:
    """The coverage step: the ranking over ``top_sets``, given the score sum
    of exactly the ids that are members of them."""
    # A configuration covers a context iff it is in the top set and ties the
    # maximal score sum there; no strictly higher-ranked member can then be
    # present, which is the set-difference definition in closed form.
    coverage: dict[int, set[Context]] = {i: set() for i in score_sum}
    for ctx, top in top_sets.items():
        best = max(score_sum[i] for i, _ in top.id_members)
        for i, _ in top.id_members:
            if score_sum[i] == best:
                coverage[i].add(ctx)

    ordered = sorted(score_sum, key=lambda i: (-len(coverage[i]), -score_sum[i], i))
    config_at = space.config_at
    entries = tuple(
        RankingEntry(
            config=config_at(i),
            score_sum=score_sum[i],
            coverage=frozenset(coverage[i]),
        )
        for i in ordered
    )
    return CoverageRanking(
        entries=entries, contexts=tuple(top_sets), split=split, threshold=threshold
    )


def _ranker(
    table: ScoreTable,
    contexts: Iterable[Context],
    split: str,
    threshold: float,
    skip_degenerate: bool,
) -> Callable[[str | None], CoverageRanking]:
    """The ranking over ``contexts`` without one dataset (``None``: none), as a
    function of that dataset.  Top sets and exact sums are built once, here:
    contexts in ascending order, duplicates dropped, degenerate ones as in
    ``_usable``."""
    selected = sorted(dict.fromkeys(contexts))  # one linear pass when already in order
    top_sets = _usable(selected, skip_degenerate, lambda c: top_set(table, c, split, threshold))
    totals = _exact_sums(top_sets.values())
    sums = {i: total / _SUM_UNIT for i, total in totals.items()}

    def without(held_out: str | None) -> CoverageRanking:
        others = {ctx: top for ctx, top in top_sets.items() if ctx.dataset != held_out}
        if not others:
            raise DataError("all requested contexts are degenerate")
        score_sum = dict(sums)
        partial = _exact_sums(top for ctx, top in top_sets.items() if ctx.dataset == held_out)
        for i, part in partial.items():
            rest = totals[i] - part
            if rest:
                score_sum[i] = rest / _SUM_UNIT
            else:  # each membership adds a positive amount: i is in no other top set
                del score_sum[i]
        return _coverage(table.space, others, score_sum, split, threshold)

    return without


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
    selected = table.contexts(split) if contexts is None else list(contexts)
    if not selected:
        raise DataError("no contexts to rank over")
    return _ranker(table, selected, split, threshold, skip_degenerate)(None)
