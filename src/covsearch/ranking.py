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
integers: multiples of 2**-1074, the smallest subnormal float.  It also
finds each context's winners over the whole pool once.  It returns a
function that ranks without one dataset.  That function subtracts the
dataset's exact partial sums, which leaves exactly the sum over the others,
and divides once, correctly rounded, so each score sum is the float that
fsum over the others gives.  Only the ids in the held-out top sets lose
sum, so it redoes the coverage step only for contexts where one of them
was a winner.  It returns the ranked ids in order and builds the ranking
(``CoverageRanking``) only on request, reusing any entry equal to one built
for an earlier held-out dataset.  ``rank`` is that function with nothing
held out.  ``protocols._held_out`` calls it once per dataset: O(D*G +
D^2*T) for D datasets, G grid points and top sets of mean size T, instead
of O(D^2*G) for one ``rank`` per held-out dataset.  Leave-one-out returns
the rankings; the budget curve and the protocol comparison read only the
order.

Determinism: contexts are processed in sorted order, configurations in grid
order, and score sums are exact before their one rounding, so equal inputs
yield bit-identical rankings regardless of record order.  Configurations are
handled as grid ids throughout and decoded only into the results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, filterfalse, groupby
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

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


def _winners(ids: Sequence[int], score_sum: Mapping[int, float], floor=-math.inf) -> list[int]:
    """The ids tied at the maximal score sum among ``ids``, or none if that
    sum is not above ``floor``.  Over a top set, these are the ids that cover
    its context: no strictly higher-ranked member is present, which is the
    set-difference definition of coverage in closed form."""
    sums = list(map(score_sum.__getitem__, ids))
    best = max(sums)
    return list(compress(ids, map(best.__eq__, sums))) if best > floor else []


def _ranker(
    table: ScoreTable,
    contexts: Iterable[Context],
    split: str,
    threshold: float,
    skip_degenerate: bool,
) -> Callable[[str | None], tuple[list[int], Callable[[], CoverageRanking]]]:
    """The ranking over ``contexts`` without one dataset (``None``: none), as a
    function of that dataset: its ids in ranking order, and a function that
    builds the ranking itself.  Top sets, exact sums and each context's
    winners are built once, here: contexts in ascending order, duplicates
    dropped, degenerate ones as in ``_usable``."""
    selected = sorted(dict.fromkeys(contexts))  # one linear pass when already in order
    top_sets = _usable(selected, skip_degenerate, lambda c: top_set(table, c, split, threshold))
    # The pool by position, so no Context is hashed per held-out dataset.
    pool, tops = list(top_sets), list(top_sets.values())
    datasets = [ctx.dataset for ctx in pool]
    members = [tuple(i for i, _ in top.id_members) for top in tops]
    totals = _exact_sums(tops)
    partials = {  # sorted, the contexts of a dataset are adjacent
        dataset: _exact_sums(top for _, top in group)
        for dataset, group in groupby(zip(datasets, tops), itemgetter(0))
    }
    sums = {i: totals[i] / _SUM_UNIT for i in sorted(totals)}
    winners = [_winners(ids, sums) for ids in members]
    runner_up = [  # the largest sum below the winners'
        max((sums[i] for i in ids if i not in won), default=-math.inf)
        for ids, won in zip(members, winners)
    ]
    entries: dict[tuple[int, float, tuple[int, ...]], RankingEntry] = {}

    def without(held_out: str | None) -> tuple[list[int], Callable[[], CoverageRanking]]:
        kept = [k for k, dataset in enumerate(datasets) if dataset != held_out]
        if not kept:
            raise DataError("all requested contexts are degenerate")
        score_sum = dict(sums)
        partial = partials.get(held_out, {})
        for i, part in partial.items():
            rest = totals[i] - part
            if rest:
                score_sum[i] = rest / _SUM_UNIT
            else:  # each membership adds a positive amount: i is in no other top set
                del score_sum[i]
        # Only the ids in the held-out top sets lose sum, so a context keeps
        # its winners unless one of them is such an id, and even then the
        # best of them, if still above the runner-up's sum.
        coverage: dict[int, list[int]] = {}
        for k in kept:
            won = winners[k]
            if not partial.keys().isdisjoint(won):
                won = _winners(won, score_sum, runner_up[k]) or _winners(members[k], score_sum)
            for i in won:
                coverage.setdefault(i, []).append(k)
        # Stable sorts of the ascending ids: by score sum, then by coverage.
        by_sum = sorted(score_sum, key=score_sum.__getitem__, reverse=True)
        covered = filter(coverage.__contains__, by_sum)
        ordered = sorted(covered, key=lambda i: len(coverage[i]), reverse=True)
        ordered += filterfalse(coverage.__contains__, by_sum)

        def ranking() -> CoverageRanking:
            built = []
            for i in ordered:
                key = (i, score_sum[i], tuple(coverage.get(i, ())))
                if key not in entries:  # else built for an earlier held-out dataset
                    cover = frozenset(pool[k] for k in key[2])
                    entries[key] = RankingEntry(table.space.config_at(i), score_sum[i], cover)
                built.append(entries[key])
            return CoverageRanking(tuple(built), tuple(pool[k] for k in kept), split, threshold)

        return ordered, ranking

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
    _, ranking = _ranker(table, selected, split, threshold, skip_degenerate)(None)
    return ranking()
