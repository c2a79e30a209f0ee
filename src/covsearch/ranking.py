"""Coverage-based ranking of grid-search results.

Per (dataset, train size) context, scores are normalized by the context
maximum, and the configurations strictly above a threshold band form the
context's top set.  Each configuration's score sum adds up its normalized
scores over the contexts where it made the top set.  A configuration covers
a context when it is in that context's top set and no configuration with a
strictly larger score sum is.  The final ranking orders configurations by
how many contexts they cover.

``_ranker`` builds every ranking.  Over the given contexts it builds each
top set once and adds up each dataset's normalized scores per grid id once,
as exact integers: multiples of 2**-1074, the smallest subnormal float.
The pool's sums are the sums of those.  It splits each top set into levels
of equal score sum and files the contexts by their levels: contexts with
the same winners over the whole pool form a winner group, and so on down.
It returns a function that ranks without one dataset.  That function
subtracts the dataset's exact partial sums, which leaves exactly the sum
over the others, and divides once, correctly rounded, so each score sum is
the float that fsum over the others gives.  Only the ids in the held-out
top sets lose sum, and no sum rises, so a winner group's best remaining sum
is one value.  One bisect finds the group's contexts whose runner-up is
below it; they keep the winners tied at it, and only the others go down a
level.  Coverage is a count per id.  The covered contexts are listed only
when the ranking (``CoverageRanking``) is built, on request, reusing any
entry equal to one built for an earlier held-out dataset.  ``rank`` is that
function with nothing held out.  ``protocols._held_out`` calls it once per
dataset: O(D*G + D*(T + W + R + N log N)) for D datasets, G grid points,
top sets of mean size T, W winner groups, R lower levels visited per
held-out dataset, N <= G ids with a score sum, instead of O(D*G + D^2*T)
for visiting every context per held-out dataset.  W and R do not grow with
D where datasets agree on their best configurations; at worst W is the
number of contexts.  Leave-one-out returns the rankings; the budget curve
and the protocol comparison read only the order.

Determinism: contexts are processed in sorted order, configurations in grid
order, and score sums are exact before their one rounding, so equal inputs
yield bit-identical rankings regardless of record order.  Configurations are
handled as grid ids throughout and decoded only into the results.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
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
    _Record,
    _set_field,
    _check_split,
    _check_threshold,
    _select,
    _warn,
)

DEFAULT_THRESHOLD = 0.97


class TopSet(_Record):
    """Configurations within the threshold band of one context's best score.

    Members carry their normalized score and are listed in grid order; the
    context argmax (normalized score exactly 1.0) is always a member.
    ``id_members`` holds them as (grid id, normalized score) pairs.
    """

    def __init__(
        self,
        context: Context,
        split: str,
        threshold: float,
        space: ConfigSpace,
        id_members: tuple[tuple[int, float], ...],
    ) -> None:
        _set_field(self, "context", context)
        _set_field(self, "split", split)
        _set_field(self, "threshold", threshold)
        _set_field(self, "space", space)
        _set_field(self, "id_members", id_members)

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


def _winners(ids: Sequence[int], score_sum: Mapping[int, float]) -> tuple[int, ...]:
    """The ids tied at the maximal score sum among ``ids``.  Over a top set,
    these are the ids that cover its context: no strictly higher-ranked
    member is present, which is the set-difference definition of coverage in
    closed form.  Over one level of it, they are the level's best."""
    sums = list(map(score_sum.__getitem__, ids))
    return tuple(compress(ids, map(max(sums).__eq__, sums)))


# The level after a context's last one.
_LAST = (-math.inf, ())


class _Levels:
    """Pool contexts whose top sets agree on their highest levels of score
    sum, a level being the members tied at one sum.  ``ids`` and ``total``
    are the last of those levels (at the root: no ids, and every context).
    ``contexts`` lists the contexts by the sum of their next level
    (``below``, -inf past their last), ascending, so the contexts of each
    next level are adjacent.  ``own`` holds each dataset's share of
    ``below``, and ``sums`` the next levels' sums.  Each next level is built
    the first time it is reached."""

    def __init__(
        self,
        ids: tuple[int, ...],
        total: float,
        contexts: Iterable[int],
        depth: int,
        levels: Sequence[Sequence[tuple[float, tuple[int, ...]]]],
        datasets: Sequence[str],
    ):
        keyed = sorted((levels[k][depth], k) for k in contexts)
        self.ids, self.total, self.depth = ids, total, depth
        self.contexts = [k for _, k in keyed]
        self.below = [level[0] for level, _ in keyed]
        self.own: dict[str, list[float]] = {}
        for (below, _), k in keyed:
            self.own.setdefault(datasets[k], []).append(below)
        self._next = [
            [level, [k for _, k in group]]
            for level, group in groupby(keyed, itemgetter(0))
            if level is not _LAST
        ]
        self.sums = [level[0] for level, _ in self._next]
        self._levels, self._datasets = levels, datasets

    def next(self, j: int) -> _Levels:
        """The ``j``-th next level, in ``sums`` order."""
        level = self._next[j]
        if isinstance(level, list):
            (total, ids), contexts = level
            level = self._next[j] = _Levels(
                ids, total, contexts, self.depth + 1, self._levels, self._datasets
            )
        return level


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
    levels of score sum are built once, here: contexts in ascending order,
    duplicates dropped, degenerate ones as in ``_usable``."""
    selected = sorted(dict.fromkeys(contexts))  # one linear pass when already in order
    top_sets = _usable(selected, skip_degenerate, lambda c: top_set(table, c, split, threshold))
    # The pool by position, so no Context is hashed per held-out dataset.
    pool, tops = tuple(top_sets), list(top_sets.values())
    datasets = [ctx.dataset for ctx in pool]
    spans, partials = {}, {}  # sorted, the contexts of a dataset are adjacent
    for dataset, group in groupby(range(len(pool)), datasets.__getitem__):
        ks = list(group)
        spans[dataset] = range(ks[0], ks[-1] + 1)
        partials[dataset] = _exact_sums(tops[k] for k in ks)
    totals: Counter[int] = Counter()
    for partial in partials.values():
        totals.update(partial)  # exact integers: the sum does not depend on the order
    sums = {i: totals[i] / _SUM_UNIT for i in sorted(totals)}
    levels = []  # per context, its members tied at each score sum, in descending order
    for top in tops:
        tied: dict[float, list[int]] = {}
        for i, _ in top.id_members:
            tied.setdefault(sums[i], []).append(i)
        levels.append([*sorted(((s, tuple(ids)) for s, ids in tied.items()), reverse=True), _LAST])
    root = _Levels((), math.inf, range(len(pool)), 0, levels, datasets)
    entries: dict[tuple[int, float, tuple[int, ...]], RankingEntry] = {}

    def without(held_out: str | None) -> tuple[list[int], Callable[[], CoverageRanking]]:
        if partials.keys() <= {held_out}:
            raise DataError("all requested contexts are degenerate")
        score_sum = dict(sums)
        partial = partials.get(held_out, {})
        for i, part in partial.items():
            rest = totals[i] - part
            if rest:
                score_sum[i] = rest / _SUM_UNIT
            else:  # each membership adds a positive amount: i is in no other top set
                del score_sum[i]
        # Only the ids in the held-out top sets lose sum, and no sum rises.
        # So contexts sharing their highest levels share their best sum so
        # far, and the ids tied at it; one bisect finds those whose next
        # level is below it, which that sum wins.  Only the others go on to
        # their next level.  Coverage is counted per id here, and listed
        # per context only in ranking().
        count: dict[int, int] = {}
        covers = []  # (contexts, how many of them lead, their winners)
        stack = [(root, -math.inf, ())]
        while stack:
            level, best, won = stack.pop()
            cut = bisect_left(level.below, best)
            n = cut - bisect_left(level.own.get(held_out, ()), best)
            if n:
                covers.append((level.contexts, cut, won))
                for i in won:
                    count[i] = count.get(i, 0) + n
            for j in range(bisect_left(level.sums, best), len(level.sums)):
                nxt = level.next(j)
                if len(nxt.own.get(held_out, ())) == len(nxt.contexts):
                    continue  # held out whole, so its ids may have no sum left
                if partial.keys().isdisjoint(nxt.ids):
                    top, at = nxt.ids, nxt.total
                else:
                    top = _winners(nxt.ids, score_sum)
                    at = score_sum[top[0]]
                if at > best:
                    stack.append((nxt, at, top))
                else:
                    stack.append((nxt, best, won + top if at == best else won))
        # Stable sorts of the ascending ids: by score sum, then by coverage.
        by_sum = sorted(score_sum, key=score_sum.__getitem__, reverse=True)
        ordered = sorted(filter(count.__contains__, by_sum), key=count.__getitem__, reverse=True)
        ordered += filterfalse(count.__contains__, by_sum)

        def ranking() -> CoverageRanking:
            held = spans.get(held_out, range(0))
            covered: dict[int, list[int]] = {}
            for contexts, cut, won in covers:
                leading = list(filterfalse(held.__contains__, contexts[:cut]))
                for i in won:
                    covered.setdefault(i, []).extend(leading)
            coverage = {i: tuple(sorted(ks)) for i, ks in covered.items()}
            built = []
            for i in ordered:
                key = (i, score_sum[i], coverage.get(i, ()))
                entry = entries.get(key)
                if entry is None:  # else built for an earlier held-out dataset
                    cover = frozenset(map(pool.__getitem__, key[2]))
                    entry = entries[key] = RankingEntry(table.space.config_at(i), key[1], cover)
                built.append(entry)
            kept = pool[: held.start] + pool[held.stop :]
            return CoverageRanking(tuple(built), kept, split, threshold)

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
    selected = _select(table, split)[1] if contexts is None else list(contexts)
    _check_threshold(threshold)
    if not selected:
        raise DataError("no contexts to rank over")
    _, ranking = _ranker(table, selected, split, threshold, skip_degenerate)(None)
    return ranking()
