"""Cross-dataset consistency analysis of hyperparameter preferences.

For each dataset, the configurations within the top band of its grid
results (normalized score strictly above a threshold, 0.95 here by default)
vote for their hyperparameter values; the votes form one value-frequency
vector per dataset.  A hyperparameter whose vectors agree across datasets
has a consistent preferred setting; one whose vectors diverge rewards
dataset-specific tuning.

Agreement is summarized as ``js_score``: 1 minus the mean pairwise
Jensen-Shannon distance (square root of the base-2 divergence, so every
distance lies in [0, 1]).  Significance comes from a permutation test that
reshuffles the pooled top-set memberships across datasets.

Reproducibility recipe (fixed, so independent implementations can match
bit for bit):

* Datasets are processed in ascending name order; within a dataset, top-set
  members are pooled in grid order, train sizes ascending when combined.
* Permutation ``i`` (0-based) draws ``order = numpy.random.default_rng(
  (seed, i)).permutation(len(pool))`` from a fresh PCG64 generator seeded
  with SeedSequence((seed, i)).  The order does not depend on the
  hyperparameter, so a report draws it once and deals it for every one.
* The permuted pool ``[pool[j] for j in order]`` is dealt back to datasets
  in ascending name order, each receiving as many members as its original
  top set held.
* ``js_pval`` is the fraction of permutations whose score is strictly
  greater than the observed score; ties do not count.
* Each distance's relative entropies come from ``scipy.special.rel_entr``,
  whose bits follow the platform libm: for x, y > 0 it is
  ``x * log1p((x - y) / y)`` when 0.5 < x / y < 2 and ``x * log(x / y)``
  otherwise, and 0 for x == 0 (scipy 1.17.1; ``tests/test_importance.py``
  pins it).  A scipy with another formula, or another libm, can move
  ``js_score`` in its last bits.

Permutations are decided a chunk at a time.  A chunk is a (permutations x
pool) block of orders, bounded by ``_CHUNK_ELEMENTS``; each hyperparameter
deals it with one ``bincount`` and gets every dataset pair's distance from
one ``js_distance`` call, each equal to the one the function gives for that
pair alone.  A permutation counts when its score beats the observed one.
numpy's sum of its distances bounds their exact sum within a proven factor,
and only a score too close to the observed one to tell apart that way is
summed again with ``math.fsum``, so every decision, and so every p-value, is
the recipe's bit for bit.  A hyperparameter with one value deals the same
vectors in every permutation, so none is greater and its p-value is 0
without a permutation being scored.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .model import (
    ConfigSpace,
    Configuration,
    Context,
    DataError,
    HpImportance,
    Hyperparameter,
    ImportanceReport,
    ScoreTable,
    ValidationError,
    _check_count,
    _check_seed,
)
from .protocols import _select_contexts
from .ranking import TopSet, top_set

DEFAULT_THRESHOLD = 0.95
DEFAULT_PERMUTATIONS = 100

_LN2 = math.log(2.0)

# Elements per temporary array of one chunk of permutations (pool slots, or
# dataset pairs x domain size, per permutation), so memory stays flat in the
# number of permutations.  A chunk holds at least one permutation, so past
# this budget the temporaries grow with one permutation's pool and pairs.
# Each chunk costs every hyperparameter a fixed few dozen numpy calls, and
# the orders and one deal hold 16 bytes per pool slot: 100 permutations of a
# 1,098-slot pool take four chunks of 25 at this budget, about 0.45 MB,
# against eight chunks and 0.25 MB at 1 << 14.
_CHUNK_ELEMENTS = 1 << 15

# numpy and scipy.special take about a quarter of a second to import and
# only the distance and the permutation test use them, so they are bound on
# first use instead of at import time, which every CLI command would pay.
np = rel_entr = None


def _load_numeric() -> None:
    global np, rel_entr
    import numpy as np
    from scipy.special import rel_entr


def top_set_95(table: ScoreTable, context: Context, split: str = "test") -> TopSet:
    """Top set at the 0.95 band used by the consistency analysis.

    Thresholding raw scores against 0.95 times the maximum is the same as
    thresholding normalized scores strictly above 0.95.
    """
    return top_set(table, context, split, threshold=DEFAULT_THRESHOLD)


def value_distribution(
    members: TopSet | Iterable[Configuration], hp: Hyperparameter
) -> tuple[float, ...]:
    """Relative frequency of each domain value among top-set members.

    Indexed by domain order; entries for unused values are exactly 0.
    Membership lists from combined train sizes may repeat configurations,
    and repeats count once per occurrence.
    """
    configs = members.configs if isinstance(members, TopSet) else tuple(members)
    if not configs:
        raise DataError("cannot build a value distribution from an empty top set")
    counts = [0] * len(hp.domain)
    for cfg in configs:
        counts[hp.index(cfg.get(hp.name))] += 1
    return tuple(c / len(configs) for c in counts)


def _pair_distances(vectors, pairs):
    """One row of dataset-pair distances per (datasets, values) stack on the
    last two axes; ``pairs`` is ``np.triu_indices(datasets, 1)``."""
    i, j = pairs
    return js_distance(vectors[..., i, :], vectors[..., j, :]).reshape(-1, len(i))


def _js_score(vectors, pairs) -> float:
    (row,) = _pair_distances(vectors, pairs).tolist()
    return 1.0 - math.fsum(row) / len(row)


def _count_greater(distances, score: float) -> int:
    """How many rows of non-negative distances have ``1.0 - math.fsum(row) /
    n > score``, n the row length; equal to counting that way, bit for bit.

    Let S be a row's exact sum, F = fsum(row) its correct rounding and A
    numpy's sum, with u = 2**-53.  Each term reaches A through at most n - 1
    rounded additions of non-negative numbers, each off by a factor within
    [1 - u, 1 + u], so S(1-u)**(n-1) <= A <= S(1+u)**(n-1).  ``slack`` is
    exact (n < 2**49), and 1 + 8nu exceeds both (1+u)/(1-u)**n and
    (1+u)**n/(1-u) with room to spare, so even after the rounding of the
    product and the quotient, fl(A*slack) >= F >= fl(A/slack).  (If S is
    below 2**-1022, every partial sum is exact and A = F = S, so monotone
    rounding gives both bounds alone; otherwise a quotient rounded just
    below 2**-1022 is still within a relative u(1 + 9nu), inside the room.)
    Both steps of g(x) = 1.0 - x / n round monotonically, so g never
    increases with x: g(fl(A*slack)) > score implies g(F) > score, and
    g(fl(A/slack)) <= score implies g(F) <= score.  Only rows that neither
    bound decides go to fsum.
    """
    n = distances.shape[1]
    slack = 1.0 + 8 * n * 2.0**-53
    approx = distances.sum(1)
    greater = 1.0 - approx * slack / n > score
    unsure = ~greater & (1.0 - approx / slack / n > score)
    return int(greater.sum()) + sum(
        1.0 - math.fsum(row) / n > score for row in distances[unsure].tolist()
    )


def js_distance(p, q):
    """Base-2 Jensen-Shannon distance between two probability vectors.

    The square root of the base-2 divergence, so values lie in [0, 1];
    identical vectors give exactly 0 and disjoint supports exactly 1.
    The 0 * log 0 = 0 convention applies.  Two vectors give a float; two
    equal-shape stacks give an array of the distances between the vectors
    on their last axis, each equal to the two-vector result.
    """
    _load_numeric()
    # C order sums each vector's entries in the order a lone vector's are.
    a, b = np.ascontiguousarray(p, dtype=float), np.ascontiguousarray(q, dtype=float)
    if a.shape != b.shape:
        raise ValidationError("probability vectors must have equal length")
    m = 0.5 * (a + b)
    divergence = 0.5 * (rel_entr(a, m).sum(-1) + rel_entr(b, m).sum(-1)) / _LN2
    distances = np.sqrt(np.clip(divergence, 0.0, 1.0))  # clamp rounding noise
    return float(distances) if distances.ndim == 0 else distances


def js_score(vectors: Sequence[Sequence[float]]) -> float:
    """1 minus the mean pairwise Jensen-Shannon distance.

    1.0 means every dataset prefers the same value distribution; 0.0 means
    pairwise-disjoint preferences.  fsum accumulation makes the result
    independent of the pair enumeration order.
    """
    if len(vectors) < 2:
        raise DataError("need at least two datasets to compare distributions")
    if len({len(v) for v in vectors}) > 1:
        raise ValidationError("probability vectors must have equal length")
    _load_numeric()
    return _js_score(np.asarray(vectors, dtype=float), np.triu_indices(len(vectors), 1))


def _pools(
    table: ScoreTable,
    datasets: Sequence[str] | None,
    train_size: int | None,
    combine_train_sizes: bool,
    split: str,
    threshold: float,
    permutations: int,
    seed: int,
) -> tuple[tuple[int, ...], dict[str, list[int]]]:
    """Check the permutation test's arguments; return the train sizes and the
    per-dataset top-set memberships as grid ids, in the documented pool
    order, that every hyperparameter's test shares."""
    _check_count("permutations", permutations)
    _check_seed(seed)
    available = table.train_sizes()
    if not available:
        raise DataError("score table has no records")
    if combine_train_sizes:
        if train_size is not None:
            raise ValidationError("train_size and combine_train_sizes are exclusive")
        sizes = tuple(available)
    elif train_size is not None:
        sizes = tuple(_select_contexts(table, None, [train_size])[1])
    elif len(available) == 1:
        sizes = (available[0],)
    else:
        raise DataError(
            f"table has several train sizes {available}; pass train_size or"
            f" combine_train_sizes=True"
        )
    names, _ = _select_contexts(table, datasets, None)
    if len(names) < 2:
        raise DataError("need at least two datasets to compare distributions")
    pools = {
        d: [i for m in sizes for i, _ in top_set(table, Context(d, m), split, threshold).id_members]
        for d in names
    }
    return sizes, pools


def _permutation_test(
    space: ConfigSpace,
    pools: dict[str, list[int]],
    hps: Sequence[Hyperparameter],
    permutations: int,
    seed: int,
) -> list[tuple[tuple[tuple[float, ...], ...], float, float]]:
    """Per hyperparameter of ``hps``: its per-dataset value distributions
    (datasets in name order), their js_score and its p-value.  Each
    permutation order is drawn once and dealt for every hyperparameter
    with more than one value."""
    _load_numeric()
    names = sorted(pools)
    ids = np.array([index for d in names for index in pools[d]], dtype=np.intp)
    counts = np.array([len(pools[d]) for d in names])
    owner = np.repeat(np.arange(len(names)), counts)  # dataset of each pool slot
    values = [space.value_positions(hp.name, ids) for hp in hps]
    pairs = np.triu_indices(len(names), 1)

    def deal(k, orders):  # distributions of hps[k], one (datasets, V) per row of orders
        width = len(hps[k].domain)
        cells = len(names) * width  # bins of one row: its datasets' value counts
        bins = values[k][orders]  # a copy, added to in place: one temporary of the orders shape
        bins += owner * width
        bins += np.arange(len(orders))[:, None] * cells
        dealt = np.bincount(bins.ravel(), minlength=len(orders) * cells)
        return dealt.reshape(len(orders), len(names), width) / counts[:, None]

    # The pool as pooled is the identity order.
    observed = [deal(k, np.arange(len(ids))[None, :]) for k in range(len(hps))]
    scores = [_js_score(vectors, pairs) for vectors in observed]
    # Every deal of a one-valued hyperparameter gives each dataset (1.0,), as
    # the observed pool does, so each permuted score ties the observed one.
    tested = [k for k, hp in enumerate(hps) if len(hp.domain) > 1]
    widest = max(len(hp.domain) for hp in hps)
    most = max(1, _CHUNK_ELEMENTS // max(len(ids), len(pairs[0]) * widest))
    chunk = -(-permutations // -(-permutations // most))  # fewest chunks, filled evenly
    greater = [0] * len(hps)
    for start in range(0, permutations, chunk):
        stop = min(start + chunk, permutations)
        orders = np.stack([np.random.default_rng((seed, i)).permutation(len(ids))
                           for i in range(start, stop)])
        for k in tested:
            greater[k] += _count_greater(_pair_distances(deal(k, orders), pairs), scores[k])
    return [(tuple(map(tuple, vectors[0].tolist())), score, g / permutations)
            for vectors, score, g in zip(observed, scores, greater)]


def permutation_pval(
    table: ScoreTable,
    hp_name: str,
    datasets: Sequence[str] | None = None,
    train_size: int | None = None,
    *,
    split: str = "test",
    threshold: float = DEFAULT_THRESHOLD,
    permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
    combine_train_sizes: bool = False,
) -> tuple[float, float]:
    """Observed js_score of one hyperparameter and its permutation p-value.

    Deterministic for a fixed seed; the permutations depend only on
    (seed, permutation index), never on the hyperparameter, so analyses of
    different hyperparameters under one seed share the same reshuffles.
    """
    hp = table.space.hyperparameter(hp_name)
    _, pools = _pools(
        table, datasets, train_size, combine_train_sizes, split, threshold,
        permutations, seed,
    )
    return _permutation_test(table.space, pools, [hp], permutations, seed)[0][1:]


def importance_report(
    table: ScoreTable,
    datasets: Sequence[str] | None = None,
    train_size: int | None = None,
    *,
    split: str = "test",
    threshold: float = DEFAULT_THRESHOLD,
    permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
    combine_train_sizes: bool = False,
) -> ImportanceReport:
    """Consistency entry for every hyperparameter of the table's space.

    Entries keep the space's declaration order.  The per-dataset pools
    and the permutation orders are built once and shared by every
    hyperparameter's test.  Invalid arguments raise before any work.
    """
    sizes, pools = _pools(
        table, datasets, train_size, combine_train_sizes, split, threshold,
        permutations, seed,
    )
    hps, names = table.space.hyperparameters, tuple(sorted(pools))
    tests = _permutation_test(table.space, pools, hps, permutations, seed)
    return ImportanceReport(
        entries=tuple(HpImportance(hp.name, names, *test) for hp, test in zip(hps, tests)),
        threshold=threshold,
        permutations=permutations,
        seed=seed,
        split=split,
        train_sizes=sizes,
        datasets=names,
    )
