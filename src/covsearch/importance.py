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
  ``_permutation`` draws the same order on plain ints, from ``seed`` and
  ``i`` as 32-bit words, low word first.
* The permuted pool ``[pool[j] for j in order]`` is dealt back to datasets
  in ascending name order, each receiving as many members as its original
  top set held.
* ``js_pval`` is the fraction of permutations whose score is strictly
  greater than the observed score; ties do not count.
* Each distance's relative entropies follow ``scipy.special.rel_entr``
  (scipy 1.17.1), whose bits follow the platform libm: for x, y > 0 it is
  ``x * log1p((x - y) / y)`` when 0.5 < x / y < 2 and ``x * log(x / y)``
  otherwise, and 0 for x == 0.  ``_rel_entr`` is that formula with its
  special cases, on ``math.log`` and ``math.log1p``, which call the same
  libm; ``tests/test_importance.py`` pins it to scipy bit for bit.  Another
  libm can move ``js_score`` in its last bits.

Permutations are decided a chunk at a time.  A chunk is a (permutations x
pool) block of orders, bounded by ``_CHUNK_ELEMENTS``; each hyperparameter
deals it with one ``bincount`` into value-leading (values, permutations,
datasets) distributions, and ``_distance_bounds`` brackets every dataset
pair's exact distance with numpy's vectorised ``log`` in one call.  A
permutation counts when its score beats the observed one.  The bounds,
summed with numpy, place most permutations above or below the observed
score with proof; only the rest get their exact distances from
``js_distance``, summed with ``math.fsum``, so every decision, and so
every p-value, is the recipe's bit for bit.  A hyperparameter with one
value deals the same vectors in every permutation, so none is greater and
its p-value is 0 without a permutation being scored.

A run too small to repay numpy's import, while numpy is not yet imported,
and any run where numpy cannot be imported, takes ``_pure_permutation_test``
instead, which scores every permutation exactly on plain floats and returns
the chunked path's results bit for bit.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections import Counter
from contextlib import suppress
from math import inf, log, log1p, nan
from typing import Iterable, Sequence

from .model import (
    ConfigSpace,
    Configuration,
    DataError,
    HpImportance,
    Hyperparameter,
    ImportanceReport,
    ScoreTable,
    ValidationError,
    _check_count,
    _check_seed,
    _select,
    _warn,
)
from .ranking import TopSet, top_set

DEFAULT_THRESHOLD = 0.95
DEFAULT_PERMUTATIONS = 100

_LN2 = math.log(2.0)
_TINY = sys.float_info.min

# A relative error that numpy's float64 ``log`` and libm's ``log`` and
# ``log1p`` are trusted to stay within, against the true logarithm (they are
# within about one ulp, 2**-52); ``_distance_bounds`` rests on it and
# ``tests/test_importance.py`` pins it.
_LOG_ERROR = 2.0**-40

# Elements per temporary array of one chunk of permutations (pool slots, or
# dataset pairs x domain size, per permutation), so memory stays flat in the
# number of permutations.  A chunk holds at least one permutation, so past
# this budget the temporaries grow with one permutation's pool and pairs.
# Each chunk costs every hyperparameter a fixed few dozen numpy calls, and
# the orders and one deal hold 16 bytes per pool slot: 100 permutations of a
# 1,098-slot pool take four chunks of 25 at this budget, about 0.45 MB,
# against eight chunks and 0.25 MB at 1 << 14.
_CHUNK_ELEMENTS = 1 << 15

# numpy.random takes 90-140 ms to import and only the distance and the
# chunked permutation test use it, so it is bound on first use instead of at
# import time, which every CLI command would pay.  A run with numpy not yet
# imported and work, permutations x (pool + dataset pairs x summed domain
# sizes of the tested hyperparameters), within this budget takes the
# pure-Python test, at 0.8-3.4 us a unit: at most about 55 ms.
_PURE_WORK = 1 << 14
np = None

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit multiplier


def _load_numeric() -> None:
    global np
    import numpy as np


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
    return tuple(_shares([hp.index(cfg.get(hp.name)) for cfg in configs], len(hp.domain)))


def _shares(positions: list[int], width: int) -> list[float]:
    """Share of each domain position 0..width-1 among ``positions``."""
    counts = Counter(positions)
    return [counts[v] / len(positions) for v in range(width)]


def _rel_entr(x: float, y: float) -> float:
    """``scipy.special.rel_entr(x, y)`` bit for bit: the formula and special
    cases of scipy 1.17.1 on the same libm ``log`` and ``log1p``."""
    if x > 0 and y > 0:
        ratio = x / y
        if 0.5 < ratio < 2:
            return x * log1p((x - y) / y)
        if _TINY < ratio < inf:
            return x * log(ratio)
        return x * (log(x) - log(y))  # the ratio under- or overflows
    if x == 0 and y >= 0:
        return 0.0
    return nan if x != x or y != y else inf


def _add_reduce(terms: list[float]) -> float:
    """``np.add.reduce`` of a list of floats, bit for bit: numpy adds, to its
    identity 0.0, a pairwise sum that splits runs over 128 at a multiple of 8
    near their middle and sums each run with eight strided accumulators."""
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _add_reduce(terms[:half]) + _add_reduce(terms[half:])
    total, stop = 0.0, n - n % 8
    if stop:
        acc = terms[:8]
        for start in range(8, stop, 8):
            acc = [a + b for a, b in zip(acc, terms[start:start + 8])]
        total += ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for term in terms[stop:]:
        total += term
    return total


def _distance(p: list[float], q: list[float]) -> float:
    """``js_distance(p, q)`` bit for bit, on lists of floats."""
    m = [0.5 * (x + y) for x, y in zip(p, q)]
    sums = _add_reduce(list(map(_rel_entr, p, m))) + _add_reduce(list(map(_rel_entr, q, m)))
    return math.sqrt(min(max(0.5 * sums / _LN2, 0.0), 1.0))


def _rel_entrs(x, y):
    """``_rel_entr`` of each pair of entries of two equal-shape arrays."""
    terms = list(map(_rel_entr, x.ravel().tolist(), y.ravel().tolist()))
    return np.array(terms, dtype=float).reshape(x.shape)


def _pair_distances(vectors, pairs):
    """One row of dataset-pair distances per (datasets, values) stack on the
    last two axes; ``pairs`` is ``np.triu_indices(datasets, 1)``."""
    i, j = pairs
    return js_distance(vectors[..., i, :], vectors[..., j, :]).reshape(-1, len(i))


def _row_score(row: list[float]) -> float:
    """The js_score of one row of pair distances: 1 minus their mean."""
    return 1.0 - math.fsum(row) / len(row)


def _js_score(vectors, pairs) -> float:
    (row,) = _pair_distances(vectors, pairs).tolist()
    return _row_score(row)


def _split(lo, hi, score: float):
    """Which rows surely have ``_row_score(row) > score``, and which are
    undecided, for rows of n non-negative distances bounded entrywise
    by ``lo <= row <= hi``; every other row surely has not.

    Let S be a row's exact sum and F = fsum(row) its correct rounding, so
    fsum(lo) <= F <= fsum(hi) by monotone rounding.  Let A be numpy's sum of
    a row of bounds, with u = 2**-53.  Each term reaches A through at most
    n - 1 rounded additions of non-negative numbers, each off by a factor
    within [1 - u, 1 + u], so S(1-u)**(n-1) <= A <= S(1+u)**(n-1) for that
    row's S.  ``slack`` is exact (n < 2**49), and 1 + 8nu exceeds both
    (1+u)/(1-u)**n and (1+u)**n/(1-u) with room to spare, so even after the
    rounding of the product and the quotient, fl(A*slack) >= fsum and
    fl(A/slack) <= fsum of the same row.  (If S is below 2**-1022, every
    partial sum is exact and A = fsum = S, so monotone rounding gives both
    bounds alone; otherwise a quotient rounded just below 2**-1022 is still
    within a relative u(1 + 9nu), inside the room.)  Both steps of
    g(x) = 1.0 - x / n round monotonically, so g never increases with x:
    g(fl(A_hi*slack)) > score implies g(F) > score, and
    g(fl(A_lo/slack)) <= score implies g(F) <= score.
    """
    n = lo.shape[1]
    slack = 1.0 + 8 * n * 2.0**-53
    greater = 1.0 - hi.sum(1) * slack / n > score
    return greater, ~greater & (1.0 - lo.sum(1) / slack / n > score)


def _count_greater(distances, score: float) -> int:
    """How many rows of pair distances have a js_score, by ``_row_score``'s
    one formula, above ``score``."""
    return sum(_row_score(row) > score for row in distances.tolist())


def _entropy_terms(x):
    """numpy's sum over axis 0 of x * log x, each term 0 where x is 0."""
    terms = np.fmax(x, _TINY)
    np.log(terms, out=terms)
    terms *= x
    return terms.sum(0)


def _distance_bounds(vectors, pairs):
    """Bounds ``(lo, hi)``, each (rows, pairs), on ``js_distance`` of every
    dataset pair of value-leading (V, rows, datasets) distributions whose
    entries are count ratios c / n (0 <= c <= n < 2**50, correctly
    rounded); ``pairs`` is ``np.triu_indices(datasets, 1)``.

    For a pair's vectors a, b and the mixture m = fl(a + b) / 2 that
    ``js_distance`` forms, let K = sum_v a_v ln(a_v / m_v) + b_v ln(b_v /
    m_v) in real arithmetic.  Write u = 2**-53, d = ``_LOG_ERROR`` (numpy's
    ``log`` and libm's ``log`` and ``log1p`` are taken to be within a
    relative d of the true logarithm) and L = ln V + 1.  Each of a, b and m
    sums to at most (1 + u)**2, so sum_v |x_v ln x_v| <= L for each, and each
    half of K has sum_v |terms| <= ln 2 + 1/e (a term is at most x ln 2 when
    x > m, and at most m / e otherwise).

    * ``js_distance``'s divergence D is within E1 = 1.6(d + (V + 2)u) + 3.1u
      of K / (2 ln 2).  Each ``_rel_entr`` term is its true value within a
      relative 3u + d: the rounding of its ratio costs at most u / ln 2
      relative, since ``log``'s argument stays outside (1/2, 2) and
      ``log1p``'s inside (where x - m is exact), and the product u.  The
      two sums of V terms add (V - 1)u times their 2.2 of |terms|; adding
      them, halving and dividing by fl(ln 2) add 3.1u more.
    * The estimate here, (fl(h_a + h_b) / 2 - h_m) / fl(ln 2) with h_x
      numpy's sum of x * log x (``_entropy_terms``), is within
      E2 = 2.9L(d + (V + 2)u) + 3.1u of K / (2 ln 2).  Since fl(a + b) is
      within a relative u of a + b, K / 2 is sum_v (a_v ln a_v + b_v ln
      b_v) / 2 - m_v ln m_v within uL; each h_x is within (d + Vu)L of its
      true sum; rounding fl(h_a + h_b) adds uL after the halving, the
      difference 0.7u (K / 2 <= ln 2), and the division a relative 2u.

    E = 5L(d + (V + 4)u) exceeds E1 + E2 and the rounding of estimate
    -+ E, so fl(estimate - E) <= D <= fl(estimate + E), and the monotone
    clip and correctly rounded sqrt carry that to the distances.  Vectors
    that are equal give D = 0 exactly (m = a, and every ``log1p`` argument
    is 0), so both their bounds are 0.
    """
    width = len(vectors)
    i, j = pairs
    # take, unlike fancy indexing on the last axis, returns C-order arrays.
    a, b = vectors.take(i, axis=2), vectors.take(j, axis=2)
    same = (a == b).all(0)
    a += b
    a *= 0.5  # the mixture, as js_distance forms it
    h = _entropy_terms(vectors)
    estimate = h.take(i, axis=1)
    estimate += h.take(j, axis=1)
    estimate *= 0.5
    estimate -= _entropy_terms(a)
    estimate /= _LN2
    error = 5 * (math.log(width) + 1) * (_LOG_ERROR + (width + 4) * 2.0**-53)
    lo, hi = bounds = estimate + np.array([-error, error])[:, None, None]
    np.sqrt(np.clip(bounds, 0.0, 1.0, out=bounds), out=bounds)
    hi[same] = 0.0
    return lo, hi


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
    divergence = 0.5 * (_rel_entrs(a, m).sum(-1) + _rel_entrs(b, m).sum(-1)) / _LN2
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
    order, that every hyperparameter's test shares.  A dataset pools the
    sizes in scope that it has; one with none sits the scope out."""
    _check_count("permutations", permutations)
    _check_seed(seed)
    if not table.train_sizes():
        raise DataError("score table has no records")
    if combine_train_sizes and train_size is not None:
        raise ValidationError("train_size and combine_train_sizes are exclusive")
    _, contexts = _select(table, split, datasets, None if train_size is None else [train_size])
    sizes = tuple(sorted({ctx.train_size for ctx in contexts}))
    if len(sizes) > 1 and not combine_train_sizes:
        raise DataError(
            f"selection has several train sizes {list(sizes)}; pass train_size or"
            f" combine_train_sizes=True"
        )
    pools = {ctx.dataset: [] for ctx in contexts}
    if len(pools) < 2:
        raise DataError("need at least two datasets to compare distributions")
    for ctx in contexts:  # sorted: by dataset, then train size
        pools[ctx.dataset] += [i for i, _ in top_set(table, ctx, split, threshold).id_members]
    return sizes, pools


def importance_scopes(
    table: ScoreTable,
    datasets: Sequence[str] | None = None,
    train_sizes: Sequence[int] | None = None,
    *,
    split: str = "test",
) -> list[int | None]:
    """The train size of each importance report (``None``: one scope over all
    sizes), once names and sizes are checked: each listed size, else each
    selected size but those with one dataset, skipped with a warning while
    another size has two.  No records or no selection give ``[None]``."""
    if not table.train_sizes():
        return [None]
    _, contexts = _select(table, split, datasets, train_sizes)
    if train_sizes is not None:
        return sorted(set(train_sizes))
    counts = Counter(ctx.train_size for ctx in contexts)  # datasets per size
    pooled = [size for size in sorted(counts) if counts[size] > 1]
    for size in sorted(set(counts).difference(pooled)) if pooled else ():
        _warn(f"train size {size} has fewer than two datasets; skipped")
    return pooled or sorted(counts) or [None]


def _hasher(const: int, mult: int):
    """SeedSequence's running 32-bit hash from ``const``, stepped by ``mult``."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _outputs(*entropy: int):
    """The 64-bit outputs of ``numpy.random.default_rng(entropy)``: PCG64
    seeded by SeedSequence from each value's 32-bit words, low word first."""
    words = [v >> s & _M32 for v in map(operator.index, entropy)
             for s in range(0, max(v.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (words + [0] * 4)[:4]]

    def mix(dst: int, value: int) -> None:
        x = 0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(value) & _M32
        pool[dst] = x ^ x >> 16

    for src in range(4):
        for dst in range(4):
            if src != dst:
                mix(dst, pool[src])
    for word in words[4:]:
        for dst in range(4):
            mix(dst, word)
    seeded = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool * 2))  # generate_state, 8 words
    high, low, inc_high, inc_low = (seeded[k] | seeded[k + 1] << 32 for k in range(0, 8, 2))
    inc = ((inc_high << 64 | inc_low) << 1 | 1) & _M128
    state = ((inc + (high << 64 | low)) * _PCG_MULT + inc) & _M128
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        out, turn = (state >> 64 ^ state) & _M64, state >> 122
        yield (out >> turn | out << 64 - turn) & _M64  # XSL-RR


def _permutation(seed: int, i: int, n: int) -> list[int]:
    """``numpy.random.default_rng((seed, i)).permutation(n).tolist()``."""
    halves = ((out & _M32, out >> 32) for out in _outputs(seed, i))
    draws, order = itertools.chain.from_iterable(halves), list(range(n))
    for top in range(n - 1, 0, -1):  # Generator.shuffle, by masked rejection
        mask = (1 << top.bit_length()) - 1
        j = next(draws) & mask
        while j > top:
            j = next(draws) & mask
        order[top], order[j] = order[j], order[top]
    return order


def _pure_permutation_test(space, pools, hps, permutations, seed):
    """``_permutation_test`` on plain ints and floats, bit for bit."""
    names = sorted(pools)
    ids = [index for d in names for index in pools[d]]
    ends = list(itertools.accumulate(len(pools[d]) for d in names))
    values = [[space.value_positions(hp.name, index) for index in ids] for hp in hps]

    def deal(k, order):  # per dataset, the distribution of hps[k]
        dealt = [values[k][j] for j in order]
        return [_shares(dealt[lo:hi], len(hps[k].domain)) for lo, hi in zip([0, *ends], ends)]

    def score(vectors):
        return _row_score(list(itertools.starmap(_distance, itertools.combinations(vectors, 2))))

    observed = [deal(k, range(len(ids))) for k in range(len(hps))]
    scores = list(map(score, observed))
    greater = [0] * len(hps)
    for i in range(permutations):
        order = _permutation(seed, i, len(ids))
        for k, hp in enumerate(hps):
            greater[k] += len(hp.domain) > 1 and score(deal(k, order)) > scores[k]
    return [(tuple(map(tuple, vectors)), s, g / permutations)
            for vectors, s, g in zip(observed, scores, greater)]


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
    widths = sum(len(hp.domain) for hp in hps if len(hp.domain) > 1)
    work = sum(map(len, pools.values())) + len(pools) * (len(pools) - 1) // 2 * widths
    if "numpy" in sys.modules or permutations * work > _PURE_WORK:
        with suppress(ImportError):
            _load_numeric()
    if np is None:  # small and numpy not yet imported, or no numpy at all
        return _pure_permutation_test(space, pools, hps, permutations, seed)
    names = sorted(pools)
    ids = np.array([index for d in names for index in pools[d]], dtype=np.intp)
    counts = np.array([len(pools[d]) for d in names])
    owner = np.repeat(np.arange(len(names)), counts)  # dataset of each pool slot
    values = [space.value_positions(hp.name, ids) for hp in hps]
    pairs = np.triu_indices(len(names), 1)

    def deal(k, orders):  # distributions of hps[k], (V, rows of orders, datasets)
        cells = len(orders) * len(names)  # bins of one value: each row's datasets
        bins = values[k][orders]  # a copy, added to in place: one temporary of the orders shape
        bins *= cells
        bins += owner
        bins += np.arange(0, cells, len(names))[:, None]
        dealt = np.bincount(bins.ravel(), minlength=len(hps[k].domain) * cells)
        return dealt.reshape(-1, len(orders), len(names)) / counts

    # The pool as pooled is the identity order; js_distance takes the values
    # on the last axis.
    observed = [np.moveaxis(deal(k, np.arange(len(ids))[None, :]), 0, -1)
                for k in range(len(hps))]
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
            vectors = deal(k, orders)
            surely, unsure = _split(*_distance_bounds(vectors, pairs), scores[k])
            greater[k] += int(surely.sum())
            if unsure.any():
                distances = _pair_distances(np.moveaxis(vectors[:, unsure], 0, -1), pairs)
                greater[k] += _count_greater(distances, scores[k])
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
