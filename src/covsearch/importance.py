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
  with SeedSequence((seed, i)).
* The permuted pool ``[pool[j] for j in order]`` is dealt back to datasets
  in ascending name order, each receiving as many members as its original
  top set held.
* ``js_pval`` is the fraction of permutations whose score is strictly
  greater than the observed score; ties do not count.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .model import (
    Configuration,
    Context,
    CovsearchError,
    DataError,
    HpImportance,
    Hyperparameter,
    ImportanceReport,
    ScoreTable,
    ValidationError,
    _check_seed,
)
from .protocols import _select_contexts
from .ranking import TopSet, top_set

DEFAULT_THRESHOLD = 0.95
DEFAULT_PERMUTATIONS = 100

_LN2 = math.log(2.0)

# numpy and scipy.special take about half a second to import and only the
# distance and the permutation test use them, so they are bound on first
# use instead of at import time, which every CLI command would pay.
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
    total = len(configs)
    return tuple(c / total for c in counts)


def js_distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Base-2 Jensen-Shannon distance between two probability vectors.

    The square root of the base-2 divergence, so values lie in [0, 1];
    identical vectors give exactly 0 and disjoint supports exactly 1.
    The 0 * log 0 = 0 convention applies.
    """
    if np is None:
        _load_numeric()
    a = np.asarray(p, dtype=float)
    b = np.asarray(q, dtype=float)
    if a.shape != b.shape:
        raise ValidationError("probability vectors must have equal length")
    m = 0.5 * (a + b)
    divergence = 0.5 * (rel_entr(a, m).sum() + rel_entr(b, m).sum()) / _LN2
    if divergence < 0.0:  # rounding noise near zero
        divergence = 0.0
    elif divergence > 1.0:
        divergence = 1.0
    return math.sqrt(divergence)


def js_score(vectors: Sequence[Sequence[float]]) -> float:
    """1 minus the mean pairwise Jensen-Shannon distance.

    1.0 means every dataset prefers the same value distribution; 0.0 means
    pairwise-disjoint preferences.  fsum accumulation makes the result
    independent of the pair enumeration order.
    """
    if len(vectors) < 2:
        raise DataError("need at least two datasets to compare distributions")
    length = len(vectors[0])
    if any(len(v) != length for v in vectors):
        raise ValidationError("probability vectors must have equal length")
    distances = [
        js_distance(vectors[i], vectors[j])
        for i in range(len(vectors))
        for j in range(i + 1, len(vectors))
    ]
    return 1.0 - math.fsum(distances) / len(distances)


def _pools(
    table: ScoreTable,
    datasets: Sequence[str] | None,
    train_size: int | None,
    combine_train_sizes: bool,
    split: str,
    threshold: float,
    permutations: int,
    seed: int,
) -> tuple[tuple[int, ...], dict[str, list[Configuration]]]:
    """Check the permutation test's arguments; return the train sizes and the
    per-dataset top-set membership lists, in the documented pool order, that
    every hyperparameter's test shares."""
    if permutations < 1:
        raise ValidationError(f"permutations must be >= 1, got {permutations}")
    _check_seed(seed)
    available = table.train_sizes()
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
        dataset: [
            cfg
            for size in sizes
            for cfg in top_set(table, Context(dataset, size), split, threshold).configs
        ]
        for dataset in names
    }
    return sizes, pools


def _permutation_test(
    pools: dict[str, list[Configuration]],
    hp: Hyperparameter,
    permutations: int,
    seed: int,
) -> tuple[tuple[tuple[float, ...], ...], float, float]:
    """Per-dataset value distributions of one hyperparameter (datasets in
    name order), their observed js_score and its permutation p-value."""
    _load_numeric()
    names = sorted(pools)
    vectors = tuple(value_distribution(pools[d], hp) for d in names)
    observed = js_score(vectors)

    # Permute value indexes rather than configurations: dealing is
    # positional, so the result is identical and cheap to recount.
    pool_values = np.array(
        [hp.index(cfg.get(hp.name)) for d in names for cfg in pools[d]],
        dtype=np.intp,
    )
    counts = [len(pools[d]) for d in names]
    offsets = np.cumsum([0] + counts)
    domain_size = len(hp.domain)

    greater = 0
    for i in range(permutations):
        order = np.random.default_rng((seed, i)).permutation(len(pool_values))
        dealt = pool_values[order]
        dealt_vectors = []
        for j, n in enumerate(counts):
            segment = dealt[offsets[j] : offsets[j] + n]
            dealt_vectors.append(
                tuple(np.bincount(segment, minlength=domain_size) / n)
            )
        if js_score(dealt_vectors) > observed:
            greater += 1
    return vectors, observed, greater / permutations


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
    return _permutation_test(pools, hp, permutations, seed)[1:]


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

    Entries keep the space's declaration order; the per-dataset pools are
    built once and shared by every hyperparameter's test.  Invalid
    arguments raise; per-hyperparameter failures are recorded on the entry
    rather than aborting the report.
    """
    sizes, pools = _pools(
        table, datasets, train_size, combine_train_sizes, split, threshold,
        permutations, seed,
    )
    names = tuple(sorted(pools))

    entries = []
    for hp in table.space.hyperparameters:
        try:
            vectors, observed, pval = _permutation_test(pools, hp, permutations, seed)
            result = dict(distributions=vectors, js_score=observed, js_pval=pval)
        except CovsearchError as exc:
            result = dict(distributions=(), js_score=None, js_pval=None, error=str(exc))
        entries.append(HpImportance(name=hp.name, datasets=names, **result))
    return ImportanceReport(
        entries=tuple(entries),
        threshold=threshold,
        permutations=permutations,
        seed=seed,
        split=split,
        train_sizes=sizes,
        datasets=names,
    )
