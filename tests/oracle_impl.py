"""Independent reference implementations used to cross-check the library.

Everything here is a literal, unoptimized transcription of the definitions:
quadratic set algebra for the coverage ranking, exhaustive enumeration of
all selections for the evaluation protocols, and a from-scratch permutation
test sharing only the documented RNG recipe.  None of it touches the
library's internals beyond plain score dictionaries.

Vocabulary: a context is a (dataset, train_size) tuple, a configuration is
its tuple of values, and scores are {context: {config: raw}} dicts.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import jensenshannon


def reference_rank(scores_by_context, config_order, threshold):
    """Coverage ranking as literal set algebra.

    Returns [(config, score_sum, frozenset of contexts)] in final order.
    """
    contexts = sorted(scores_by_context)
    sn = {}
    tc = {}
    for ctx in contexts:
        rows = scores_by_context[ctx]
        best = max(rows.values())
        sn[ctx] = {c: s / best for c, s in rows.items()}
        tc[ctx] = {c for c, v in sn[ctx].items() if v > threshold}
    tc_star = set().union(*tc.values())
    s_sum = {
        c: math.fsum(sn[ctx][c] for ctx in contexts if c in tc[ctx])
        for c in tc_star
    }
    ranked_above = {
        c: {c1 for c1 in tc_star if s_sum[c1] > s_sum[c]} for c in tc_star
    }
    coverage = {
        c: frozenset(
            ctx
            for ctx in contexts
            if c in tc[ctx] and all(c1 not in tc[ctx] for c1 in ranked_above[c])
        )
        for c in tc_star
    }
    position = {c: i for i, c in enumerate(config_order)}
    order = sorted(
        tc_star, key=lambda c: (-len(coverage[c]), -s_sum[c], position[c])
    )
    return [(c, s_sum[c], coverage[c]) for c in order]


def reference_loo(ranking_scores, test_scores, config_order, threshold, datasets):
    """Leave-one-out: {held_out: (recommended, {context: (raw, normalized)})}."""
    results = {}
    for held_out in sorted(datasets):
        remaining = {
            ctx: rows for ctx, rows in ranking_scores.items() if ctx[0] != held_out
        }
        ranking = reference_rank(remaining, config_order, threshold)
        recommended = ranking[0][0]
        per_context = {}
        for ctx in sorted(test_scores):
            if ctx[0] != held_out:
                continue
            raw = test_scores[ctx][recommended]
            per_context[ctx] = (raw, raw / max(test_scores[ctx].values()))
        results[held_out] = (recommended, per_context)
    return results


def reference_upper_bound(val_scores, test_scores, config_order):
    """Full grid search per context: {context: (config, val, test)}.

    Of the configurations with the highest validation score, the earliest in
    grid order; ``test`` is its test score, None without a record.
    """
    results = {}
    for ctx, rows in val_scores.items():
        best_val = max(rows.values())
        best = [c for c in config_order if rows.get(c) == best_val][0]
        results[ctx] = (best, best_val, test_scores.get(ctx, {}).get(best))
    return results


def reference_budget(
    ranking_scores, val_scores, test_scores, config_order, threshold, datasets, max_budget,
    denominators=None,
):
    """Budget curve by enumerating every selection.

    Returns ({k: mean}, {(k, context): (config, val, normalized)}).  Test
    scores divide by the context's test maximum, or by ``denominators[ctx]``
    when given.
    """
    per_k = {k: [] for k in range(1, max_budget + 1)}
    selections = {}
    for held_out in sorted(datasets):
        remaining = {
            ctx: rows for ctx, rows in ranking_scores.items() if ctx[0] != held_out
        }
        ranking = [c for c, _, _ in reference_rank(remaining, config_order, threshold)]
        for ctx in sorted(test_scores):
            if ctx[0] != held_out:
                continue
            if denominators is None:
                denominator = max(test_scores[ctx].values())
            else:
                denominator = denominators[ctx]
            for k in range(1, max_budget + 1):
                candidates = ranking[:k]
                best, best_val = None, -1.0
                for c in candidates:
                    v = val_scores[ctx].get(c)
                    if v is not None and v > best_val:
                        best, best_val = c, v
                normalized = test_scores[ctx][best] / denominator
                per_k[k].append(normalized)
                selections[(k, ctx)] = (best, best_val, normalized)
    points = {k: math.fsum(vals) / len(vals) for k, vals in per_k.items()}
    return points, selections


def reference_permutation_pval(
    scores_by_context,
    datasets,
    sizes,
    config_order,
    value_index,
    n_values,
    threshold,
    permutations,
    seed,
):
    """Permutation test re-implemented from the documented recipe.

    ``value_index`` maps a configuration to its position in the analyzed
    hyperparameter's domain.  Distances come from scipy's Jensen-Shannon
    implementation rather than the library's.
    """
    pools = {}
    for dataset in sorted(datasets):
        members = []
        for size in sorted(sizes):
            rows = scores_by_context[(dataset, size)]
            best = max(rows.values())
            members += [
                c for c in config_order if c in rows and rows[c] / best > threshold
            ]
        pools[dataset] = members
    names = sorted(pools)

    def vector(members):
        counts = [0] * n_values
        for c in members:
            counts[value_index[c]] += 1
        return [x / len(members) for x in counts]

    def score(vectors):
        distances = [
            float(jensenshannon(vectors[i], vectors[j], base=2.0))
            for i in range(len(vectors))
            for j in range(i + 1, len(vectors))
        ]
        return 1.0 - math.fsum(distances) / len(distances)

    observed = score([vector(pools[d]) for d in names])
    pool = [c for d in names for c in pools[d]]
    counts = [len(pools[d]) for d in names]

    greater = 0
    for i in range(permutations):
        order = np.random.default_rng((seed, i)).permutation(len(pool))
        dealt = [pool[j] for j in order]
        vectors = []
        offset = 0
        for n in counts:
            vectors.append(vector(dealt[offset : offset + n]))
            offset += n
        if score(vectors) > observed:
            greater += 1
    return observed, greater / permutations
