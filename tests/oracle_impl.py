"""Independent reference implementations used to cross-check the library.

Everything here is a literal, unoptimized transcription of the definitions:
quadratic set algebra for the coverage ranking, exhaustive enumeration of
all selections for the evaluation protocols, a from-scratch permutation
test sharing only the documented RNG recipe, and importance scoping read
rule by rule from README.  None of it touches the
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


def reference_fixed_config(test_scores, config, contexts=None, task_map=None):
    """One fixed configuration everywhere: ({context: raw}, {task: mean}).

    ``contexts`` default to every context with a test record.  Each raw
    score is the configuration's test score on a context, and a task's
    macro-average the unweighted mean over its contexts, all in one task
    "all" without a ``task_map``.  Raises ValueError without a context and
    KeyError for a missing test record or a dataset the task map lacks.
    """
    if contexts is None:
        contexts = [ctx for ctx, rows in test_scores.items() if rows]
    contexts = sorted(set(contexts))
    if not contexts:
        raise ValueError("no contexts to evaluate")
    raw = {ctx: test_scores.get(ctx, {})[config] for ctx in contexts}
    tasks = {}
    for ctx, score in raw.items():
        task = "all" if task_map is None else task_map[ctx[0]]
        tasks.setdefault(task, []).append(score)
    return raw, {task: math.fsum(vals) / len(vals) for task, vals in sorted(tasks.items())}


def reference_compare(
    raw, config_order, task_map, default=None, datasets=None, sizes=None,
    threshold=0.97, split="test", skip_degenerate=False,
):
    """The protocol comparison: per (task, train size), the mean raw test
    score of the default configuration, of leave-one-out's top
    recommendation and of the per-context upper bound, over the held-out
    test contexts that keep a leave-one-out score.

    ``raw`` is {split: {context: {config: raw}}}; ``datasets`` and ``sizes``
    are the requested names and train sizes, None for all.  The ranking
    reads ``split``, the held-out scores test, and ``skip_degenerate`` leaves
    out every all-zero context of either.  Returns [(task, size, n_datasets,
    default, cbs_1, upper_bound)] sorted by task and size; where the library
    raises, raises KeyError, ValueError, IndexError or ZeroDivisionError.
    """
    present = {ctx for cells in raw.values() for ctx, rows in cells.items() if rows}
    if datasets is not None and set(datasets) - {d for d, _ in present}:
        raise KeyError("dataset not in table")
    if sizes is not None and set(sizes) - {m for _, m in present}:
        raise KeyError("train size not in table")
    names = sorted({d for d, _ in present} if datasets is None else set(datasets))
    if len(names) < 2:
        raise ValueError("leave-one-out requires at least 2 datasets")
    if set(names) - set(task_map):
        raise KeyError("dataset missing from task map")

    def selected(on):
        return {
            ctx: rows for ctx, rows in raw.get(on, {}).items()
            if rows and ctx[0] in names and (sizes is None or ctx[1] in sizes)
        }

    def usable(cells):  # else an all-zero context divides by zero
        return {
            ctx: rows for ctx, rows in cells.items()
            if not skip_degenerate or max(rows.values()) > 0
        }

    tested = selected("test")
    if {d for d, _ in tested} != set(names):
        raise KeyError("held-out dataset without test records")
    loo = reference_loo(usable(selected(split)), usable(tested), config_order, threshold, names)
    bounds = reference_upper_bound(raw.get("validation", {}), raw.get("test", {}), config_order)

    groups = {}
    for _, per_context in loo.values():
        for ctx, (score, _) in per_context.items():
            groups.setdefault((task_map[ctx[0]], ctx[1]), []).append((ctx, score))
    rows = []
    for (task, size), scored in sorted(groups.items()):
        contexts = [ctx for ctx, _ in scored]
        uppers = [bounds[ctx][2] for ctx in contexts]
        if None in uppers:
            raise KeyError("validation-selected configuration without a test record")
        fixed = None
        if default is not None:
            fixed = reference_fixed_config(raw.get("test", {}), default, contexts)[1]["all"]
        cbs_1 = math.fsum(score for _, score in scored) / len(scored)
        rows.append((task, size, len(scored), fixed, cbs_1, math.fsum(uppers) / len(uppers)))
    return rows


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


def reference_importance_scopes(rows, datasets, sizes, combine, split, domains, threshold=0.95):
    """Importance scoping as README's "Hyperparameter consistency" states it.

    ``rows`` is {split: {context: {config: raw}}}.  ``datasets`` and
    ``sizes`` are the requested names and listed train sizes, None for all;
    ``combine`` pools every size into one report and excludes ``sizes``.
    ``domains`` lists each hyperparameter's values in declaration order.

    Returns ``("error", rule)`` for the first rule the request breaks, one of
    "records", "split", "datasets", "sizes" and "two"; else ``(reports,
    skipped)``: per report (its sizes pooled, the datasets compared, each
    dataset's value distribution per hyperparameter), and the sizes the
    default run skipped.
    """
    assert not (combine and sizes is not None)
    present = {ctx for cells in rows.values() for ctx, cell in cells.items() if cell}
    if not present:
        return "error", "records"
    if split not in ("validation", "test"):
        return "error", "split"
    if datasets is not None and set(datasets) - {d for d, _ in present}:
        return "error", "datasets"
    if sizes is not None and set(sizes) - {m for _, m in present}:
        return "error", "sizes"
    selection = {
        (d, m)
        for (d, m), cell in rows.get(split, {}).items()
        if cell and (datasets is None or d in datasets) and (sizes is None or m in sizes)
    }
    with_size = {m: {d for d, m2 in selection if m2 == m} for _, m in selection}

    skipped = []
    if combine:
        scopes = [sorted(with_size)]
    elif sizes is not None:
        scopes = [[m] for m in sorted(set(sizes))]
    else:
        pooled = [m for m in sorted(with_size) if len(with_size[m]) >= 2]
        if pooled:
            skipped = [m for m in sorted(with_size) if m not in pooled]
            scopes = [[m] for m in pooled]
        else:  # every scope fails as a listed one would; no selection is one empty scope
            scopes = [[m] for m in sorted(with_size)] or [[]]

    reports = []
    for scope in scopes:
        in_scope = sorted(ctx for ctx in selection if ctx[1] in scope)
        compared = sorted({d for d, _ in in_scope})
        if len(compared) < 2:
            return "error", "two"
        distributions = {}
        for dataset in compared:
            members = []
            for ctx in in_scope:  # train sizes ascending
                if ctx[0] == dataset:
                    cell = rows[split][ctx]
                    best = max(cell.values())
                    members += [c for c, s in cell.items() if s / best > threshold]
            distributions[dataset] = tuple(
                tuple(sum(c[k] == v for c in members) / len(members) for v in domain)
                for k, domain in enumerate(domains)
            )
        reports.append((tuple(sorted({m for _, m in in_scope})), tuple(compared), distributions))
    return reports, skipped


def reference_permuted_scores(
    cells, datasets, sizes, config_order, domains, permutations, seed, threshold=0.95,
):
    """The permutation test's scores, read from the documented recipe.

    ``cells`` is one split's {context: {config: raw}}.  Each dataset of
    ``datasets`` pools the configurations whose raw score over their
    context's best is above ``threshold``, in ``config_order`` within a
    context, over its contexts at the train sizes of ``sizes``, ascending.
    ``domains`` lists each hyperparameter's values in declaration order.

    Returns per hyperparameter (observed js_score, [js_score of permutation
    i for each i]); distances come from scipy.
    """
    names = sorted(datasets)
    pools = {dataset: [] for dataset in names}
    for (dataset, size), cell in sorted(cells.items()):
        if dataset in pools and size in sizes and cell:
            best = max(cell.values())
            pools[dataset] += [c for c in config_order if c in cell and cell[c] / best > threshold]
    pool = [c for dataset in names for c in pools[dataset]]
    orders = [range(len(pool))] + [
        np.random.default_rng((seed, i)).permutation(len(pool)) for i in range(permutations)
    ]

    def score(k, order):
        dealt = [pool[j] for j in order]
        vectors, offset = [], 0
        for dataset in names:
            members = dealt[offset : offset + len(pools[dataset])]
            offset += len(members)
            vectors.append([sum(c[k] == v for c in members) / len(members) for v in domains[k]])
        distances = [
            float(jensenshannon(vectors[i], vectors[j], base=2.0))
            for i in range(len(vectors))
            for j in range(i + 1, len(vectors))
        ]
        return 1.0 - math.fsum(distances) / len(distances)

    results = []
    for k in range(len(domains)):
        observed, *permuted = [score(k, order) for order in orders]
        results.append((observed, permuted))
    return results


def reference_synthetic_table(n, names, sizes, correlation, noise, seed, scale):
    """The synthetic generator on numpy's own ``default_rng(seed)``, drawn and
    blended as numpy arrays: {(dataset, size, split): [score per grid id]}
    for a grid of ``n`` configurations and the validation split first."""
    rng = np.random.default_rng(seed)
    quality = rng.uniform(0.05, 1.0, size=n)

    cells = {}
    for dataset in names:
        for size in sorted(set(sizes)):
            local = rng.uniform(0.05, 1.0, size=n)
            base = correlation * quality + (1.0 - correlation) * local
            context_scale = scale * rng.uniform(0.5, 1.5)
            for split in ("validation", "test"):
                jitter = rng.uniform(0.05, 1.0, size=n)
                blended = (1.0 - noise) * base + noise * jitter
                cells[dataset, size, split] = (context_scale * blended).tolist()
    return cells
