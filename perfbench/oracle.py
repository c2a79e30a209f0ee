"""Cross-checks of library results against ``tests/oracle_impl.py``.

The oracle is the repository's independent, literal transcription of the
definitions.  It is loaded read-only from its file, so the benchmark adds
nothing to the test suite and the test suite owns the reference.  Each
check returns a list of mismatch descriptions; an empty list means the
library agrees with the oracle: bit for bit, except the permutation test's
observed score, which may differ by a few units in the last place.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import covsearch.importance as importance
import covsearch.protocols as protocols
import covsearch.ranking as ranking

# Tolerance on the observed js_score, in units in the last place.
SCORE_ULPS = 4
# Settings of the checks cross_check makes.
MAX_BUDGET = 10
PERMUTATIONS = 100
PERMUTATION_SEED = 0


def load_oracle(root: Path):
    path = root / "tests" / "oracle_impl.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle_impl", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def raw_scores(table, split: str) -> dict:
    """{(dataset, size): {config values: score}} in the oracle's vocabulary."""
    out: dict = {}
    for ctx in table.contexts(split):
        out[(ctx.dataset, ctx.train_size)] = {
            cfg.values: score for cfg, score in table.scores(ctx, split).items()
        }
    return out


def _grid(table) -> list[tuple]:
    return [c.values for c in table.space.grid()]


def check_rank(oracle, table) -> list[str]:
    expected = oracle.reference_rank(raw_scores(table, "test"), _grid(table), 0.97)
    actual = [
        (e.config.values, e.score_sum,
         frozenset((c.dataset, c.train_size) for c in e.coverage))
        for e in ranking.rank(table).entries
    ]
    return [] if actual == expected else ["rank: library ranking differs from oracle"]


def check_loo(oracle, table) -> list[str]:
    test = raw_scores(table, "test")
    expected = oracle.reference_loo(test, test, _grid(table), 0.97, table.datasets())
    problems = []
    for res in protocols.loo_cbs(table):
        rec, per_context = expected[res.held_out_dataset]
        got = {(s.context.dataset, s.context.train_size):
               (s.test_score, s.normalized_test_score) for s in res.scores}
        if res.recommended_config.values != rec or got != per_context:
            problems.append(f"loo: held out {res.held_out_dataset} differs from oracle")
    return problems


def check_budget(oracle, table, max_budget: int) -> list[str]:
    test = raw_scores(table, "test")
    points, selections = oracle.reference_budget(
        test, raw_scores(table, "validation"), test, _grid(table), 0.97,
        table.datasets(), max_budget,
    )
    curve = protocols.budget_curve(table, max_budget=max_budget)
    problems = []
    if {p.k: p.mean_normalized_test_score for p in curve.points} != points:
        problems.append("budget: curve points differ from oracle")
    for d in curve.details:
        key = (d.k, (d.context.dataset, d.context.train_size))
        if (d.config.values, d.validation_score, d.normalized_test_score) != selections[key]:
            problems.append(f"budget: selection k={d.k} {d.context} differs from oracle")
    return problems


def check_permutation(oracle, table, hp_name: str, datasets, train_size: int,
                      permutations: int, seed: int) -> list[str]:
    hp = table.space.hyperparameter(hp_name)
    names = [h.name for h in table.space.hyperparameters]
    pos = names.index(hp_name)
    grid = _grid(table)
    expected = oracle.reference_permutation_pval(
        raw_scores(table, "test"), datasets or table.datasets(), [train_size], grid,
        {c: hp.index(c[pos]) for c in grid}, len(hp.domain),
        importance.DEFAULT_THRESHOLD, permutations, seed,
    )
    actual = importance.permutation_pval(
        table, hp_name, datasets, train_size, permutations=permutations, seed=seed
    )
    # The p-value must match exactly.  The oracle takes distances from
    # scipy's jensenshannon, which renormalizes each vector first, so the
    # observed score may differ from the library's in the last bits.
    score_ok = abs(actual[0] - expected[0]) <= SCORE_ULPS * math.ulp(expected[0])
    if actual[1] != expected[1] or not score_ok:
        return [f"importance: {hp_name} (score, p) {actual} != oracle {expected}"]
    return []


def cross_check(oracle, table) -> list[tuple[str, list[str]]]:
    """Every check above on one table, as (name, mismatches) pairs.

    Leave-one-out and the budget curve cover all datasets; the permutation
    test takes the first hyperparameter with more than one value, on the
    smaller train size.
    """
    hp = next(h.name for h in table.space.hyperparameters if len(h.domain) > 1)
    size = min(table.train_sizes())
    return [
        ("rank", check_rank(oracle, table)),
        ("loo", check_loo(oracle, table)),
        ("budget", check_budget(oracle, table, MAX_BUDGET)),
        ("permutation", check_permutation(oracle, table, hp, None, size, PERMUTATIONS,
                                          PERMUTATION_SEED)),
    ]
