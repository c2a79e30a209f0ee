"""Plain-text renderers for analysis results.

Every renderer returns a deterministic string: equal inputs give
byte-identical reports.  Machine-readable output is handled separately
(``to_dict`` on the result types, serialized as JSON by the CLI).
"""

from __future__ import annotations

import io
import csv
from typing import Iterable, Sequence

from .ingest import CatalogEntry, CompletenessReport
from .model import (
    BudgetCurve,
    CoverageRanking,
    ImportanceReport,
    LooResult,
)
from .protocols import CompareRow

CATALOG_COLUMNS = (
    "model",
    "method",
    "source",
    "rank",
    "batch",
    "lr",
    "epochs",
    "lr_scheduler",
    "lora_r",
    "lora_alpha",
)


def render_ranking(ranking: CoverageRanking, top: int | None = None) -> str:
    lines = [
        f"coverage ranking over {len(ranking.contexts)} context(s),"
        f" split={ranking.split}, threshold={ranking.threshold:g}",
        f"{'rank':>4}  {'covered':>7}  {'score_sum':>10}  configuration",
    ]
    entries = ranking.entries if top is None else ranking.top(top)
    for i, entry in enumerate(entries, start=1):
        covered = ", ".join(str(c) for c in sorted(entry.coverage))
        lines.append(
            f"{i:>4}  {len(entry.coverage):>7}  {entry.score_sum:>10.4f}"
            f"  {entry.config}"
            + (f"  [{covered}]" if covered else "")
        )
    return "\n".join(lines) + "\n"


def render_loo(results: Sequence[LooResult]) -> str:
    lines = ["leave-one-dataset-out evaluation of the top recommendation"]
    all_normalized = []
    for res in results:
        lines.append(f"held out {res.held_out_dataset}: {res.recommended_config}")
        for s in res.scores:
            lines.append(
                f"  {s.context}: test={s.test_score:.4f}"
                f" normalized={s.normalized_test_score:.4f}"
            )
            all_normalized.append(s.normalized_test_score)
    if all_normalized:
        mean = sum(all_normalized) / len(all_normalized)
        lines.append(f"mean normalized test score: {mean:.4f}")
    return "\n".join(lines) + "\n"


def render_budget(curve: BudgetCurve, *, details: bool = False) -> str:
    lines = [
        f"budget curve (threshold={curve.threshold:g}, ranking split="
        f"{curve.split}, normalized by {curve.normalize_by})",
        f"{'k':>3}  mean_normalized_test_score",
    ]
    for p in curve.points:
        lines.append(f"{p.k:>3}  {p.mean_normalized_test_score:.6f}")
    if details:
        lines.append("")
        lines.append("per-context selections:")
        for d in curve.details:
            flag = " (budget clamped)" if d.clamped else ""
            lines.append(
                f"  k={d.k} {d.context}: {d.config}"
                f" val={d.validation_score:.4f} test={d.test_score:.4f}"
                f" normalized={d.normalized_test_score:.4f}{flag}"
            )
    return "\n".join(lines) + "\n"


def render_importance(reports: Sequence[ImportanceReport]) -> str:
    lines = []
    for report in reports:
        scope = (
            "combined train sizes"
            if len(report.train_sizes) > 1
            else f"train_size={report.train_sizes[0]}"
        )
        lines.append(
            f"hyperparameter consistency ({scope}, split={report.split},"
            f" threshold={report.threshold:g},"
            f" permutations={report.permutations}, seed={report.seed})"
        )
        lines.append(f"{'hyperparameter':<20} {'js_score':>9} {'js_pval':>8}")
        for e in report.entries:
            if e.error is not None:
                lines.append(f"{e.name:<20} error: {e.error}")
            else:
                lines.append(f"{e.name:<20} {e.js_score:>9.4f} {e.js_pval:>8.4f}")
        lines.append("")
    lines.append("js_pval matrix (rows: hyperparameter, columns: scope):")
    scopes = [
        "combined" if len(r.train_sizes) > 1 else str(r.train_sizes[0])
        for r in reports
    ]
    lines.append("hyperparameter\t" + "\t".join(scopes))
    names = [e.name for e in reports[0].entries]
    for i, name in enumerate(names):
        cells = []
        for report in reports:
            entry = report.entries[i]
            cells.append("" if entry.js_pval is None else f"{entry.js_pval:.4f}")
        lines.append(name + "\t" + "\t".join(cells))
    return "\n".join(lines) + "\n"


def render_compare(rows: Sequence[CompareRow]) -> str:
    lines = [
        "protocol comparison (raw test scores, macro-averaged per task)",
        f"{'task':<18} {'size':>6} {'datasets':>8} {'default':>10}"
        f" {'cbs_1':>10} {'upper_bound':>12}",
    ]
    for r in rows:
        default = "n/a" if r.default_score is None else f"{r.default_score:.4f}"
        lines.append(
            f"{r.task:<18} {r.train_size:>6} {r.n_datasets:>8} {default:>10}"
            f" {r.cbs1_score:>10.4f} {r.upper_bound_score:>12.4f}"
        )
    return "\n".join(lines) + "\n"


def render_completeness(report: CompletenessReport) -> str:
    lines = []
    if report.is_complete:
        lines.append("grid complete")
    # The same configurations go missing in many cells; format each once.
    # Keyed by id(), not by hashing the dataclass: config_at shares one object
    # per grid id, and the report keeps every object alive while this runs, so
    # no id is reused.  Equal but distinct objects are merely formatted twice.
    rows: dict[int, str] = {}
    for ctx, split, missing in report.missing:
        if missing:
            lines.append(f"{ctx} [{split}]: {len(missing)} missing configuration(s)")
            for cfg in missing:
                row = rows.get(id(cfg))
                if row is None:
                    row = rows[id(cfg)] = f"  {cfg}"
                lines.append(row)
    for ctx, split in report.single_split:
        lines.append(f"warning: {ctx} has records only for the {split} split")
    return "\n".join(lines) + "\n"


def render_catalog(entries: Iterable[CatalogEntry]) -> str:
    lines = [
        f"{'model':<16} {'method':<8} {'source':<19} {'rank':>4}  configuration"
    ]
    for e in entries:
        lines.append(
            f"{e.model:<16} {e.method:<8} {e.source:<19} {e.rank:>4}  {e.config}"
        )
    return "\n".join(lines) + "\n"


def catalog_csv(entries: Iterable[CatalogEntry]) -> str:
    """Delimited catalog rows with one column per known hyperparameter."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CATALOG_COLUMNS)
    for e in entries:
        values = e.config.as_dict()
        writer.writerow(
            [e.model, e.method, e.source, e.rank]
            + [values.get(col, "") for col in CATALOG_COLUMNS[4:]]
        )
    return out.getvalue()
