"""Command-line interface.

One subcommand per analysis protocol; no interactive mode.  Every command
is deterministic given its inputs and flags, and every output embeds a run
manifest (command, version, and the flags that produced it) for
provenance: as '#' comment lines in text and delimited outputs, as a
"manifest" object in JSON outputs.

Exit codes: 0 success, 1 usage error, 2 data or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .ingest import (
    ParseError,
    builtin_catalog,
    builtin_models,
    completeness_report,
    load_json,
    load_scores,
    load_space,
    load_task_map,
    serialize_scores,
    serialize_space,
)
from .importance import importance_report
from .model import CovsearchError, ScoreTable
from .protocols import _contexts_of, _select_contexts, budget_curve, compare_protocols, loo_cbs
from .ranking import rank
from . import importance as importance_mod
from . import ranking as ranking_mod
from . import report
from .synth import synthetic_table


@dataclass(frozen=True)
class RunManifest:
    """Provenance block recorded verbatim into every output."""

    command: str
    version: str
    options: tuple[tuple[str, str], ...]

    def comment_lines(self) -> list[str]:
        lines = [f"# covsearch {self.command}", f"# version: {self.version}"]
        lines += [f"# {key}: {value}" for key, value in self.options]
        return lines

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "version": self.version,
            "options": dict(self.options),
        }


def _manifest(command: str, args: argparse.Namespace, keys: list[str]) -> RunManifest:
    options = []
    values = vars(args)
    for key in keys:
        value = values.get(key)
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        options.append((key.replace("_", "-"), str(value)))
    return RunManifest(command=command, version=__version__, options=tuple(options))


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message: str):  # noqa: D102 - argparse override
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _threshold(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid threshold {text!r}") from None
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(
            f"threshold must be strictly between 0 and 1, got {text}"
        )
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _comma_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _comma_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in _comma_list(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {text!r}"
        ) from None


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _with_manifest(body: str, manifest: RunManifest) -> str:
    return "\n".join(manifest.comment_lines()) + "\n" + body


def _json_output(manifest: RunManifest, payload: dict) -> str:
    return json.dumps({"manifest": manifest.as_dict(), **payload}, indent=2) + "\n"


def _load_inputs(args: argparse.Namespace) -> ScoreTable:
    space = load_space(args.space)
    return load_scores(args.scores, space, warn_incomplete=False)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    table = _load_inputs(args)
    manifest = _manifest("validate", args, ["space", "scores"])
    body = report.render_completeness(completeness_report(table))
    _emit(_with_manifest(body, manifest), args.out)
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    table = _load_inputs(args)
    datasets, sizes = _select_contexts(table, args.datasets, args.train_sizes)
    ranking = rank(
        table,
        _contexts_of(table, args.split, datasets, sizes),
        split=args.split,
        threshold=args.threshold,
        skip_degenerate=args.skip_degenerate,
    )
    manifest = _manifest(
        "rank",
        args,
        ["space", "scores", "split", "threshold", "datasets", "train_sizes", "top"],
    )
    if args.format == "machine":
        _emit(_json_output(manifest, {"ranking": ranking.to_dict()}), args.out)
    else:
        _emit(_with_manifest(report.render_ranking(ranking, args.top), manifest), args.out)
    return 0


def cmd_loo(args: argparse.Namespace) -> int:
    table = _load_inputs(args)
    results = loo_cbs(
        table,
        args.datasets,
        args.train_sizes,
        split=args.split,
        threshold=args.threshold,
        skip_degenerate=args.skip_degenerate,
    )
    manifest = _manifest(
        "loo",
        args,
        ["space", "scores", "split", "threshold", "datasets", "train_sizes"],
    )
    if args.format == "machine":
        _emit(
            _json_output(manifest, {"results": [r.to_dict() for r in results]}),
            args.out,
        )
    else:
        _emit(_with_manifest(report.render_loo(results), manifest), args.out)
    return 0


def cmd_budget(args: argparse.Namespace) -> int:
    table = _load_inputs(args)
    curve = budget_curve(
        table,
        args.datasets,
        args.train_sizes,
        threshold=args.threshold,
        max_budget=args.max_budget,
        split=args.split,
        normalize_by=args.normalize_by,
        skip_degenerate=args.skip_degenerate,
    )
    manifest = _manifest(
        "budget",
        args,
        [
            "space",
            "scores",
            "split",
            "threshold",
            "datasets",
            "train_sizes",
            "max_budget",
            "normalize_by",
        ],
    )
    if args.format == "machine":
        _emit(_json_output(manifest, {"curve": curve.to_dict()}), args.out)
    else:
        _emit(
            _with_manifest(report.render_budget(curve, details=args.details), manifest),
            args.out,
        )
    return 0


def cmd_importance(args: argparse.Namespace) -> int:
    if args.train_sizes is not None and (args.train_size or args.combine_sizes):
        sys.stderr.write("covsearch importance: error: --train-sizes excludes"
                         " --train-size and --combine-sizes\n")
        return 1
    table = _load_inputs(args)
    if args.train_size is not None:
        scopes = [args.train_size]
    elif args.combine_sizes:
        scopes = [None]
    else:
        scopes = _select_contexts(table, args.datasets, args.train_sizes)[1]
        if not scopes:
            raise CovsearchError("no train sizes match the --train-sizes filter")
    reports = [
        importance_report(
            table,
            args.datasets,
            size,
            split=args.split,
            threshold=args.threshold,
            permutations=args.permutations,
            seed=args.seed,
            combine_train_sizes=args.combine_sizes,
        )
        for size in scopes
    ]
    manifest = _manifest(
        "importance",
        args,
        [
            "space",
            "scores",
            "split",
            "threshold",
            "datasets",
            "train_sizes",
            "train_size",
            "combine_sizes",
            "permutations",
            "seed",
        ],
    )
    if args.format == "machine":
        _emit(
            _json_output(manifest, {"reports": [r.to_dict() for r in reports]}),
            args.out,
        )
    else:
        _emit(_with_manifest(report.render_importance(reports), manifest), args.out)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    table = _load_inputs(args)
    task_map = load_task_map(args.task_map)
    default_config = None
    if args.default_config is not None:
        values = load_json(args.default_config)
        if not isinstance(values, (dict, list)):
            raise ParseError(
                f"default configuration in {args.default_config} must be an"
                f" object of hyperparameter values or an array of them"
            )
        default_config = table.space.configuration(values)
    elif args.model is not None or args.method is not None:
        if args.model is None or args.method is None:
            raise CovsearchError("--model and --method must be given together")
        matches = [
            e
            for e in builtin_catalog()
            if e.source == "default_baseline"
            and e.model.lower() == args.model.lower()
            and e.method.lower() == args.method.lower()
        ]
        if not matches:
            raise CovsearchError(
                f"no bundled default for ({args.model!r}, {args.method!r});"
                f" available: {builtin_models()}"
            )
        default_config = table.space.configuration(matches[0].config.as_dict())
    rows = compare_protocols(
        table,
        task_map,
        default_config,
        datasets=args.datasets,
        train_sizes=args.train_sizes,
        threshold=args.threshold,
        split=args.split,
        skip_degenerate=args.skip_degenerate,
    )
    manifest = _manifest(
        "compare",
        args,
        [
            "space",
            "scores",
            "task_map",
            "default_config",
            "model",
            "method",
            "split",
            "threshold",
            "datasets",
            "train_sizes",
        ],
    )
    if args.format == "machine":
        _emit(
            _json_output(manifest, {"rows": [r.to_dict() for r in rows]}), args.out
        )
    else:
        _emit(_with_manifest(report.render_compare(rows), manifest), args.out)
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    entries = list(builtin_catalog())
    if args.source != "all":
        entries = [e for e in entries if e.source == args.source]
    if args.model is not None:
        entries = [e for e in entries if e.model.lower() == args.model.lower()]
    if args.method is not None:
        entries = [e for e in entries if e.method.lower() == args.method.lower()]
    if args.top is not None:
        entries = [e for e in entries if e.rank <= args.top]
    manifest = _manifest(
        "recommend", args, ["model", "method", "source", "top"]
    )
    if args.format == "machine":
        body = report.catalog_csv(entries)
    else:
        body = report.render_catalog(entries)
    _emit(_with_manifest(body, manifest), args.out)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    space = load_space(args.space) if args.space else None
    datasets: int | list[str]
    if args.datasets is not None and not all(d.isdigit() for d in args.datasets):
        datasets = args.datasets
    elif args.datasets is not None and len(args.datasets) == 1:
        datasets = int(args.datasets[0])
    elif args.datasets is not None:
        datasets = args.datasets
    else:
        datasets = 6
    table = synthetic_table(
        space,
        datasets,
        args.train_sizes or (100, 1000),
        correlation=args.correlation,
        noise=args.noise,
        seed=args.seed,
        scale=args.scale,
    )
    manifest = _manifest(
        "synth",
        args,
        [
            "space",
            "datasets",
            "train_sizes",
            "correlation",
            "noise",
            "seed",
            "scale",
        ],
    )
    scores_text = _with_manifest(serialize_scores(table), manifest)
    Path(args.out_scores).write_text(scores_text, encoding="utf-8")
    if args.out_space:
        Path(args.out_space).write_text(
            serialize_space(table.space), encoding="utf-8"
        )
    sys.stdout.write(
        f"wrote {len(table)} records for {len(table.contexts())} context(s)"
        f" to {args.out_scores}\n"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_io_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--space", required=True, help="space file (JSON)")
    parser.add_argument("--scores", required=True, help="score file (CSV)")


def _add_common_arguments(
    parser: argparse.ArgumentParser, *, default_threshold: float
) -> None:
    parser.add_argument(
        "--split",
        choices=["validation", "test"],
        default="test",
        help="score split feeding the analysis (default: test)",
    )
    parser.add_argument(
        "--threshold",
        type=_threshold,
        default=default_threshold,
        help=f"top-set band, strictly between 0 and 1 (default: {default_threshold})",
    )
    parser.add_argument(
        "--datasets", type=_comma_list, default=None, help="comma-separated filter"
    )
    parser.add_argument(
        "--train-sizes", type=_comma_ints, default=None, help="comma-separated filter"
    )
    parser.add_argument(
        "--skip-degenerate",
        action="store_true",
        help="skip all-zero contexts with a warning instead of failing",
    )


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="write the report to a file")
    parser.add_argument(
        "--format", choices=["text", "machine"], default="text", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="covsearch",
        description=(
            "Turn offline hyperparameter grid-search results into ranked,"
            " coverage-maximizing configuration portfolios, simulate their"
            " value on unseen datasets, and measure per-hyperparameter"
            " consistency across datasets."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check a score file against its space")
    _add_io_arguments(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("rank", help="build the coverage ranking")
    _add_io_arguments(p)
    _add_common_arguments(p, default_threshold=ranking_mod.DEFAULT_THRESHOLD)
    p.add_argument("--top", type=_positive_int, default=None, help="limit output rows")
    _add_output_arguments(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("loo", help="leave-one-dataset-out evaluation")
    _add_io_arguments(p)
    _add_common_arguments(p, default_threshold=ranking_mod.DEFAULT_THRESHOLD)
    _add_output_arguments(p)
    p.set_defaults(func=cmd_loo)

    p = sub.add_parser("budget", help="budget-vs-performance curve")
    _add_io_arguments(p)
    _add_common_arguments(p, default_threshold=ranking_mod.DEFAULT_THRESHOLD)
    p.add_argument("--max-budget", type=_positive_int, default=10)
    p.add_argument(
        "--normalize-by",
        choices=["test_max", "upper_bound"],
        default="test_max",
        help="denominator for normalized test scores",
    )
    p.add_argument("--details", action="store_true", help="include per-context rows")
    _add_output_arguments(p)
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("importance", help="per-hyperparameter consistency")
    _add_io_arguments(p)
    _add_common_arguments(p, default_threshold=importance_mod.DEFAULT_THRESHOLD)
    scope = p.add_mutually_exclusive_group()
    scope.add_argument("--train-size", type=_positive_int, default=None)
    scope.add_argument(
        "--combine-sizes",
        action="store_true",
        help="pool top sets over all train sizes instead of one scope per size",
    )
    p.add_argument("--permutations", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_output_arguments(p)
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("compare", help="default vs recommendation vs upper bound")
    _add_io_arguments(p)
    _add_common_arguments(p, default_threshold=ranking_mod.DEFAULT_THRESHOLD)
    p.add_argument(
        "--task-map",
        required=True,
        help='dataset-to-task JSON file, or "builtin" for the bundled grouping',
    )
    p.add_argument(
        "--default-config",
        default=None,
        help="JSON file of hyperparameter values for the default column",
    )
    p.add_argument("--model", default=None, help="bundled default: model name")
    p.add_argument("--method", default=None, help="bundled default: full_ft or lora")
    _add_output_arguments(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("recommend", help="print the bundled configuration catalog")
    p.add_argument("--model", default=None)
    p.add_argument("--method", default=None, choices=["full_ft", "lora"])
    p.add_argument(
        "--source",
        choices=["cbs_recommendation", "default_baseline", "all"],
        default="cbs_recommendation",
    )
    p.add_argument("--top", type=_positive_int, default=None, help="max rank to show")
    _add_output_arguments(p)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("synth", help="generate a seeded synthetic score table")
    p.add_argument("--out-scores", required=True, help="score file to write")
    p.add_argument("--out-space", default=None, help="space file to write")
    p.add_argument("--space", default=None, help="use this space instead of the demo one")
    p.add_argument(
        "--datasets",
        type=_comma_list,
        default=None,
        help="dataset count or comma-separated names (default: 6)",
    )
    p.add_argument("--train-sizes", type=_comma_ints, default=None)
    p.add_argument("--correlation", type=float, default=0.7)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=100.0)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CovsearchError as exc:
        sys.stderr.write(f"covsearch: error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"covsearch: error: {exc}\n")
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
