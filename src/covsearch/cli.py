"""Command-line interface.

One subcommand per analysis protocol; no interactive mode.  Every command
is deterministic given its inputs and flags, and every output embeds a run
manifest for provenance: the command, the version, and every option that
shaped the result (all but --out, --format and synth's output paths), as
'#' comment lines in text and delimited outputs, as a "manifest" object in
JSON outputs.

Exit codes: 0 success, 1 usage error, 2 data or parse error.  ``_line``
formats every diagnostic line that goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from argparse import ArgumentError, ArgumentTypeError
from collections import Counter
from functools import partial
from pathlib import Path

from . import __version__
from .ingest import (
    builtin_catalog,
    builtin_models,
    completeness_report,
    load_default_config,
    load_scores,
    load_space,
    load_task_map,
    serialize_scores,
    serialize_space,
    _names_pair,
)
from .importance import DEFAULT_PERMUTATIONS, importance_report
from .model import INTEGER, SPLITS, CoverageRanking, CovsearchError, ScoreTable, ValidationError
from .model import _check_count, _check_digits, _check_seed, _check_threshold, _data, _number
from .model import _select
from .protocols import budget_curve, compare_protocols, loo_cbs
from .ranking import rank
from . import importance as importance_mod
from . import ranking as ranking_mod
from . import ingest, protocols, report
from .synth import _check_correlation, _check_noise, _check_scale, synthetic_table


# Namespace entries that are not recorded: the subcommand and its handler,
# and the options that only say where the output goes or how it is encoded.
_UNRECORDED = frozenset({"command", "func", "out", "format", "out_scores", "out_space"})


def _manifest(args: argparse.Namespace) -> dict:
    """The run manifest: command, version and every option of the subcommand
    in declaration order (argparse fills the namespace with each option's
    default in that order), except the unset ones and those in _UNRECORDED."""
    options = {}
    for key, value in vars(args).items():
        if key in _UNRECORDED or value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        options[key.replace("_", "-")] = str(value)
    return {"command": args.command, "version": __version__, "options": options}


def _line(text: str) -> str:
    """One diagnostic line of at most 199 characters (tests pin messages of
    up to 172): each line boundary shown as its escape, such as ``\\n``, and
    a longer text cut to its head and tail around ``...``."""
    breaks = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # those of str.splitlines
    text = text.translate({ord(c): repr(c)[1:-1] for c in breaks})
    if len(text) > 199:
        text = f"{text[:98]}...{text[-98:]}"
    return text + "\n"


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message: str):  # noqa: D102 - argparse override
        self.print_usage(sys.stderr)
        self.exit(1, _line(f"{self.prog}: error: {message}"))


# Numeric flags follow the score file's number grammar and ranges: `1_0`,
# `١٢` or `1e999` is a usage error here as it is a parse error there.


def _real(text: str) -> float:
    return float(_number(text.strip(), f"invalid number {text!r}"))


def _integer(text: str) -> int:
    if not INTEGER.fullmatch(text.strip()):
        raise ValidationError(f"invalid integer {text!r}")
    _check_digits("integer", text.strip())  # the score file's train-size bound
    return int(text)


def _checked(parse, check, *names):
    """A flag type: ``parse`` the text, then run the library's range check
    ``check(*names, value)``; a ValidationError of either is the usage error."""

    def convert(text: str):
        try:
            value = parse(text)
            check(*names, value)
        except ValidationError as exc:
            raise ArgumentTypeError(str(exc)) from None
        return value

    return convert


_count = partial(_checked, _integer, _check_count)  # _count("top"): an integer >= 1


def _comma_list(text: str) -> list[str]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
    return items


def _train_sizes(text: str) -> list[int]:
    """--train-sizes: comma-separated train sizes, each an integer >= 1."""
    return [_count("train_size")(part) for part in _comma_list(text)]


def _count_or_names(text: str) -> int | list[str]:
    """synth --datasets: one all-digit item is a count >= 1 (so any digits,
    not only ASCII ones, must pass the grammar), anything else a list of
    names."""
    names = _comma_list(text)
    if len(names) == 1 and names[0].isdigit():
        return _count("datasets")(names[0])
    return names


def _catalog_method(text: str) -> str:
    """compare and recommend --method: the catalog method that ``text``
    names in any case; other text is left for the choices check to reject."""
    methods = (m for m in ingest.CATALOG_METHODS if _names_pair(("", m), None, text))
    return next(methods, text)


_METHOD = {"type": _catalog_method, "default": None, "choices": ingest.CATALOG_METHODS}


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _with_manifest(args: argparse.Namespace, body: str) -> str:
    manifest = _manifest(args)
    lines = [f"# covsearch {manifest['command']}", f"# version: {manifest['version']}"]
    lines += [f"# {key}: {value}" for key, value in manifest["options"].items()]
    return "\n".join(lines + [body])


def _write(args: argparse.Namespace, result, render, key: str | None = None) -> int:
    """Write one command's result in the requested format: ``render(result)``
    under the manifest's comment lines, or with ``--format machine`` a JSON
    object holding the manifest and the result's JSON form under key."""
    if getattr(args, "format", "text") == "machine":
        text = json.dumps({"manifest": _manifest(args), key: _data(result)}, indent=2) + "\n"
    else:
        text = _with_manifest(args, render(result))
    _emit(text, args.out)
    return 0


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    sys.stderr.write(_line(f"covsearch: warning: {message}"))


def _load_inputs(args: argparse.Namespace) -> ScoreTable:
    space = load_space(args.space)
    return load_scores(args.scores, space, warn_incomplete=False)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    table = _load_inputs(args)
    return _write(args, completeness_report(table), report.render_completeness)


def cmd_rank(args: argparse.Namespace) -> int:
    table = _load_inputs(args)
    _, contexts = _select(table, args.split, args.datasets, args.train_sizes)
    ranking = rank(
        table,
        contexts,
        split=args.split,
        threshold=args.threshold,
        skip_degenerate=args.skip_degenerate,
    )
    if args.top is not None:
        top = ranking.top(args.top)
        ranking = CoverageRanking(top, ranking.contexts, ranking.split, ranking.threshold)
    return _write(args, ranking, report.render_ranking, "ranking")


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
    return _write(args, results, report.render_loo, "results")


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
    return _write(args, curve, partial(report.render_budget, details=args.details), "curve")


def cmd_importance(args: argparse.Namespace) -> int:
    if args.train_sizes is not None and (args.train_size or args.combine_sizes):
        raise ArgumentError(None, "--train-sizes excludes --train-size and --combine-sizes")
    table = _load_inputs(args)
    if args.train_size is not None:
        scopes = [args.train_size]
    elif args.combine_sizes:
        scopes = [None]
    else:  # names and sizes are checked before any scope runs
        _, contexts = _select(table, args.split, args.datasets, args.train_sizes)
        counts = Counter(ctx.train_size for ctx in contexts)  # datasets per size
        # each listed size reports or says why not; so does one size if none is selected
        scopes = sorted(set(args.train_sizes or counts)) or table.train_sizes()[:1] or [None]
        pooled = [size for size in scopes if counts[size] > 1]
        if args.train_sizes is None and pooled:  # by default, skip a size one dataset has
            for size in sorted(set(scopes).difference(pooled)):
                warnings.warn(f"train size {size} has fewer than two datasets; skipped")
            scopes = pooled
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
    return _write(args, reports, report.render_importance, "reports")


def cmd_compare(args: argparse.Namespace) -> int:
    if (args.model is None) != (args.method is None):
        raise ArgumentError(None, "--model and --method must be given together")
    if args.default_config is not None and args.model is not None:
        raise ArgumentError(None, "--default-config excludes --model and --method")
    table = _load_inputs(args)
    task_map = load_task_map(args.task_map)
    default_config = None
    if args.default_config is not None:
        default_config = load_default_config(args.default_config, table.space)
    elif args.model is not None:
        matches = [
            e
            for e in builtin_catalog()
            if e.source == "default_baseline"
            and _names_pair((e.model, e.method), args.model, args.method)
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
    return _write(args, rows, report.render_compare, "rows")


def cmd_recommend(args: argparse.Namespace) -> int:
    if not any(_names_pair(pair, args.model) for pair in builtin_models()):
        raise CovsearchError(f"no bundled model {args.model!r}; available: {builtin_models()}")
    entries = [
        e
        for e in builtin_catalog()
        if args.source in ("all", e.source)
        and _names_pair((e.model, e.method), args.model, args.method)
        and (args.top is None or e.rank <= args.top)
    ]
    if args.format == "machine":
        body = report.catalog_csv(entries)
    else:
        body = report.render_catalog(entries)
    _emit(_with_manifest(args, body), args.out)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    space = load_space(args.space) if args.space else None
    table = synthetic_table(
        space,
        6 if args.datasets is None else args.datasets,
        args.train_sizes or (100, 1000),
        correlation=args.correlation,
        noise=args.noise,
        seed=args.seed,
        scale=args.scale,
    )
    outputs = [(Path(args.out_scores), _with_manifest(args, serialize_scores(table)))]
    if args.out_space:
        outputs.append((Path(args.out_space), serialize_space(table.space)))
    created = [path for path, _ in outputs if not path.exists()]
    try:
        for path, text in outputs:
            path.write_text(text, encoding="utf-8")
    except OSError:  # a failed run leaves no file it created
        for path in created:
            path.unlink(missing_ok=True)
        raise
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
    parser: argparse.ArgumentParser,
    *,
    default_threshold: float = ranking_mod.DEFAULT_THRESHOLD,
    skip_degenerate: bool = True,
) -> None:
    parser.add_argument(
        "--split",
        choices=SPLITS,
        default="test",
        help="score split feeding the analysis (default: test)",
    )
    parser.add_argument(
        "--threshold",
        type=_checked(_real, _check_threshold),
        default=default_threshold,
        help=f"top-set band, strictly between 0 and 1 (default: {default_threshold})",
    )
    parser.add_argument(
        "--datasets", type=_comma_list, default=None, help="comma-separated filter"
    )
    parser.add_argument(
        "--train-sizes", type=_train_sizes, default=None, help="comma-separated filter"
    )
    if skip_degenerate:
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
    _add_common_arguments(p)
    p.add_argument("--top", type=_count("top"), default=None, help="limit output rows")
    _add_output_arguments(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("loo", help="leave-one-dataset-out evaluation")
    _add_io_arguments(p)
    _add_common_arguments(p)
    _add_output_arguments(p)
    p.set_defaults(func=cmd_loo)

    p = sub.add_parser("budget", help="budget-vs-performance curve")
    _add_io_arguments(p)
    _add_common_arguments(p)
    p.add_argument("--max-budget", type=_count("max_budget"), default=protocols.DEFAULT_MAX_BUDGET)
    p.add_argument(
        "--normalize-by",
        choices=protocols.NORMALIZE_MODES,
        default="test_max",
        help="denominator for normalized test scores",
    )
    p.add_argument("--details", action="store_true", help="include per-context rows")
    _add_output_arguments(p)
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("importance", help="per-hyperparameter consistency")
    _add_io_arguments(p)
    _add_common_arguments(
        p, default_threshold=importance_mod.DEFAULT_THRESHOLD, skip_degenerate=False
    )
    scope = p.add_mutually_exclusive_group()
    scope.add_argument("--train-size", type=_count("train_size"), default=None)
    scope.add_argument(
        "--combine-sizes",
        action="store_true",
        help="pool top sets over all train sizes instead of one scope per size",
    )
    p.add_argument("--permutations", type=_count("permutations"), default=DEFAULT_PERMUTATIONS)
    p.add_argument("--seed", type=_checked(_integer, _check_seed), default=0)
    _add_output_arguments(p)
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("compare", help="default vs recommendation vs upper bound")
    _add_io_arguments(p)
    _add_common_arguments(p)
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
    p.add_argument("--method", **_METHOD, help="bundled default: full_ft or lora")
    _add_output_arguments(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("recommend", help="print the bundled configuration catalog")
    p.add_argument("--model", default=None)
    p.add_argument("--method", **_METHOD)
    p.add_argument(
        "--source",
        choices=(*ingest.CATALOG_SOURCES, "all"),
        default="cbs_recommendation",
    )
    p.add_argument("--top", type=_count("top"), default=None, help="max rank to show")
    _add_output_arguments(p)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("synth", help="generate a seeded synthetic score table")
    p.add_argument("--out-scores", required=True, help="score file to write")
    p.add_argument("--out-space", default=None, help="space file to write")
    p.add_argument("--space", default=None, help="use this space instead of the demo one")
    p.add_argument(
        "--datasets",
        type=_count_or_names,
        default=None,
        help="dataset count or comma-separated names (default: 6)",
    )
    p.add_argument("--train-sizes", type=_train_sizes, default=None)
    p.add_argument("--correlation", type=_checked(_real, _check_correlation), default=0.7)
    p.add_argument("--noise", type=_checked(_real, _check_noise), default=0.1)
    p.add_argument("--seed", type=_checked(_integer, _check_seed), default=0)
    p.add_argument("--scale", type=_checked(_real, _check_scale), default=100.0)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings():
        warnings.simplefilter("once")
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except ArgumentError as exc:  # a flag combination argparse does not check
            sys.stderr.write(_line(f"covsearch {args.command}: error: {exc}"))
            return 1
        except (CovsearchError, OSError) as exc:
            sys.stderr.write(_line(f"covsearch: error: {exc}"))
            return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
