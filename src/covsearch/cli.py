"""Command-line interface.

One subcommand per analysis protocol; no interactive mode.  Every command
is deterministic given its inputs and flags, and every output embeds a run
manifest for provenance: the command, the version, and every option that
shaped the result (all but --out, --format and synth's output paths), as
'#' comment lines in text and delimited outputs, as a "manifest" object in
JSON outputs.

Exit codes: 0 success, 1 usage error, 2 data or parse error.  ``_line``
formats every diagnostic line that goes to stderr, and ``_save`` writes
every file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from argparse import ArgumentError, ArgumentTypeError
from contextlib import suppress
from functools import partial
from itertools import chain, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Iterable

from . import __version__
from .ingest import (
    builtin_catalog,  # unused here: the benchmark's import probe calls cli.builtin_catalog()
    catalog_entries,
    completeness_report,
    load_default_config,
    load_scores,
    load_space,
    load_task_map,
    serialize_scores,
    serialize_space,
)
from .importance import DEFAULT_PERMUTATIONS, importance_report, importance_scopes
from .model import SPLITS, CoverageRanking, CovsearchError, ScoreTable, ValidationError
from .model import _check_count, _check_seed, _check_threshold, _data, _integer, _number
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


def _shown(value) -> str:
    """``str(value)`` with each byte of a command-line text that is not
    UTF-8 (a lone surrogate in the str) shown as its ``\\xNN`` escape."""
    return os.fsencode(str(value)).decode("utf-8", "backslashreplace")


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
        options[key.replace("_", "-")] = _shown(value)
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


def _int(text: str) -> int:
    return _integer(text.strip(), "integer", f"invalid integer {text!r}")


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


_count = partial(_checked, _int, _check_count)  # _count("top"): an integer >= 1


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


# compare and recommend --method
_METHOD = {"type": ingest._catalog_method, "default": None, "choices": ingest.CATALOG_METHODS}


def _header(args: argparse.Namespace) -> str:
    """The run manifest as '#' comment lines."""
    manifest = _manifest(args)
    lines = [f"# covsearch {manifest['command']}", f"# version: {manifest['version']}"]
    lines += [f"# {key}: {value}" for key, value in manifest["options"].items()]
    return "".join(f"{line}\n" for line in lines)


def _whole(render):
    return lambda result: (render(result),)  # a renderer of one string, as one piece


def _dumps(document: object) -> str:
    """``json.dumps(document, indent=2)`` bit for bit, for str-keyed documents.
    A container of scalars is one call of json's C encoder (``indent`` makes
    json encode in Python), its items split by line break and indentation; one
    of containers recurses, and one met again at the same depth reuses its text."""
    texts, flat = {}, {}

    def encode(value, depth):  # the text of ``value``, its items at ``depth``
        if depth not in flat:  # json.dumps's C encoder as it builds one without indent, if any
            sep = ",\n" + "  " * depth
            flat[depth] = (c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                                          None, ": ", sep, False, False, True) if c_make_encoder
                           else lambda value, _: [json.dumps(value, separators=(sep, ": "))])
        if not (value and isinstance(value, (dict, list, tuple))):
            return "".join(flat[depth](value, 0))
        pad, text = "\n" + "  " * depth, texts.get((id(value), depth))
        if text is None:
            items = value.values() if isinstance(value, dict) else value
            if not any(map(isinstance, items, repeat((dict, list, tuple)))):
                inner = "".join(flat[depth](value, 0))[1:-1]
            else:
                parts = [encode(item, depth + 1) for item in items]
                if isinstance(value, dict):
                    parts = map("{}: {}".format, map(encode_basestring_ascii, value), parts)
                inner = ("," + pad).join(parts)
            ends = "{}" if isinstance(value, dict) else "[]"
            text = texts[id(value), depth] = f"{ends[0]}{pad}{inner}\n{'  ' * (depth - 1)}{ends[1]}"
        return text

    return encode(document, 1)


def _write(args: argparse.Namespace, result, render, key: str | None = None) -> int:
    """Write one command's report to --out or stdout: given a ``key``, with
    ``--format machine`` the manifest and the result's ``_data``, which shares
    sub-objects, under key as ``_dumps`` JSON; else the pieces ``render(result)``
    yields under the manifest's comment lines.  A file takes them one by one,
    stdout in one write; a reader that stops reading, as ``head`` does, is no error."""
    if key is not None and args.format == "machine":
        pieces = [_dumps({"manifest": _manifest(args), key: _data(result)}), "\n"]
    else:
        pieces = chain([_header(args)], render(result))
    if args.out:
        _save([(Path(args.out), pieces)])
    else:
        with suppress(BrokenPipeError):
            sys.stdout.write("".join(pieces))
    return 0


def _save(outputs: list[tuple[Path, Iterable[str]]]) -> None:
    """Write each ``(path, pieces)`` so that a failed run leaves every target
    as it was: each output's pieces go to a new file beside its target,
    renamed over it once every write succeeded.  A target that is not a
    regular file, such as /dev/null, is written in place."""
    staged, in_place = [], []
    try:
        for number, (path, pieces) in enumerate(outputs):
            if path.exists() and not path.is_file():
                in_place.append((path, pieces))
                continue
            target = path.resolve()  # a symbolic link keeps pointing where it did
            temp = target.with_name(f".{target.name}.{os.getpid()}-{number}.tmp")
            staged.append((temp, target))
            try:
                with temp.open("w", encoding="utf-8") as file:
                    file.writelines(pieces)
            except OSError as exc:  # name the target, not the new file
                exc.filename = str(path)
                raise
        for path, pieces in in_place:
            with path.open("w", encoding="utf-8") as file:
                file.writelines(pieces)
        for temp, target in staged:
            os.replace(temp, target)
    finally:
        for temp, _ in staged:
            temp.unlink(missing_ok=True)


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    sys.stderr.write(_line(f"covsearch: warning: {message}"))


def _load_inputs(args: argparse.Namespace) -> ScoreTable:
    space = load_space(args.space)
    return load_scores(args.scores, space, warn_incomplete=False)


def _selection(args: argparse.Namespace) -> dict:
    """The keywords that choose what loo_cbs, budget_curve and compare_protocols read."""
    keys = ("datasets", "train_sizes", "split", "threshold", "skip_degenerate")
    return {key: getattr(args, key) for key in keys}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    table = _load_inputs(args)
    return _write(args, completeness_report(table), report.completeness_pieces)


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
    return _write(args, ranking, _whole(report.render_ranking), "ranking")


def cmd_loo(args: argparse.Namespace) -> int:
    results = loo_cbs(_load_inputs(args), **_selection(args))
    return _write(args, results, _whole(report.render_loo), "results")


def cmd_budget(args: argparse.Namespace) -> int:
    curve = budget_curve(
        _load_inputs(args),
        max_budget=args.max_budget,
        normalize_by=args.normalize_by,
        **_selection(args),
    )
    return _write(args, curve, _whole(partial(report.render_budget, details=args.details)), "curve")


def cmd_importance(args: argparse.Namespace) -> int:
    if args.train_sizes is not None and (args.train_size or args.combine_sizes):
        raise ArgumentError(None, "--train-sizes excludes --train-size and --combine-sizes")
    table = _load_inputs(args)
    sizes = args.train_sizes if args.train_size is None else [args.train_size]
    scopes = [None] if args.combine_sizes else importance_scopes(
        table, args.datasets, sizes, split=args.split
    )
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
    return _write(args, reports, _whole(report.render_importance), "reports")


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
        matches = catalog_entries(args.model, args.method, "default_baseline")
        if not matches:  # each bundled pair has one; this guards an edited bundle
            raise CovsearchError(f"no bundled default for ({args.model!r}, {args.method!r})")
        default_config = table.space.configuration(matches[0].config.as_dict())
    rows = compare_protocols(table, task_map, default_config, **_selection(args))
    return _write(args, rows, _whole(report.render_compare), "rows")


def cmd_recommend(args: argparse.Namespace) -> int:
    source = None if args.source == "all" else args.source
    entries = [
        e
        for e in catalog_entries(args.model, args.method, source)
        if args.top is None or e.rank <= args.top
    ]
    render = report.catalog_csv if args.format == "machine" else report.render_catalog
    return _write(args, entries, _whole(render))


def cmd_synth(args: argparse.Namespace) -> int:
    if args.out_space and Path(args.out_scores).resolve() == Path(args.out_space).resolve():
        raise ArgumentError(None, "--out-scores and --out-space name the same file")
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
    outputs = [(Path(args.out_scores), [_header(args), serialize_scores(table)])]
    if args.out_space:
        outputs.append((Path(args.out_space), [serialize_space(table.space)]))
    _save(outputs)
    with suppress(BrokenPipeError):
        sys.stdout.write(
            f"wrote {len(table)} records for {len(table.contexts())} context(s)"
            f" to {_shown(args.out_scores)}\n"
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
    p.add_argument("--seed", type=_checked(_int, _check_seed), default=0)
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
    p.add_argument("--seed", type=_checked(_int, _check_seed), default=0)
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
    code = main()
    if sys.stdout is not None:  # None for a process started without fd 1
        with suppress(BrokenPipeError):  # a closed pipe drops what is left in the buffer
            sys.stdout.close()
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
