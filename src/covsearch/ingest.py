"""File formats: space files, score files, and the bundled catalog.

Space file (JSON, UTF-8)::

    {
      "label": "free-form text",
      "hyperparameters": [
        {"name": "lr", "kind": "real", "domain": ["5e-05", "1e-04"]},
        {"name": "epochs", "kind": "integer", "domain": [5, 10]}
      ]
    }

Domain values may be JSON strings or numbers; they are canonicalized on
load (see model.canonical_value).  An optional top-level "manifest" object
is accepted and ignored, so generated files can carry provenance.

Score file (delimited text, UTF-8)::

    dataset,train_size,split,score,<hp1>,<hp2>,...

One record per line; lines starting with '#' and blank lines are ignored.
The first four columns are fixed; the remaining columns must be exactly the
hyperparameters of the space (any order).  ``split`` is "validation" or
"test"; scores are non-negative ASCII decimals (``model.NUMBER``), train
sizes positive ASCII integers.  Fields containing the delimiter must be
quoted; embedded newlines are not supported.

Missing grid cells are tolerated with a warning rather than an error: real
result dumps are often partial, and all downstream math operates over the
records present.  Duplicate rows with identical scores collapse silently;
conflicting duplicates are a hard error.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .model import (
    ConfigSpace,
    Configuration,
    Context,
    CovsearchError,
    Hyperparameter,
    INTEGER,
    NUMBER,
    RESERVED_COLUMNS,
    ScoreRecord,
    ScoreTable,
    ValidationError,
)

CATALOG_METHODS = ("full_ft", "lora")
CATALOG_SOURCES = ("cbs_recommendation", "default_baseline")


class ParseError(CovsearchError):
    """A document failed to parse; carries a line number or field path."""

    def __init__(self, message: str, *, line: int | None = None, path: str | None = None):
        self.line = line
        self.path = path
        if line is not None:
            message = f"line {line}: {message}"
        elif path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


def _read_text(path: str | Path) -> str:
    """A UTF-8 file's text, with newlines translated as ``Path.read_text``
    does; a byte sequence that is not UTF-8 is a ParseError at its line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"invalid UTF-8 in {path}: byte {data[exc.start]:#04x}",
            line=data.count(b"\n", 0, exc.start) + 1,
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_json(path: str | Path) -> object:
    """Parse a UTF-8 JSON file; malformed content is a ParseError at its line."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}", line=exc.lineno) from None


# ---------------------------------------------------------------------------
# Space files
# ---------------------------------------------------------------------------


def parse_space(text: str) -> ConfigSpace:
    """Parse a space document; round-trips exactly through serialize_space."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object", path="$")
    allowed = {"label", "hyperparameters", "manifest"}
    unknown = set(doc) - allowed
    if unknown:
        raise ParseError(f"unknown field(s) {sorted(unknown)}", path="$")
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise ParseError("label must be a string", path="label")
    raw_hps = doc.get("hyperparameters")
    if not isinstance(raw_hps, list) or not raw_hps:
        raise ParseError(
            "hyperparameters must be a non-empty array", path="hyperparameters"
        )
    hps = []
    for i, item in enumerate(raw_hps):
        path = f"hyperparameters[{i}]"
        if not isinstance(item, dict):
            raise ParseError("entry must be an object", path=path)
        unknown = set(item) - {"name", "kind", "domain"}
        if unknown:
            raise ParseError(f"unknown field(s) {sorted(unknown)}", path=path)
        for key in ("name", "kind", "domain"):
            if key not in item:
                raise ParseError(f"missing field {key!r}", path=path)
        if not isinstance(item["domain"], list):
            raise ParseError("domain must be an array", path=f"{path}.domain")
        try:
            hps.append(
                Hyperparameter(
                    name=str(item["name"]),
                    kind=str(item["kind"]),
                    domain=tuple(item["domain"]),
                )
            )
        except ValidationError as exc:
            raise ParseError(str(exc), path=path) from None
    try:
        return ConfigSpace(hyperparameters=tuple(hps), label=label)
    except ValidationError as exc:
        raise ParseError(str(exc), path="hyperparameters") from None


def serialize_space(space: ConfigSpace) -> str:
    doc = {
        "label": space.label,
        "hyperparameters": [
            {"name": hp.name, "kind": hp.kind, "domain": list(hp.domain)}
            for hp in space.hyperparameters
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def load_space(path: str | Path) -> ConfigSpace:
    return parse_space(_read_text(path))


# ---------------------------------------------------------------------------
# Score files
# ---------------------------------------------------------------------------


def _parse_csv_line(line: str, lineno: int) -> list[str]:
    try:
        return next(csv.reader([line]))
    except (csv.Error, StopIteration):
        raise ParseError("malformed delimited line", line=lineno) from None


def parse_scores(text: str, space: ConfigSpace, *, warn_incomplete: bool = True) -> ScoreTable:
    """Parse a score file against a space.

    Emits a UserWarning summarizing missing grid cells and single-split
    contexts when ``warn_incomplete`` is set.  Raises ParseError with the
    offending physical line number on any malformed content.
    """
    header: list[str] | None = None
    # Per hyperparameter, in space order: its field position and a memo of
    # stripped raw text -> canonical domain value.  Only values that proved
    # domain members enter it, so a bad value fails on every line it is on.
    columns: list[tuple[Hyperparameter, int, dict[str, str]]] = []
    # (dataset, train size, split, values) -> (first line, record).
    seen: dict[tuple, tuple[int, ScoreRecord]] = {}
    names = space.names

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = _parse_csv_line(line, lineno)
        if header is None:
            header = [f.strip() for f in fields]
            if tuple(header[:4]) != RESERVED_COLUMNS:
                raise ParseError(
                    f"header must start with {','.join(RESERVED_COLUMNS)},"
                    f" got {','.join(header[:4])}",
                    line=lineno,
                )
            hp_names = header[4:]
            unknown = [n for n in hp_names if n not in space.names]
            if unknown:
                raise ParseError(
                    f"unknown hyperparameter column(s) {unknown}", line=lineno
                )
            missing = [n for n in space.names if n not in hp_names]
            if missing:
                raise ParseError(
                    f"missing hyperparameter column(s) {missing}", line=lineno
                )
            if len(set(hp_names)) != len(hp_names):
                raise ParseError("duplicate hyperparameter column", line=lineno)
            columns = [
                (hp, 4 + hp_names.index(hp.name), {}) for hp in space.hyperparameters
            ]
            continue

        if len(fields) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(fields)}",
                line=lineno,
            )
        size_text, score_text = fields[1].strip(), fields[3].strip()
        if not INTEGER.fullmatch(size_text):
            raise ParseError(
                f"train_size must be an integer, got {fields[1]!r}", line=lineno
            )
        if not NUMBER.fullmatch(score_text):
            raise ParseError(f"invalid score {score_text!r}", line=lineno)
        try:
            values = []
            for hp, position, memo in columns:
                text = fields[position].strip()
                value = memo.get(text)
                if value is None:
                    value = memo[text] = hp.domain[hp.index(text)]
                values.append(value)
            key = (fields[0].strip(), int(size_text), fields[2].strip(), tuple(values))
            record = ScoreRecord(
                context=Context(dataset=key[0], train_size=key[1]),
                split=key[2],
                config=Configuration(tuple(zip(names, values))),
                score=float(score_text),
            )
        except ValidationError as exc:
            raise ParseError(str(exc), line=lineno) from None
        first = seen.setdefault(key, (lineno, record))
        if first[1].score != record.score:
            raise ParseError(
                f"conflicting duplicate of line {first[0]}: {record.context}"
                f" {record.split} ({record.config}) has score {first[1].score!r}"
                f" vs {record.score!r}",
                line=lineno,
            )

    if header is None:
        raise ParseError("missing header row", line=1)

    table = ScoreTable(space, (record for _, record in seen.values()))
    if warn_incomplete:
        report = completeness_report(table)
        n_missing = sum(len(m) for _, _, m in report.missing)
        if n_missing:
            cells = sum(1 for _, _, m in report.missing if m)
            warnings.warn(
                f"score table is missing {n_missing} grid configuration(s)"
                f" across {cells} context/split cell(s)",
                stacklevel=2,
            )
        for ctx, split in report.single_split:
            warnings.warn(
                f"context {ctx} has records only for the {split} split",
                stacklevel=2,
            )
    return table


def serialize_scores(table: ScoreTable) -> str:
    """Canonical score-file serialization (sorted rows, shortest floats)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(RESERVED_COLUMNS) + list(table.space.names))
    for rec in table.records:
        writer.writerow(
            [rec.context.dataset, rec.context.train_size, rec.split, repr(rec.score)]
            + list(rec.config.values)
        )
    return out.getvalue()


def load_scores(path: str | Path, space: ConfigSpace, *, warn_incomplete: bool = True) -> ScoreTable:
    return parse_scores(_read_text(path), space, warn_incomplete=warn_incomplete)


# ---------------------------------------------------------------------------
# Completeness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompletenessReport:
    """Grid coverage of a score table.

    ``missing`` has one entry per (context, split) present in the table with
    the grid configurations that have no record there; an empty tuple means
    that cell holds the full grid.  ``single_split`` lists contexts present
    in only one split, with the split they do have.
    """

    missing: tuple[tuple[Context, str, tuple[Configuration, ...]], ...]
    single_split: tuple[tuple[Context, str], ...]

    @property
    def is_complete(self) -> bool:
        return all(not m for _, _, m in self.missing)


def completeness_report(table: ScoreTable) -> CompletenessReport:
    grid = range(table.space.size)
    decode = table.space.config_at
    missing = []
    single = []
    for ctx in table.contexts():
        splits = table.splits_for(ctx)
        for split in splits:
            present = table.cell(ctx, split)
            missing.append((ctx, split, tuple(decode(i) for i in grid if i not in present)))
        if len(splits) == 1:
            single.append((ctx, splits[0]))
    return CompletenessReport(missing=tuple(missing), single_split=tuple(single))


# ---------------------------------------------------------------------------
# Bundled catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """One bundled recommendation: a ranked configuration for a model/method."""

    model: str
    method: str
    source: str
    rank: int
    config: Configuration

    def __post_init__(self) -> None:
        if self.method not in CATALOG_METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        if self.source not in CATALOG_SOURCES:
            raise ValidationError(f"unknown source {self.source!r}")
        if self.rank < 1:
            raise ValidationError(f"rank must be >= 1, got {self.rank}")


def _catalog_doc() -> dict:
    data = resources.files("covsearch").joinpath("data/catalog.json")
    return json.loads(data.read_text(encoding="utf-8"))


@lru_cache(maxsize=1)
def _catalog() -> tuple[dict[tuple[str, str], ConfigSpace], tuple[CatalogEntry, ...]]:
    doc = _catalog_doc()
    spaces: dict[tuple[str, str], ConfigSpace] = {}
    for item in doc["spaces"]:
        space = ConfigSpace(
            hyperparameters=tuple(
                Hyperparameter(h["name"], h["kind"], tuple(h["domain"]))
                for h in item["hyperparameters"]
            ),
            label=item["label"],
        )
        spaces[(item["model"], item["method"])] = space
    entries = []
    for item in doc["entries"]:
        space = spaces[(item["model"], item["method"])]
        if item["source"] == "cbs_recommendation":
            # Recommendations are grid members of their space by construction.
            config = space.configuration(item["values"])
        else:
            # Baseline defaults come from external sources and may sit
            # outside the searched domains; canonicalize per kind only.
            config = Configuration(
                tuple(
                    (hp.name, hp.canonical(item["values"][hp.name]))
                    for hp in space.hyperparameters
                )
            )
        entries.append(
            CatalogEntry(
                model=item["model"],
                method=item["method"],
                source=item["source"],
                rank=int(item["rank"]),
                config=config,
            )
        )
    return spaces, tuple(entries)


def builtin_catalog() -> tuple[CatalogEntry, ...]:
    """All bundled recommendation and baseline-default entries."""
    return _catalog()[1]


def builtin_space(model: str, method: str) -> ConfigSpace:
    """The bundled search space for one (model, method) pair."""
    spaces = _catalog()[0]
    for (m, t), space in spaces.items():
        if m.lower() == model.lower() and t.lower() == method.lower():
            return space
    available = sorted(spaces)
    raise ValidationError(
        f"no bundled space for ({model!r}, {method!r}); available: {available}"
    )


def builtin_models() -> list[tuple[str, str]]:
    return sorted(_catalog()[0])


@lru_cache(maxsize=1)
def builtin_task_map() -> dict[str, str]:
    """Bundled dataset-to-task grouping for macro-averaged reports."""
    data = resources.files("covsearch").joinpath("data/task_groups.json")
    return dict(json.loads(data.read_text(encoding="utf-8")))


def load_task_map(source: str | Path) -> dict[str, str]:
    """Load a dataset-to-task mapping; the literal "builtin" uses the bundle."""
    if str(source) == "builtin":
        return builtin_task_map()
    doc = load_json(source)
    if not isinstance(doc, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in doc.items()
    ):
        raise ParseError("task map must be an object of dataset -> task", path="$")
    return doc
