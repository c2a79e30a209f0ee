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

One record per line; only "\n", "\r\n" and "\r" end a line.  Lines
starting with '#' and blank lines are ignored.  The first four columns are
fixed; the remaining columns must be exactly the hyperparameters of the
space (any order).  ``split`` is "validation" or "test"; scores are
non-negative ASCII decimals (``model.NUMBER``), train sizes positive ASCII
integers.  Fields containing the delimiter must be quoted; embedded newlines
are not supported.  Files may start with a UTF-8 byte-order mark.

Missing grid cells are tolerated with a warning rather than an error: real
result dumps are often partial, and all downstream math operates over the
records present.  Each row is read once, straight to its grid id, and keyed
by (context, split, grid id): identical duplicates collapse silently to the
first, conflicting ones are a hard error.  A file repeats each
configuration's text in every context and each cell's prefix on its every
row, so two memos of raw text that the row parser has accepted resolve a
row: the text after the fourth comma to a grid id, the dataset, train size
and split texts to a cell.  Such a row is split once, its score checked and
the duplicate rule applied; any other line, and any line that fails, goes to
the row parser, which raises every ParseError.  The gap warning counts cell
sizes, and ``serialize_scores`` writes its rows straight from the cells.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
from functools import lru_cache
from itertools import compress
from pathlib import Path

from . import model
from .model import (
    ConfigSpace,
    Configuration,
    Context,
    CovsearchError,
    Hyperparameter,
    INTEGER,
    NUMBER,
    RESERVED_COLUMNS,
    ScoreTable,
    ValidationError,
    _Record,
    _set_field,
    _check_count,
    _check_score,
    _check_split,
    _warn,
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
    """A UTF-8 file's text, without a leading byte-order mark; a byte
    sequence that is not UTF-8 is a ParseError at its line."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        breaks = data.count(b"\n", 0, exc.start) + data.count(b"\r", 0, exc.start)
        raise ParseError(
            f"invalid UTF-8 in {path}: byte {data[exc.start]:#04x}",
            line=breaks - data.count(b"\r\n", 0, exc.start) + 1,
        ) from None
    return text


def _newlines(text: str) -> str:
    """``text`` with "\r\n" and "\r" translated to "\n", the one line end."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_json(path: str | Path) -> object:
    """Parse a UTF-8 JSON file; malformed content is a ParseError at its line."""
    try:
        return json.loads(_newlines(_read_text(path)))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}", line=exc.lineno) from None


# ---------------------------------------------------------------------------
# Space files
# ---------------------------------------------------------------------------


def parse_space(text: str) -> ConfigSpace:
    """Parse a space document; round-trips exactly through serialize_space."""
    try:
        doc = json.loads(_newlines(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    return _space(doc)


def _space(doc: object) -> ConfigSpace:
    """The space of a decoded space document; each failed check is a
    ParseError naming the path of the field at fault."""
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


class _ScoreRows:
    """The row parser of one score file and the cells it fills.

    ``parse`` checks one line in full; every ParseError of the file comes
    from it.  Each value's stripped text resolves through
    ``Hyperparameter.index``, which remembers the spellings that proved
    members.  Once a quote-free data row has fully succeeded, it enters the
    row's raw text in the memos of ``parse_scores``'s fast path: ``ids``
    maps the text after the fourth comma to the grid id, ``prefixes`` the
    (dataset, train size, split) texts to the cell.
    """

    def __init__(self, space: ConfigSpace):
        self.space = space
        self.header: list[str] | None = None
        # (hyperparameter, its field position) in space order.
        self.columns: list[tuple[Hyperparameter, int]] = []
        self.contexts: dict[tuple[str, int], Context] = {}
        # (dataset, train size, split) -> {grid id: (first line, score)}.
        self.cells: dict[tuple[str, int, str], dict[int, tuple[int, float]]] = {}
        self.ids: dict[str, int] = {}
        self.prefixes: dict[tuple[str, str, str], dict[int, tuple[int, float]]] = {}

    def parse(self, line: str, lineno: int) -> None:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            return
        fields = _parse_csv_line(line, lineno)
        if self.header is None:
            self.header = header = [f.strip() for f in fields]
            if tuple(header[:4]) != RESERVED_COLUMNS:
                raise ParseError(
                    f"header must start with {','.join(RESERVED_COLUMNS)},"
                    f" got {','.join(header[:4])}",
                    line=lineno,
                )
            space = self.space
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
            self.columns = [(hp, 4 + hp_names.index(hp.name)) for hp in space.hyperparameters]
            return

        if len(fields) != len(self.header):
            raise ParseError(
                f"expected {len(self.header)} fields, got {len(fields)}",
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
            index = self.space._grid_id(hp.index(fields[f].strip()) for hp, f in self.columns)
            key = (fields[0].strip(), int(size_text), fields[2].strip())
            cell = self.cells.get(key)
            if cell is None:  # a new (context, split): check both once
                if key[:2] not in self.contexts:
                    self.contexts[key[:2]] = Context(*key[:2])
                _check_split(key[2])
                cell = self.cells[key] = {}
            score = _check_score(float(score_text))
        except ValidationError as exc:
            raise ParseError(str(exc), line=lineno) from None
        first = cell.setdefault(index, (lineno, score))
        if first[1] != score:
            raise ParseError(
                f"conflicting duplicate of line {first[0]}: {self.contexts[key[:2]]}"
                f" {key[2]} ({self.space.config_at(index)}) has score {first[1]!r}"
                f" vs {score!r}",
                line=lineno,
            )
        if '"' not in line:  # without a quote, csv's fields are the split's
            dataset, size, split, _, suffix = line.split(",", 4)
            self.ids[suffix] = index
            self.prefixes[dataset, size, split] = cell


def parse_scores(text: str, space: ConfigSpace, *, warn_incomplete: bool = True) -> ScoreTable:
    """Parse a score file against a space.

    Emits a UserWarning summarizing missing grid cells and single-split
    contexts when ``warn_incomplete`` is set.  Raises ParseError with the
    offending physical line number on any malformed content.
    """
    rows = _ScoreRows(space)
    ids, prefixes = rows.ids, rows.prefixes
    # csv rejects a field longer than its limit; a line within it has none.
    limit = csv.field_size_limit()
    fullmatch = NUMBER.fullmatch
    lines = _newlines(text).split("\n")
    for lineno, line in enumerate(lines, start=1):
        # The fast path: a row whose prefix and suffix both resolve from the
        # memos needs only its score checked and the duplicate rule applied.
        # A line with a quote never does, as no memo key and no valid score
        # holds one.  Everything else goes to the row parser.
        parts = line.split(",", 4)
        if len(parts) == 5 and len(line) <= limit:
            cell = prefixes.get((parts[0], parts[1], parts[2]))
            index = ids.get(parts[4])
            score_text = parts[3].strip()
            if cell is not None and index is not None and fullmatch(score_text):
                try:
                    score = _check_score(float(score_text))
                except ValidationError:
                    pass
                else:
                    if cell.setdefault(index, (lineno, score))[1] == score:
                        continue
        rows.parse(line, lineno)

    if rows.header is None:
        raise ParseError("missing header row", line=1)

    contexts, cells = rows.contexts, rows.cells
    table = model.ScoreTable._from_cells(space, {  # perfbench's tracer rebinds ingest.ScoreTable
        (contexts[key[:2]], key[2]): {index: score for index, (_, score) in cell.items()}
        for key, cell in cells.items()
    })
    if warn_incomplete:
        gaps = [space.size - len(cell) for cell in cells.values()]
        if sum(gaps):
            _warn(
                f"score table is missing {sum(gaps)} grid configuration(s)"
                f" across {len(gaps) - gaps.count(0)} context/split cell(s)"
            )
        for ctx in table.contexts():
            splits = table.splits_for(ctx)
            if len(splits) == 1:
                _warn(f"context {ctx} has records only for the {splits[0]} split")
    return table


def serialize_scores(table: ScoreTable) -> str:
    """Canonical score-file serialization from the cells (sorted rows, shortest
    floats).  A dataset starting with '#' is quoted, or its rows would read
    back as comments."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    quoted = csv.writer(out, lineterminator=",", quoting=csv.QUOTE_ALL)
    writer.writerow(list(RESERVED_COLUMNS) + list(table.space.names))
    for ctx in table.contexts():
        rows = (
            [ctx.dataset, ctx.train_size, split, repr(score), *table.space.config_at(index).values]
            for split in table.splits_for(ctx)
            for index, score in table.cell(ctx, split).items()
        )
        if ctx.dataset.startswith("#"):
            for row in rows:
                quoted.writerow(row[:1])  # the quoted dataset and its comma
                writer.writerow(row[1:])
        else:
            writer.writerows(rows)
    return out.getvalue()


def load_scores(path: str | Path, space: ConfigSpace, *, warn_incomplete: bool = True) -> ScoreTable:
    return parse_scores(_read_text(path), space, warn_incomplete=warn_incomplete)


# ---------------------------------------------------------------------------
# Completeness
# ---------------------------------------------------------------------------


class CompletenessReport(_Record):
    """Grid coverage of a score table.

    ``missing`` has one entry per (context, split) present in the table with
    the grid configurations that have no record there; an empty tuple means
    that cell holds the full grid.  Cells with equal gaps may share one
    tuple.  ``single_split`` lists contexts present in only one split, with
    the split they do have.
    """

    def __init__(
        self,
        missing: tuple[tuple[Context, str, tuple[Configuration, ...]], ...],
        single_split: tuple[tuple[Context, str], ...],
    ) -> None:
        _set_field(self, "missing", missing)
        _set_field(self, "single_split", single_split)

    @property
    def is_complete(self) -> bool:
        return all(not m for _, _, m in self.missing)


def completeness_report(table: ScoreTable) -> CompletenessReport:
    space = table.space
    # Cell ids are stored ascending, so a cell's id tuple keys its id set:
    # cells holding the same ids share one computed gap tuple.
    gaps: dict[tuple[int, ...], tuple[Configuration, ...]] = {}
    missing = []
    single = []
    for ctx in table.contexts():
        splits = table.splits_for(ctx)
        for split in splits:
            cell = table.cell(ctx, split)
            if len(cell) == space.size:
                missing.append((ctx, split, ()))
                continue
            ids = tuple(cell)
            gap = gaps.get(ids)
            if gap is None:
                mask = bytearray(b"\x01") * space.size
                for index in ids:
                    mask[index] = 0
                gap = gaps[ids] = tuple(space._decode(list(compress(range(space.size), mask))))
            missing.append((ctx, split, gap))
        if len(splits) == 1:
            single.append((ctx, splits[0]))
    return CompletenessReport(missing=tuple(missing), single_split=tuple(single))


# ---------------------------------------------------------------------------
# Bundled catalog
# ---------------------------------------------------------------------------


class CatalogEntry(_Record):
    """One bundled recommendation: a ranked configuration for a model/method."""

    def __init__(
        self, model: str, method: str, source: str, rank: int, config: Configuration
    ) -> None:
        _set_field(self, "model", model)
        _set_field(self, "method", method)
        _set_field(self, "source", source)
        _set_field(self, "rank", rank)
        _set_field(self, "config", config)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.method not in CATALOG_METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        if self.source not in CATALOG_SOURCES:
            raise ValidationError(f"unknown source {self.source!r}")
        _check_count("rank", self.rank)


def _bundled(name: str) -> dict:
    """A fresh copy of one bundled JSON document of the package."""
    from importlib import resources  # a command that reads no bundle never loads it

    data = resources.files("covsearch").joinpath(f"data/{name}")
    return json.loads(data.read_text(encoding="utf-8"))


def _names_pair(pair: tuple[str, str], model: str | None, method: str | None = None) -> bool:
    """Whether a bundled (model, method) pair is the one asked for, ignoring
    case; a name given as None matches any."""
    return all(w is None or n.lower() == w.lower() for n, w in zip(pair, (model, method)))


@lru_cache(maxsize=1)
def _catalog() -> tuple[dict[tuple[str, str], ConfigSpace], tuple[CatalogEntry, ...]]:
    doc = _bundled("catalog.json")
    spaces = {(item.pop("model"), item.pop("method")): _space(item) for item in doc["spaces"]}
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
            CatalogEntry(item["model"], item["method"], item["source"], int(item["rank"]), config)
        )
    return spaces, tuple(entries)


def builtin_catalog() -> tuple[CatalogEntry, ...]:
    """All bundled recommendation and baseline-default entries."""
    return _catalog()[1]


def builtin_space(model: str, method: str) -> ConfigSpace:
    """The bundled search space for one (model, method) pair."""
    spaces = _catalog()[0]
    for pair, space in spaces.items():
        if _names_pair(pair, model, method):
            return space
    raise ValidationError(
        f"no bundled space for ({model!r}, {method!r}); available: {sorted(spaces)}"
    )


def builtin_models() -> list[tuple[str, str]]:
    return sorted(_catalog()[0])


def builtin_task_map() -> dict[str, str]:
    """Bundled dataset-to-task grouping for macro-averaged reports; a new
    dict per call, so a caller's edit reaches no other caller."""
    return _bundled("task_groups.json")


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
