"""Core domain types shared by every analysis module.

Hyperparameter values are stored as canonical decimal strings rather than
binary floats, so configuration identity is exact and platform independent:
"5e-06", "5.0E-6" and "0.000005" all canonicalize to "5.0e-6".  Scores are
plain floats on whatever non-negative scale the input table uses; nothing
here rescales them.

The order in which hyperparameters are declared, and the order of values
inside each domain, define the grid enumeration order and every
deterministic tie-break downstream.  Inside a score table a configuration's
identity is its grid id: its mixed-radix position in that order, with the
last hyperparameter varying fastest (``ConfigSpace.config_index`` encodes,
``ConfigSpace.config_at`` decodes, ``ConfigSpace._decode`` many ids in one
pass over the grid order).  The analyses work on grid ids;
``Configuration`` objects are built only where results leave the package.
``ScoreTable(space, records)`` is the public constructor; the parser and
the generator hand their checked grid-id cells to ``ScoreTable._from_cells``.
A table stores them by context, sorted once; every view reads that index.
``_select`` is the one context selector: every command and analysis reads
the (dataset, train size) contexts it gives, and only those, and has its
split checked there.

All types are immutable after construction and safe to share across
concurrent readers; a ``Hyperparameter`` memoizes the raw spellings that
proved members, a ``ConfigSpace`` the configurations it decoded.  The
records are plain classes on one ``_Record`` base, not dataclasses:
building 20 dataclasses and importing ``dataclasses`` (which loads
``inspect``) cost about 16-19 ms in every process, a CLI command's
start-up included, where the base costs microseconds.  Records fill their
fields from their signature with ``_fill``, but for four built on hot paths:
``Configuration``, ``Context``, ``BudgetDetail`` and ``RankingEntry``.
Results become JSON through one encoder, ``_data``, from their fields; only
``RankingEntry``, ``BudgetDetail`` and ``FixedConfigResult`` write their own.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import sys
import warnings
from decimal import Decimal
from functools import cached_property, total_ordering
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

VALID_KINDS = ("real", "integer", "categorical")
SPLITS = ("validation", "test")

# Column names reserved by the score-file schema; hyperparameters cannot
# shadow them.
RESERVED_COLUMNS = ("dataset", "train_size", "split", "score")

# Guard against accidentally materializing an astronomically large grid.
MAX_GRID_SIZE = 10_000_000

# The one grammar of numbers read from outside the program (ASCII digits, no
# digit-group underscores), and its integer part alone for counts.
NUMBER = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?", re.ASCII)
INTEGER = re.compile(r"[+-]?\d+", re.ASCII)

# Largest decimal exponent of a nonzero real or integer value: the float
# range, so no value overflows Decimal's context, underflows to zero, or
# expands into an arbitrarily long integer string.
MAX_EXPONENT = 308


class CovsearchError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CovsearchError):
    """A domain-type invariant was violated."""


class DataError(CovsearchError):
    """An analysis precondition on the score data does not hold."""


class EmptyContextError(DataError):
    """No records exist for the requested (context, split)."""


class DegenerateContextError(DataError):
    """All scores in a (context, split) are zero; normalization is undefined."""


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _warn(message: str) -> None:
    """A UserWarning at the first frame outside this package: the caller's line."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, UserWarning, level)


def _check_split(split: str) -> None:
    if split not in SPLITS:
        raise ValidationError(f"split must be one of {SPLITS}, got {split!r}")


def _check_score(score: float) -> float:
    value = float(score)
    if not math.isfinite(value):
        raise ValidationError(f"score must be finite, got {score!r}")
    if value < 0:
        raise ValidationError(f"negative score {value!r}; scores must be non-negative")
    return value


def _check_threshold(threshold: float) -> None:
    if not 0 < threshold < 1:
        raise ValidationError(f"threshold must be in (0, 1), got {threshold!r}")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed!r}")


def _check_count(name: str, value: int) -> None:
    if value < 1:
        raise ValidationError(f"{name} must be >= 1, got {value}")


def _number(text: str, invalid: str) -> Decimal:
    """The one reader of numbers from outside: ``text`` in the NUMBER grammar
    (else a ValidationError worded ``invalid``), its exponent in ±MAX_EXPONENT."""
    if not NUMBER.fullmatch(text):
        raise ValidationError(invalid)
    dec = Decimal(text)
    if dec and abs(dec.adjusted()) > MAX_EXPONENT:
        bound = f"[-{MAX_EXPONENT}, {MAX_EXPONENT}]"
        raise ValidationError(f"value {text!r} has a decimal exponent outside {bound}")
    return dec


def _integer(text: str, name: str, invalid: str) -> int:
    """The one reader of integers from outside: ``text`` in the INTEGER grammar
    (else a ValidationError worded ``invalid``), of at most MAX_EXPONENT + 1 digits."""
    if not INTEGER.fullmatch(text):
        raise ValidationError(invalid)
    if len(text.lstrip("+-")) > MAX_EXPONENT + 1:  # as a value, within the float range
        raise ValidationError(f"{name} has more than {MAX_EXPONENT + 1} digits")
    return int(text)


def _one_line(text: str) -> bool:
    """Whether ``text`` fits in one score-file line: no "\n" and no "\r"."""
    return "\n" not in text and "\r" not in text


def canonical_value(kind: str, raw: object) -> str:
    """Canonicalize a single hyperparameter value for the given kind.

    real        -> scientific notation with a one-digit mantissa head,
                   e.g. "5.0e-6", "1.0e-4", "3.25e1"
    integer     -> plain base-10 integer string, e.g. "8", "32"
    categorical -> the stripped string itself, unchanged

    Raises ValidationError for values that do not fit the kind.
    """
    if kind not in VALID_KINDS:
        raise ValidationError(f"unknown hyperparameter kind {kind!r}")
    text = str(raw).strip()
    if not text:
        raise ValidationError("empty hyperparameter value")
    if not _one_line(text):
        raise ValidationError("hyperparameter value must not contain newlines")
    if kind == "categorical":
        return text
    dec = _number(text, f"value {text!r} is not a valid {kind}")
    if kind == "integer":
        if dec != dec.to_integral_value():
            raise ValidationError(f"value {text!r} is not an integer")
        return str(int(dec))
    if dec == 0:
        return "0.0e0"
    # The digits themselves: normalize() would round to the context's 28 digits.
    digits = "".join(str(d) for d in dec.as_tuple().digits).rstrip("0")
    sign = "-" if dec < 0 else ""
    head, tail = digits[0], digits[1:] or "0"
    return f"{sign}{head}.{tail}e{dec.adjusted()}"


# Sets a field of a record past its read-only __setattr__.  Unlike a write
# to the instance __dict__, it keeps CPython's compact attribute storage.
_set_field = object.__setattr__


class _Record:
    """A frozen record whose fields are its ``__init__``'s parameters, in order.

    A subclass's ``__init__`` body is ``_fill(self, locals())``.  After that
    the fields are read-only.  Equality (same class, equal fields) and the
    hash read them through one ``attrgetter`` per class; the repr is a
    dataclass's, ``Context(dataset='a', train_size=100)``.  ``Configuration``,
    ``Context``, ``BudgetDetail`` and ``RankingEntry`` are built thousands of
    times per pass, so they set their fields with ``_set_field`` directly,
    where ``_fill``'s loop would cost them 0.2-0.5 µs per record.

    A result record's ``to_dict`` is ``_to_dict``: each field under its name,
    in signature order, unless its class declares ``_json_order`` or
    ``_json_renames`` (field to key).  Three write their own: ``RankingEntry``
    adds ``coverage_size``, ``FixedConfigResult`` turns pairs into objects,
    and ``BudgetDetail`` is hot (the shared path made a curve's 2.5x slower).
    """

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        cls._key = attrgetter(*cls._fields)
        renames = getattr(cls, "_json_renames", {})
        order = getattr(cls, "_json_order", cls._fields)
        cls._json_fields = tuple((renames.get(name, name), name) for name in order)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def _fill(record: _Record, values: Mapping[str, object]) -> None:
    """Set each field of ``record`` from its ``__init__``'s ``values``, then
    run its ``__post_init__``, looked up on the record, if it has one."""
    for name in record._fields:
        _set_field(record, name, values[name])
    if hasattr(record, "__post_init__"):
        record.__post_init__()


def _data(value: object) -> object:
    """A result value in JSON form: contexts as text, configurations as dicts,
    records by ``to_dict()``, tuples and lists as lists item by item; the rest as is."""
    if isinstance(value, _Record):
        if isinstance(value, Context):
            return str(value)
        if isinstance(value, Configuration):
            return value.as_dict()
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_data(item) for item in value]
    return value


def _to_dict(record: _Record) -> dict:
    """A record's JSON object: each field's ``_data`` under its ``_json_fields`` key."""
    return {key: _data(getattr(record, name)) for key, name in record._json_fields}


class Hyperparameter(_Record):
    """A named hyperparameter with a finite ordered value domain."""

    def __init__(self, name: str, kind: str, domain: tuple[str, ...]) -> None:
        _fill(self, locals())

    def __post_init__(self) -> None:
        if not self.name or self.name != self.name.strip():
            raise ValidationError(f"invalid hyperparameter name {self.name!r}")
        if self.name in RESERVED_COLUMNS:
            raise ValidationError(
                f"hyperparameter name {self.name!r} shadows a reserved score-file column"
            )
        if "," in self.name or not _one_line(self.name):
            raise ValidationError(f"invalid hyperparameter name {self.name!r}")
        if self.kind not in VALID_KINDS:
            raise ValidationError(
                f"unknown kind {self.kind!r} for hyperparameter {self.name!r}"
                f" (expected one of {', '.join(VALID_KINDS)})"
            )
        if not self.domain:
            raise ValidationError(f"empty domain for hyperparameter {self.name!r}")
        canon = tuple(canonical_value(self.kind, v) for v in self.domain)
        if len(set(canon)) != len(canon):
            dupes = sorted({v for v in canon if canon.count(v) > 1})
            raise ValidationError(
                f"duplicate value(s) {dupes} in domain of hyperparameter {self.name!r}"
            )
        _set_field(self, "domain", canon)
        _set_field(self, "_value_index", {v: i for i, v in enumerate(canon)})

    def index(self, raw: object) -> int:
        """Position of a value inside the domain; raises if not a member.
        A ``str`` spelling that proves a member is remembered; a failed one
        never is, so it fails on every lookup."""
        memo = self._value_index  # type: ignore[attr-defined]
        if type(raw) is str:
            position = memo.get(raw)
            if position is not None:
                return position
        value = canonical_value(self.kind, raw)
        position = memo.get(value)
        if position is None:
            raise ValidationError(
                f"value {value!r} not in domain of hyperparameter {self.name!r}"
                f" (domain: {list(self.domain)})"
            )
        if type(raw) is str:
            memo[raw] = position
        return position

    def __contains__(self, raw: object) -> bool:
        try:
            self.index(raw)
        except ValidationError:
            return False
        return True


class Configuration(_Record):
    """One full assignment of values, as (name, value) pairs in space order."""

    def __init__(self, items: tuple[tuple[str, str], ...]) -> None:
        _set_field(self, "items", items)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.items)

    @property
    def values(self) -> tuple[str, ...]:
        return tuple(v for _, v in self.items)

    def get(self, name: str) -> str:
        for n, v in self.items:
            if n == name:
                return v
        raise KeyError(name)

    def as_dict(self) -> dict[str, str]:
        return dict(self.items)

    def __str__(self) -> str:
        return " ".join(map("=".join, self.items))


class ConfigSpace(_Record):
    """An ordered collection of hyperparameters defining a finite grid."""

    def __init__(self, hyperparameters: tuple[Hyperparameter, ...], label: str = "") -> None:
        _fill(self, locals())

    def __post_init__(self) -> None:
        _set_field(self, "hyperparameters", tuple(self.hyperparameters))
        if not self.hyperparameters:
            raise ValidationError("a config space needs at least one hyperparameter")
        names = [hp.name for hp in self.hyperparameters]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValidationError(f"duplicate hyperparameter name(s): {dupes}")
        sizes = [len(hp.domain) for hp in self.hyperparameters]
        if math.prod(sizes) > MAX_GRID_SIZE:
            product = " x ".join(str(s) for s in sizes)
            raise ValidationError(
                f"grid size {product} = {math.prod(sizes)} exceeds the"
                f" supported maximum of {MAX_GRID_SIZE}"
            )
        _set_field(self, "_decoded", {})  # grid id -> Configuration

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(hp.name for hp in self.hyperparameters)

    @cached_property
    def size(self) -> int:
        return math.prod(len(hp.domain) for hp in self.hyperparameters)

    def hyperparameter(self, name: str) -> Hyperparameter:
        for hp in self.hyperparameters:
            if hp.name == name:
                return hp
        raise ValidationError(f"no hyperparameter named {name!r} in space")

    def grid(self) -> list[Configuration]:
        """Full Cartesian product, last hyperparameter varying fastest."""
        return self._decode(range(self.size))

    def configuration(
        self, values: Mapping[str, object] | Sequence[object]
    ) -> Configuration:
        """Build a validated Configuration from a mapping or aligned sequence."""
        if isinstance(values, Mapping):
            extra = set(values) - set(self.names)
            if extra:
                raise ValidationError(f"unknown hyperparameter(s): {sorted(extra)}")
            missing = [n for n in self.names if n not in values]
            if missing:
                raise ValidationError(f"missing hyperparameter value(s): {missing}")
            aligned = [values[n] for n in self.names]
        else:
            aligned = list(values)
            if len(aligned) != len(self.hyperparameters):
                raise ValidationError(
                    f"expected {len(self.hyperparameters)} values, got {len(aligned)}"
                )
        return Configuration(
            tuple(
                (hp.name, hp.domain[hp.index(raw)])
                for hp, raw in zip(self.hyperparameters, aligned)
            )
        )

    def config_index(self, config: Configuration) -> int:
        """Grid id of a configuration: its position in grid() order.  Raises
        ValidationError unless fields and values are this space's."""
        if config.names != self.names:
            raise ValidationError(
                f"configuration fields {config.names} do not match space"
                f" fields {self.names}"
            )
        return self._grid_id(map(Hyperparameter.index, self.hyperparameters, config.values))

    def _grid_id(self, positions: Iterable[int]) -> int:
        """Grid id of one domain position per hyperparameter, in space order."""
        idx = 0
        for hp, position in zip(self.hyperparameters, positions):
            idx = idx * len(hp.domain) + position
        return idx

    def config_at(self, index: int) -> Configuration:
        """The configuration with one grid id; inverse of config_index.  Each
        id is decoded once per space and the Configuration shared after."""
        decoded = self._decoded  # type: ignore[attr-defined]
        config = decoded.get(index)
        if config is None:
            if not 0 <= index < self.size:
                raise ValidationError(f"grid id {index} outside 0..{self.size - 1}")
            items, rest = [], index
            for hp in reversed(self.hyperparameters):
                rest, position = divmod(rest, len(hp.domain))
                items.append((hp.name, hp.domain[position]))
            config = decoded[index] = Configuration(tuple(reversed(items)))
        return config

    def _decode(self, ids: Sequence[int]) -> list[Configuration]:
        """The configurations of ascending, in-range grid ids.  Ids not yet
        decoded are decoded in one pass over the grid order, into the memo
        config_at reads, so every path shares one object per id."""
        decoded = self._decoded  # type: ignore[attr-defined]
        new = [index for index in ids if index not in decoded]
        for index, items in zip(new, self._walk(new, tuple)):
            decoded[index] = Configuration(items)
        return [decoded[index] for index in ids]

    def _rows(self, ids: Sequence[int]) -> Iterator[str]:
        """``str(config_at(i))`` for ascending, in-range grid ids ``i``, joined
        from "name=value" tokens: no Configuration is built or memoized."""
        return map(" ".join, self._walk(ids, "=".join))

    def _walk(self, ids: Sequence[int], item) -> Iterator[tuple]:
        """Each ascending, in-range grid id's ``item((name, value))`` per
        hyperparameter, in one pass over the grid order."""
        wanted = bytearray(self.size)
        for index in ids:
            wanted[index] = 1
        domains = [[item((hp.name, value)) for value in hp.domain] for hp in self.hyperparameters]
        return itertools.compress(itertools.product(*domains), wanted)

    def value_positions(self, name: str, ids):
        """Domain position of hyperparameter ``name``'s value in each grid id.
        ``ids`` is one int or an integer array, decoded elementwise."""
        stride = 1
        for hp in reversed(self.hyperparameters):
            if hp.name == name:
                return ids // stride % len(hp.domain)
            stride *= len(hp.domain)
        raise ValidationError(f"no hyperparameter named {name!r} in space")


@total_ordering
class Context(_Record):
    """A dataset paired with a training-set size; the normalization unit.

    Contexts key every score cell and are ordered by (dataset, train size);
    their hash, equality and ``<`` are spelled out on the two fields, as
    fast as a tuple's, rather than read through the base's ``attrgetter``.
    """

    def __init__(self, dataset: str, train_size: int) -> None:
        _set_field(self, "dataset", dataset)
        _set_field(self, "train_size", train_size)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not self.dataset or self.dataset != self.dataset.strip():
            raise ValidationError(f"invalid dataset identifier {self.dataset!r}")
        if not _one_line(self.dataset):
            raise ValidationError("dataset identifier must not contain newlines")
        if not isinstance(self.train_size, int):
            raise ValidationError(f"train_size must be an integer, got {self.train_size!r}")
        _check_count("train_size", self.train_size)

    def __str__(self) -> str:
        return f"{self.dataset}@{self.train_size}"

    def __hash__(self) -> int:
        return hash((self.dataset, self.train_size))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.dataset, self.train_size) == (other.dataset, other.train_size)
        return NotImplemented

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.dataset, self.train_size) < (other.dataset, other.train_size)
        return NotImplemented


class ScoreRecord(_Record):
    """One raw score for (context, split, configuration)."""

    def __init__(self, context: Context, split: str, config: Configuration, score: float) -> None:
        _fill(self, locals())

    def __post_init__(self) -> None:
        _check_split(self.split)
        _set_field(self, "score", _check_score(self.score))


class ScoreTable:
    """Immutable container for grid-search results against one config space.

    Each (context, split) cell maps grid ids to raw scores, ids ascending,
    so every downstream computation is independent of the order records
    arrived in.  The grid may be partially populated; analyses operate over
    the records present.
    """

    def __init__(self, space: ConfigSpace, records: Iterable[ScoreRecord]):
        cells: dict[tuple[Context, str], dict[int, float]] = {}
        for rec in records:
            cell = cells.setdefault((rec.context, rec.split), {})
            index = space.config_index(rec.config)
            if index in cell:
                raise ValidationError(
                    f"duplicate record for {rec.context} {rec.split}"
                    f" config ({rec.config})"
                )
            cell[index] = rec.score
        self._store(space, cells)

    @classmethod
    def _from_cells(cls, space: ConfigSpace, cells: Mapping) -> ScoreTable:
        """A table of checked ``{(context, split): {grid id: score}}`` cells."""
        table = cls.__new__(cls)
        table._store(space, cells)
        return table

    def _store(self, space: ConfigSpace, cells: Mapping) -> None:
        """Every table ends here: one index ``{context: {split: {id: score}}}``, sorted."""
        self.space, self._index = space, {}
        for ctx, split in sorted(cells):
            cell = MappingProxyType(dict(sorted(cells[ctx, split].items())))
            self._index.setdefault(ctx, {})[split] = cell

    @property
    def records(self) -> tuple[ScoreRecord, ...]:
        """Every record, ordered by context, split, then grid id."""
        config_at = self.space.config_at
        return tuple(
            ScoreRecord(ctx, split, config_at(index), score)
            for ctx, splits in self._index.items()
            for split, cell in splits.items()
            for index, score in cell.items()
        )

    def __len__(self) -> int:
        return sum(len(cell) for splits in self._index.values() for cell in splits.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreTable):
            return NotImplemented
        return self.space == other.space and self._index == other._index

    def contexts(self, split: str | None = None) -> list[Context]:
        """Sorted contexts, optionally restricted to one split."""
        return [ctx for ctx, splits in self._index.items() if split is None or split in splits]

    def datasets(self) -> list[str]:
        return list(dict.fromkeys(ctx.dataset for ctx in self._index))

    def train_sizes(self) -> list[int]:
        return sorted({ctx.train_size for ctx in self._index})

    def splits_for(self, context: Context) -> list[str]:
        return list(self._index.get(context, ()))

    def cell(self, context: Context, split: str) -> Mapping[int, float]:
        """Read-only grid id -> score map of one (context, split); empty if absent."""
        return self._index.get(context, {}).get(split, {})

    def scores(self, context: Context, split: str) -> dict[Configuration, float]:
        """Scores for one (context, split), in grid order; empty if absent."""
        config_at = self.space.config_at
        return {config_at(i): score for i, score in self.cell(context, split).items()}

    def score(self, context: Context, split: str, config: Configuration) -> float | None:
        try:
            index = self.space.config_index(config)
        except ValidationError:
            return None
        return self.cell(context, split).get(index)


def _select(
    table: ScoreTable,
    split: str,
    datasets: Sequence[str] | None = None,
    train_sizes: Sequence[int] | None = None,
) -> tuple[list[str], list[Context]]:
    """The requested datasets, sorted, and the sorted contexts among them at
    the requested train sizes that have ``split`` records; ``None`` requests
    all.  A name or size the table lacks raises; a dataset that lacks a
    requested size has no context at it, so it sits that size out."""
    _check_split(split)
    names, contexts = table.datasets(), table.contexts(split)
    if datasets is not None:
        wanted = set(datasets)
        unknown = sorted(wanted.difference(names))
        if unknown:
            raise DataError(f"dataset(s) not in table: {unknown}")
        names = sorted(wanted)
        contexts = [ctx for ctx in contexts if ctx.dataset in wanted]
    if train_sizes is not None:
        wanted = set(train_sizes)
        unknown = sorted(wanted.difference(table.train_sizes()))
        if unknown:
            raise DataError(f"train size(s) not in table: {unknown}")
        contexts = [ctx for ctx in contexts if ctx.train_size in wanted]
    return names, contexts


# ---------------------------------------------------------------------------
# Analysis result types
# ---------------------------------------------------------------------------


class RankingEntry(_Record):
    """One ranked configuration with its score sum and covered contexts."""

    def __init__(
        self, config: Configuration, score_sum: float, coverage: frozenset[Context]
    ) -> None:
        _set_field(self, "config", config)
        _set_field(self, "score_sum", score_sum)
        _set_field(self, "coverage", coverage)

    def to_dict(self) -> dict:
        return {
            "config": self.config.as_dict(),
            "score_sum": self.score_sum,
            "coverage_size": len(self.coverage),
            "coverage": [str(c) for c in sorted(self.coverage)],
        }


class CoverageRanking(_Record):
    """Configurations ordered by how many contexts they cover.

    ``contexts`` and ``split`` record the provenance of the ranking:
    exactly which (dataset, train size) cells and which score split fed it.
    """

    def __init__(
        self,
        entries: tuple[RankingEntry, ...],
        contexts: tuple[Context, ...],
        split: str,
        threshold: float,
    ) -> None:
        _fill(self, locals())

    _json_order = ("split", "threshold", "contexts", "entries")
    to_dict = _to_dict

    def __post_init__(self) -> None:
        _check_threshold(self.threshold)
        sizes = [len(e.coverage) for e in self.entries]
        if sizes != sorted(sizes, reverse=True):
            raise ValidationError("ranking entries must be sorted by coverage size")
        configs = [e.config for e in self.entries]
        if len(set(configs)) != len(configs):
            raise ValidationError("ranking entries must be unique per configuration")

    def top(self, k: int) -> tuple[RankingEntry, ...]:
        _check_count("k", k)
        return self.entries[:k]

    @property
    def recommended(self) -> Configuration:
        if not self.entries:
            raise DataError("ranking is empty")
        return self.entries[0].config


class LooScore(_Record):
    """Held-out test performance of a recommended configuration."""

    def __init__(self, context: Context, test_score: float, normalized_test_score: float) -> None:
        _fill(self, locals())

    to_dict = _to_dict


class LooResult(_Record):
    """Outcome of one leave-one-dataset-out evaluation."""

    def __init__(
        self,
        held_out_dataset: str,
        recommended_config: Configuration,
        scores: tuple[LooScore, ...],
        ranking: CoverageRanking,
    ) -> None:
        _fill(self, locals())

    to_dict = _to_dict


class UpperBoundResult(_Record):
    """Validation-selected best configuration, reported on the test split."""

    def __init__(
        self, context: Context, config: Configuration, validation_score: float, test_score: float
    ) -> None:
        _fill(self, locals())

    to_dict = _to_dict


class BudgetPoint(_Record):
    def __init__(self, k: int, mean_normalized_test_score: float) -> None:
        _fill(self, locals())

    to_dict = _to_dict


class BudgetDetail(_Record):
    """Per-context audit row behind one budget-curve point."""

    def __init__(
        self,
        k: int,
        context: Context,
        config: Configuration,
        validation_score: float,
        test_score: float,
        normalized_test_score: float,
        clamped: bool,
    ) -> None:
        _set_field(self, "k", k)
        _set_field(self, "context", context)
        _set_field(self, "config", config)
        _set_field(self, "validation_score", validation_score)
        _set_field(self, "test_score", test_score)
        _set_field(self, "normalized_test_score", normalized_test_score)
        _set_field(self, "clamped", clamped)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "context": str(self.context),
            "config": self.config.as_dict(),
            "validation_score": self.validation_score,
            "test_score": self.test_score,
            "normalized_test_score": self.normalized_test_score,
            "clamped": self.clamped,
        }


class BudgetCurve(_Record):
    """Mean held-out performance as a function of the evaluation budget."""

    def __init__(
        self,
        points: tuple[BudgetPoint, ...],
        details: tuple[BudgetDetail, ...],
        threshold: float,
        split: str,
        normalize_by: str,
    ) -> None:
        _fill(self, locals())

    _json_order = ("threshold", "split", "normalize_by", "points", "details")
    to_dict = _to_dict

    def __post_init__(self) -> None:
        ks = [p.k for p in self.points]
        if ks != list(range(1, len(ks) + 1)):
            raise ValidationError("budget points must cover k = 1..max_budget")


class FixedConfigResult(_Record):
    """Test scores of a single fixed configuration plus task macro-averages."""

    def __init__(
        self,
        config: Configuration,
        scores: tuple[tuple[Context, float], ...],
        macro_averages: tuple[tuple[str, float], ...],
    ) -> None:
        _fill(self, locals())

    @property
    def score_map(self) -> dict[Context, float]:
        return dict(self.scores)

    @property
    def macro_map(self) -> dict[str, float]:
        return dict(self.macro_averages)

    def to_dict(self) -> dict:
        return {
            "config": self.config.as_dict(),
            "scores": {str(c): s for c, s in self.scores},
            "macro_averages": dict(self.macro_averages),
        }


class CompareRow(_Record):
    """One task x train-size row of the protocol comparison report."""

    def __init__(
        self,
        task: str,
        train_size: int,
        n_datasets: int,
        default_score: float | None,
        cbs1_score: float,
        upper_bound_score: float,
    ) -> None:
        _fill(self, locals())

    _json_renames = {
        "default_score": "default", "cbs1_score": "cbs_1", "upper_bound_score": "upper_bound"
    }
    to_dict = _to_dict


class HpImportance(_Record):
    """Cross-dataset consistency of one hyperparameter's preferred values.

    ``distributions[i]`` is the value-frequency vector of this
    hyperparameter inside dataset ``datasets[i]``'s top set, indexed by
    domain order.  ``error`` stays in the JSON schema, but nothing in the
    library sets it: importance_report raises instead.
    """

    def __init__(
        self,
        name: str,
        datasets: tuple[str, ...],
        distributions: tuple[tuple[float, ...], ...],
        js_score: float | None,
        js_pval: float | None,
        error: str | None = None,
    ) -> None:
        _fill(self, locals())

    _json_renames = {"name": "hyperparameter"}
    to_dict = _to_dict

    def __post_init__(self) -> None:
        if self.error is not None:
            return
        for vec in self.distributions:
            if any(p < 0 for p in vec):
                raise ValidationError("probability vectors must be non-negative")
            if abs(math.fsum(vec) - 1.0) > 1e-9:
                raise ValidationError(
                    f"probability vector sums to {math.fsum(vec)!r}, not 1"
                )
        if self.js_score is not None and not 0 <= self.js_score <= 1:
            raise ValidationError(f"js_score out of [0, 1]: {self.js_score!r}")
        if self.js_pval is not None and not 0 <= self.js_pval <= 1:
            raise ValidationError(f"js_pval out of [0, 1]: {self.js_pval!r}")


class ImportanceReport(_Record):
    """Per-hyperparameter consistency scores for one analysis scope."""

    def __init__(
        self,
        entries: tuple[HpImportance, ...],
        threshold: float,
        permutations: int,
        seed: int,
        split: str,
        train_sizes: tuple[int, ...],
        datasets: tuple[str, ...],
    ) -> None:
        _fill(self, locals())

    _json_order = (
        "threshold", "permutations", "seed", "split", "train_sizes", "datasets", "entries"
    )
    to_dict = _to_dict
