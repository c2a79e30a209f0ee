"""Core domain types shared by every analysis module.

Hyperparameter values are stored as canonical decimal strings rather than
binary floats, so configuration identity is exact and platform independent:
"5e-06", "5.0E-6" and "0.000005" all canonicalize to "5.0e-6".  Scores are
plain floats on whatever non-negative scale the input table uses; nothing
here rescales them.

The order in which hyperparameters are declared, and the order of values
inside each domain, define the grid enumeration order and every
deterministic tie-break downstream.

All types are immutable after construction and safe to share across
concurrent readers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Iterable, Mapping, Sequence

VALID_KINDS = ("real", "integer", "categorical")
SPLITS = ("validation", "test")

# Column names reserved by the score-file schema; hyperparameters cannot
# shadow them.
RESERVED_COLUMNS = ("dataset", "train_size", "split", "score")

# Guard against accidentally materializing an astronomically large grid.
MAX_GRID_SIZE = 10_000_000


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
    if "\n" in text or "\r" in text:
        raise ValidationError("hyperparameter value must not contain newlines")
    if kind == "categorical":
        return text
    try:
        dec = Decimal(text)
    except InvalidOperation:
        raise ValidationError(f"value {text!r} is not a valid {kind}") from None
    if not dec.is_finite():
        raise ValidationError(f"value {text!r} is not finite")
    if kind == "integer":
        if dec != dec.to_integral_value():
            raise ValidationError(f"value {text!r} is not an integer")
        return str(int(dec))
    if dec == 0:
        return "0.0e0"
    norm = dec.normalize()
    digits = "".join(str(d) for d in norm.as_tuple().digits)
    sign = "-" if norm < 0 else ""
    head, tail = digits[0], digits[1:] or "0"
    return f"{sign}{head}.{tail}e{norm.adjusted()}"


@dataclass(frozen=True)
class Hyperparameter:
    """A named hyperparameter with a finite ordered value domain."""

    name: str
    kind: str
    domain: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name or self.name != self.name.strip():
            raise ValidationError(f"invalid hyperparameter name {self.name!r}")
        if self.name in RESERVED_COLUMNS:
            raise ValidationError(
                f"hyperparameter name {self.name!r} shadows a reserved score-file column"
            )
        if "," in self.name or "\n" in self.name:
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
        object.__setattr__(self, "domain", canon)
        object.__setattr__(self, "_value_index", {v: i for i, v in enumerate(canon)})

    def canonical(self, raw: object) -> str:
        # A domain value is already canonical (canonical_value is
        # idempotent), so it needs no Decimal round-trip.
        if type(raw) is str and raw in self._value_index:  # type: ignore[attr-defined]
            return raw
        return canonical_value(self.kind, raw)

    def index(self, raw: object) -> int:
        """Position of a value inside the domain; raises if not a member."""
        if type(raw) is str:
            position = self._value_index.get(raw)  # type: ignore[attr-defined]
            if position is not None:
                return position
        value = canonical_value(self.kind, raw)
        try:
            return self._value_index[value]  # type: ignore[attr-defined]
        except KeyError:
            raise ValidationError(
                f"value {value!r} not in domain of hyperparameter {self.name!r}"
                f" (domain: {list(self.domain)})"
            ) from None

    def __contains__(self, raw: object) -> bool:
        try:
            self.index(raw)
        except ValidationError:
            return False
        return True


@dataclass(frozen=True)
class Configuration:
    """One full assignment of values, as (name, value) pairs in space order."""

    items: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "items", tuple((str(n), str(v)) for n, v in self.items)
        )

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
        return " ".join(f"{n}={v}" for n, v in self.items)


@dataclass(frozen=True)
class ConfigSpace:
    """An ordered collection of hyperparameters defining a finite grid."""

    hyperparameters: tuple[Hyperparameter, ...]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "hyperparameters", tuple(self.hyperparameters))
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

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(hp.name for hp in self.hyperparameters)

    @property
    def size(self) -> int:
        return math.prod(len(hp.domain) for hp in self.hyperparameters)

    def hyperparameter(self, name: str) -> Hyperparameter:
        for hp in self.hyperparameters:
            if hp.name == name:
                return hp
        raise ValidationError(f"no hyperparameter named {name!r} in space")

    def grid(self) -> list[Configuration]:
        """Full Cartesian product, last hyperparameter varying fastest."""
        names = self.names
        return [
            Configuration(tuple(zip(names, combo)))
            for combo in itertools.product(*(hp.domain for hp in self.hyperparameters))
        ]

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

    def validate_config(self, config: Configuration) -> None:
        if config.names != self.names:
            raise ValidationError(
                f"configuration fields {config.names} do not match space"
                f" fields {self.names}"
            )
        for hp, value in zip(self.hyperparameters, config.values):
            hp.index(value)

    def config_index(self, config: Configuration) -> int:
        """Position of a configuration in grid() enumeration order."""
        idx = 0
        for hp, value in zip(self.hyperparameters, config.values):
            idx = idx * len(hp.domain) + hp.index(value)
        return idx


@dataclass(frozen=True, order=True)
class Context:
    """A dataset paired with a training-set size; the normalization unit."""

    dataset: str
    train_size: int

    def __post_init__(self) -> None:
        if not self.dataset or self.dataset != self.dataset.strip():
            raise ValidationError(f"invalid dataset identifier {self.dataset!r}")
        if "\n" in self.dataset:
            raise ValidationError("dataset identifier must not contain newlines")
        if not isinstance(self.train_size, int) or self.train_size <= 0:
            raise ValidationError(
                f"train_size must be a positive integer, got {self.train_size!r}"
            )

    def __str__(self) -> str:
        return f"{self.dataset}@{self.train_size}"


@dataclass(frozen=True)
class ScoreRecord:
    """One raw score for (context, split, configuration)."""

    context: Context
    split: str
    config: Configuration
    score: float

    def __post_init__(self) -> None:
        if self.split not in SPLITS:
            raise ValidationError(
                f"split must be one of {SPLITS}, got {self.split!r}"
            )
        score = float(self.score)
        if not math.isfinite(score):
            raise ValidationError(f"score must be finite, got {self.score!r}")
        if score < 0:
            raise ValidationError(f"score must be non-negative, got {score!r}")
        object.__setattr__(self, "score", score)


class ScoreTable:
    """Immutable container for grid-search results against one config space.

    Records are re-ordered canonically at construction (by context, split,
    then grid position), so every downstream computation is independent of
    the order records arrived in.  The grid may be partially populated;
    analyses operate over the records present.
    """

    def __init__(self, space: ConfigSpace, records: Iterable[ScoreRecord]):
        self.space = space
        recs = list(records)
        for rec in recs:
            space.validate_config(rec.config)
        recs.sort(
            key=lambda r: (r.context, r.split, space.config_index(r.config))
        )
        scores: dict[tuple[Context, str], dict[Configuration, float]] = {}
        for rec in recs:
            cell = scores.setdefault((rec.context, rec.split), {})
            if rec.config in cell:
                raise ValidationError(
                    f"duplicate record for {rec.context} {rec.split}"
                    f" config ({rec.config})"
                )
            cell[rec.config] = rec.score
        self._records = tuple(recs)
        self._scores = scores

    @property
    def records(self) -> tuple[ScoreRecord, ...]:
        return self._records

    def __len__(self) -> int:
        return len(self._records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreTable):
            return NotImplemented
        return self.space == other.space and set(self._records) == set(other._records)

    def contexts(self, split: str | None = None) -> list[Context]:
        """Sorted contexts, optionally restricted to one split."""
        if split is None:
            return sorted({ctx for ctx, _ in self._scores})
        return sorted({ctx for ctx, sp in self._scores if sp == split})

    def datasets(self) -> list[str]:
        return sorted({ctx.dataset for ctx, _ in self._scores})

    def train_sizes(self) -> list[int]:
        return sorted({ctx.train_size for ctx, _ in self._scores})

    def splits_for(self, context: Context) -> list[str]:
        return sorted(sp for ctx, sp in self._scores if ctx == context)

    def scores(self, context: Context, split: str) -> dict[Configuration, float]:
        """Scores for one (context, split), in grid order; empty if absent."""
        return dict(self._scores.get((context, split), {}))

    def score(self, context: Context, split: str, config: Configuration) -> float | None:
        return self._scores.get((context, split), {}).get(config)


# ---------------------------------------------------------------------------
# Analysis result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankingEntry:
    """One ranked configuration with its score sum and covered contexts."""

    config: Configuration
    score_sum: float
    coverage: frozenset[Context]

    def to_dict(self) -> dict:
        return {
            "config": self.config.as_dict(),
            "score_sum": self.score_sum,
            "coverage_size": len(self.coverage),
            "coverage": [str(c) for c in sorted(self.coverage)],
        }


@dataclass(frozen=True)
class CoverageRanking:
    """Configurations ordered by how many contexts they cover.

    ``contexts`` and ``split`` record the provenance of the ranking:
    exactly which (dataset, train size) cells and which score split fed it.
    """

    entries: tuple[RankingEntry, ...]
    contexts: tuple[Context, ...]
    split: str
    threshold: float

    def __post_init__(self) -> None:
        if not 0 < self.threshold < 1:
            raise ValidationError(
                f"threshold must be in (0, 1), got {self.threshold!r}"
            )
        sizes = [len(e.coverage) for e in self.entries]
        if sizes != sorted(sizes, reverse=True):
            raise ValidationError("ranking entries must be sorted by coverage size")
        configs = [e.config for e in self.entries]
        if len(set(configs)) != len(configs):
            raise ValidationError("ranking entries must be unique per configuration")

    def top(self, k: int) -> tuple[RankingEntry, ...]:
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        return self.entries[:k]

    @property
    def recommended(self) -> Configuration:
        if not self.entries:
            raise DataError("ranking is empty")
        return self.entries[0].config

    def to_dict(self) -> dict:
        return {
            "split": self.split,
            "threshold": self.threshold,
            "contexts": [str(c) for c in self.contexts],
            "entries": [e.to_dict() for e in self.entries],
        }


@dataclass(frozen=True)
class LooScore:
    """Held-out test performance of a recommended configuration."""

    context: Context
    test_score: float
    normalized_test_score: float

    def to_dict(self) -> dict:
        return {
            "context": str(self.context),
            "test_score": self.test_score,
            "normalized_test_score": self.normalized_test_score,
        }


@dataclass(frozen=True)
class LooResult:
    """Outcome of one leave-one-dataset-out evaluation."""

    held_out_dataset: str
    recommended_config: Configuration
    scores: tuple[LooScore, ...]
    ranking: CoverageRanking

    def to_dict(self) -> dict:
        return {
            "held_out_dataset": self.held_out_dataset,
            "recommended_config": self.recommended_config.as_dict(),
            "scores": [s.to_dict() for s in self.scores],
            "ranking": self.ranking.to_dict(),
        }


@dataclass(frozen=True)
class UpperBoundResult:
    """Validation-selected best configuration, reported on the test split."""

    context: Context
    config: Configuration
    validation_score: float
    test_score: float

    def to_dict(self) -> dict:
        return {
            "context": str(self.context),
            "config": self.config.as_dict(),
            "validation_score": self.validation_score,
            "test_score": self.test_score,
        }


@dataclass(frozen=True)
class BudgetPoint:
    k: int
    mean_normalized_test_score: float


@dataclass(frozen=True)
class BudgetDetail:
    """Per-context audit row behind one budget-curve point."""

    k: int
    context: Context
    config: Configuration
    validation_score: float
    test_score: float
    normalized_test_score: float
    clamped: bool


@dataclass(frozen=True)
class BudgetCurve:
    """Mean held-out performance as a function of the evaluation budget."""

    points: tuple[BudgetPoint, ...]
    details: tuple[BudgetDetail, ...]
    threshold: float
    split: str
    normalize_by: str

    def __post_init__(self) -> None:
        ks = [p.k for p in self.points]
        if ks != list(range(1, len(ks) + 1)):
            raise ValidationError("budget points must cover k = 1..max_budget")

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "split": self.split,
            "normalize_by": self.normalize_by,
            "points": [
                {"k": p.k, "mean_normalized_test_score": p.mean_normalized_test_score}
                for p in self.points
            ],
            "details": [
                {
                    "k": d.k,
                    "context": str(d.context),
                    "config": d.config.as_dict(),
                    "validation_score": d.validation_score,
                    "test_score": d.test_score,
                    "normalized_test_score": d.normalized_test_score,
                    "clamped": d.clamped,
                }
                for d in self.details
            ],
        }


@dataclass(frozen=True)
class FixedConfigResult:
    """Test scores of a single fixed configuration plus task macro-averages."""

    config: Configuration
    scores: tuple[tuple[Context, float], ...]
    macro_averages: tuple[tuple[str, float], ...]

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


@dataclass(frozen=True)
class HpImportance:
    """Cross-dataset consistency of one hyperparameter's preferred values.

    ``distributions[i]`` is the value-frequency vector of this
    hyperparameter inside dataset ``datasets[i]``'s top set, indexed by
    domain order.
    """

    name: str
    datasets: tuple[str, ...]
    distributions: tuple[tuple[float, ...], ...]
    js_score: float | None
    js_pval: float | None
    error: str | None = None

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

    def to_dict(self) -> dict:
        return {
            "hyperparameter": self.name,
            "datasets": list(self.datasets),
            "distributions": [list(v) for v in self.distributions],
            "js_score": self.js_score,
            "js_pval": self.js_pval,
            "error": self.error,
        }


@dataclass(frozen=True)
class ImportanceReport:
    """Per-hyperparameter consistency scores for one analysis scope."""

    entries: tuple[HpImportance, ...]
    threshold: float
    permutations: int
    seed: int
    split: str
    train_sizes: tuple[int, ...]
    datasets: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "permutations": self.permutations,
            "seed": self.seed,
            "split": self.split,
            "train_sizes": list(self.train_sizes),
            "datasets": list(self.datasets),
            "entries": [e.to_dict() for e in self.entries],
        }
