"""Seeded synthetic score tables for experimentation and testing.

Each configuration gets a global quality drawn once; each (dataset, train
size) context blends that quality with its own idiosyncratic preference.
The ``correlation`` knob interpolates between fully shared rankings (1.0)
and fully independent ones (0.0), and ``noise`` adds independent
validation/test jitter on top.  Contexts also get a random scale factor, so
raw score magnitudes differ per context the way task metrics do.

Given equal arguments the output table is identical across runs: all
randomness comes from one PCG64 generator consumed in a fixed order, the
stream of ``numpy.random.default_rng(seed)`` drawn in plain Python, so
numpy is not needed.
"""

from __future__ import annotations

from typing import Sequence

from .importance import _outputs
from .model import (
    ConfigSpace,
    Context,
    Hyperparameter,
    ScoreTable,
    ValidationError,
    SPLITS,
    _check_count,
    _check_score,
    _check_seed,
)


def demo_space() -> ConfigSpace:
    """A small tuning space handy for demos and quick experiments."""
    return ConfigSpace(
        hyperparameters=(
            Hyperparameter("batch", "integer", ("8", "32")),
            Hyperparameter("lr", "real", ("1e-05", "5e-05", "1e-04")),
            Hyperparameter("epochs", "integer", ("5", "10")),
            Hyperparameter("lr_scheduler", "categorical", ("cosine", "linear")),
        ),
        label="synthetic-demo",
    )


def _check_correlation(correlation: float) -> None:
    if not 0 <= correlation <= 1:
        raise ValidationError(f"correlation must be in [0, 1], got {correlation!r}")


def _check_noise(noise: float) -> None:
    if not 0 <= noise < 1:
        raise ValidationError(f"noise must be in [0, 1), got {noise!r}")


def _check_scale(scale: float) -> None:
    if not scale > 0:
        raise ValidationError(f"scale must be positive, got {scale!r}")


def synthetic_table(
    space: ConfigSpace | None = None,
    datasets: int | Sequence[str] = 6,
    train_sizes: Sequence[int] = (100, 1000),
    *,
    correlation: float = 0.7,
    noise: float = 0.1,
    seed: int = 0,
    scale: float = 100.0,
) -> ScoreTable:
    """Generate a full-grid score table with both splits.

    ``correlation`` in [0, 1] controls how much the per-context rankings
    agree; ``noise`` in [0, 1) controls validation/test disagreement.
    """
    _check_correlation(correlation)
    _check_noise(noise)
    _check_scale(scale)
    _check_seed(seed)
    if space is None:
        space = demo_space()
    if isinstance(datasets, int):
        _check_count("datasets", datasets)
        names = [f"ds{i:02d}" for i in range(datasets)]
    else:
        names = list(datasets)
        if not names:
            raise ValidationError("need at least one dataset")
        if len(set(names)) != len(names):
            raise ValidationError("dataset names must be unique")
    sizes = sorted(set(train_sizes))
    if not sizes:
        raise ValidationError("need at least one train size")

    outputs = _outputs(seed)

    def uniform(lo: float, hi: float) -> float:  # numpy's Generator.uniform
        return lo + (hi - lo) * ((next(outputs) >> 11) * 2.0**-53)

    quality = [uniform(0.05, 1.0) for _ in range(space.size)]
    cells = {}
    for dataset in names:
        for size in sizes:
            context = Context(dataset=dataset, train_size=size)
            local = [uniform(0.05, 1.0) for _ in quality]
            base = [correlation * q + (1.0 - correlation) * x for q, x in zip(quality, local)]
            context_scale = scale * uniform(0.5, 1.5)
            for split in SPLITS:
                blended = ((1.0 - noise) * b + noise * uniform(0.05, 1.0) for b in base)
                cells[context, split] = {
                    index: _check_score(context_scale * score)
                    for index, score in enumerate(blended)
                }
    return ScoreTable._from_cells(space, cells)
