"""Seeded synthetic score tables for experimentation and testing.

Each configuration gets a global quality drawn once; each (dataset, train
size) context blends that quality with its own idiosyncratic preference.
The ``correlation`` knob interpolates between fully shared rankings (1.0)
and fully independent ones (0.0), and ``noise`` adds independent
validation/test jitter on top.  Contexts also get a random scale factor, so
raw score magnitudes differ per context the way task metrics do.

Given equal arguments the output table is identical across runs: all
randomness comes from one numpy PCG64 generator consumed in a fixed order.
"""

from __future__ import annotations

from typing import Sequence

from .model import (
    ConfigSpace,
    Context,
    Hyperparameter,
    ScoreRecord,
    ScoreTable,
    ValidationError,
    SPLITS,
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
    if not 0 <= correlation <= 1:
        raise ValidationError(f"correlation must be in [0, 1], got {correlation!r}")
    if not 0 <= noise < 1:
        raise ValidationError(f"noise must be in [0, 1), got {noise!r}")
    if scale <= 0:
        raise ValidationError(f"scale must be positive, got {scale!r}")
    _check_seed(seed)
    if space is None:
        space = demo_space()
    if isinstance(datasets, int):
        if datasets < 1:
            raise ValidationError("need at least one dataset")
        names = [f"ds{i:02d}" for i in range(datasets)]
    else:
        names = list(datasets)
        if len(set(names)) != len(names):
            raise ValidationError("dataset names must be unique")
    sizes = sorted(set(train_sizes))
    if not sizes:
        raise ValidationError("need at least one train size")

    import numpy as np  # only here, so importing the package stays cheap

    rng = np.random.default_rng(seed)
    grid = space.grid()
    n = len(grid)
    quality = rng.uniform(0.05, 1.0, size=n)

    records = []
    for dataset in names:
        for size in sizes:
            context = Context(dataset=dataset, train_size=size)
            local = rng.uniform(0.05, 1.0, size=n)
            base = correlation * quality + (1.0 - correlation) * local
            context_scale = scale * rng.uniform(0.5, 1.5)
            for split in SPLITS:
                jitter = rng.uniform(0.05, 1.0, size=n)
                blended = (1.0 - noise) * base + noise * jitter
                for cfg, value in zip(grid, blended):
                    records.append(
                        ScoreRecord(
                            context=context,
                            split=split,
                            config=cfg,
                            score=float(context_scale * value),
                        )
                    )
    return ScoreTable(space, records)
