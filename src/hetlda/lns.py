"""Coordinate-wise perturbation search that refines a linear rule
against the training misclassification count.

Useful when the data are not well modelled as Gaussian: the model-based
error that drives the fixed-point trainer stops being meaningful, but
counting mistakes never does.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discriminant import LabeledDataset, LinearDiscriminant, _class_pair
from .errors import DimensionMismatch

__all__ = ["LnsConfig", "local_neighbourhood_search"]

# Relative size of the absolute step that unfreezes a zero component.
_ZERO_STEP_FRACTION = 1e-3


@dataclass(frozen=True)
class LnsConfig:
    """Search budget and step sizes.

    max_iters bounds the number of sweeps; early_stop is the number of
    consecutive sweeps without improvement of the best-found count after
    which the search gives up. Each component is perturbed by
    perturb_fraction of its absolute value; a component sitting exactly
    at zero would never move under that rule, so it gets an absolute step
    of 1e-3 times the largest component magnitude of the current solution
    instead. The search is deterministic.
    """

    max_iters: int = 1000
    early_stop: int = 100
    perturb_fraction: float = 0.1

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 1 <= self.early_stop <= self.max_iters:
            raise ValueError("early_stop must be in [1, max_iters]")
        if not 0.0 < self.perturb_fraction < 1.0:
            raise ValueError("perturb_fraction must be in (0, 1)")


def local_neighbourhood_search(
    init: LinearDiscriminant,
    train: LabeledDataset,
    cfg: LnsConfig | None = None,
    *,
    class_a: int | None = None,
    class_b: int | None = None,
    on_sweep: Callable[[int, int], None] | None = None,
) -> tuple[LinearDiscriminant, int]:
    """Minimize training misclassifications by coordinate perturbation.

    Each sweep evaluates +delta and -delta on every component of the
    stacked vector [w0, w] (2(d+1) candidates) and adopts the candidate
    with the fewest mistakes, even when that is a sideways or uphill
    move; the best solution ever seen is tracked separately and is what
    gets returned, together with its error count. Candidate ties go to
    the lowest component index, + before -. on_sweep, when given, is
    called with (sweep_index, best_count_so_far) after each sweep.
    """
    cfg = cfg or LnsConfig()
    if train.n_features != init.w.shape[0]:
        raise DimensionMismatch(
            f"{train.n_features} feature columns, discriminant expects "
            f"{init.w.shape[0]}")
    class_a, class_b = _class_pair(train, class_a, class_b)

    features = train.features
    labels = train.labels

    def count_errors(vec: np.ndarray) -> int:
        side_a = features @ vec[1:] >= vec[0]
        predicted = np.where(side_a, class_a, class_b)
        return int(np.sum(predicted != labels))

    current = np.concatenate(([init.w0], init.w))
    best = current.copy()
    best_count = count_errors(current)
    stall = 0

    for sweep in range(cfg.max_iters):
        scale = float(np.max(np.abs(current)))
        zero_step = _ZERO_STEP_FRACTION * scale if scale > 0 \
            else _ZERO_STEP_FRACTION
        sweep_best = None
        sweep_count = None
        for i in range(current.shape[0]):
            delta = cfg.perturb_fraction * abs(current[i])
            if delta == 0.0:
                delta = zero_step
            for signed in (delta, -delta):
                candidate = current.copy()
                candidate[i] += signed
                count = count_errors(candidate)
                if sweep_count is None or count < sweep_count:
                    sweep_best, sweep_count = candidate, count
        current = sweep_best
        if sweep_count < best_count:
            best, best_count = sweep_best.copy(), sweep_count
            stall = 0
        else:
            stall += 1
        if on_sweep is not None:
            on_sweep(sweep, best_count)
        if stall >= cfg.early_stop:
            break

    return LinearDiscriminant(best[1:], float(best[0])), best_count
