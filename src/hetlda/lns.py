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
# Rows scored at a time: a sweep's temporaries hold 2(d+1) x _BLOCK_ROWS
# products (0.6 MB at d = 8) however many rows the data have.
_BLOCK_ROWS = 4096


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
    gets returned, together with its error count. One matrix product of
    the features with all candidates scores a whole sweep, in blocks of
    rows. Candidate ties go to the lowest component index, + before -,
    which is the order of a loop over the candidates. class_a and
    class_b are given both or neither; neither means the two labels of
    a two-class train, smaller first. Rows labelled neither class_a nor
    class_b count as errors on both sides. on_sweep,
    when given, is called with (sweep_index, best_count_so_far) after
    each sweep.
    """
    cfg = cfg or LnsConfig()
    if train.n_features != init.w.shape[0]:
        raise DimensionMismatch(
            f"{train.n_features} feature columns, discriminant expects "
            f"{init.w.shape[0]}")
    class_a, class_b = _class_pair(train, class_a, class_b)

    features, labels = train.features, train.labels
    is_a = labels == class_a
    in_pair = is_a | (labels == class_b)
    n_other = labels.shape[0] - int(np.count_nonzero(in_pair))
    if n_other:
        features, is_a = features[in_pair], is_a[in_pair]

    def count_errors(candidates: np.ndarray) -> np.ndarray:
        return _count_errors(features, is_a, candidates) + n_other

    current = np.concatenate(([init.w0], init.w))
    best = current
    best_count = int(count_errors(current[:, None])[0])
    stall = 0

    for sweep in range(cfg.max_iters):
        candidates = _sweep_candidates(current, cfg.perturb_fraction)
        counts = count_errors(candidates)
        pick = int(np.argmin(counts))
        current = candidates[:, pick].copy()
        if counts[pick] < best_count:
            best, best_count = current, int(counts[pick])
            stall = 0
        else:
            stall += 1
        if on_sweep is not None:
            on_sweep(sweep, best_count)
        if stall >= cfg.early_stop:
            break

    return LinearDiscriminant(best[1:], float(best[0])), best_count


def _sweep_candidates(current: np.ndarray,
                      perturb_fraction: float) -> np.ndarray:
    # Column 2i is current with +delta_i on component i, column 2i+1 the
    # same with -delta_i; a component at zero gets the absolute step.
    scale = float(np.max(np.abs(current)))
    zero_step = _ZERO_STEP_FRACTION * scale if scale > 0 \
        else _ZERO_STEP_FRACTION
    delta = perturb_fraction * np.abs(current)
    delta[delta == 0.0] = zero_step
    size = current.shape[0]
    candidates = np.repeat(current[:, None], 2 * size, axis=1)
    # entries (i, 2i) sit 2 * size + 2 apart in the flat array
    flat = candidates.reshape(-1)
    flat[::2 * size + 2] += delta
    flat[1::2 * size + 2] -= delta
    return candidates


def _count_errors(features: np.ndarray, is_a: np.ndarray,
                  candidates: np.ndarray) -> np.ndarray:
    # Mistakes of each column [w0; w] of candidates on rows whose side is
    # is_a, summed over blocks of _BLOCK_ROWS rows. The products are laid
    # out one candidate per row, so that each count runs over contiguous
    # memory.
    weights, thresholds = candidates[1:].T, candidates[0][:, None]
    counts = np.zeros(candidates.shape[1], dtype=np.int64)
    for start in range(0, features.shape[0], _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        side_a = weights @ features[start:stop].T >= thresholds
        counts += np.count_nonzero(side_a != is_a[start:stop], axis=1)
    return counts
