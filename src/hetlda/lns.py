"""Coordinate-wise perturbation search that refines a linear rule
against the training misclassification count.

Useful when the data are not well modelled as Gaussian: the model-based
error that drives the fixed-point trainer stops being meaningful, but
counting mistakes never does.

A sweep scores all of its candidates at once. One matrix product per
block of rows projects the rows on every candidate direction; the sides
are written into one bool buffer, reused by every block and sweep, whose
rows are padded to whole 8-byte words; and the mistakes are the set bits
of those words XOR the class sides, packed the same way once per search.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discriminant import (LabeledDataset, LinearDiscriminant,
                           _class_pair, _integer)
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
        if _integer("max_iters", self.max_iters) < 1:
            raise ValueError("max_iters must be at least 1")
        if not 1 <= _integer("early_stop", self.early_stop) <= self.max_iters:
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
    rows, and the mistakes are counted as set bits of packed words (see
    the module docstring). Candidate ties go to the lowest component
    index, + before -, which is the order of a loop over the candidates.
    class_a and class_b are given both or neither; neither means the two
    labels of a two-class train, smaller first. Rows labelled neither
    class_a nor class_b count as errors on both sides. on_sweep, when
    given, is called with (sweep_index, best_count_so_far) after each
    sweep.
    """
    cfg = cfg or LnsConfig()
    if train.n_features != init.w.shape[0]:
        raise DimensionMismatch(
            f"{train.n_features} feature columns, discriminant expects "
            f"{init.w.shape[0]}")
    class_a, class_b = _class_pair(train, class_a, class_b)

    count_errors = _error_counter(train, class_a, class_b, init.w.shape[0] + 1)

    current = np.concatenate(([init.w0], init.w))
    best = current
    best_count = int(count_errors(current[:, None])[0])
    stall = 0

    for sweep in range(cfg.max_iters):
        candidates = _sweep_candidates(current, cfg.perturb_fraction)
        counts = count_errors(candidates)
        pick = int(counts.argmin())
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
    magnitude = np.abs(current)
    scale = float(magnitude.max())
    zero_step = _ZERO_STEP_FRACTION * scale if scale > 0 \
        else _ZERO_STEP_FRACTION
    delta = perturb_fraction * magnitude
    delta[delta == 0.0] = zero_step
    size = current.shape[0]
    candidates = np.empty((size, 2 * size))
    candidates[...] = current[:, None]
    # entries (i, 2i) sit 2 * size + 2 apart in the flat array
    flat = candidates.reshape(-1)
    flat[::2 * size + 2] += delta
    flat[1::2 * size + 2] -= delta
    return candidates


def _error_counter(train: LabeledDataset, class_a: int, class_b: int,
                   size: int) -> Callable[[np.ndarray], np.ndarray]:
    # A function that gives the mistakes of each column [w0; w] of a
    # (size x m) candidate matrix, m = 1 or a sweep's 2 * size, on the rows
    # labelled class_a or class_b, plus one for each row of another class.
    # Columns from 2 on share the threshold of column 2, as a sweep's do.
    features, labels = train.features, train.labels
    is_a = labels == class_a
    in_pair = is_a | (labels == class_b)
    n_other = labels.shape[0] - int(np.count_nonzero(in_pair))
    if n_other:
        features, is_a = features[in_pair], is_a[in_pair]
    rows = features.shape[0]
    full = min(_BLOCK_ROWS, rows)
    # The sides of a block as one bool per row and candidate, rows padded
    # with False to whole 8-byte words; is_a is padded the same way once,
    # so that the XOR of two words holds one set bit per mistake.
    side_a = np.zeros((2 * size, -(-full // 8) * 8), dtype=bool)
    words = side_a.view(np.uint64)
    blocks = []
    for start in range(0, rows, _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        block_rows = min(stop, rows) - start
        n_words = -(-block_rows // 8)
        actual = np.zeros(8 * n_words, dtype=bool)
        actual[:block_rows] = is_a[start:stop]
        # a short last block must not count the bits an earlier block
        # left in its pad
        pad = side_a[:, block_rows:8 * n_words] if block_rows < full \
            else None
        blocks.append((features[start:stop].T, side_a[:, :block_rows], pad,
                       words[:, :n_words], actual.view(np.uint64)))

    def count_errors(candidates: np.ndarray) -> np.ndarray:
        m = candidates.shape[1]
        weights, thresholds = candidates[1:].T, candidates[0]
        counts = np.zeros(m, dtype=np.uint64)
        for block_t, predicted, pad, mistakes, actual in blocks:
            # one candidate per row: this exact product decides the side
            # of a row that sits on a threshold, so its shape stays fixed
            products = weights @ block_t
            np.greater_equal(products[0], thresholds[0], out=predicted[0])
            if m > 1:
                np.greater_equal(products[1], thresholds[1], out=predicted[1])
                np.greater_equal(products[2:], thresholds[2],
                                 out=predicted[2:])
            if pad is not None:
                pad[...] = False
            mistakes = mistakes[:m]
            np.bitwise_xor(mistakes, actual, out=mistakes)
            counts += np.bitwise_count(mistakes).sum(axis=1)
        if n_other:
            counts += n_other
        return counts

    return count_errors
