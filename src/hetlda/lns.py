"""Coordinate-wise perturbation search that refines a linear rule
against the training misclassification count.

Useful when the data are not well modelled as Gaussian: the model-based
error that drives the fixed-point trainer stops being meaningful, but
counting mistakes never does.

The starting rule's mistakes are counted once, by training_error_count;
the search's own kernel scores only sweeps, all of a sweep's candidates
at once. One matrix product per block of rows projects the rows on
every candidate direction; the sides are written into one bool buffer,
reused by every block and sweep, whose rows are padded to whole 8-byte
words; and the mistakes are the set bits of those words XOR the class
sides, packed the same way once per search.

All else a sweep needs is made once per search too: the candidate
matrix, rewritten in place by every sweep, the views into the side
buffer, and, when the pair's rows fit in one block, one C-contiguous
d x n copy of them. The product runs faster on that copy than on the
strided transpose of the rows (about 10 against 14 us at 1800 rows and
d = 6), so a sweep does little beyond its product, its comparisons and
its count.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discriminant import (LabeledDataset, LinearDiscriminant,
                           _class_pair, _integer, training_error_count)
from .errors import DimensionMismatch

__all__ = ["LnsConfig", "local_neighbourhood_search"]

# Relative size of the absolute step that unfreezes a zero component.
_ZERO_STEP_FRACTION = 1e-3
# Rows scored at a time: a search's temporaries hold 2(d+1) x _BLOCK_ROWS
# products (0.6 MB at d = 8) and at most one d x _BLOCK_ROWS copy of the
# rows (0.26 MB at d = 8) however many rows the data have.
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class LnsConfig:
    """Search budget and step sizes.

    max_iters bounds the number of sweeps; early_stop is the number of
    consecutive sweeps without improvement of the best-found count after
    which the search gives up, so one above max_iters never fires. Each
    component is perturbed by perturb_fraction of its absolute value; a
    component sitting exactly at zero would never move under that rule,
    so it gets an absolute step of 1e-3 times the largest component
    magnitude of the current solution instead. The search is
    deterministic.
    """

    max_iters: int = 1000
    early_stop: int = 100
    perturb_fraction: float = 0.1

    def __post_init__(self):
        if _integer("max_iters", self.max_iters) < 1:
            raise ValueError("max_iters must be at least 1")
        if _integer("early_stop", self.early_stop) < 1:
            raise ValueError("early_stop must be at least 1")
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
    gets returned, together with its error count. The start is counted
    by training_error_count; one matrix product of the features with all
    candidates scores a whole sweep, in blocks of rows, and the mistakes
    are counted as set bits of packed words (see the module docstring).
    Candidate ties go to the lowest component index, + before -, which
    is the order of a loop over the candidates. class_a and class_b are
    given both or neither; neither means the two labels of a two-class
    train, smaller first. Rows labelled neither class_a nor class_b
    count as errors on both sides. on_sweep, when given, is called with
    (sweep_index, best_count_so_far) after each sweep.
    """
    cfg = cfg or LnsConfig()
    if train.n_features != init.w.shape[0]:
        raise DimensionMismatch(
            f"{train.n_features} feature columns, discriminant expects "
            f"{init.w.shape[0]}")
    class_a, class_b = _class_pair(train, class_a, class_b)

    count_errors = _error_counter(train, class_a, class_b)

    current = np.concatenate(([init.w0], init.w))
    best = current
    best_count = training_error_count(init, train, class_a, class_b)
    stall = 0

    candidates = np.empty((current.shape[0], 2 * current.shape[0]))
    for sweep in range(cfg.max_iters):
        _sweep_candidates(current, cfg.perturb_fraction, candidates)
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


def _sweep_candidates(current: np.ndarray, perturb_fraction: float,
                      out: np.ndarray) -> None:
    # Column 2i is current with +delta_i on component i, column 2i+1 the
    # same with -delta_i; a zero delta_i becomes the absolute step, whose
    # scale is looked up only then. Written into out, a C-contiguous
    # (size x 2 size) buffer.
    magnitude = np.abs(current)
    delta = perturb_fraction * magnitude
    if not delta.all():
        scale = float(magnitude.max())
        delta[delta == 0.0] = _ZERO_STEP_FRACTION * scale if scale > 0 \
            else _ZERO_STEP_FRACTION
    size = current.shape[0]
    out[...] = current[:, None]
    # entries (i, 2i) sit 2 * size + 2 apart in the flat array
    flat = out.reshape(-1)
    plus, minus = flat[::2 * size + 2], flat[1::2 * size + 2]
    np.add(plus, delta, out=plus)
    np.subtract(minus, delta, out=minus)


def _error_counter(train: LabeledDataset, class_a: int, class_b: int
                   ) -> Callable[[np.ndarray], np.ndarray]:
    # A function that gives the mistakes of each column [w0; w] of a
    # sweep's (d+1) x 2(d+1) candidate matrix on the rows labelled class_a
    # or class_b, plus one for each row of another class. Columns from 2
    # on share the threshold of column 2, as a sweep's do.
    size = train.n_features + 1
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
        block_t = features[start:stop].T
        if rows <= _BLOCK_ROWS:
            # the product runs faster on d contiguous rows than on the
            # strided transpose; larger pairs stream views instead, so
            # that no copy of their features is made
            block_t = np.ascontiguousarray(block_t)
        # a short last block must not count the bits an earlier block
        # left in its pad
        pad = side_a[:, block_rows:8 * n_words] if block_rows < full \
            else None
        predicted = side_a[:, :block_rows]
        blocks.append((block_t, predicted[0], predicted[1], predicted[2:],
                       pad, words[:, :n_words], actual.view(np.uint64)))

    def count_errors(candidates: np.ndarray) -> np.ndarray:
        weights, thresholds = candidates[1:].T, candidates[0]
        counts = np.zeros(2 * size, dtype=np.uint64)
        for block_t, first, second, rest, pad, mistakes, actual in blocks:
            # A row within rounding of a threshold takes its side from
            # the last bits of this product, which may differ from those
            # of a product with one candidate at a time; the product's
            # shape and layout stay fixed, so that a search repeats.
            products = weights @ block_t
            np.greater_equal(products[0], thresholds[0], out=first)
            np.greater_equal(products[1], thresholds[1], out=second)
            np.greater_equal(products[2:], thresholds[2], out=rest)
            if pad is not None:
                pad[...] = False
            np.bitwise_xor(mistakes, actual, out=mistakes)
            # add.reduce, not .sum: 23 against 27 us a count at 1800 x 6
            counts += np.add.reduce(np.bitwise_count(mistakes), axis=1)
        if n_other:
            counts += n_other
        return counts

    return count_errors
