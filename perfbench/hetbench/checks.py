"""Output checks whose failures count in ``failed``.

The model error of every rule a cross-validation cell trains is
recomputed here from the fold's class moments with plain numpy and
``math.erfc``, independently of hetlda's own statistics code. The CLI's
prediction file is compared line by line with in-process prediction,
and the saved model's weights with a model trained in memory.
"""
from __future__ import annotations

import math
import threading

import numpy as np

# Relative and absolute tolerance between a reported model error and the
# independent recomputation; both sides are float64 sums of O(n d^2)
# terms taken in different orders.
P_E_RTOL = 1e-9
P_E_ATOL = 1e-12


def fold_key(method: str, class_a: int, class_b: int,
             features: np.ndarray) -> tuple:
    """Identifies the training rows of one class pair of one fold."""
    return (method, class_a, class_b, features.shape[0],
            float(features.sum()))


class RuleCapture:
    """Wraps binary trainers to keep every rule they return, keyed by the
    rows they were trained on, so cells can be checked after the run."""

    def __init__(self):
        self.rules: dict[tuple, tuple[np.ndarray, float, float]] = {}
        self.conflicts = 0
        self._lock = threading.Lock()

    def wrap(self, method: str, trainer):
        def capturing(data, class_a, class_b):
            disc, p_e = trainer(data, class_a, class_b)
            key = fold_key(method, class_a, class_b, data.features)
            entry = (disc.w, disc.w0, float(p_e))
            with self._lock:
                previous = self.rules.setdefault(key, entry)
                if previous is not entry and not _same_rule(previous, entry):
                    self.conflicts += 1
            return disc, p_e
        return capturing


def _same_rule(a, b) -> bool:
    return np.array_equal(a[0], b[0]) and a[1] == b[1] and a[2] == b[2]


def gaussian_error(w: np.ndarray, w0: float, rows_a: np.ndarray,
                   rows_b: np.ndarray) -> float:
    """Model error of the rule 'class a iff w'x >= w0' under Gaussian
    class models fitted to the rows (population covariance)."""
    n_a, n_b = rows_a.shape[0], rows_b.shape[0]
    error = 0.0
    for rows, prior, sign in ((rows_a, n_a / (n_a + n_b), -1.0),
                              (rows_b, n_b / (n_a + n_b), 1.0)):
        mean = rows.mean(axis=0)
        centered = rows - mean
        variance = float(w @ (centered.T @ centered / rows.shape[0]) @ w)
        z = (w0 - float(w @ mean)) / math.sqrt(variance)
        # class a errs below the threshold, class b at or above it
        error += prior * 0.5 * math.erfc(sign * z / math.sqrt(2.0))
    return error


def count_error(w: np.ndarray, w0: float, rows_a: np.ndarray,
                rows_b: np.ndarray) -> float:
    """Training misclassification rate of the rule on the pair's rows."""
    wrong = np.sum(rows_a @ w < w0) + np.sum(rows_b @ w >= w0)
    return float(wrong) / (rows_a.shape[0] + rows_b.shape[0])


def close(reported: float, expected: float) -> bool:
    return abs(reported - expected) <= P_E_ATOL + P_E_RTOL * abs(expected)


def check_cells(report, data, splits, capture: RuleCapture) -> tuple[int, int]:
    """Recompute each cell's pairwise errors from its training fold.

    Returns (checks made, checks failed). A cell passes when every pair's
    captured error matches the recomputation and the cell's reported
    error is their mean. gld-lns reports its training error rate, so its
    rules are checked against the misclassification count instead.
    """
    made = failed = 0
    k = data.n_classes
    for row in report.methods:
        scorer = count_error if row.method == "gld-lns" else gaussian_error
        for cell in row.per_fold:
            if cell.failure is not None:
                continue
            made += 1
            train = splits[cell.trial][cell.fold][0]
            features = data.features[train]
            labels = data.labels[train]
            errors = []
            ok = True
            for a in range(k):
                for b in range(a + 1, k):
                    pair = (labels == a) | (labels == b)
                    rule = capture.rules.get(
                        fold_key(row.method, a, b, features[pair]))
                    if rule is None:
                        ok = False
                        continue
                    w, w0, p_e = rule
                    expected = scorer(w, w0, features[labels == a],
                                      features[labels == b])
                    ok = ok and close(p_e, expected)
                    errors.append(p_e)
            ok = ok and close(cell.bayes_error, float(np.mean(errors)))
            failed += not ok
    return made, failed


def check_repeat(first, again) -> tuple[int, int]:
    """Cells of a repeated pass must reproduce the first pass exactly."""
    made = failed = 0
    for row_a, row_b in zip(first.methods, again.methods, strict=True):
        for a, b in zip(row_a.per_fold, row_b.per_fold, strict=True):
            made += 1
            same = (a.failure == b.failure
                    and _equal_or_nan(a.bayes_error, b.bayes_error)
                    and _equal_or_nan(a.accuracy, b.accuracy))
            failed += not same
    return made, failed


def _equal_or_nan(x: float, y: float) -> bool:
    return x == y or (math.isnan(x) and math.isnan(y))


def check_predictions(path: str, expected_names: list[str]) -> bool:
    """The CLI's prediction file, line by line, against in-process
    predictions."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    return lines == expected_names


def check_model(loaded, reference) -> bool:
    """Weights, thresholds and errors read back from the model file must
    equal those of the model trained in memory, bit for bit."""
    if loaded.n_classes != reference.n_classes \
            or len(loaded.pairs) != len(reference.pairs):
        return False
    return all(a1 == a2 and b1 == b2 and np.array_equal(d1.w, d2.w)
               and d1.w0 == d2.w0 and e1 == e2
               for (a1, b1, d1, e1), (a2, b2, d2, e2)
               in zip(loaded.pairs, reference.pairs))
