"""One-vs-one reduction for K > 2 classes.

One binary rule per unordered class pair; at prediction time each rule
votes for one of its two classes and the vote counts are weighted by
1 - p_e, so pairs that separate poorly count for less. This also breaks
most plurality ties without randomness.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discriminant import (LabeledDataset, LinearDiscriminant, _as_batch,
                           _class_names, _fill_moments, _integer,
                           _one_sample, decision_values)
from .errors import EmptyClass

__all__ = ["BinaryTrainer", "OvoModel", "train_ovo", "predict_ovo",
           "predict_ovo_batch"]

# A binary training procedure: gets the dataset restricted to the two
# classes plus which label plays the w'x >= w0 side, returns the rule
# and its error estimate in [0, 1].
BinaryTrainer = Callable[[LabeledDataset, int, int],
                         tuple[LinearDiscriminant, float]]


@dataclass(frozen=True)
class OvoModel:
    """All K(K-1)/2 pairwise rules with their error estimates; K >= 2,
    int class indices, finite rules whose w share one non-empty length,
    and class_names ("0", ..., "K-1") unless given."""

    pairs: tuple[tuple[int, int, LinearDiscriminant, float], ...]
    n_classes: int
    class_names: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        k = _integer("n_classes", self.n_classes)
        if k < 2:
            raise ValueError(f"need at least two classes, got {k}")
        seen = set()
        for a, b, disc, p_e in self.pairs:
            if not 0 <= _integer("class_a", a) < _integer("class_b", b) < k:
                raise ValueError(f"invalid class pair ({a}, {b})")
            if not 0.0 <= p_e <= 1.0:
                raise ValueError(f"pair ({a}, {b}) has error {p_e} "
                                 "outside [0, 1]")
            if not (np.all(np.isfinite(disc.w)) and np.isfinite(disc.w0)):
                raise ValueError(f"pair ({a}, {b}) has a non-finite weight "
                                 "or threshold")
            seen.add((a, b))
        # K(K-1)/2 valid, distinct pairs cover them all; neither the full
        # pair set nor the default names are built before this check,
        # because K may come from an untrusted model file
        if not len(seen) == len(self.pairs) == k * (k - 1) // 2:
            raise ValueError("pairs must cover every unordered class pair "
                             "exactly once")
        lengths = {disc.w.shape[0] for _a, _b, disc, _p_e in self.pairs}
        if len(lengths) != 1 or 0 in lengths:
            raise ValueError("weight vectors are empty or of different "
                             "lengths")
        object.__setattr__(self, "class_names",
                           _class_names(self.class_names, k, ValueError))

    @property
    def mean_p_e(self) -> float:
        return float(np.mean([p_e for *_rest, p_e in self.pairs]))


def train_ovo(data: LabeledDataset, trainer: BinaryTrainer) -> OvoModel:
    """Train one binary rule per unordered class pair.

    Each pair sees only its own samples; the other K-2 classes are
    ignored. Every class must contribute at least two samples. With two
    classes the trainer gets data itself; with more, each class's
    moments are computed once on data and shared with its pairs.
    """
    k = data.n_classes
    if k < 2:
        raise EmptyClass("need at least two classes")
    counts = np.bincount(data.labels, minlength=k)
    for label, count in enumerate(counts):
        if count < 2:
            raise EmptyClass(f"class {label} has {count} samples")
    if k == 2:
        disc, p_e = trainer(data, 0, 1)
        return OvoModel(((0, 1, disc, float(p_e)),), k, data.class_names)
    # each pair subset keeps both classes' rows in order, and so the
    # moments cached here
    _fill_moments(data)
    pairs = []
    for a in range(k):
        for b in range(a + 1, k):
            subset = data.subset(np.flatnonzero(
                (data.labels == a) | (data.labels == b)))
            disc, p_e = trainer(subset, a, b)
            pairs.append((a, b, disc, float(p_e)))
    return OvoModel(tuple(pairs), k, data.class_names)


def _scores(model: OvoModel, features: np.ndarray) -> np.ndarray:
    scores = np.zeros((features.shape[0], model.n_classes))
    for a, b, disc, p_e in model.pairs:
        votes_a = decision_values(disc, features) >= 0.0
        weight = 1.0 - p_e
        scores[votes_a, a] += weight
        scores[~votes_a, b] += weight
    return scores


def predict_ovo(model: OvoModel, x) -> int:
    """Weighted-vote label for a single sample; ties go to the lowest
    class index."""
    x = _one_sample(x, model.pairs[0][2].w.shape[0])
    return int(predict_ovo_batch(model, x)[0])


def predict_ovo_batch(model: OvoModel, features) -> np.ndarray:
    """Weighted-vote labels for each row of features (one sample or an
    n x d matrix)."""
    x = _as_batch(features, model.pairs[0][2].w.shape[0])
    return np.argmax(_scores(model, x), axis=1)
