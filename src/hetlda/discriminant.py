"""Two-class Gaussian discriminant primitives.

A linear rule (w, w0) assigns the first class when w'x >= w0. Under
per-class Gaussian models the projected statistics (mu_k, sigma_k^2) and
standardized margins z_k = (w0 - mu_k)/sigma_k determine the model
misclassification probability

    p_e = pi_1 Q(-z_1) + pi_2 Q(z_2)

and its gradient in (w, w0), both implemented here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateProjection, DimensionMismatch, EmptyClass
from .numkit import q_function

__all__ = [
    "LabeledDataset", "ClassStats", "Priors", "LinearDiscriminant",
    "ProjectedStats", "compute_class_stats", "project_stats", "bayes_error",
    "gradient_bayes_error", "classify", "decision_values",
    "training_error_count",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_MIN_PROJECTED_VARIANCE = 1e-300


def _readonly(a: np.ndarray) -> np.ndarray:
    """a as a read-only C-contiguous array that nothing else can write.
    A writeable a is copied, so the caller's array stays writeable and
    its later writes cannot reach the object that keeps the result; so
    is a view, whose base (a writeable array, a memory-mapped file) may
    still change under it."""
    if a.flags.writeable or a.base is not None or not a.flags.c_contiguous:
        a = np.array(a, order="C")
    a.setflags(write=False)
    return a


def _integer(name: str, value) -> int:
    # True and 2.0 equal integers but cannot size, index or count
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} {value!r} is not an integer")
    return value


def _class_names(names, k: int, mismatch: type) -> tuple[str, ...]:
    # ("0", ..., "k-1") for None, else a list or tuple of k distinct str (a
    # str would split into its characters); another count raises mismatch
    if names is None:
        return tuple(str(label) for label in range(k))
    if not (isinstance(names, (list, tuple))
            and all(isinstance(n, str) for n in names)):
        raise ValueError(f"class names {names!r} are not a list of strings")
    if len(names) != k:
        raise mismatch(f"{len(names)} class names for {k} classes")
    if len(set(names)) != k:
        raise ValueError(f"class names {names!r} are not distinct")
    return tuple(names)


def _ascending(idx: np.ndarray) -> bool:
    # non-negative integer row indices in ascending order, none twice
    return (idx.dtype.kind in "iu" and idx.ndim == 1 and idx.size > 0
            and idx[0] >= 0 and bool(np.all(idx[1:] > idx[:-1])))


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with dense integer labels.

    labels take values in [0, K) where K = max(label)+1; class_names is a
    list or tuple of exactly K strings and names class k at index k,
    ("0", ..., "K-1") when not given, which needs K <= n_samples. Arrays
    are normalized to float64/int64 and marked read-only.
    """

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...] | None = None
    # label -> ClassStats of each class whose moments compute_class_stats
    # has computed on these rows; never an error
    _moments: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        x = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels)
        if x.ndim != 2 or x.shape[1] == 0:
            raise DimensionMismatch(f"features must be n x d, d >= 1, got {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise DimensionMismatch(
                f"labels shape {y.shape} does not match {x.shape[0]} rows")
        if x.shape[0] == 0:
            raise EmptyClass("dataset has no rows")
        if not np.all(np.isfinite(x)):
            raise ValueError("features must be finite")
        if not np.issubdtype(y.dtype, np.integer):
            rounded = np.asarray(y, dtype=float)
            # checked before the cast, which warns on NaN, inf and values
            # beyond int64
            if not np.all((np.floor(rounded) == rounded)
                          & (np.abs(rounded) < 2.0 ** 63)):
                raise ValueError("labels must be integers")
            y = rounded.astype(np.int64)
        y = y.astype(np.int64, copy=False)
        if y.min() < 0:
            raise ValueError("labels must be non-negative")
        top = int(y.max())
        if self.class_names is None and top >= y.shape[0]:
            # default names are one per label up to the largest, so a
            # sparse label would cost memory in proportion to its value
            raise ValueError(
                f"label {top} is not below the row count {y.shape[0]}; "
                "relabel the classes as 0, ..., K-1 or pass class_names")
        object.__setattr__(self, "features", _readonly(x))
        object.__setattr__(self, "labels", _readonly(y))
        object.__setattr__(self, "class_names", _class_names(
            self.class_names, top + 1, DimensionMismatch))

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def class_indices(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)

    def subset(self, indices) -> "LabeledDataset":
        """Row subset; labels keep their values, and class names are
        trimmed to the labels that remain representable (entries above
        the new max label drop off). A class whose rows the subset keeps
        all of, in their order, keeps the moments cached for it here.
        Every row in order is the dataset itself (its names end at its
        largest label, so none is trimmed): it cannot change, so a copy
        would only cost time."""
        idx = np.asarray(indices)
        if (idx.size == self.n_samples and _ascending(idx)
                and idx[-1] == self.n_samples - 1):
            return self
        # np.take gathers integer rows as indexing does, only faster; both
        # copy, so the new dataset may keep them without another copy
        rows = ((lambda a: np.take(a, idx, axis=0)) if idx.dtype.kind in "iu"
                else (lambda a: a[idx]))
        features, labels = rows(self.features), rows(self.labels)
        features.setflags(write=False)
        labels.setflags(write=False)
        # initial=-1: an empty subset still fails the "no rows" check
        top = int(labels.max(initial=-1))
        sub = LabeledDataset(features, labels, self.class_names[:top + 1])
        if self._moments and _ascending(idx):
            # a class with as many rows here as in self has them all, in
            # the same order
            counts = np.bincount(labels, minlength=top + 1)
            sub._moments.update(
                (label, stats) for label, stats in self._moments.items()
                if label <= top and counts[label] == stats.count)
        return sub


@dataclass(frozen=True, eq=False)
class ClassStats:
    """Finite class moments (a d-vector mean, a d x d covariance), count.
    Two ClassStats are equal only when they are the same object."""

    mean: np.ndarray
    cov: np.ndarray
    count: int

    def __post_init__(self):
        mean, cov = np.asarray(self.mean, float), np.asarray(self.cov, float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise DimensionMismatch(f"mean {mean.shape} and covariance "
                                    f"{cov.shape} are not d and d x d")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("class mean and covariance must be finite")
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "cov", _readonly(cov))


@dataclass(frozen=True)
class Priors:
    """Class priors; tau = pi2/pi1 is the prior ratio used throughout."""

    pi1: float
    pi2: float
    tau: float = field(init=False)

    def __post_init__(self):
        if not (self.pi1 > 0 and self.pi2 > 0):
            raise EmptyClass("priors must be strictly positive")
        object.__setattr__(self, "tau", self.pi2 / self.pi1)


@dataclass(frozen=True)
class LinearDiscriminant:
    """Decision rule: first class iff w'x >= w0."""

    w: np.ndarray
    w0: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1:
            raise DimensionMismatch(f"w must be a vector, got shape {w.shape}")
        object.__setattr__(self, "w", _readonly(w))
        object.__setattr__(self, "w0", float(self.w0))


@dataclass(frozen=True)
class ProjectedStats:
    """One-dimensional image of the two class models under (w, w0)."""

    mu1: float
    mu2: float
    var1: float
    var2: float
    z1: float
    z2: float

    @property
    def sigma1(self) -> float:
        return math.sqrt(self.var1)

    @property
    def sigma2(self) -> float:
        return math.sqrt(self.var2)


def compute_class_stats(data: LabeledDataset, class_a: int,
                        class_b: int) -> tuple[ClassStats, ClassStats, Priors]:
    """Moments and priors for the two named classes.

    Each class gets the arithmetic mean of its rows and the population
    covariance about it (divided by n, exactly symmetric, 0 along a
    feature constant in the class). Priors come from the relative counts
    of the two classes alone. Each class must contribute at least two
    samples, and its moments must be finite: features too large to
    square raise DegenerateProjection, since no projection of an infinite
    covariance has a finite spread. Moments are computed once per dataset.
    """
    stats1, stats2 = (_class_stats(data, label)
                      for label in (class_a, class_b))
    n1, n2 = stats1.count, stats2.count
    return stats1, stats2, Priors(n1 / (n1 + n2), n2 / (n1 + n2))


def _class_stats(data: LabeledDataset, label: int) -> ClassStats:
    # the moments of one class, from data's cache or computed and cached,
    # so every caller on data gets the same ClassStats object; the arrays
    # are read-only, so ClassStats keeps them uncopied
    cached = data._moments.get(label)
    if cached is not None:
        return cached
    idx = data.class_indices(label)
    if idx.size < 2:
        raise EmptyClass(
            f"class {label} has {idx.size} sample(s); at least 2 required")
    # the dataset already holds finite float64 n x d rows
    rows = np.take(data.features, idx, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        m = rows.mean(axis=0)
        centered = rows - m
        cov = centered.T @ centered / idx.size
        cov = (cov + cov.T) / 2.0
        # a constant column's variance is the mean's rounding, at most
        # n eps |m|, which numkit's unit-diagonal rule would scale up
        flat = np.sqrt(np.diag(cov)) <= idx.size * 2.0 ** -52 * np.abs(m)
        flat[flat] = (rows[:, flat] == rows[0, flat]).all(axis=0)
        cov[flat] = cov[:, flat] = 0.0
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(cov))):
        raise DegenerateProjection(
            f"class {label} moments overflow: the mean or covariance "
            "is not finite")
    m.setflags(write=False)
    cov.setflags(write=False)
    data._moments[label] = cached = ClassStats(m, cov, idx.size)
    return cached


def _fill_moments(data: LabeledDataset) -> None:
    """Cache the moments of every class of data that has them. A class
    that raises is left out, so the call that needs it raises again."""
    for label in range(data.n_classes):
        try:
            _class_stats(data, label)
        except (EmptyClass, DegenerateProjection):
            pass


def project_stats(disc: LinearDiscriminant, stats1: ClassStats,
                  stats2: ClassStats) -> ProjectedStats:
    """Project both class models onto the discriminant direction."""
    w, w0 = disc.w, disc.w0
    mu1 = float(w @ stats1.mean)
    mu2 = float(w @ stats2.mean)
    var1 = float(w @ stats1.cov @ w)
    var2 = float(w @ stats2.cov @ w)
    _check_variances(var1, var2)
    z1 = (w0 - mu1) / math.sqrt(var1)
    z2 = (w0 - mu2) / math.sqrt(var2)
    return ProjectedStats(mu1, mu2, var1, var2, z1, z2)


def _check_variances(var1: float, var2: float) -> None:
    for k, v in ((1, var1), (2, var2)):
        if not (v > _MIN_PROJECTED_VARIANCE) or not math.isfinite(v):
            raise DegenerateProjection(
                f"projected variance of class {k} is {v!r}")


def bayes_error(proj: ProjectedStats, priors: Priors) -> float:
    """Model misclassification probability of the rule behind proj.

    Class 1 errs below the threshold with probability Q(-z1), taken
    directly rather than as 1 - Q(z1), which cancels in the tail.
    """
    return (priors.pi1 * q_function(-proj.z1)
            + priors.pi2 * q_function(proj.z2))


def gradient_bayes_error(disc: LinearDiscriminant, stats1: ClassStats,
                         stats2: ClassStats,
                         priors: Priors) -> tuple[np.ndarray, float]:
    """Exact gradient of bayes_error with respect to (w, w0)."""
    return _gradient(disc.w, project_stats(disc, stats1, stats2), stats1,
                     stats2, priors)


def _gradient(w: np.ndarray, proj: ProjectedStats, stats1: ClassStats,
              stats2: ClassStats, priors: Priors) -> tuple[np.ndarray, float]:
    # gradient_bayes_error for a rule whose projection proj is already known
    s1, s2 = proj.sigma1, proj.sigma2
    z1, z2 = proj.z1, proj.z2
    phi1 = math.exp(-0.5 * z1 * z1) / _SQRT_2PI
    phi2 = math.exp(-0.5 * z2 * z2) / _SQRT_2PI
    c1, c2 = priors.pi1 * phi1 / proj.var1, priors.pi2 * phi2 / proj.var2
    grad_w = ((c2 * s2) * stats2.mean - (c1 * s1) * stats1.mean
              + (c2 * z2) * (stats2.cov @ w) - (c1 * z1) * (stats1.cov @ w))
    grad_w0 = priors.pi1 * phi1 / s1 - priors.pi2 * phi2 / s2
    return grad_w, grad_w0


def _as_batch(features, d: int) -> np.ndarray:
    """features as an n x d float matrix. A scalar or a vector is one
    sample; any other shape, or another width than d, raises
    DimensionMismatch, and a NaN or infinite entry ValueError."""
    x = np.asarray(features, dtype=float)
    batch = x.reshape(1, -1) if x.ndim < 2 else x
    if batch.ndim != 2 or batch.shape[1] != d:
        raise DimensionMismatch(
            f"samples of shape {x.shape}, expected one sample of {d} "
            f"features or an n x {d} matrix")
    if not np.isfinite(batch).all():
        raise ValueError("samples must be finite")
    return batch


def _one_sample(x, d: int) -> np.ndarray:
    """x as a 1 x d matrix: a scalar, a vector or a one-row matrix. A
    matrix of any other row count raises DimensionMismatch."""
    batch = _as_batch(x, d)
    if batch.shape[0] != 1:
        raise DimensionMismatch(
            f"{batch.shape[0]} samples where one sample of {d} features "
            "is expected")
    return batch


def decision_values(disc: LinearDiscriminant, features) -> np.ndarray:
    """w'x - w0 for each row of features (one sample or an n x d matrix)."""
    return _as_batch(features, disc.w.shape[0]) @ disc.w - disc.w0


def classify(disc: LinearDiscriminant, x, class_a: int = 0,
             class_b: int = 1) -> int:
    """Label for a single sample; the boundary w'x == w0 goes to class_a."""
    value = float(decision_values(disc, _one_sample(x, disc.w.shape[0]))[0])
    return class_a if value >= 0.0 else class_b


def training_error_count(disc: LinearDiscriminant, data: LabeledDataset,
                         class_a: int | None = None,
                         class_b: int | None = None) -> int:
    """Misclassified-sample count on a two-class dataset.

    By default the smaller label plays the w'x >= w0 side (class_a);
    class_a and class_b are given both or neither.
    """
    class_a, class_b = _class_pair(data, class_a, class_b)
    side_a = decision_values(disc, data.features) >= 0.0
    predicted = np.where(side_a, class_a, class_b)
    return int(np.sum(predicted != data.labels))


def _class_pair(data: LabeledDataset, class_a: int | None,
                class_b: int | None) -> tuple[int, int]:
    # (class_a, class_b) as given, or the two labels present in data,
    # smaller first, when both are None; found from the label range and
    # counts, since np.unique would sort a copy of the labels
    if (class_a is None) != (class_b is None):
        raise ValueError("pass both class_a and class_b, or neither")
    if class_a is None:
        labels = data.labels
        class_a, class_b = int(labels.min()), int(labels.max())
        if class_a == class_b or np.any((labels != class_a)
                                        & (labels != class_b)):
            raise DimensionMismatch(
                f"dataset has {np.unique(labels).size} classes; pass "
                "class_a/class_b explicitly")
    return class_a, class_b
