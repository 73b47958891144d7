"""Dataset ingestion, synthetic generators, cross-validation, and the
benchmark harness.

The two synthetic generators draw from a pair of diagonal-covariance
Gaussians with a 1:2 class imbalance; their population parameters are
also exposed directly so model errors can be computed without sampling
noise.
"""
from __future__ import annotations

import csv
import io
import math
import time
import warnings
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .discriminant import (ClassStats, LabeledDataset, Priors,
                           _fill_moments, _integer)
from .errors import (DegenerateProjection, HetldaError, InconsistentWidth,
                     InfeasibleStratification, ParseError)
from .multiclass import BinaryTrainer, predict_ovo_batch, train_ovo

__all__ = ["CSV_HEADER", "CvPlan", "FoldRecord", "EvalMetrics",
           "BenchmarkReport", "load_csv", "load_matrix_csv", "save_csv",
           "generate_d1", "generate_d2", "d1_population", "d2_population",
           "kfold_split", "accuracy_score", "default_workers",
           "run_benchmark"]

CSV_HEADER = ("method,bayes_error_mean,bayes_error_std,"
              "accuracy_mean,accuracy_std,train_time_mean")


# ---------------------------------------------------------------------------
# CSV ingestion

def _parse_feature(cell: str, row: int, column: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"feature cell {cell!r} is not a number",
                         row=row, column=column) from None
    if not math.isfinite(value):
        raise ParseError(f"feature cell {cell!r} is not finite",
                         row=row, column=column)
    return value


def _label_index(width: int, label_column: int) -> int:
    if width < 2:
        raise ParseError(f"{width} columns; need at least one feature "
                         "and one label column")
    col = label_column if label_column >= 0 else width + label_column
    if not 0 <= col < width:
        raise ParseError(f"label column {label_column} out of range for "
                         f"{width} columns")
    return col


def _read_plain(path: str, has_header: bool, label_column: int | None
                ) -> tuple[np.ndarray, list[str]] | None:
    """What _read returns, for a plain numeric file, or None.

    A file is plain when no line holds a quote or a NUL or is longer
    than the csv field limit, every data line has the first one's width,
    and np.loadtxt parses every feature cell to a finite value: the csv
    module then splits each line at its commas, and loadtxt and float
    read the same cells to the same doubles. Any other file, and so
    every error, is left to _read's csv loop. Lines are split as the csv
    loop's file object splits them, so skiprows counts the same lines.
    """
    limit = csv.field_size_limit()
    labels = []
    rows = skip = 0
    width = col = None
    with open(path, newline="") as handle:
        encoding = handle.encoding
        try:
            for number, line in enumerate(handle, 1):
                if line in ("\n", "\r\n", "\r"):  # rows csv reads as []
                    continue
                if '"' in line or "\0" in line or len(line) > limit:
                    return None
                if has_header and not skip:
                    skip = number
                    continue
                cells = line.split(",")
                if width is None:
                    width = len(cells)
                    if label_column is not None:
                        try:
                            col = _label_index(width, label_column)
                        except ParseError:
                            return None
                elif len(cells) != width:
                    return None
                if col is not None:
                    labels.append(cells[col].strip())
                rows += 1
        except UnicodeDecodeError:
            return None
    if not rows:
        return None
    usecols = [c for c in range(width) if c != col]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(path, delimiter=",", usecols=usecols,
                                skiprows=skip, comments=None, ndmin=2,
                                encoding=encoding)
    except (ValueError, Warning):
        return None
    if values.shape != (rows, len(usecols)) or not np.isfinite(values).all():
        return None
    return values, labels


def _read(path: str, has_header: bool, label_column: int | None
          ) -> tuple[np.ndarray, list[str]]:
    """The feature matrix and the stripped label cells of a file, read in
    one pass: each non-empty row is width-checked and parsed as it
    arrives, so an error locates the first fault in file order. With
    label_column None every cell is a feature. A row the csv module
    cannot split (a cell past its field size limit) is a ParseError.
    Plain numeric files take _read_plain's numpy path instead."""
    plain = _read_plain(path, has_header, label_column)
    if plain is not None:
        return plain
    values = array("d")
    labels = []
    width = col = None
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        rows = (row for row in reader if row)
        try:
            if has_header:
                next(rows, None)
            for row in rows:
                line = reader.line_num
                if width is None:
                    width = len(row)
                    if label_column is not None:
                        col = _label_index(width, label_column)
                elif len(row) != width:
                    raise InconsistentWidth(
                        f"{len(row)} cells, expected {width}", row=line)
                for c, cell in enumerate(row):
                    if c == col:
                        labels.append(cell.strip())
                    else:
                        values.append(
                            _parse_feature(cell.strip(), line, c + 1))
        except csv.Error as exc:
            raise ParseError(f"unreadable row: {exc}",
                             row=reader.line_num) from None
    if width is None:
        raise ParseError("no data rows")
    return np.frombuffer(values).reshape(-1, width - (col is not None)), labels


def load_csv(path: str, has_header: bool = False,
             label_column: int = -1) -> LabeledDataset:
    """Read a delimited file with one label column, the rest features.

    Labels whose distinct texts are exactly "0", "1", ..., "K-1" keep
    those values; any other labels (strings, sparse integers, or integer
    texts such as "01" or "1_0") are mapped to dense integers in order of
    first appearance, with the original text kept as class names.
    """
    features, raw_labels = _read(path, has_header, label_column)
    names = tuple(dict.fromkeys(raw_labels))  # in order of first appearance
    dense = tuple(str(k) for k in range(len(names)))
    if set(names) == set(dense):
        names = dense
    index = {name: k for k, name in enumerate(names)}
    labels = np.asarray([index[cell] for cell in raw_labels])
    return LabeledDataset(features, labels, names)


def load_matrix_csv(path: str, has_header: bool = False) -> np.ndarray:
    """Read a delimited file where every cell is a feature."""
    return _read(path, has_header, None)[0]


_WRITE_BLOCK_ROWS = 1024


def save_csv(data: LabeledDataset, path: str) -> None:
    """Write features then an integer label column, full precision, in
    the bytes csv.writer gives: no cell needs quoting, and rows end in
    CRLF. Rows are formatted a block at a time, so only one block is
    ever held as Python numbers."""
    row = ",".join(["%.17g"] * data.n_features) + ",%d\r\n"
    with open(path, "w", newline="") as handle:
        for start in range(0, data.n_samples, _WRITE_BLOCK_ROWS):
            block = slice(start, start + _WRITE_BLOCK_ROWS)
            handle.write("".join([
                row % (*x, label) for x, label in
                zip(data.features[block].tolist(),
                    data.labels[block].tolist())]))


# ---------------------------------------------------------------------------
# Synthetic generators

_D1_MEAN2 = np.array([3.86, 3.10, 0.84, 0.84, 1.64, 1.08, 0.26, 0.01])
_D1_VAR2 = np.array([8.41, 12.06, 0.12, 0.22, 1.49, 1.77, 0.35, 2.73])
_D1_SHIFT = 0.3
_D1_COUNTS = (1000, 2000)

_D2_MEAN2 = np.array([-1.5, -0.75, 0.75, 1.5])
_D2_VAR2 = np.array([0.25, 0.75, 1.25, 1.75])
_D2_SHIFT = 0.75
_D2_COUNTS = (2000, 4000)


def _generate(seed: int, mean2: np.ndarray, var2: np.ndarray, shift: float,
              counts: tuple[int, int]) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    d = mean2.shape[0]
    n1, n2 = counts
    x1 = rng.standard_normal((n1, d)) + (mean2 - shift)
    x2 = rng.standard_normal((n2, d)) * np.sqrt(var2) + mean2
    features = np.vstack([x1, x2])
    labels = np.concatenate([np.zeros(n1, dtype=int), np.ones(n2, dtype=int)])
    return LabeledDataset(features, labels)


def _population(mean2: np.ndarray, var2: np.ndarray, shift: float,
                counts: tuple[int, int]
                ) -> tuple[ClassStats, ClassStats, Priors]:
    n1, n2 = counts
    n = n1 + n2
    d = mean2.shape[0]
    stats1 = ClassStats(mean2 - shift, np.eye(d), n1)
    stats2 = ClassStats(mean2, np.diag(var2), n2)
    return stats1, stats2, Priors(n1 / n, n2 / n)


def generate_d1(seed: int) -> LabeledDataset:
    """8-dimensional pair: class 0 is N(m - 0.3, I) with 1000 samples,
    class 1 is N(m, diag(v)) with 2000."""
    return _generate(seed, _D1_MEAN2, _D1_VAR2, _D1_SHIFT, _D1_COUNTS)


def generate_d2(seed: int) -> LabeledDataset:
    """4-dimensional pair: class 0 is N(m - 0.75, I) with 2000 samples,
    class 1 is N(m, diag(v)) with 4000."""
    return _generate(seed, _D2_MEAN2, _D2_VAR2, _D2_SHIFT, _D2_COUNTS)


def d1_population() -> tuple[ClassStats, ClassStats, Priors]:
    """Exact class parameters behind generate_d1."""
    return _population(_D1_MEAN2, _D1_VAR2, _D1_SHIFT, _D1_COUNTS)


def d2_population() -> tuple[ClassStats, ClassStats, Priors]:
    """Exact class parameters behind generate_d2."""
    return _population(_D2_MEAN2, _D2_VAR2, _D2_SHIFT, _D2_COUNTS)


# ---------------------------------------------------------------------------
# Cross-validation

@dataclass(frozen=True)
class CvPlan:
    """Fold count, trial count, and shuffling seed for repeated
    stratified k-fold."""

    folds: int = 10
    trials: int = 20
    seed: int = 0

    def __post_init__(self):
        if _integer("folds", self.folds) < 2:
            raise ValueError("folds must be at least 2")
        if _integer("trials", self.trials) < 1:
            raise ValueError("trials must be at least 1")
        if _integer("seed", self.seed) < 0:
            raise ValueError("seed must be non-negative")


def kfold_split(data: LabeledDataset, plan: CvPlan
                ) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Per trial, a list of (train_indices, test_indices) partitions.

    Trial t shuffles with seed + t. Each class is permuted separately
    and split into near-equal consecutive chunks, one per fold, so fold
    class counts differ by at most one. Every class needs at least as
    many samples as there are folds.
    """
    if data.n_samples < plan.folds:
        raise ValueError(f"{data.n_samples} samples cannot fill "
                         f"{plan.folds} folds")
    for label in range(data.n_classes):
        count = data.class_indices(label).size
        if count < plan.folds:
            raise InfeasibleStratification(
                f"class {label} has {count} samples, fewer than "
                f"{plan.folds} folds")
    trials = []
    for trial in range(plan.trials):
        rng = np.random.default_rng(plan.seed + trial)
        test_folds: list[list[np.ndarray]] = [[] for _ in range(plan.folds)]
        for label in range(data.n_classes):
            perm = rng.permutation(data.class_indices(label))
            for f, part in enumerate(np.array_split(perm, plan.folds)):
                test_folds[f].append(part)
        splits = []
        for parts in test_folds:
            test = np.sort(np.concatenate(parts))
            mask = np.ones(data.n_samples, dtype=bool)
            mask[test] = False
            splits.append((np.flatnonzero(mask), test))
        trials.append(splits)
    return trials


def accuracy_score(predicted, actual) -> float:
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape:
        raise ValueError("prediction/label length mismatch")
    return float(np.mean(predicted == actual))


# ---------------------------------------------------------------------------
# Benchmark harness

@dataclass(frozen=True)
class FoldRecord:
    """One method x trial x fold cell. failure holds the error text when
    the trainer raised; the metric fields are NaN in that case."""

    trial: int
    fold: int
    bayes_error: float
    accuracy: float
    train_time: float
    failure: str | None = None


@dataclass(frozen=True)
class EvalMetrics:
    """Aggregate row for one method: means and standard deviations over
    all successful cells, plus the per-fold records behind them."""

    method: str
    mean_bayes_error: float
    bayes_error_std: float
    accuracy: float
    accuracy_std: float
    training_time: float
    per_fold: tuple[FoldRecord, ...]
    failures: int = 0


@dataclass(frozen=True)
class BenchmarkReport:
    methods: tuple[EvalMetrics, ...]
    plan: CvPlan

    def to_text(self) -> str:
        lines = [f"folds={self.plan.folds} trials={self.plan.trials} "
                 f"seed={self.plan.seed}; Bayes error is the mean over "
                 "pairwise rules, computed on the training fold (for "
                 "gld-lns, the training misclassification rate)"]
        header = f"{'method':<10} {'bayes_error':<19} {'accuracy':<19} " \
                 f"{'train_time':<12}"
        lines.append(header)
        for m in self.methods:
            row = (f"{m.method:<10} "
                   f"{m.mean_bayes_error:.4f} ± {m.bayes_error_std:.4f}"
                   f"    {m.accuracy:.4f} ± {m.accuracy_std:.4f}    "
                   f"{m.training_time:.4f} s")
            if m.failures:
                row += f"  [{m.failures} failed cells]"
            lines.append(row)
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(CSV_HEADER + "\n")
        writer = csv.writer(out, lineterminator="\n")
        for m in self.methods:
            writer.writerow([m.method] + [
                f"{v:.17g}" for v in (m.mean_bayes_error, m.bayes_error_std,
                                      m.accuracy, m.accuracy_std,
                                      m.training_time)])
        return out.getvalue()


def _standardizer(rows: np.ndarray):
    """The map x -> (x - mean) / std fitted on rows, a constant column
    keeping std 1. A spread too large to compute raises
    DegenerateProjection: dividing by an infinite std would silently
    zero the column."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = rows.mean(axis=0)
        std = rows.std(axis=0)
    finite = np.isfinite(mean) & np.isfinite(std)
    if not finite.all():
        raise DegenerateProjection(
            f"feature {int(np.argmin(finite)) + 1} cannot be standardized: "
            "its mean or spread on the training fold is not finite")
    std = np.where(std > 0, std, 1.0)
    return lambda x: (x - mean) / std


def _failed(trial: int, fold: int, exc: Exception) -> FoldRecord:
    return FoldRecord(trial, fold, math.nan, math.nan, math.nan,
                      failure=f"{type(exc).__name__}: {exc}")


def _run_fold(data: LabeledDataset, trainers: list[BinaryTrainer],
              train_idx: np.ndarray, test_idx: np.ndarray, trial: int,
              fold: int, standardize: bool) -> list[FoldRecord]:
    """One cell per trainer, in order, on one fold. The fold's training
    set, its class moments and, with standardize, its scaling are built
    once, before any clock starts; where that fails, every cell fails."""
    test_features = np.take(data.features, test_idx, axis=0)
    test_labels = np.take(data.labels, test_idx)
    try:
        if standardize:  # fitted before the subset, which opens a span
            transform = _standardizer(data.features[train_idx])
            test_features = transform(test_features)
        train = data.subset(train_idx)
        if standardize:
            train = LabeledDataset(transform(train.features), train.labels,
                                   train.class_names)
        _fill_moments(train)
    except (HetldaError, ArithmeticError, ValueError,
            np.linalg.LinAlgError) as exc:
        return [_failed(trial, fold, exc)] * len(trainers)
    records = []
    for trainer in trainers:
        # all rows in order keep the moments; perfbench opens a cell span here
        cell = train.subset(np.arange(train.n_samples)) if records else train
        try:
            start = time.perf_counter()
            model = train_ovo(cell, trainer)
            elapsed = time.perf_counter() - start
            predicted = predict_ovo_batch(model, test_features)
            acc = accuracy_score(predicted, test_labels)
            records.append(FoldRecord(trial, fold, model.mean_p_e, acc,
                                      elapsed))
        except (HetldaError, ArithmeticError, ValueError,
                np.linalg.LinAlgError) as exc:
            records.append(_failed(trial, fold, exc))
    return records


def default_workers() -> int:
    """One worker: two threads sharing the interpreter lock ran cells
    1.01-1.04 times in parallel on two cores and doubled each train_time."""
    return 1


def run_benchmark(data: LabeledDataset,
                  methods: list[tuple[str, BinaryTrainer]],
                  plan: CvPlan | None = None,
                  standardize: bool = False) -> BenchmarkReport:
    """Repeated k-fold comparison of named binary trainers.

    Every method x trial x fold cell trains on the train split (one-vs-
    one when K > 2), records the model error on the training fold and
    the accuracy on the test fold, and times the training call. Cells
    run one at a time, and each class's moments are computed once per
    fold, before any method's clock starts, so each train_time is the
    trainer's own time given those moments; a cell whose trainer raises
    is recorded as a failure and excluded from the aggregates.
    Standardization, when enabled, fits the scaling on each training
    fold only; a fold where it cannot fails every cell of that fold.
    """
    if not methods:
        raise ValueError("need at least one method")
    plan = plan or CvPlan()
    splits = kfold_split(data, plan)
    trainers = [trainer for _name, trainer in methods]
    jobs = [(train_idx, test_idx, trial, fold)
            for trial in range(plan.trials)
            for fold, (train_idx, test_idx) in enumerate(splits[trial])]
    # one pool thread, on which perfbench's tracer opens data.cell spans
    with ThreadPoolExecutor(max_workers=default_workers()) as pool:
        folds = list(pool.map(
            lambda job: _run_fold(data, trainers, *job, standardize), jobs))

    rows = []
    for (name, _trainer), cells in zip(methods, zip(*folds)):
        ok = [c for c in cells if c.failure is None]
        if ok:
            bayes = np.array([c.bayes_error for c in ok])
            acc = np.array([c.accuracy for c in ok])
            times = np.array([c.train_time for c in ok])
            row = EvalMetrics(name, float(bayes.mean()), float(bayes.std()),
                              float(acc.mean()), float(acc.std()),
                              float(times.mean()), cells,
                              len(cells) - len(ok))
        else:
            row = EvalMetrics(name, *[math.nan] * 5, cells, len(cells))
        rows.append(row)
    return BenchmarkReport(tuple(rows), plan)
