"""Builders shared by several test modules."""
import math

import numpy as np

import hetlda.baselines
from hetlda import (ClassStats, ComplexRoot, DegenerateProjection,
                    LinearDiscriminant, Priors, ProjectedStats,
                    solve_symmetric, solve_threshold)
from hetlda.baselines import _blend_basis, _q
from hetlda.discriminant import _MIN_PROJECTED_VARIANCE
from hetlda.numkit import _SINGULAR_RTOL


def count_basis_builds(monkeypatch):
    """The list of matrices the blend engine decomposes from now on: each
    build of a class pair's basis makes one unit_diagonal_eigh call."""
    builds = []
    eigh = hetlda.baselines.unit_diagonal_eigh
    monkeypatch.setattr(hetlda.baselines, "unit_diagonal_eigh",
                        lambda a: builds.append(a) or eigh(a))
    return builds


def proj_for(mu1, mu2, var1, var2, w0):
    return ProjectedStats(mu1, mu2, var1, var2,
                          (w0 - mu1) / math.sqrt(var1),
                          (w0 - mu2) / math.sqrt(var2))


def random_stats(rng, d):
    def spd():
        root = rng.standard_normal((d, d))
        return root @ root.T + d * np.eye(d)
    n1, n2 = int(rng.integers(50, 200)), int(rng.integers(50, 200))
    n = n1 + n2
    return (ClassStats(rng.normal(0, 2, d), spd(), n1),
            ClassStats(rng.normal(0, 2, d), spd(), n2),
            Priors(n1 / n, n2 / n))


def fisher_init(stats1, stats2):
    """Dense reference for Fisher's direction: the solution of
    (n1 C1 + n2 C2) w = mean1 - mean2."""
    return solve_symmetric(stats1.count * stats1.cov
                           + stats2.count * stats2.cov,
                           stats1.mean - stats2.mean)


def update_weights(stats1, stats2, proj):
    """Dense reference for gld's direction update: the solution of
    ((z2/sigma2) C2 - (z1/sigma1) C1) w = mean1 - mean2."""
    m = ((proj.z2 / proj.sigma2) * stats2.cov
         - (proj.z1 / proj.sigma1) * stats1.cov)
    return solve_symmetric(m, stats1.mean - stats2.mean)


def row_major_directions(b, lam, mu, s1, s2):
    """Reference for the engine's directions, one row per blend: b / eig
    where the blend's eigenvalue is above _SINGULAR_RTOL of its largest,
    0 elsewhere (NaN eigenvalues included)."""
    eig = np.multiply.outer(s1, lam) + np.multiply.outer(s2, mu)
    size = np.abs(eig)
    cut = _SINGULAR_RTOL * size.max(-1, keepdims=True, initial=0.0)
    return np.divide(b, eig, out=np.zeros(eig.shape), where=size > cut)


def root_thresholds(tau, _s1, _s2, mu1, mu2, var1, var2):
    """A threshold callback for the blend engine: solve_threshold for each
    candidate, NaN where it finds no real root or a variance is not
    positive."""
    w0 = []
    for candidate in zip(*(m.tolist() for m in (mu1, mu2, var1, var2))):
        try:
            w0.append(solve_threshold(*candidate, tau))
        except (ComplexRoot, ValueError):
            w0.append(math.nan)
    return np.array(w0)


def exact_blend_search(stats1, stats2, priors, s1, s2, threshold):
    """Reference for the blend engine's scoring: every candidate scored
    with math.erfc, then the first smallest; returns the engine's
    (rule, p_e, (s1, s2)) and the winner's index."""
    t, lam, mu, b, m1, m2 = _blend_basis(stats1, stats2, priors)
    x = row_major_directions(b, lam, mu, s1, s2)
    mu1, mu2 = x @ m1, x @ m2
    var1, var2 = (x * x) @ lam, (x * x) @ mu
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w0 = threshold(s1, s2, mu1, mu2, var1, var2)
        pe = (priors.pi1 * _q((mu1 - w0) / np.sqrt(var1))
              + priors.pi2 * _q((w0 - mu2) / np.sqrt(var2)))
    usable = (np.isfinite(w0 + var1 + var2)
              & (np.minimum(var1, var2) > _MIN_PROJECTED_VARIANCE))
    if not np.any(usable):
        raise DegenerateProjection("no blend candidate produced a usable rule")
    i = int(np.argmin(np.where(usable, pe, np.inf)))
    return (LinearDiscriminant(t @ x[i], w0[i]), float(pe[i]),
            (float(s1[i]), float(s2[i])), i)


def reference_kfold_split(data, plan):
    """Reference for kfold_split: every fold's (train, test) index arrays
    built up front, per trial, from the same per-class permutations and
    chunks."""
    trials = []
    for trial in range(plan.trials):
        rng = np.random.default_rng(plan.seed + trial)
        test_folds = [[] for _ in range(plan.folds)]
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
