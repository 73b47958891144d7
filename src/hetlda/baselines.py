"""Reference linear discriminants: pooled-covariance LDA and the
covariance-blend family searched by grid or random draws.

All of them return (rule, model error, (s1, s2)): the direction is the
minimum-norm solution of (s1 C1 + s2 C2) w = mean1 - mean2 (lda's blend
is (pi1, pi2)), taken in the one basis of _blend_basis, its rank set by
numkit's one unit-diagonal rule; no trainer solves a dense system. The
basis is kept for the last 16 (stats1, stats2, priors) triples, and the
trainers of one cross-validation fold share its ClassStats objects, so
they build it once per class pair. lda's error is evaluated with the
same machinery as the fixed-point trainer, the searches' by the blend
engine in closed form, so the numbers are directly comparable. A
search screens its candidates with a tabulated normal tail of known
relative error and scores with math.erfc only those that may win, so
the winner and its error are those of exact scoring. The
one-parameter searches use the variance-weighted threshold
(s1 mu2 var1 + s2 mu1 var2) / (s1 var1 + s2 var2).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .discriminant import (_MIN_PROJECTED_VARIANCE, ClassStats,
                           LinearDiscriminant, Priors, _integer,
                           bayes_error, project_stats)
from .errors import DegenerateProjection, ZeroDirection
from . import numkit
from .numkit import unit_diagonal_eigh
from .numkit import solve_symmetric  # perfbench's tracer patches it

__all__ = ["SweepConfig", "train_lda", "train_chld", "train_rhld1",
           "train_rhld2"]

_erfc = np.frompyfunc(math.erfc, 1, 1)


def _q(z: np.ndarray) -> np.ndarray:  # elementwise numkit.q_function
    return 0.5 * _erfc(z / math.sqrt(2.0)).astype(float)


# The screening tail: log Q tabulated from _q every _TAIL_STEP on
# [_TAIL_LO, _TAIL_HI] and interpolated linearly. log Q is concave with
# |(log Q)''| < 1, so each chord lies below it by less than h^2/8: the
# rough Q is low by at most a relative _TAIL_RTOL and high by rounding
# alone (about 1e-13), except that z beyond _TAIL_HI reads Q(_TAIL_HI)
# = 4.6e-308, far below _SCREEN_FLOOR. Below _TAIL_LO, Q is 1.0 in
# float64, as at _TAIL_LO.
_TAIL_STEP = 2.0 ** -6
_TAIL_LO, _TAIL_HI = -40.0, 37.5
_TAIL_RTOL = _TAIL_STEP ** 2 / 8.0
# A rough error within a relative _TAIL_RTOL of the exact one, low side
# only, needs a margin above _TAIL_RTOL to keep the winner; a two-sided
# bound would need 2 _TAIL_RTOL. The floor keeps every candidate whose
# error is too small for the tail's relative bound.
_SCREEN_MARGIN = 4.0 * _TAIL_RTOL
_SCREEN_FLOOR = 1e-280
# below this many candidates, scoring all of them costs less than the
# screen: on a 2-core x86-64 machine, the screen's numpy calls took
# about 27 us and math.erfc 0.19 us a candidate
_SCREEN_MIN = 128


@functools.cache
def _log_tail_table() -> tuple[np.ndarray, np.ndarray]:
    # log Q at the knots and the slope on to the next knot (0 after the
    # last); about 5000 math.erfc calls, made on first use, not at import
    knots = _TAIL_LO + _TAIL_STEP * np.arange(
        round((_TAIL_HI - _TAIL_LO) / _TAIL_STEP) + 1)
    log_q = np.log(_q(knots))
    return log_q, np.append(np.diff(log_q), 0.0)


def _rough_q(z: np.ndarray) -> np.ndarray:
    """Q(z) to a relative _TAIL_RTOL where Q(z) > Q(_TAIL_HI), NaN for
    a NaN z; casting NaN to an index is invalid, so callers ignore that
    in np.errstate."""
    log_q, slope = _log_tail_table()
    u = (np.clip(z, _TAIL_LO, _TAIL_HI) - _TAIL_LO) / _TAIL_STEP
    k = u.astype(np.intp)  # a NaN's index is some integer; take clips it
    return np.exp(log_q.take(k, mode="clip")
                  + (u - k) * slope.take(k, mode="clip"))


def _screened_argmin(priors: Priors, za: np.ndarray, zb: np.ndarray,
                     usable: np.ndarray) -> tuple[int, float]:
    """(i, p_e[i]) for the first smallest p_e = pi1 Q(za) + pi2 Q(zb)
    over the usable candidates, as np.argmin over exact scores of all of
    them gives it (a NaN score wins). From _SCREEN_MIN candidates on,
    only one whose rough error is within _SCREEN_MARGIN of the least, or
    below _SCREEN_FLOOR, is scored with math.erfc; a usable candidate
    with a NaN z sends every usable one to math.erfc."""
    if za.size < _SCREEN_MIN:
        kept = np.flatnonzero(usable)
    else:
        with np.errstate(invalid="ignore"):
            tail = _rough_q(np.concatenate([za, zb]))
        n = za.size
        rough = np.where(usable,
                         priors.pi1 * tail[:n] + priors.pi2 * tail[n:], np.inf)
        least = np.maximum(rough.min(), _SCREEN_FLOOR)  # NaN stays NaN
        kept = np.flatnonzero(usable
                              & ~(rough > least * (1.0 + _SCREEN_MARGIN)))
    pe = priors.pi1 * _q(za[kept]) + priors.pi2 * _q(zb[kept])
    j = int(np.argmin(pe))
    return int(kept[j]), float(pe[j])


@dataclass(frozen=True)
class SweepConfig:
    """Grid/random-search knobs shared by the blend-family trainers.

    step is the grid spacing of the constrained sweep; trials and s_range
    drive the random sweeps. s_range may be degenerate (a == b) to pin the
    draw to a single value.
    """

    step: float = 0.001
    trials: int = 1000
    s_range: tuple[float, float] = (-2.0, 3.0)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.step <= 1.0:
            raise ValueError("step must be in (0, 1]")
        if _integer("trials", self.trials) < 1:
            raise ValueError("trials must be at least 1")
        a, b = self.s_range
        if not (math.isfinite(a) and math.isfinite(b) and a <= b):
            raise ValueError("s_range must be a finite pair with a <= b")
        if _integer("seed", self.seed) < 0:
            raise ValueError("seed must be non-negative")


def _mean_difference(stats1: ClassStats, stats2: ClassStats) -> np.ndarray:
    diff = stats1.mean - stats2.mean
    if not np.any(diff):
        raise ZeroDirection("class means are identical")
    return diff


def train_lda(stats1: ClassStats, stats2: ClassStats, priors: Priors
              ) -> tuple[LinearDiscriminant, float, tuple[float, float]]:
    """Homoscedastic maximum-a-posteriori rule on the pooled covariance.

    The pooled covariance is the prior-weighted blend pi1 C1 + pi2 C2;
    the normalization matters because the ln(tau) offset in the threshold
    is not scale-free. Returns (rule, error, (pi1, pi2)).
    """
    (t, _, _), b = _pooled_basis(stats1, stats2, priors)
    w = t @ b
    w0 = math.log(priors.tau) + 0.5 * float((stats1.mean + stats2.mean) @ w)
    disc = LinearDiscriminant(w, w0)
    return (disc, bayes_error(project_stats(disc, stats1, stats2), priors),
            (priors.pi1, priors.pi2))


@functools.lru_cache(maxsize=16)
def _blend_basis(stats1: ClassStats, stats2: ClassStats, priors: Priors
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, lam, mu) with T' C1 T = diag(lam), T' C2 T = diag(mu) and
    pi1 lam + pi2 mu = 1: T whitens P = pi1 C1 + pi2 C2 on the span that
    numkit.unit_diagonal_eigh keeps, where every blend lives, and
    diagonalizes C1 there. T T' is the pseudo-inverse of P at unit
    diagonal. The read-only result is kept for the last 16 calls;
    ClassStats compare by identity and the cache holds the objects it
    keys on, so only the same objects (a fold's cached moments) with
    equal priors reuse a basis."""
    e, u = unit_diagonal_eigh(priors.pi1 * stats1.cov + priors.pi2 * stats2.cov)
    white = u[:, e > 0] / np.sqrt(e[e > 0])
    lam, v = np.linalg.eigh(white.T @ stats1.cov @ white)
    t = white @ v
    basis = t, lam, np.einsum("ij,ik,kj->j", t, stats2.cov, t)
    for a in basis:
        a.setflags(write=False)
    return basis


def _pooled_basis(stats1: ClassStats, stats2: ClassStats, priors: Priors
                  ) -> tuple[tuple, np.ndarray]:
    """(_blend_basis, b) with b = T'(mean1 - mean2). As pi1 lam + pi2 mu
    = 1, T b is the minimum-norm direction of the pooled blend."""
    basis = _blend_basis(stats1, stats2, priors)
    b = basis[0].T @ _mean_difference(stats1, stats2)
    if not b.any():
        raise ZeroDirection("mean difference is orthogonal to the pooled "
                            "covariance range")
    return basis, b


def _blend_directions(b, lam, mu, s1, s2):
    """x with T x the minimum-norm solution of (s1 C1 + s2 C2) w = d, b =
    T' d, for each blend: a C-contiguous (candidates, d) array, or a
    d-vector for scalar s1, s2. An eigenvalue within
    numkit._SINGULAR_RTOL of the blend's largest drops out, as
    unit_diagonal_eigh drops one of P."""
    # eigenvalue-major (d, candidates), so the largest is taken across
    # d rows rather than along n rows of d
    eig = np.multiply.outer(lam, s1) + np.multiply.outer(mu, s2)
    size = np.abs(eig)
    drop = ~(size > numkit._SINGULAR_RTOL * size.max(0, initial=0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (b / eig.T).T  # b runs along the last axis; dropped below
    x[drop] = 0.0
    return np.ascontiguousarray(x.T)


def _blend_search(stats1: ClassStats, stats2: ClassStats, priors: Priors,
                  s1: np.ndarray, s2: np.ndarray, threshold, basis=None
                  ) -> tuple[LinearDiscriminant, float, tuple[float, float]]:
    """Best rule over the blends s1[i] C1 + s2[i] C2, ties to the first
    candidate; returns (rule, error, (s1[i], s2[i])). Each candidate costs
    O(d) in the basis of _blend_basis (or the one given), and the winner
    is returned as scored, T x[i] with its threshold and error. A long
    search screens its candidates with _rough_q and scores with
    math.erfc only the few that may win (_screened_argmin), so the
    result is that of exact scoring of every candidate."""
    diff = _mean_difference(stats1, stats2)
    t, lam, mu = basis or _blend_basis(stats1, stats2, priors)
    x = _blend_directions(t.T @ diff, lam, mu, s1, s2)
    mu1, mu2 = x @ (t.T @ stats1.mean), x @ (t.T @ stats2.mean)
    var1, var2 = (x * x) @ lam, (x * x) @ mu
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w0 = threshold(s1, s2, mu1, mu2, var1, var2)
        za, zb = (mu1 - w0) / np.sqrt(var1), (w0 - mu2) / np.sqrt(var2)
    usable = (np.isfinite(w0 + var1 + var2)
              & (np.minimum(var1, var2) > _MIN_PROJECTED_VARIANCE))
    if not np.any(usable):
        raise DegenerateProjection("no blend candidate produced a usable rule")
    i, pe = _screened_argmin(priors, za, zb, usable)
    return (LinearDiscriminant(t @ x[i], w0[i]), pe,
            (float(s1[i]), float(s2[i])))


def _weighted_threshold(s1, s2, mu1, mu2, var1, var2):
    return (s1 * mu2 * var1 + s2 * mu1 * var2) / (s1 * var1 + s2 * var2)


def _midpoint_threshold(s1, s2, mu1, mu2, var1, var2):
    # mu1 - s1 var1 = mu2 + s2 var2 on every engine direction; the
    # midpoint of the two keeps the rounding symmetric
    return 0.5 * ((mu1 - s1 * var1) + (mu2 + s2 * var2))


def train_chld(stats1: ClassStats, stats2: ClassStats, priors: Priors,
               config: SweepConfig | None = None
               ) -> tuple[LinearDiscriminant, float, tuple[float, float]]:
    """Grid search of the blends (s, 1-s) for s in {0, step, 2 step, ...,
    1}, with the variance-weighted threshold. Ties keep the smaller s."""
    cfg = config or SweepConfig()
    count = int(math.floor(1.0 / cfg.step + 1e-9))
    s = np.minimum(np.arange(count + 1) * cfg.step, 1.0)
    if s[-1] < 1.0 - 1e-12:
        s = np.append(s, 1.0)
    return _blend_search(stats1, stats2, priors, s, 1.0 - s,
                         _weighted_threshold)


def train_rhld1(stats1: ClassStats, stats2: ClassStats, priors: Priors,
                config: SweepConfig | None = None
                ) -> tuple[LinearDiscriminant, float, tuple[float, float]]:
    """Random search of the blends (1-s, s) for s drawn uniformly from
    s_range (all draws up front from the seed), with the variance-weighted
    threshold. Ties keep the earliest draw."""
    cfg = config or SweepConfig()
    s = np.random.default_rng(cfg.seed).uniform(*cfg.s_range, cfg.trials)
    return _blend_search(stats1, stats2, priors, 1.0 - s, s,
                         _weighted_threshold)


def train_rhld2(stats1: ClassStats, stats2: ClassStats, priors: Priors,
                config: SweepConfig | None = None
                ) -> tuple[LinearDiscriminant, float, tuple[float, float]]:
    """Random search of the blends (s1, s2) drawn uniformly from s_range^2,
    with the threshold mu1 - s1 var1 = mu2 + s2 var2. The two sides agree
    on every direction the engine scores, the minimum-norm one of a
    singular blend included, so one threshold serves."""
    cfg = config or SweepConfig()
    draws = np.random.default_rng(cfg.seed).uniform(*cfg.s_range,
                                                    (cfg.trials, 2))
    return _blend_search(stats1, stats2, priors, draws[:, 0], draws[:, 1],
                         _midpoint_threshold)
