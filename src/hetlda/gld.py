"""Minimum-error linear discriminant for heteroscedastic Gaussian models.

The trainer alternates two exact steps: given a direction w, the optimal
threshold w0 solves a quadratic stationarity condition in closed form;
given (w, w0), the direction is refreshed by solving

    [ (z2/sigma2) C2 - (z1/sigma1) C1 ] w = mean1 - mean2.

Of the two threshold roots only the one carrying the positive square root
satisfies the second-order condition z2/sigma2 >= z1/sigma1, so it is a
local minimum of the model error; the loop records every iterate and
returns the best one seen.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .baselines import _pooled_direction
from .discriminant import (ClassStats, LinearDiscriminant, Priors,
                           ProjectedStats, _gradient, _integer,
                           bayes_error, project_stats)
from .errors import ComplexRoot, DegenerateProjection, SingularUpdate
from .numkit import solve_symmetric

__all__ = [
    "GldConfig", "GldIterate", "GldTrace", "threshold_roots",
    "solve_threshold", "second_order_holds", "fisher_init", "update_weights",
    "train_gld",
]

_SECOND_ORDER_TOL = 1e-12
# Relative gap below which two projected variances count as equal.
_VARIANCE_EQUALITY_TOL = 1e-12


@dataclass(frozen=True)
class GldConfig:
    """Stopping rules for train_gld: the loop ends when the gradient norm
    of the model error falls to grad_tol, or after max_iters direction
    updates."""

    max_iters: int = 20
    grad_tol: float = 1e-6

    def __post_init__(self):
        if _integer("max_iters", self.max_iters) < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")


@dataclass(frozen=True)
class GldIterate:
    """One recorded step: the rule, its model error, its gradient norm."""

    w: np.ndarray
    w0: float
    p_e: float
    grad_norm: float


@dataclass(frozen=True)
class GldTrace:
    """Full iteration history plus which test ended the loop."""

    records: tuple[GldIterate, ...]
    converged_by: str
    best_index: int


def _validate_inputs(mu1, mu2, var1, var2, tau):
    for name, v in (("var1", var1), ("var2", var2), ("tau", tau)):
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite, got {v!r}")
    for name, v in (("mu1", mu1), ("mu2", mu2)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def threshold_roots(mu1: float, mu2: float, var1: float, var2: float,
                    tau: float) -> tuple[float, float]:
    """Both stationary thresholds of the model error for a fixed direction.

    Returns (plus, minus): the roots with the positive and negative square
    root in their numerator. Requires var1 != var2 (the quadratic case) and
    a non-negative radicand. The near-cancelling root is formed via the
    conjugate (product of roots = c/a), never by subtracting close numbers.
    """
    _validate_inputs(mu1, mu2, var1, var2, tau)
    a = var1 - var2
    if a == 0.0:
        raise ValueError("threshold_roots requires var1 != var2")
    log_ratio = math.log(tau) + 0.5 * (math.log(var1) - math.log(var2))
    radicand = (mu1 - mu2) ** 2 + 2.0 * a * log_ratio
    if radicand < 0.0:
        raise ComplexRoot(
            f"no real stationary threshold (radicand {radicand:.3e})")
    G = math.sqrt(var1 * var2 * radicand)
    N = mu2 * var1 - mu1 * var2
    c = var1 * mu2 ** 2 - var2 * mu1 ** 2 - 2.0 * var1 * var2 * log_ratio
    if N > 0.0:
        plus = (N + G) / a
        minus = c / (N + G)
    elif N < 0.0:
        minus = (N - G) / a
        plus = c / (N - G)
    else:
        plus, minus = G / a, -G / a
    return plus, minus


def solve_threshold(mu1: float, mu2: float, var1: float, var2: float,
                    tau: float) -> float:
    """Threshold minimizing the model error along a fixed direction.

    Heteroscedastic case: the '+sqrt' stationary root. Variances equal to
    within a relative 1e-12: the single stationary point
    (mu1+mu2)/2 + var ln(tau)/(mu1-mu2), or the plain midpoint when the
    projected means coincide as well.
    """
    # inputs that pass this test are validated by threshold_roots, all
    # others (NaN included) below, so each call validates once
    if abs(var1 - var2) > _VARIANCE_EQUALITY_TOL * max(var1, var2):
        return threshold_roots(mu1, mu2, var1, var2, tau)[0]
    _validate_inputs(mu1, mu2, var1, var2, tau)
    if mu1 == mu2:
        return 0.5 * (mu1 + mu2)
    var = 0.5 * (var1 + var2)
    return 0.5 * (mu1 + mu2) + var * math.log(tau) / (mu1 - mu2)


def second_order_holds(proj: ProjectedStats) -> bool:
    """Local-minimum test for a stationary threshold:
    z2/sigma2 >= z1/sigma1 (up to 1e-12)."""
    return proj.z2 / proj.sigma2 >= proj.z1 / proj.sigma1 - _SECOND_ORDER_TOL


def fisher_init(stats1: ClassStats, stats2: ClassStats) -> np.ndarray:
    """Fisher direction: (n1 C1 + n2 C2) w = mean1 - mean2."""
    return _pooled_direction(
        stats1.count * stats1.cov + stats2.count * stats2.cov, stats1, stats2)


def update_weights(stats1: ClassStats, stats2: ClassStats,
                   proj: ProjectedStats) -> np.ndarray:
    """Direction refresh from the stationarity of the model error in w."""
    m = (proj.z2 / proj.sigma2) * stats2.cov - (proj.z1 / proj.sigma1) * stats1.cov
    w = solve_symmetric(m, stats1.mean - stats2.mean)
    if not np.any(w):
        raise SingularUpdate("update system maps the mean difference to zero")
    return w


def train_gld(stats1: ClassStats, stats2: ClassStats, priors: Priors,
              config: GldConfig | None = None
              ) -> tuple[LinearDiscriminant, float, GldTrace]:
    """Alternating threshold/direction minimization of the model error.

    Starts from the Fisher direction, records every iterate (at most
    max_iters+1 of them), and returns the iterate with the smallest model
    error together with the full trace. converged_by names what ended the
    loop: "gradient" (the gradient norm fell to grad_tol), "max_iters",
    "singular_update" (the direction refresh failed), "complex_root" (no
    real threshold) or "degenerate_projection" (a projected variance
    vanished). The best recorded iterate is returned in every case. A
    complex root on the first iterate still records one rule, with the
    equal-variance threshold at the prior-weighted variance; a degenerate
    projection on the first iterate raises.
    """
    cfg = config or GldConfig()
    w = fisher_init(stats1, stats2)
    records: list[GldIterate] = []
    converged_by = "max_iters"

    for iteration in range(cfg.max_iters + 1):
        try:
            pre = project_stats(LinearDiscriminant(w, 0.0), stats1, stats2)
            w0 = solve_threshold(pre.mu1, pre.mu2, pre.var1, pre.var2,
                                 priors.tau)
        except ComplexRoot:
            converged_by = "complex_root"
            if records:
                break
            # no usable iterate yet: take the equal-variance threshold at
            # the prior-weighted variance and stop after recording it
            var = priors.pi1 * pre.var1 + priors.pi2 * pre.var2
            w0 = solve_threshold(pre.mu1, pre.mu2, var, var, priors.tau)
        except DegenerateProjection:
            if records:
                converged_by = "degenerate_projection"
                break
            raise

        proj = replace(pre, z1=(w0 - pre.mu1) / pre.sigma1,
                       z2=(w0 - pre.mu2) / pre.sigma2)
        pe = bayes_error(proj, priors)
        gw, g0 = _gradient(w, proj, stats1, stats2, priors)
        gnorm = math.hypot(float(np.linalg.norm(gw)), g0)
        records.append(GldIterate(w.copy(), w0, pe, gnorm))

        if converged_by == "complex_root":
            break
        if gnorm <= cfg.grad_tol:
            converged_by = "gradient"
            break
        if iteration == cfg.max_iters:
            converged_by = "max_iters"
            break
        try:
            w = update_weights(stats1, stats2, proj)
        except SingularUpdate:
            converged_by = "singular_update"
            break

    pes = [r.p_e for r in records]
    best_index = int(np.argmin(pes))
    best = records[best_index]
    trace = GldTrace(tuple(records), converged_by, best_index)
    return LinearDiscriminant(best.w, best.w0), best.p_e, trace
