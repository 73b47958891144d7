"""Minimum-error linear discriminant for heteroscedastic Gaussian models.

Every stationary direction of the model error solves a blend
[s1 C1 + s2 C2] w = mean1 - mean2 (Anderson & Bahadur 1962), at O(d) in
the blend engine's basis. The trainer starts from the best of a scan of
those blends, each scored as its Anderson-Bahadur rule with rhld2's
threshold mu1 - s1 var1 = mu2 + s2 var2, and alternates two exact
steps: given w, the threshold w0 solves a quadratic stationarity
condition in closed form, and of its two roots only the one with the
positive square root satisfies the second-order condition
z2/sigma2 >= z1/sigma1; given (w, w0), w is the blend
(s1, s2) = (-z1/sigma1, z2/sigma2). The best iterate is returned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import (_blend_basis, _blend_directions, _blend_search,
                        _midpoint_threshold)
from .discriminant import (ClassStats, LinearDiscriminant, Priors,
                           ProjectedStats, _check_variances, _gradient,
                           _integer, bayes_error)
from .errors import ComplexRoot, DegenerateProjection
from .numkit import solve_symmetric  # perfbench's tracer patches it

__all__ = [
    "GldConfig", "GldIterate", "GldTrace", "threshold_roots",
    "solve_threshold", "second_order_holds", "train_gld",
]

_SECOND_ORDER_TOL = 1e-12
_SCAN_POINTS = 16  # interior points of the start scan, besides Fisher's
# Relative gap below which two projected variances count as equal.
_VARIANCE_EQUALITY_TOL = 1e-12


@dataclass(frozen=True)
class GldConfig:
    """Stopping rules for train_gld: the loop ends when ||dp_e/dw|| of the
    unit-length rule falls to grad_tol, or after max_iters direction
    updates. The exact threshold makes dp_e/dw0 = 0, so this is the
    gradient of the error minimized over w0; it has no units, and data
    scaled by 10^-16 to 10^16 stop alike."""

    max_iters: int = 20
    grad_tol: float = 1e-6

    def __post_init__(self):
        if _integer("max_iters", self.max_iters) < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")


@dataclass(frozen=True)
class GldIterate:
    """One step: the unit-length rule, its model error, its ||dp_e/dw||."""

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
    radicand = (mu1 - mu2) * (mu1 - mu2) + 2.0 * a * log_ratio
    if radicand < 0.0:
        raise ComplexRoot(
            f"no real stationary threshold (radicand {radicand:.3e})")
    G = math.sqrt(var1 * var2 * radicand)
    N = mu2 * var1 - mu1 * var2
    c = var1 * (mu2 * mu2) - var2 * (mu1 * mu1) - 2.0 * var1 * var2 * log_ratio
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


def train_gld(stats1: ClassStats, stats2: ClassStats, priors: Priors,
              config: GldConfig | None = None
              ) -> tuple[LinearDiscriminant, float, GldTrace]:
    """Alternating threshold/direction minimization of the model error.

    Starts from the best of the Fisher blend (pi1, pi2) and _SCAN_POINTS
    blends (cos a, sin a) evenly inside the arc where the blend is
    positive definite, each scored as its Anderson-Bahadur rule with
    rhld2's threshold mu1 - s1 var1 = mu2 + s2 var2; the first iterate
    re-thresholds the winner with solve_threshold. Records every
    iterate as a unit-length rule (at most max_iters+1 of them) and
    returns the iterate with the smallest model error together with the
    full trace. converged_by names what ended the loop: "gradient" (the
    gradient norm of GldConfig fell to grad_tol), "max_iters",
    "singular_update" (the direction refresh mapped the mean difference
    to zero), "complex_root" (no real threshold) or
    "degenerate_projection" (a projected variance vanished). The best
    recorded iterate is returned in every case. A complex root on the
    first iterate still records one rule, with the equal-variance
    threshold at the prior-weighted variance; a degenerate projection on
    the first iterate raises.
    """
    cfg = config or GldConfig()
    t, lam, mu, b, m1, m2 = _blend_basis(stats1, stats2, priors)
    means = np.stack([m1, m2])
    spreads = np.stack([lam, mu])
    phi = np.arctan2(mu, lam)  # lam cos a + mu sin a > 0 within pi/2 of phi
    arc = np.linspace(phi.max() - 0.5 * math.pi, phi.min() + 0.5 * math.pi,
                      _SCAN_POINTS + 2)[1:-1]
    angles = np.append(math.atan2(priors.pi2, priors.pi1), arc)
    try:
        _, _, blend = _blend_search(stats1, stats2, priors, np.cos(angles),
                                    np.sin(angles), _midpoint_threshold)
    except DegenerateProjection:  # every scanned blend's variance vanished
        # Fisher's direction, as pi1 lam + pi2 mu = 1, at unit max-norm
        x = b / np.abs(b).max()  # so that w @ w below is not subnormal
    else:
        x = _blend_directions(b, lam, mu, *blend)
    records: list[GldIterate] = []
    converged_by = "max_iters"

    for iteration in range(cfg.max_iters + 1):
        w = t @ x
        scale = math.sqrt(w @ w)
        w, x = w / scale, x / scale
        mu1, mu2 = (means @ x).tolist()
        var1, var2 = (spreads @ (x * x)).tolist()
        try:
            _check_variances(var1, var2)
            w0 = solve_threshold(mu1, mu2, var1, var2, priors.tau)
        except ComplexRoot:
            converged_by = "complex_root"
            if records:
                break
            # no usable iterate yet: take the equal-variance threshold at
            # the prior-weighted variance and stop after recording it
            var = priors.pi1 * var1 + priors.pi2 * var2
            w0 = solve_threshold(mu1, mu2, var, var, priors.tau)
        except DegenerateProjection:
            if records:
                converged_by = "degenerate_projection"
                break
            raise

        proj = ProjectedStats(mu1, mu2, var1, var2,
                              (w0 - mu1) / math.sqrt(var1),
                              (w0 - mu2) / math.sqrt(var2))
        pe = bayes_error(proj, priors)
        gw, _ = _gradient(w, proj, stats1, stats2, priors)
        gnorm = math.sqrt(gw @ gw)
        records.append(GldIterate(w, w0, pe, gnorm))

        if converged_by == "complex_root":
            break
        if gnorm <= cfg.grad_tol:
            converged_by = "gradient"
            break
        if iteration == cfg.max_iters:
            break
        x = _blend_directions(b, lam, mu, -proj.z1 / proj.sigma1,
                              proj.z2 / proj.sigma2)
        if not x.any():  # the update system maps the mean difference to 0
            converged_by = "singular_update"
            break

    best_index = int(np.argmin([r.p_e for r in records]))
    best = records[best_index]
    trace = GldTrace(tuple(records), converged_by, best_index)
    return LinearDiscriminant(best.w, best.w0), best.p_e, trace
