"""Builders shared by several test modules."""
import math

import numpy as np

from hetlda import ClassStats, Priors, ProjectedStats, solve_symmetric


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
