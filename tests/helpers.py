"""Builders shared by several test modules."""
import math

import numpy as np

from hetlda import ClassStats, Priors, ProjectedStats


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
