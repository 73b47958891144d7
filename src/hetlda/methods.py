"""Name-keyed construction of binary trainers.

Every trainer takes a two-class dataset plus which label plays the
w'x >= w0 side and returns (rule, error estimate). The Gaussian methods
report their model error; gld-lns reports the training error rate the
search actually minimized.
"""
from __future__ import annotations

from .baselines import (SweepConfig, train_chld, train_lda, train_rhld1,
                        train_rhld2)
from .discriminant import (LabeledDataset, LinearDiscriminant,
                           compute_class_stats)
from .gld import GldConfig, train_gld
from .lns import LnsConfig, local_neighbourhood_search
from .multiclass import BinaryTrainer

__all__ = ["METHOD_NAMES", "make_trainer"]

METHOD_NAMES = ("lda", "chld", "rhld1", "rhld2", "gld", "gld-lns")


def make_trainer(name: str,
                 gld_config: GldConfig | None = None,
                 sweep_config: SweepConfig | None = None,
                 lns_config: LnsConfig | None = None) -> BinaryTrainer:
    """Build the named trainer with the given configuration objects."""
    if name not in METHOD_NAMES:
        raise ValueError(f"unknown method {name!r}; choose from "
                         f"{', '.join(METHOD_NAMES)}")

    def trainer(data: LabeledDataset, class_a: int, class_b: int
                ) -> tuple[LinearDiscriminant, float]:
        stats1, stats2, priors = compute_class_stats(data, class_a, class_b)
        # looked up per call, so that trainers patched later still apply
        if name == "lda":
            disc, p_e, _info = train_lda(stats1, stats2, priors)
        elif name in ("gld", "gld-lns"):
            disc, p_e, _info = train_gld(stats1, stats2, priors, gld_config)
        else:
            disc, p_e, _info = globals()[f"train_{name}"](
                stats1, stats2, priors, sweep_config)
        if name != "gld-lns":
            return disc, p_e
        refined, error_count = local_neighbourhood_search(
            disc, data, lns_config, class_a=class_a, class_b=class_b)
        return refined, error_count / data.n_samples

    return trainer
