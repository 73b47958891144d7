import numpy as np
import pytest

from hetlda import (DimensionMismatch, LabeledDataset, LinearDiscriminant,
                    LnsConfig, local_neighbourhood_search,
                    training_error_count)


def four_points():
    # One-dimensional toy set: the high side of the line belongs to
    # label 0, the low side to label 1.
    return LabeledDataset(np.array([[0.0], [1.0], [2.0], [3.0]]),
                          np.array([1, 1, 0, 0]))


def random_problem(rng, n=60, d=3):
    features = rng.normal(0, 1, (n, d))
    features[: n // 2] += rng.normal(0, 1, d)
    labels = np.zeros(n, dtype=int)
    labels[n // 2:] = 1
    init = LinearDiscriminant(rng.normal(0, 1, d), float(rng.normal()))
    return LabeledDataset(features, labels), init


class TestLnsConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LnsConfig(max_iters=0)
        with pytest.raises(ValueError):
            LnsConfig(max_iters=10, early_stop=11)
        with pytest.raises(ValueError):
            LnsConfig(early_stop=0)
        for frac in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                LnsConfig(perturb_fraction=frac)

    def test_defaults(self):
        cfg = LnsConfig()
        assert cfg.max_iters == 1000 and cfg.early_stop == 100
        assert cfg.perturb_fraction == 0.1


class TestSearch:
    def test_perfect_init_returned_unchanged(self):
        data = four_points()
        init = LinearDiscriminant(np.array([1.0]), 1.5)
        sweeps = []
        cfg = LnsConfig(max_iters=50, early_stop=7)
        result, count = local_neighbourhood_search(
            init, data, cfg, on_sweep=lambda i, best: sweeps.append(best))
        assert count == 0
        assert np.array_equal(result.w, init.w) and result.w0 == init.w0
        # nothing can improve on zero, so the stall counter runs out
        assert len(sweeps) == cfg.early_stop

    def test_separable_toy_set_reaches_zero(self):
        data = four_points()
        init = LinearDiscriminant(np.array([1.0]), 1.0)
        assert training_error_count(init, data) == 1  # x=1 lands on the 0 side
        result, count = local_neighbourhood_search(init, data)
        assert count == 0
        assert training_error_count(result, data) == 0

    def test_never_worse_than_init(self):
        rng = np.random.default_rng(23)
        cfg = LnsConfig(max_iters=40, early_stop=10)
        for _ in range(10):
            data, init = random_problem(rng)
            _, count = local_neighbourhood_search(init, data, cfg)
            assert count <= training_error_count(init, data)

    def test_best_count_is_monotone_and_bounded_sweeps(self):
        rng = np.random.default_rng(29)
        data, init = random_problem(rng, n=80)
        history = []
        cfg = LnsConfig(max_iters=15, early_stop=15)
        local_neighbourhood_search(init, data, cfg,
                                   on_sweep=lambda i, best: history.append(best))
        assert len(history) <= cfg.max_iters
        assert all(a >= b for a, b in zip(history, history[1:]))

    def test_idempotent_at_local_optimum(self):
        rng = np.random.default_rng(31)
        data, init = random_problem(rng)
        cfg = LnsConfig(max_iters=200, early_stop=50)
        first, count1 = local_neighbourhood_search(init, data, cfg)
        second, count2 = local_neighbourhood_search(first, data, cfg)
        assert count2 == count1
        assert training_error_count(second, data) == count1

    def test_scale_robustness(self):
        rng = np.random.default_rng(37)
        data, init = random_problem(rng)
        cfg = LnsConfig(max_iters=60, early_stop=20)
        _, base = local_neighbourhood_search(init, data, cfg)
        for c in (2.0, 4.0, 0.5):
            scaled = LinearDiscriminant(c * init.w, c * init.w0)
            _, count = local_neighbourhood_search(scaled, data, cfg)
            assert count == base

    def test_zero_component_gets_unfrozen(self):
        # The init ignores the informative first coordinate entirely;
        # only the absolute step on zero components can bring it in.
        data = LabeledDataset(
            np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [-2.0, 0.0]]),
            np.array([0, 0, 1, 1]))
        init = LinearDiscriminant(np.array([0.0, 1.0]), 0.0)
        assert training_error_count(init, data) == 2
        _, count = local_neighbourhood_search(init, data)
        assert count == 0

    def test_explicit_class_sides(self):
        data = four_points()
        init = LinearDiscriminant(np.array([-1.0]), -1.5)
        # swapping the side assignment inverts which labels are errors
        _, count = local_neighbourhood_search(
            init, data, LnsConfig(max_iters=5, early_stop=5),
            class_a=1, class_b=0)
        assert count == 0

    def test_dimension_mismatch(self):
        data = four_points()
        with pytest.raises(DimensionMismatch):
            local_neighbourhood_search(
                LinearDiscriminant(np.array([1.0, 2.0]), 0.0), data)
