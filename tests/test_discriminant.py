import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hetlda import (ClassStats, DegenerateProjection, DimensionMismatch,
                    EmptyClass, LabeledDataset, LinearDiscriminant, Priors,
                    ProjectedStats, bayes_error, classify, compute_class_stats,
                    decision_values, generate_d1, gradient_bayes_error,
                    fisher_init, d2_population, project_stats,
                    training_error_count)

Q_AT_1 = 0.15865525393145707


def one_dim_stats(mean1, var1, mean2, var2, n1=10, n2=10):
    n = n1 + n2
    return (ClassStats(np.array([mean1]), np.array([[var1]]), n1, n1 / n),
            ClassStats(np.array([mean2]), np.array([[var2]]), n2, n2 / n),
            Priors(n1 / n, n2 / n))


def random_stats(rng, d):
    def spd():
        root = rng.standard_normal((d, d))
        return root @ root.T + d * np.eye(d)
    n1, n2 = int(rng.integers(50, 200)), int(rng.integers(50, 200))
    n = n1 + n2
    return (ClassStats(rng.normal(0, 2, d), spd(), n1, n1 / n),
            ClassStats(rng.normal(0, 2, d), spd(), n2, n2 / n),
            Priors(n1 / n, n2 / n))


class TestLabeledDataset:
    def test_basic_shape(self):
        data = LabeledDataset([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        assert data.n_samples == 2
        assert data.n_features == 2
        assert data.n_classes == 2

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset([[1.0]], [-1])

    def test_non_finite_row_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset([[math.nan]], [0])

    def test_float_labels_must_be_integral(self):
        data = LabeledDataset(np.zeros((2, 1)), np.array([0.0, 1.0]))
        assert data.labels.dtype == np.int64
        assert data.labels.tolist() == [0, 1]
        with pytest.raises(ValueError, match="labels must be integers"):
            LabeledDataset(np.zeros((2, 1)), np.array([0.5, 1.0]))

    def test_class_names_length_checked(self):
        with pytest.raises(DimensionMismatch):
            LabeledDataset([[1.0], [2.0]], [0, 1], ("only-one",))

    def test_subset_preserves_labels_and_names(self):
        data = LabeledDataset([[1.0], [2.0], [3.0]], [0, 1, 1], ("a", "b"))
        sub = data.subset(np.array([2, 0]))
        assert_allclose(sub.features[:, 0], [3.0, 1.0])
        assert list(sub.labels) == [1, 0]
        assert sub.class_names == ("a", "b")

    def test_subset_trims_names_when_top_label_drops(self):
        data = LabeledDataset([[1.0], [2.0], [3.0]], [0, 1, 2],
                              ("a", "b", "c"))
        pair = data.subset(np.array([0, 1]))     # classes {0, 1} only
        assert pair.class_names == ("a", "b")
        upper = data.subset(np.array([0, 2]))    # {0, 2}: index 2 still used
        assert upper.class_names == ("a", "b", "c")


def test_objects_keep_read_only_copies_of_writeable_arrays():
    w = np.array([1.0, 2.0])
    mean, cov = np.array([0.5, -0.5]), np.eye(2)
    features, labels = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1])
    kept = [(LinearDiscriminant(w, 0.0).w, w)]
    stats = ClassStats(mean, cov, 2, 0.5)
    kept += [(stats.mean, mean), (stats.cov, cov)]
    data = LabeledDataset(features, labels)
    kept += [(data.features, features), (data.labels, labels)]
    for stored, given in kept:
        before = stored.copy()
        given[0] = 7                # the caller's array stays writeable
        assert np.array_equal(stored, before)
        assert not stored.flags.writeable


class TestComputeClassStats:
    def test_generated_priors(self):
        data = generate_d1(0)
        s1, s2, priors = compute_class_stats(data, 0, 1)
        assert s1.count == 1000 and s2.count == 2000
        assert_allclose(priors.pi1, 1 / 3)
        assert_allclose(priors.pi2, 2 / 3)
        assert_allclose(priors.tau, 2.0)

    def test_balanced_tau(self):
        data = LabeledDataset([[0.0], [1.0], [10.0], [11.0]], [0, 0, 1, 1])
        _, _, priors = compute_class_stats(data, 0, 1)
        assert_allclose(priors.tau, 1.0)

    def test_singleton_class_rejected(self):
        data = LabeledDataset([[0.0], [1.0], [2.0]], [0, 0, 1])
        with pytest.raises(EmptyClass):
            compute_class_stats(data, 0, 1)


class TestProjectStats:
    def test_coordinate_projection(self):
        s1 = ClassStats(np.array([2.0, 9.0]), np.diag([4.0, 1.0]), 5, 0.5)
        s2 = ClassStats(np.array([0.0, 0.0]), np.eye(2), 5, 0.5)
        proj = project_stats(LinearDiscriminant([1.0, 0.0], 0.0), s1, s2)
        assert_allclose([proj.mu1, proj.var1, proj.z1], [2.0, 4.0, -1.0])

    def test_z_definition(self):
        s1, s2, _ = one_dim_stats(0.0, 1.0, 5.0, 1.0)
        proj = project_stats(LinearDiscriminant([1.0], -4.3266), s1, s2)
        assert_allclose(proj.z1, -4.3266)

    def test_identity_covariance_variance_is_norm(self):
        s1, s2, _ = d2_population()
        w = fisher_init(s1, s2)
        proj = project_stats(LinearDiscriminant(w, 0.0), s1, s2)
        assert_allclose(proj.var1, w @ w, rtol=1e-12)

    def test_degenerate_variance(self):
        s1 = ClassStats(np.array([0.0, 0.0]), np.diag([0.0, 1.0]), 5, 0.5)
        s2 = ClassStats(np.array([1.0, 0.0]), np.eye(2), 5, 0.5)
        with pytest.raises(DegenerateProjection):
            project_stats(LinearDiscriminant([1.0, 0.0], 0.0), s1, s2)


class TestBayesError:
    def test_symmetric_case(self):
        s1, s2, priors = one_dim_stats(1.0, 1.0, -1.0, 1.0)
        proj = project_stats(LinearDiscriminant([1.0], 0.0), s1, s2)
        assert_allclose(bayes_error(proj, priors), Q_AT_1, atol=1e-12)

    def test_large_threshold_limit(self):
        s1, s2, priors = one_dim_stats(1.0, 1.0, -1.0, 1.0, n1=30, n2=70)
        proj = project_stats(LinearDiscriminant([1.0], 50.0), s1, s2)
        assert_allclose(bayes_error(proj, priors), priors.pi1, atol=1e-12)

    def test_indistinguishable_classes(self):
        s1, s2, priors = one_dim_stats(0.0, 1.0, 0.0, 1.0)
        for w0 in (-3.0, 0.0, 2.5):
            proj = project_stats(LinearDiscriminant([1.0], w0), s1, s2)
            assert_allclose(bayes_error(proj, priors), 0.5, atol=1e-12)

    def test_within_unit_interval(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            s1, s2, priors = random_stats(rng, int(rng.integers(1, 5)))
            disc = LinearDiscriminant(rng.standard_normal(s1.mean.shape[0]),
                                      float(rng.normal()))
            if not np.any(disc.w):
                continue
            assert 0.0 <= bayes_error(project_stats(disc, s1, s2),
                                      priors) <= 1.0

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(37)
        s1, s2, priors = random_stats(rng, 3)
        w = rng.standard_normal(3)
        for c in (1e-3, 0.5, 7.0, 1e4):
            base = bayes_error(project_stats(
                LinearDiscriminant(w, 0.4), s1, s2), priors)
            scaled = bayes_error(project_stats(
                LinearDiscriminant(c * w, c * 0.4), s1, s2), priors)
            assert abs(base - scaled) <= 1e-12

    def test_tail_matches_ndtr_down_to_1e_300(self):
        ndtr = pytest.importorskip("scipy.special").ndtr
        priors = Priors(0.3, 0.7)
        # class 1 errs with probability Phi(z1), class 2 with Phi(-z2)
        for z in np.linspace(-37.0, 8.0, 451):
            for z1, z2 in ((z, 40.0), (-40.0, -z), (z, -z)):
                proj = ProjectedStats(0.0, 0.0, 1.0, 1.0, z1, z2)
                expected = (priors.pi1 * ndtr(z1)
                            + priors.pi2 * ndtr(-z2))
                assert expected >= 1e-300
                assert_allclose(bayes_error(proj, priors), expected,
                                rtol=1e-12, atol=0.0)


class TestGradient:
    def test_symmetric_threshold_gradient_vanishes(self):
        s1, s2, priors = one_dim_stats(1.0, 1.0, -1.0, 1.0)
        _, grad_w0 = gradient_bayes_error(LinearDiscriminant([1.0], 0.0),
                                          s1, s2, priors)
        assert_allclose(grad_w0, 0.0, atol=1e-15)

    def test_zero_z_closed_form(self):
        # Equal means through w and w0 at that mean puts both standardized
        # thresholds at zero, so the exponentials drop out.
        s1, s2, priors = one_dim_stats(0.0, 1.0, 0.0, 4.0, n1=40, n2=60)
        _, grad_w0 = gradient_bayes_error(LinearDiscriminant([1.0], 0.0),
                                          s1, s2, priors)
        expected = (priors.pi1 / 1.0 - priors.pi2 / 2.0) / math.sqrt(2 * math.pi)
        assert_allclose(grad_w0, expected, rtol=1e-12)

    def test_matches_finite_differences(self):
        # Well-conditioned draws: the threshold sits between the projected
        # means and both standardized margins stay moderate, so the
        # density terms cannot underflow into finite-difference noise.
        rng = np.random.default_rng(41)
        step = 1e-5
        worst = 0.0
        done = 0
        while done < 100:
            d = int(rng.integers(1, 5))
            s1, s2, priors = random_stats(rng, d)
            w = rng.standard_normal(d)
            base = project_stats(LinearDiscriminant(w, 0.0), s1, s2)
            alpha = rng.uniform(0.25, 0.75)
            w0 = float(alpha * base.mu1 + (1 - alpha) * base.mu2)
            disc = LinearDiscriminant(w, w0)
            proj = project_stats(disc, s1, s2)
            if max(abs(proj.z1), abs(proj.z2)) > 4.0:
                continue
            done += 1
            grad_w, grad_w0 = gradient_bayes_error(disc, s1, s2, priors)

            def pe(wv, w0v):
                return bayes_error(project_stats(
                    LinearDiscriminant(wv, w0v), s1, s2), priors)

            numeric = np.empty(d + 1)
            for i in range(d):
                up, down = w.copy(), w.copy()
                up[i] += step
                down[i] -= step
                numeric[i] = (pe(up, w0) - pe(down, w0)) / (2 * step)
            numeric[d] = (pe(w, w0 + step) - pe(w, w0 - step)) / (2 * step)
            analytic = np.concatenate([grad_w, [grad_w0]])
            scale = max(float(np.linalg.norm(numeric)), 1e-12)
            worst = max(worst,
                        float(np.linalg.norm(analytic - numeric)) / scale)
        assert worst <= 1e-4


class TestClassify:
    def test_boundary_tie_goes_first_class(self):
        disc = LinearDiscriminant([1.0, 1.0], 3.0)
        assert classify(disc, [1.0, 2.0]) == 0

    def test_below_threshold(self):
        disc = LinearDiscriminant([1.0, 1.0], 3.0)
        assert classify(disc, [0.0, 0.0]) == 1

    def test_negative_weight(self):
        assert classify(LinearDiscriminant([-2.0], 1.0), [0.0]) == 1

    def test_scaling_leaves_decisions_unchanged(self):
        rng = np.random.default_rng(43)
        disc = LinearDiscriminant(rng.standard_normal(4), 0.3)
        points = rng.standard_normal((100, 4))
        for c in (0.01, 3.0, 1e5):
            scaled = LinearDiscriminant(c * disc.w, c * disc.w0)
            for x in points:
                assert classify(scaled, x) == classify(disc, x)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            decision_values(LinearDiscriminant([1.0, 0.0], 0.0), [[1.0]])


class TestTrainingErrorCount:
    def test_separated_data(self):
        data = LabeledDataset([[5.0], [6.0], [-5.0], [-6.0]], [0, 0, 1, 1])
        assert training_error_count(LinearDiscriminant([1.0], 0.0), data) == 0

    def test_inverted_rule_misses_everything(self):
        data = LabeledDataset([[5.0], [6.0], [-5.0], [-6.0]], [0, 0, 1, 1])
        assert training_error_count(LinearDiscriminant([-1.0], 0.0), data) == 4

    def test_single_misplacement(self):
        data = LabeledDataset([[0.0], [1.0], [2.0], [3.0]], [1, 1, 0, 0])
        assert training_error_count(LinearDiscriminant([1.0], 1.0), data) == 1
