import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hetlda import (ClassStats, DegenerateProjection, DimensionMismatch,
                    EmptyClass, LabeledDataset, LinearDiscriminant, Priors,
                    ProjectedStats, bayes_error, classify, compute_class_stats,
                    decision_values, generate_d1, gradient_bayes_error,
                    d1_population, d2_population, project_stats,
                    training_error_count)

from helpers import fisher_init, random_stats

Q_AT_1 = 0.15865525393145707


def one_dim_stats(mean1, var1, mean2, var2, n1=10, n2=10):
    n = n1 + n2
    return (ClassStats(np.array([mean1]), np.array([[var1]]), n1),
            ClassStats(np.array([mean2]), np.array([[var2]]), n2),
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

    def test_non_finite_labels_rejected_without_warning(self):
        # the test run turns warnings into errors, so a cast that warns
        # before the check would fail here
        for bad in (math.nan, math.inf, -math.inf, 1e30):
            with pytest.raises(ValueError, match="labels must be integers"):
                LabeledDataset(np.zeros((2, 1)), np.array([bad, 0.0]))

    def test_class_names_length_checked(self):
        with pytest.raises(DimensionMismatch):
            LabeledDataset([[1.0], [2.0]], [0, 1], ("only-one",))

    def test_class_names_must_be_strings(self):
        for names in ("ab", [1, 2], ("a", None)):
            with pytest.raises(ValueError, match="not a list of strings"):
                LabeledDataset([[1.0], [2.0]], [0, 1], names)
        data = LabeledDataset([[1.0], [2.0]], [0, 1], ["a", "b"])
        assert data.class_names == ("a", "b")

    def test_class_names_must_be_distinct(self):
        # predictions and the accuracy line map each name to one class
        with pytest.raises(ValueError, match="not distinct"):
            LabeledDataset([[1.0], [2.0]], [0, 1], ("a", "a"))

    def test_subset_preserves_labels_and_names(self):
        data = LabeledDataset([[1.0], [2.0], [3.0]], [0, 1, 1], ("a", "b"))
        sub = data.subset(np.array([2, 0]))
        assert_allclose(sub.features[:, 0], [3.0, 1.0])
        assert list(sub.labels) == [1, 0]
        assert sub.class_names == ("a", "b")

    @pytest.mark.parametrize("indices", [
        [4, 0, 2], [-1, 0], np.array([2, 2, 5], dtype=np.int32),
        np.array([True, False] * 5)])
    def test_subset_rows_match_plain_indexing(self, indices):
        data = LabeledDataset(np.arange(20.0).reshape(10, 2), [0, 1] * 5)
        sub = data.subset(indices)
        idx = np.asarray(indices)
        assert np.array_equal(sub.features, data.features[idx])
        assert np.array_equal(sub.labels, data.labels[idx])
        assert not (sub.features.flags.writeable or sub.labels.flags.writeable)

    @pytest.mark.parametrize("indices", [[10], [-11], [], [1.0, 2.0]])
    def test_subset_index_errors_match_plain_indexing(self, indices):
        data = LabeledDataset(np.arange(20.0).reshape(10, 2), [0, 1] * 5)
        with pytest.raises(IndexError) as expected:
            data.features[np.asarray(indices)]
        with pytest.raises(IndexError, match=re.escape(str(expected.value))):
            data.subset(indices)

    def test_subset_of_every_row_is_the_dataset(self):
        data = LabeledDataset(np.arange(8.0).reshape(4, 2), [0, 1, 1, 0])
        for indices in (np.arange(4), range(4), np.arange(4, dtype=np.uint8)):
            assert data.subset(indices) is data
        # names end at the largest label, so every row keeps them all
        with pytest.raises(DimensionMismatch, match="3 class names"):
            LabeledDataset(data.features, data.labels, ("a", "b", "c"))
        for indices in ([0, 1, 2], [1, 0, 2, 3], [0, 1, 2, 3, 3],
                        [-4, -3, -2, -1], np.ones(4, dtype=bool)):
            assert data.subset(indices) is not data

    def test_subset_trims_names_when_top_label_drops(self):
        data = LabeledDataset([[1.0], [2.0], [3.0]], [0, 1, 2],
                              ("a", "b", "c"))
        pair = data.subset(np.array([0, 1]))     # classes {0, 1} only
        assert pair.class_names == ("a", "b")
        upper = data.subset(np.array([0, 2]))    # {0, 2}: index 2 still used
        assert upper.class_names == ("a", "b", "c")

    def test_unnamed_classes_are_named_by_index(self):
        data = LabeledDataset([[1.0], [2.0], [3.0]], [0, 2, 1])
        assert data.class_names == ("0", "1", "2")
        assert LabeledDataset([[1.0], [2.0]], [0, 1]).class_names == ("0", "1")
        assert data.subset(np.array([0, 2])).class_names == ("0", "1")
        assert data.subset(np.array([1])).class_names == ("0", "1", "2")

    def test_unnamed_sparse_label_rejected_before_naming_it(self):
        # default names run up to the largest label, so an unnamed label
        # at or past the row count is refused before any name is built
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="not below the row count"):
                LabeledDataset(np.zeros((2, 1)), np.array([0, 10**6]))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        with pytest.raises(ValueError, match="label 2 is not below"):
            LabeledDataset(np.zeros((2, 1)), [0, 2])
        named = LabeledDataset(np.zeros((2, 1)), [0, 2], ["a", "b", "c"])
        assert named.n_classes == 3

    def test_shapes_and_rows_checked(self):
        with pytest.raises(DimensionMismatch, match="n x d"):
            LabeledDataset([1.0, 2.0], [0, 1])
        with pytest.raises(DimensionMismatch, match="does not match"):
            LabeledDataset([[1.0], [2.0]], [0, 1, 1])
        with pytest.raises(EmptyClass, match="no rows"):
            LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_no_feature_columns_rejected(self):
        # lda would blame identical means and gld a numpy reduction
        with pytest.raises(DimensionMismatch, match="d >= 1"):
            LabeledDataset(np.zeros((6, 0)), [0, 0, 0, 1, 1, 1])


def test_objects_keep_read_only_copies_of_writeable_arrays():
    w = np.array([1.0, 2.0])
    mean, cov = np.array([0.5, -0.5]), np.eye(2)
    features, labels = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1])
    kept = [(LinearDiscriminant(w, 0.0).w, w)]
    stats = ClassStats(mean, cov, 2)
    kept += [(stats.mean, mean), (stats.cov, cov)]
    data = LabeledDataset(features, labels)
    kept += [(data.features, features), (data.labels, labels)]
    for stored, given in kept:
        before = stored.copy()
        given[0] = 7                # the caller's array stays writeable
        assert np.array_equal(stored, before)
        assert not stored.flags.writeable


def test_dataset_rows_cannot_change_under_cached_moments(tmp_path):
    # a read-only view of a writeable base, and a read-only memory map
    # of a file rewritten later: the dataset copies both, so the moments
    # it caches keep matching its rows
    base = np.array([[0.0, 1.0], [2.0, 5.0], [4.0, 4.0], [6.0, 9.0]])
    labels = np.array([0, 0, 1, 1])
    path = tmp_path / "rows.npy"
    np.save(path, base)
    views = [base[:], np.load(path, mmap_mode="r")]
    views[0].setflags(write=False)
    for view in views:
        data = LabeledDataset(view, labels)
        before = compute_class_stats(data, 0, 1)
        np.save(path, base * 3.0)
        base[0, 0] = 100.0
        after = compute_class_stats(data, 0, 1)
        fresh = compute_class_stats(LabeledDataset(data.features.copy(),
                                                   labels), 0, 1)
        for stats in (before, after):
            for got, want in zip(stats[:2], fresh[:2]):
                assert got.mean.tobytes() == want.mean.tobytes()
                assert got.cov.tobytes() == want.cov.tobytes()
        assert data.features[0, 0] == 0.0
        base[0, 0] = 0.0
        np.save(path, base)
    del views


class TestComputeClassStats:
    def test_generated_priors(self):
        data = generate_d1(0)
        s1, s2, priors = compute_class_stats(data, 0, 1)
        assert s1.count == 1000 and s2.count == 2000
        assert_allclose(priors.pi1, 1 / 3)
        assert_allclose(priors.pi2, 2 / 3)
        assert_allclose(priors.tau, 2.0)
        # the moments land within 5 standard errors of the generator's
        # parameters, are exactly symmetric and positive semi-definite
        for sample, exact in zip((s1, s2), d1_population()[:2]):
            n, var = sample.count, np.diag(exact.cov)
            assert np.all(np.abs(sample.mean - exact.mean)
                          <= 5 * np.sqrt(var / n))
            spread = np.sqrt((exact.cov ** 2 + np.outer(var, var)) / n)
            assert np.all(np.abs(sample.cov - exact.cov) <= 5 * spread)
            assert np.array_equal(sample.cov, sample.cov.T)
            eigenvalues = np.linalg.eigvalsh(sample.cov)
            assert eigenvalues.min() >= -1e-12 * eigenvalues.max()

    def test_balanced_tau(self):
        # class 1 is class 0 shifted by 10 along a feature that is
        # constant in both: the covariance divides by n, not n - 1, keeps
        # the constant direction at zero and ignores the shift
        data = LabeledDataset([[0.0, 5.0], [1.0, 5.0], [10.0, 5.0],
                               [11.0, 5.0]], [0, 0, 1, 1])
        s1, s2, priors = compute_class_stats(data, 0, 1)
        assert_allclose(priors.tau, 1.0)
        assert np.array_equal(s1.mean, [0.5, 5.0])
        assert np.array_equal(s2.mean, [10.5, 5.0])
        for stats in (s1, s2):
            assert np.array_equal(stats.cov, [[0.25, 0.0], [0.0, 0.0]])

    def test_singleton_class_rejected(self):
        data = LabeledDataset([[0.0], [1.0], [2.0]], [0, 0, 1])
        with pytest.raises(EmptyClass):
            compute_class_stats(data, 0, 1)

    def test_moments_are_computed_once_per_dataset(self):
        data = LabeledDataset([[0.0], [1.0], [4.0], [6.0], [1e200], [-1e200]],
                              [0, 0, 1, 1, 2, 2])
        s1, s2, _priors = compute_class_stats(data, 0, 1)
        again1, again2, _priors = compute_class_stats(data, 1, 0)
        assert again1.mean is s2.mean and again2.cov is s1.cov
        # an error is not cached: every call that needs class 2 raises
        for _ in range(2):
            with pytest.raises(DegenerateProjection, match="class 2"):
                compute_class_stats(data, 0, 2)
        assert compute_class_stats(data, 1, 0)[0].mean is s2.mean

    def test_subset_keeps_moments_of_classes_kept_whole_in_order(self):
        data = LabeledDataset(
            [[0.0], [1.0], [4.0], [6.0], [2.0], [9.0], [3.0], [5.0]],
            [0, 1, 0, 1, 2, 2, 0, 2])
        cached = {label: compute_class_stats(data, label, 2)[0].mean
                  for label in (0, 1)}

        def kept(indices):
            sub = data.subset(indices)
            return {label for label, mean in cached.items()
                    if label in sub.labels
                    and compute_class_stats(sub, label, 2)[0].mean is mean}

        assert kept(range(8)) == {0, 1}
        assert kept([0, 2, 4, 5, 6, 7]) == {0}       # class 1 left out
        assert kept(np.array([1, 3, 4, 5])) == {1}
        assert kept([0, 1, 2, 3, 5, 6, 7]) == {0, 1}
        assert kept([0, 1, 3, 4, 5, 6, 7]) == {1}     # class 0 in part
        assert kept([2, 0, 6, 1, 3, 4, 5, 7]) == set()  # rows reordered
        assert kept([0, 0, 1, 2, 3, 4, 5, 6, 7]) == set()  # a row twice
        assert kept(range(-8, 0)) == set()
        assert kept(np.ones(8, dtype=bool)) == set()

    def test_only_a_constant_column_has_zero_variance(self):
        # the mean of fifteen 0.1s is not 0.1, and what that leaves in the
        # variance is no spread; a column moving by single ulps is one
        rng = np.random.default_rng(6)
        x = np.column_stack([rng.standard_normal(30), np.full(30, 0.1),
                             1e18 + 128.0 * rng.integers(0, 3, 30)])
        stats, _, _ = compute_class_stats(
            LabeledDataset(x, np.repeat([0, 1], 15)), 0, 1)
        assert not stats.cov[1].any() and not stats.cov[:, 1].any()
        assert stats.cov[0, 0] > 0 and stats.cov[2, 2] > 0

    def test_moments_that_overflow_are_an_error(self):
        # squares of 1e200 overflow; the run turns warnings into errors,
        # so an overflow warning escaping would fail here too
        rng = np.random.default_rng(4)
        features = rng.standard_normal((40, 3))
        features[20:] *= 1e200
        data = LabeledDataset(features, np.repeat([0, 1], 20))
        with pytest.raises(DegenerateProjection, match="class 1"):
            compute_class_stats(data, 0, 1)
        with pytest.raises(DegenerateProjection, match="class 1"):
            compute_class_stats(data, 1, 0)


def test_priors_must_be_positive():
    for pi1, pi2 in ((0.0, 1.0), (0.5, -0.5), (math.nan, 0.5)):
        with pytest.raises(EmptyClass, match="strictly positive"):
            Priors(pi1, pi2)


class TestProjectStats:
    def test_coordinate_projection(self):
        s1 = ClassStats(np.array([2.0, 9.0]), np.diag([4.0, 1.0]), 5)
        s2 = ClassStats(np.array([0.0, 0.0]), np.eye(2), 5)
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
        s1 = ClassStats(np.array([0.0, 0.0]), np.diag([0.0, 1.0]), 5)
        s2 = ClassStats(np.array([1.0, 0.0]), np.eye(2), 5)
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

    @pytest.mark.parametrize("x", [4.8, [4.8], [[4.8]]],
                             ids=["scalar", "vector", "matrix"])
    def test_one_sample_in_each_accepted_shape(self, x):
        disc = LinearDiscriminant([1.0], 4.5)
        assert_allclose(decision_values(disc, x), [0.3])
        assert classify(disc, x) == 0

    def test_dimension_mismatch(self):
        disc = LinearDiscriminant([1.0, 0.0], 0.0)
        for x in ([[1.0]], 1.0, np.zeros((5, 2, 2))):
            with pytest.raises(DimensionMismatch):
                decision_values(disc, x)

    def test_more_than_one_row_rejected(self):
        # classify answers for one sample, never for a matrix's first row
        disc = LinearDiscriminant([1.0], 0.0)
        for x in ([[1.0], [-1.0]], [[-1.0], [1.0]], np.zeros((0, 1))):
            with pytest.raises(DimensionMismatch):
                classify(disc, x)
        assert classify(LinearDiscriminant([1.0, 2.0], 0.0),
                        [[-1.0, 0.0]]) == 1


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

    def test_three_classes_need_explicit_pair(self):
        data = LabeledDataset([[0.0], [1.0], [2.0]], [0, 1, 2])
        disc = LinearDiscriminant([1.0], 0.5)
        with pytest.raises(DimensionMismatch, match="3 classes"):
            training_error_count(disc, data)

    def test_class_pair_given_both_or_neither(self):
        data = LabeledDataset([[0.0], [1.0], [2.0], [3.0]], [1, 1, 0, 0])
        disc = LinearDiscriminant([1.0], 1.0)
        assert training_error_count(disc, data, class_a=1, class_b=0) == 3
        for lone in ({"class_a": 1}, {"class_b": 0}):
            with pytest.raises(ValueError, match="both"):
                training_error_count(disc, data, **lone)
