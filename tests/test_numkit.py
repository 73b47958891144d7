import numpy as np
import pytest
from numpy.testing import assert_allclose

from hetlda import (DimensionMismatch, LabeledDataset, compute_class_stats,
                    q_function, solve_symmetric)
from hetlda.numkit import _SINGULAR_RTOL, _above_cut, unit_diagonal_eigh

# Tail probabilities frozen from numerical integration of the standard
# normal density (adaptive quadrature, abs tol 1e-14).
Q_AT_1 = 0.15865525393145707
Q_AT_MINUS_3 = 0.9986501019683699


def moments(samples):
    """Mean and covariance compute_class_stats gives a class of these rows.

    A second, two-row class stands beside it, since the routine always
    takes a pair of classes.
    """
    samples = np.asarray(samples, dtype=float)
    other = np.zeros((2, samples.shape[1]))
    data = LabeledDataset(np.vstack([samples, other]),
                          np.repeat([0, 1], [len(samples), 2]))
    stats, _, _ = compute_class_stats(data, 0, 1)
    return stats.mean, stats.cov


class TestMeanVector:
    def test_two_samples(self):
        mean, _ = moments([[1, 3], [3, 5]])
        assert np.array_equal(mean, [2, 4])

    def test_matches_generator_parameters(self):
        # 1000 unit-variance draws land within 3/sqrt(1000) per component.
        rng = np.random.default_rng(42)
        mean = np.array([3.86, 3.10, 0.84, 0.84, 1.64, 1.08, 0.26, 0.01])
        var = np.array([8.41, 12.06, 0.12, 0.22, 1.49, 1.77, 0.35, 2.73])
        samples = rng.standard_normal((1000, 8)) * np.sqrt(var) + mean
        bound = 3 * np.sqrt(var) / np.sqrt(1000)
        assert np.all(np.abs(moments(samples)[0] - mean) < bound)


class TestCovarianceMatrix:
    def test_one_dimensional(self):
        assert_allclose(moments([[1], [3]])[1], [[1]])

    def test_degenerate_direction(self):
        _, cov = moments([[1, 0], [-1, 0]])
        assert_allclose(cov, [[1, 0], [0, 0]])

    def test_population_normalization(self):
        # Divides by n, not n - 1.
        _, cov = moments([[0.0], [2.0]])
        assert_allclose(cov, [[1.0]])

    def test_matches_generator_diagonal(self):
        rng = np.random.default_rng(7)
        var = np.array([0.25, 0.75, 1.25, 1.75])
        samples = rng.standard_normal((2000, 4)) * np.sqrt(var)
        _, cov = moments(samples)
        assert_allclose(np.diag(cov), var, rtol=0.1)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        _, cov = moments(rng.standard_normal((50, 4)))
        assert np.array_equal(cov, cov.T)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(11)
        _, cov = moments(rng.standard_normal((20, 5)))
        for _ in range(50):
            v = rng.standard_normal(5)
            assert v @ cov @ v >= -1e-10 * (v @ v)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(19)
        samples = rng.standard_normal((30, 3))
        shift = np.array([5.0, -2.0, 100.0])
        mean, cov = moments(samples)
        shifted_mean, shifted_cov = moments(samples + shift)
        assert_allclose(shifted_mean, mean + shift, atol=1e-10)
        assert_allclose(shifted_cov, cov, atol=1e-10)


class TestSolveSymmetric:
    def test_identity(self):
        assert_allclose(solve_symmetric(np.eye(3), [1, 2, 3]), [1, 2, 3])

    def test_diagonal(self):
        assert_allclose(solve_symmetric(np.diag([2.0, 4.0]), [2, 8]), [1, 2])

    def test_singular_minimum_norm(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        x = solve_symmetric(a, np.array([2.0, 2.0]))
        assert_allclose(x, [1, 1])
        assert_allclose(a @ x, [2, 2])             # consistent system
        assert abs(x @ [1, -1]) < 1e-12            # orthogonal to the null space

    def test_residual_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = rng.integers(1, 6)
            root = rng.standard_normal((d, d))
            a = root @ root.T + np.eye(d)
            b = rng.standard_normal(d)
            x = solve_symmetric(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_rescaled_singular_system(self):
        # rank is decided at unit diagonal, so D A D x = D b is solved
        # by D^-1 x for any positive diagonal D, singular A included
        rng = np.random.default_rng(9)
        root = rng.standard_normal((4, 2))
        a, b = root @ root.T, root @ rng.standard_normal(2)
        x = solve_symmetric(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)
        for k in (-8, -5, 5, 8):
            d = 10.0 ** (k * np.array([1.0, 0.0, -1.0, 0.5]))
            scaled = solve_symmetric(d[:, None] * a * d, d * b)
            assert_allclose(d * scaled, x, rtol=1e-9)

    def test_unit_diagonal_eigh_diagonalizes(self):
        a = np.array([[4.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        e, v = unit_diagonal_eigh(a)
        assert e.shape == (1,) and v.shape == (3, 1)
        assert_allclose(v.T @ a @ v, np.diag(e), atol=1e-15)
        assert_allclose(e, [2.0])

    def test_non_finite_input(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                solve_symmetric(np.diag([1.0, bad]), [1.0, 1.0])
            with pytest.raises(ValueError, match="finite"):
                solve_symmetric(np.eye(2), [1.0, bad])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_symmetric(np.eye(2), [1, 2, 3])

    def test_non_square_matrix(self):
        with pytest.raises(DimensionMismatch):
            solve_symmetric(np.zeros((2, 3)), np.zeros(2))


class TestRankCut:
    def test_drops_the_cut_itself_and_nan(self):
        up = np.nextafter(_SINGULAR_RTOL, 1.0)
        assert _SINGULAR_RTOL * 1.0 == 1e-14
        assert _above_cut(np.array([1.0, 1e-14, up, -up, -1e-14, 0.0])
                          ).tolist() == [True, False, True, True, False, False]
        assert not _above_cut(np.array([1.0, np.nan, 0.5])).any()

    def test_each_column_against_its_own_largest(self):
        up = np.nextafter(_SINGULAR_RTOL, 1.0)
        e = np.array([[1.0, -2.0, 4.0], [1e-14, 2e-14, np.nan],
                      [up, 2.0 * up, 4.0]])
        assert _above_cut(e).tolist() == [[True, True, False],
                                          [False, False, False],
                                          [True, True, False]]


class TestQFunction:
    def test_zero(self):
        assert q_function(0.0) == 0.5

    def test_at_one(self):
        assert_allclose(q_function(1.0), Q_AT_1, atol=1e-12)

    def test_at_minus_three(self):
        assert_allclose(q_function(-3.0), Q_AT_MINUS_3, atol=1e-12)

    def test_complement_identity(self):
        rng = np.random.default_rng(23)
        for z in rng.uniform(-6, 6, 200):
            assert abs(q_function(z) + q_function(-z) - 1.0) <= 1e-12

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(29)
        zs = np.sort(rng.uniform(-8, 8, 100))
        values = [q_function(z) for z in zs]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_range(self):
        for z in (-40.0, -1.0, 0.0, 1.0, 40.0):
            assert 0.0 <= q_function(z) <= 1.0
