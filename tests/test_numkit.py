import numpy as np
import pytest
from numpy.testing import assert_allclose

from hetlda import (DimensionMismatch, EmptyClass, covariance_matrix,
                    mean_vector, q_function, solve_symmetric)

# Tail probabilities frozen from numerical integration of the standard
# normal density (adaptive quadrature, abs tol 1e-14).
Q_AT_1 = 0.15865525393145707
Q_AT_MINUS_3 = 0.9986501019683699


class TestMeanVector:
    def test_two_samples(self):
        assert_allclose(mean_vector([[1, 3], [3, 5]]), [2, 4])

    def test_single_sample(self):
        assert_allclose(mean_vector([[5]]), [5])

    def test_matches_generator_parameters(self):
        # 1000 unit-variance draws land within 3/sqrt(1000) per component.
        rng = np.random.default_rng(42)
        mean = np.array([3.86, 3.10, 0.84, 0.84, 1.64, 1.08, 0.26, 0.01])
        var = np.array([8.41, 12.06, 0.12, 0.22, 1.49, 1.77, 0.35, 2.73])
        samples = rng.standard_normal((1000, 8)) * np.sqrt(var) + mean
        bound = 3 * np.sqrt(var) / np.sqrt(1000)
        assert np.all(np.abs(mean_vector(samples) - mean) < bound)

    def test_empty_input(self):
        with pytest.raises(EmptyClass):
            mean_vector([])

    def test_ragged_input(self):
        with pytest.raises(DimensionMismatch):
            mean_vector([[1, 2], [1]])

    def test_matrix_without_rows(self):
        with pytest.raises(EmptyClass):
            mean_vector(np.zeros((0, 2)))

    def test_not_a_matrix(self):
        with pytest.raises(DimensionMismatch):
            mean_vector(np.zeros((2, 2, 2)))


class TestCovarianceMatrix:
    def test_one_dimensional(self):
        assert_allclose(covariance_matrix([[1], [3]], [2]), [[1]])

    def test_degenerate_direction(self):
        cov = covariance_matrix([[1, 0], [-1, 0]], [0, 0])
        assert_allclose(cov, [[1, 0], [0, 0]])

    def test_population_normalization(self):
        # Divides by n, not n - 1.
        cov = covariance_matrix([[0.0], [2.0]], [1.0])
        assert_allclose(cov, [[1.0]])

    def test_matches_generator_diagonal(self):
        rng = np.random.default_rng(7)
        var = np.array([0.25, 0.75, 1.25, 1.75])
        samples = rng.standard_normal((2000, 4)) * np.sqrt(var)
        cov = covariance_matrix(samples, mean_vector(samples))
        assert_allclose(np.diag(cov), var, rtol=0.1)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((50, 4))
        cov = covariance_matrix(samples, mean_vector(samples))
        assert np.array_equal(cov, cov.T)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(11)
        samples = rng.standard_normal((20, 5))
        cov = covariance_matrix(samples, mean_vector(samples))
        for _ in range(50):
            v = rng.standard_normal(5)
            assert v @ cov @ v >= -1e-10 * (v @ v)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(19)
        samples = rng.standard_normal((30, 3))
        shift = np.array([5.0, -2.0, 100.0])
        mean = mean_vector(samples)
        assert_allclose(mean_vector(samples + shift), mean + shift,
                        atol=1e-10)
        assert_allclose(covariance_matrix(samples + shift, mean + shift),
                        covariance_matrix(samples, mean), atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            covariance_matrix([[1, 2]], [1])


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

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_symmetric(np.eye(2), [1, 2, 3])

    def test_non_square_matrix(self):
        with pytest.raises(DimensionMismatch):
            solve_symmetric(np.zeros((2, 3)), np.zeros(2))


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
