import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hetlda.baselines
import hetlda.gld
from hetlda import (ClassStats, ComplexRoot, CvPlan, DegenerateProjection,
                    GldConfig, LabeledDataset, LinearDiscriminant, Priors,
                    ProjectedStats, ZeroDirection, bayes_error,
                    compute_class_stats, d1_population, d2_population,
                    generate_d1, generate_d2, gradient_bayes_error,
                    kfold_split, project_stats, second_order_holds,
                    solve_threshold, threshold_roots, train_gld, train_lda,
                    train_rhld1)
from hetlda.baselines import _blend_basis, _blend_directions

from helpers import (count_basis_builds, fisher_init, proj_for,
                     random_stats, update_weights)

# Frozen from an independent oracle: 40-digit root find of the error
# derivative pi1*phi(z1)/sigma1 - pi2*phi(z2)/sigma2, each root checked
# to be a local minimum of the error by second differences.
THRESHOLD_WIDE_FIRST = 1.6599096559016366
THRESHOLD_WIDE_SECOND = -4.326576322568303


def complex_root_stats():
    # no real stationary threshold along the Fisher direction
    s1 = ClassStats(np.array([0.01]), np.array([[1.0]]), 100)
    s2 = ClassStats(np.array([0.0]), np.array([[4.0]]), 1000)
    return s1, s2, Priors(100 / 1100, 1000 / 1100)


class TestSolveThreshold:
    def test_wide_first_class(self):
        assert_allclose(solve_threshold(4.0, 0.0, 4.0, 1.0, 1.0),
                        THRESHOLD_WIDE_FIRST, rtol=1e-10)

    def test_wide_second_class(self):
        # The minimum lies outside the interval between the means when
        # the wide class sits on the far side.
        assert_allclose(solve_threshold(0.0, 4.0, 1.0, 4.0, 1.0),
                        THRESHOLD_WIDE_SECOND, rtol=1e-10)

    def test_homoscedastic_symmetric(self):
        assert solve_threshold(1.0, -1.0, 1.0, 1.0, 1.0) == 0.0

    def test_homoscedastic_prior_shift(self):
        w0 = solve_threshold(1.0, -1.0, 1.0, 1.0, 2.0)
        assert_allclose(w0, math.log(2.0) / 2.0, rtol=1e-12)

    def test_equal_means_equal_variances(self):
        assert solve_threshold(3.0, 3.0, 2.0, 2.0, 5.0) == 3.0

    def test_complex_root(self):
        # Equal means, wider second class, strong prior ratio: no real
        # stationary threshold exists.
        with pytest.raises(ComplexRoot):
            solve_threshold(0.0, 0.0, 1.0, 4.0, 10.0)

    def test_continuity_at_equal_variances(self):
        mu1, mu2, var, tau = 1.3, -0.4, 0.8, 1.7
        limit = (mu1 + mu2) / 2 + var * math.log(tau) / (mu1 - mu2)
        near = solve_threshold(mu1, mu2, var, var * (1 + 1e-8), tau)
        assert abs(near - limit) <= 1e-6

    def test_local_minimum_in_threshold(self):
        rng = np.random.default_rng(13)
        done = 0
        while done < 100:
            mu2 = float(rng.normal(0, 2))
            mu1 = mu2 + float(rng.uniform(0.5, 4.0))
            var1, var2 = rng.uniform(0.3, 3.0, 2) ** 2
            tau = float(rng.uniform(0.2, 5.0))
            try:
                w0 = solve_threshold(mu1, mu2, var1, var2, tau)
            except ComplexRoot:
                continue
            done += 1
            priors = Priors(1 / (1 + tau), tau / (1 + tau))
            pe = bayes_error(proj_for(mu1, mu2, var1, var2, w0), priors)
            span = abs(mu1 - mu2) + math.sqrt(var1) + math.sqrt(var2)
            for delta in (1e-3 * span, 1e-2 * span):
                for shifted in (w0 - delta, w0 + delta):
                    other = bayes_error(
                        proj_for(mu1, mu2, var1, var2, shifted), priors)
                    assert pe <= other + 1e-15


class TestRootSelection:
    def test_selected_root_passes_second_order(self):
        w0 = solve_threshold(4.0, 0.0, 4.0, 1.0, 1.0)
        assert second_order_holds(proj_for(4.0, 0.0, 4.0, 1.0, w0))

    def test_rejected_root_fails_second_order(self):
        plus, minus = threshold_roots(4.0, 0.0, 4.0, 1.0, 1.0)
        assert plus == solve_threshold(4.0, 0.0, 4.0, 1.0, 1.0)
        assert not second_order_holds(proj_for(4.0, 0.0, 4.0, 1.0, minus))

    def test_trivial_sign_case(self):
        assert second_order_holds(ProjectedStats(0, 0, 1, 1, -1.0, 1.0))

    def test_roots_when_the_linear_term_vanishes(self):
        # N = mu2 var1 - mu1 var2 = 0: the roots are +-G/a, with a = 1
        # and G = sqrt(var1 var2 (2 a ln sqrt(2))) = sqrt(2 ln 2)
        plus, minus = threshold_roots(0.0, 0.0, 2.0, 1.0, 1.0)
        assert_allclose([plus, minus], [math.sqrt(2 * math.log(2)),
                                         -math.sqrt(2 * math.log(2))],
                        rtol=1e-15)
        assert second_order_holds(proj_for(0.0, 0.0, 2.0, 1.0, plus))
        assert not second_order_holds(proj_for(0.0, 0.0, 2.0, 1.0, minus))

    def test_roots_require_unequal_variances(self):
        with pytest.raises(ValueError):
            threshold_roots(1.0, 0.0, 2.0, 2.0, 1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="var1 must be positive"):
            threshold_roots(0.0, 1.0, -1.0, 2.0, 1.0)
        with pytest.raises(ValueError, match="tau must be positive"):
            threshold_roots(0.0, 1.0, 1.0, 2.0, 0.0)
        with pytest.raises(ValueError, match="mu1 must be finite"):
            threshold_roots(math.nan, 0.0, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError, match="mu1 must be finite"):
            solve_threshold(math.nan, 0.0, 1.0, 1.0, 1.0)


def lda_direction(s1, s2):
    n = s1.count + s2.count
    return train_lda(s1, s2, Priors(s1.count / n, s2.count / n))[0].w


class TestFisherInit:
    """train_lda's direction, the pooled blend's, against the dense
    reference, which solves the same system scaled by n1 + n2."""

    def test_identity_scatter(self):
        s1 = ClassStats(np.array([1.0, 0.0]), np.eye(2), 1)
        s2 = ClassStats(np.array([-1.0, 0.0]), np.eye(2), 1)
        assert_allclose(lda_direction(s1, s2), [2.0, 0.0])
        assert_allclose(lda_direction(s1, s2), 2 * fisher_init(s1, s2))

    def test_diagonal_scatter(self):
        s1 = ClassStats(np.array([4.0, 2.0]), np.eye(2), 1)
        s2 = ClassStats(np.array([0.0, 0.0]), np.diag([3.0, 1.0]), 1)
        assert_allclose(lda_direction(s1, s2), [2.0, 2.0])
        assert_allclose(lda_direction(s1, s2), 2 * fisher_init(s1, s2))

    def test_equal_means(self):
        s1 = ClassStats(np.array([1.0]), np.array([[1.0]]), 5)
        s2 = ClassStats(np.array([1.0]), np.array([[2.0]]), 5)
        with pytest.raises(ZeroDirection):
            lda_direction(s1, s2)


def in_basis_update(s1, s2, proj):
    """gld's direction update as its loop takes it: T x for the blend
    (-z1/sigma1, z2/sigma2) in the engine's basis."""
    n = s1.count + s2.count
    t, lam, mu = _blend_basis(s1, s2,
                              Priors(s1.count / n, s2.count / n))[:3]
    return t @ _blend_directions(t.T @ (s1.mean - s2.mean), lam, mu,
                                 -proj.z1 / proj.sigma1,
                                 proj.z2 / proj.sigma2)


class TestUpdateWeights:
    """The loop's in-basis update against the dense reference."""

    @staticmethod
    def assert_matches_dense(s1, s2, proj):
        w = in_basis_update(s1, s2, proj)
        dense = update_weights(s1, s2, proj)
        assert np.linalg.norm(w - dense) <= 1e-12 * np.linalg.norm(dense)
        return w

    def test_scalar_arithmetic(self):
        s1 = ClassStats(np.array([3.0]), np.array([[1.0]]), 5)
        s2 = ClassStats(np.array([0.0]), np.array([[4.0]]), 5)
        proj = ProjectedStats(3.0, 0.0, 1.0, 4.0, -1.0, 0.5)
        assert_allclose(self.assert_matches_dense(s1, s2, proj), [1.5])

    def test_homoscedastic_parallel_to_fisher(self):
        rng = np.random.default_rng(17)
        root = rng.standard_normal((3, 3))
        cov = root @ root.T + 3 * np.eye(3)
        s1 = ClassStats(rng.normal(0, 1, 3), cov, 10)
        s2 = ClassStats(rng.normal(0, 1, 3), cov, 10)
        proj = ProjectedStats(1.0, -1.0, 2.0, 2.0, -0.5, 0.7)
        w = self.assert_matches_dense(s1, s2, proj)
        fisher = np.linalg.solve(cov, s1.mean - s2.mean)
        cosine = w @ fisher / (np.linalg.norm(w) * np.linalg.norm(fisher))
        assert_allclose(abs(cosine), 1.0, rtol=1e-10)

    def test_residual(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            s1, s2, _ = random_stats(rng, d)
            proj = ProjectedStats(1.0, -1.0, 2.0, 3.0,
                                  float(rng.uniform(-2, -0.1)),
                                  float(rng.uniform(0.1, 2)))
            w = self.assert_matches_dense(s1, s2, proj)
            matrix = (proj.z2 / proj.sigma2) * s2.cov \
                - (proj.z1 / proj.sigma1) * s1.cov
            diff = s1.mean - s2.mean
            residual = np.linalg.norm(matrix @ w - diff)
            assert residual <= 1e-8 * max(np.linalg.norm(diff), 1.0)

    def test_mean_difference_outside_the_range(self):
        # the dense update is all zero; the engine refuses the pair
        # before any update, as train_gld does
        cov = np.diag([1.0, 0.0])
        s1 = ClassStats(np.array([0.0, 1.0]), cov, 5)
        s2 = ClassStats(np.array([0.0, 0.0]), cov, 5)
        proj = ProjectedStats(0.0, 0.0, 1.0, 4.0, -1.0, 0.5)
        with pytest.raises(ZeroDirection, match="pooled covariance range"):
            in_basis_update(s1, s2, proj)
        assert not update_weights(s1, s2, proj).any()


class TestTrainGld:
    def test_beats_pooled_baseline_on_reference_parameters(self):
        for pop in (d1_population(), d2_population()):
            s1, s2, priors = pop
            _, pe_gld, _ = train_gld(s1, s2, priors)
            _, pe_lda, _ = train_lda(s1, s2, priors)
            assert pe_gld <= pe_lda + 1e-12

    def test_homoscedastic_fixed_point(self):
        rng = np.random.default_rng(59)
        root = rng.standard_normal((3, 3))
        cov = root @ root.T + 3 * np.eye(3)
        s1 = ClassStats(rng.normal(0, 2, 3), cov, 40)
        s2 = ClassStats(rng.normal(0, 2, 3), cov, 40)
        disc, _, _ = train_gld(s1, s2, Priors(0.5, 0.5))
        fisher = np.linalg.solve(cov, s1.mean - s2.mean)
        cosine = disc.w @ fisher / (np.linalg.norm(disc.w)
                                    * np.linalg.norm(fisher))
        assert_allclose(cosine, 1.0, rtol=1e-8)
        proj = project_stats(disc, s1, s2)
        assert_allclose(disc.w0, (proj.mu1 + proj.mu2) / 2, rtol=1e-8)

    def test_stationarity_or_iteration_cap(self):
        rng = np.random.default_rng(61)
        done = 0
        while done < 30:
            s1, s2, priors = random_stats(rng, int(rng.integers(1, 5)))
            disc, _, trace = train_gld(s1, s2, priors)
            if trace.converged_by in ("complex_root", "singular_update",
                                      "degenerate_projection"):
                continue
            done += 1
            grad_w, grad_w0 = gradient_bayes_error(disc, s1, s2, priors)
            norm = math.hypot(float(np.linalg.norm(grad_w)), grad_w0)
            initial = trace.records[0].grad_norm
            assert (norm <= max(1e-6, 1e-4 * initial)
                    or trace.converged_by == "max_iters")

    def test_trace_consistency(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            s1, s2, priors = random_stats(rng, 3)
            cfg = GldConfig(max_iters=8)
            disc, pe, trace = train_gld(s1, s2, priors, cfg)
            errors = [r.p_e for r in trace.records]
            assert len(errors) <= cfg.max_iters + 1
            assert trace.best_index == int(np.argmin(errors))
            assert pe == errors[trace.best_index]
            assert pe <= errors[0]          # never worse than the start
            best = trace.records[trace.best_index]
            assert np.array_equal(disc.w, best.w) and disc.w0 == best.w0

    def test_iteration_cap_label(self):
        s1, s2, priors = d1_population()
        _, _, trace = train_gld(s1, s2, priors, GldConfig(max_iters=1))
        assert trace.converged_by == "max_iters"
        assert len(trace.records) == 2

    def test_gradient_label_on_reference_parameters(self):
        s1, s2, priors = d1_population()
        _, _, trace = train_gld(s1, s2, priors)
        assert trace.converged_by == "gradient"
        assert trace.records[-1].grad_norm <= 1e-6

    def test_complex_root_fallback_on_first_iterate(self):
        # Nearly coincident means with a much wider, much likelier second
        # class: the stationary threshold equation has no real solution,
        # so training degrades to the prior-weighted equal-variance rule.
        s1, s2, priors = complex_root_stats()
        disc, pe, trace = train_gld(s1, s2, priors)
        assert trace.converged_by == "complex_root"
        assert len(trace.records) == 1
        assert math.isfinite(disc.w0) and 0.0 <= pe <= 1.0

    def test_records_match_a_fresh_projection(self):
        # the loop projects in the blend basis, so a dense projection of
        # the recorded rule agrees to rounding, not bit for bit; the
        # gradient cancels near a minimum, so its norm is held to an
        # absolute 1e-13 as well (1e-7 of grad_tol); grad_norm is the
        # norm of the w-gradient alone
        rng = np.random.default_rng(71)
        problems = [d1_population(), d2_population(), complex_root_stats()]
        problems += [random_stats(rng, d) for d in (1, 2, 3, 4, 5)]
        for s1, s2, priors in problems:
            _, _, trace = train_gld(s1, s2, priors)
            for r in trace.records:
                disc = LinearDiscriminant(r.w, r.w0)
                assert abs(np.linalg.norm(r.w) - 1.0) <= 1e-15
                assert_allclose(r.p_e, bayes_error(
                    project_stats(disc, s1, s2), priors), rtol=1e-12)
                grad_w, _ = gradient_bayes_error(disc, s1, s2, priors)
                assert_allclose(r.grad_norm, np.linalg.norm(grad_w),
                                rtol=1e-12, atol=1e-13)

    def test_one_basis_and_no_dense_solve_per_pass(self, monkeypatch):
        # the start and every update are taken in one blend basis, built
        # once (one unit_diagonal_eigh call) and then kept with s1
        builds, solves = count_basis_builds(monkeypatch), []
        for module in (hetlda.gld, hetlda.baselines):
            monkeypatch.setattr(module, "solve_symmetric",
                                lambda *a, solve=module.solve_symmetric:
                                solves.append(a) or solve(*a))
        s1, s2, priors = d1_population()
        _, _, trace = train_gld(s1, s2, priors)
        assert trace.converged_by == "gradient"
        assert (len(builds), len(solves)) == (1, 0)

    def test_one_threshold_root_per_record(self, monkeypatch):
        # the start scan takes each blend's closed-form threshold, so
        # only the loop solves for a root, once per recorded iterate
        real = hetlda.gld.solve_threshold
        calls = []
        monkeypatch.setattr(hetlda.gld, "solve_threshold",
                            lambda *args: calls.append(args) or real(*args))
        rng = np.random.default_rng(37)
        for s1, s2, priors in (d1_population(), random_stats(rng, 4)):
            calls.clear()
            _, _, trace = train_gld(s1, s2, priors)
            assert len(calls) == len(trace.records)

    def test_deterministic(self):
        s1, s2, priors = d2_population()
        first = train_gld(s1, s2, priors)
        second = train_gld(s1, s2, priors)
        assert np.array_equal(first[0].w, second[0].w)
        assert first[0].w0 == second[0].w0 and first[1] == second[1]


def cv_training_stats():
    # every training fold of CvPlan(5, 2, s), s = 0-2, on d1 and d2
    for generate in (generate_d1, generate_d2):
        for seed in range(3):
            data = generate(seed)
            for splits in kfold_split(data, CvPlan(5, 2, seed)):
                for train_idx, _test_idx in splits:
                    yield compute_class_stats(data.subset(train_idx), 0, 1)


class TestCurveStart:
    def test_no_regret_against_lda_and_rhld1_on_cv_folds(self):
        cells = 0
        for stats in cv_training_stats():
            _, pe, trace = train_gld(*stats)
            best = min(train_lda(*stats)[1], train_rhld1(*stats)[1])
            assert pe <= best + 1e-9
            assert trace.converged_by == "gradient"
            cells += 1
        assert cells == 60

    @pytest.mark.parametrize("population", [d1_population, d2_population])
    def test_units_do_not_change_the_rule(self, population):
        # the stop's gradient norm is unit-free, so no scale stops early
        # or runs to max_iters
        s1, s2, priors = population()
        _, pe, trace = train_gld(s1, s2, priors)
        for k in range(-16, 17):
            c = 10.0 ** k
            scaled = [ClassStats(s.mean * c, s.cov * c * c, s.count)
                      for s in (s1, s2)]
            _, pe_c, trace_c = train_gld(*scaled, priors)
            assert trace_c.converged_by == "gradient"
            assert abs(pe_c - pe) <= 1e-12 * pe
            assert abs(len(trace_c.records) - len(trace.records)) <= 1

    def test_start_no_worse_than_fisher(self):
        rng = np.random.default_rng(29)
        for d in (1, 2, 3, 4, 6, 8):
            s1, s2, priors = random_stats(rng, d)
            w = fisher_init(s1, s2)
            pre = project_stats(LinearDiscriminant(w, 0.0), s1, s2)
            w0 = solve_threshold(pre.mu1, pre.mu2, pre.var1, pre.var2,
                                 priors.tau)
            fisher = bayes_error(project_stats(LinearDiscriminant(w, w0), s1,
                                               s2), priors)
            _, _, trace = train_gld(s1, s2, priors)
            assert trace.records[0].p_e <= fisher * (1 + 1e-12)

    def test_no_direction_when_the_covariances_vanish(self):
        # features scaled by 1e-200 square to exact zeros, so the mean
        # difference lies outside the (empty) pooled covariance range
        data = generate_d2(0)
        stats = compute_class_stats(
            LabeledDataset(data.features * 1e-200, data.labels), 0, 1)
        with pytest.raises(ZeroDirection, match="pooled covariance range"):
            train_gld(*stats)

    def test_scan_holds_the_fisher_blend_and_positive_definite_blends(
            self, monkeypatch):
        real = hetlda.gld._blend_search
        scans = []

        def recorded(stats1, stats2, priors, s1, s2, *rest):
            scans.append((s1, s2))
            return real(stats1, stats2, priors, s1, s2, *rest)

        monkeypatch.setattr(hetlda.gld, "_blend_search", recorded)
        rng = np.random.default_rng(31)
        for s1, s2, priors in [d1_population()] + [random_stats(rng, 4)]:
            scans.clear()
            train_gld(s1, s2, priors)
            (c, s), = scans
            assert c.shape == (17,)
            assert_allclose(s[0] / c[0], priors.pi2 / priors.pi1, rtol=1e-14)
            _, lam, mu = _blend_basis(s1, s2, priors)[:3]
            assert (np.outer(c, lam) + np.outer(s, mu) > 0).all()

    def test_fisher_start_when_no_blend_has_a_real_threshold(self):
        # one feature, or C2 = 4 C1 in d = 2: every blend has Fisher's
        # direction, whose radicand is negative, so the scan's winner is
        # that direction and its first iterate takes the complex-root
        # fallback
        cov = np.diag([1.0, 2.0])
        wide = (ClassStats(np.array([0.01, 0.005]), cov, 100),
                ClassStats(np.zeros(2), 4.0 * cov, 1000),
                Priors(100 / 1100, 1000 / 1100))
        for s1, s2, priors in (complex_root_stats(), wide):
            _, _, trace = train_gld(s1, s2, priors)
            assert trace.converged_by == "complex_root"
            w = fisher_init(s1, s2)
            assert_allclose(trace.records[0].w, w / np.linalg.norm(w),
                            rtol=1e-14)

    def test_fisher_start_when_every_blend_is_unusable(self):
        # means 1e-160 apart: every scanned blend's projected variance
        # falls below the floor, so the loop starts from Fisher's
        # direction, whose squared length in the basis is subnormal
        s1 = ClassStats(np.array([1e-160, 0.0]), np.diag([1.0, 2.0]), 100)
        s2 = ClassStats(np.zeros(2), np.diag([3.0, 0.5]), 200)
        priors = Priors(1 / 3, 2 / 3)
        for train in (train_lda, hetlda.baselines.train_chld,
                      train_rhld1, hetlda.baselines.train_rhld2):
            with pytest.raises(DegenerateProjection):
                train(s1, s2, priors)
        _, p_e, trace = train_gld(s1, s2, priors)
        assert p_e == priors.pi1
        assert trace.converged_by == "complex_root"
        (record,) = trace.records
        assert abs(np.linalg.norm(record.w) - 1.0) <= 1e-15


class TestTrainGldExits:
    """The stops that d1_population never reaches, forced by making one
    step of the loop fail on its n-th call."""

    @staticmethod
    def fail_on_call(monkeypatch, name, n, error):
        real = getattr(hetlda.gld, name)
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == n:
                raise error(f"forced on call {n}")
            return real(*args)

        monkeypatch.setattr(hetlda.gld, name, failing)

    @staticmethod
    def assert_best_returned(result, converged_by, n_records):
        disc, pe, trace = result
        assert trace.converged_by == converged_by
        assert len(trace.records) == n_records
        errors = [r.p_e for r in trace.records]
        assert trace.best_index == int(np.argmin(errors))
        best = trace.records[trace.best_index]
        assert np.array_equal(disc.w, best.w) and disc.w0 == best.w0
        assert pe == best.p_e

    def test_complex_root_after_first_record(self, monkeypatch):
        # solve_threshold runs once per iterate, so call 3 is the third
        self.fail_on_call(monkeypatch, "solve_threshold", 3, ComplexRoot)
        self.assert_best_returned(train_gld(*d1_population()),
                                  "complex_root", 2)

    def test_degenerate_projection_after_first_record(self, monkeypatch):
        self.fail_on_call(monkeypatch, "_check_variances", 3,
                          DegenerateProjection)
        self.assert_best_returned(train_gld(*d1_population()),
                                  "degenerate_projection", 2)

    def test_degenerate_projection_on_first_iterate_raises(self,
                                                           monkeypatch):
        self.fail_on_call(monkeypatch, "_check_variances", 1,
                          DegenerateProjection)
        with pytest.raises(DegenerateProjection, match="forced on call 1"):
            train_gld(*d1_population())

    def test_singular_update(self, monkeypatch):
        # call 1 gives the start, call n > 1 the (n-1)-th update; an all
        # zero update is the singular case
        real = hetlda.gld._blend_directions
        calls = []

        def zero_on_third(*args):
            calls.append(args)
            x = real(*args)
            return np.zeros_like(x) if len(calls) == 3 else x

        monkeypatch.setattr(hetlda.gld, "_blend_directions", zero_on_third)
        self.assert_best_returned(train_gld(*d1_population()),
                                  "singular_update", 2)


class TestGldConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GldConfig(max_iters=0)
        with pytest.raises(ValueError):
            GldConfig(grad_tol=-1.0)

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_max_iters_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="max_iters .* not an integer"):
            GldConfig(max_iters=value)

    def test_numpy_integer_max_iters_accepted(self):
        assert GldConfig(max_iters=np.int64(3)).max_iters == 3
