import math
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hetlda.baselines
import hetlda.gld
import hetlda.numkit
from hetlda import (ClassStats, CvPlan, DegenerateProjection,
                    DimensionMismatch, LabeledDataset, LinearDiscriminant, Priors, SweepConfig,
                    ZeroDirection, bayes_error, compute_class_stats,
                    d1_population, d2_population, decision_values,
                    generate_d1, generate_d2, project_stats, solve_symmetric,
                    train_chld, train_gld, train_lda, train_rhld1,
                    train_rhld2, make_trainer, run_benchmark)
from hetlda.baselines import (_SCREEN_FLOOR, _SCREEN_MARGIN, _SCREEN_MIN,
                              _TAIL_HI, _TAIL_RTOL, _blend_basis,
                              _blend_directions, _blend_search,
                              _midpoint_threshold, _rough_q,
                              _screened_argmin, _weighted_threshold)

from helpers import exact_blend_search, random_stats, row_major_directions

Q_AT_1 = 0.15865525393145707


def balanced(mean1, cov1, mean2, cov2, n=10):
    s1 = ClassStats(np.asarray(mean1, float), np.asarray(cov1, float), n)
    s2 = ClassStats(np.asarray(mean2, float), np.asarray(cov2, float), n)
    return s1, s2, Priors(0.5, 0.5)


class TestSweepConfig:
    def test_rejects_bad_values(self):
        for step in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                SweepConfig(step=step)
        with pytest.raises(ValueError):
            SweepConfig(trials=0)
        with pytest.raises(ValueError):
            SweepConfig(s_range=(2.0, 1.0))
        with pytest.raises(ValueError):
            SweepConfig(s_range=(0.0, math.inf))

    def test_degenerate_range_allowed(self):
        assert SweepConfig(s_range=(0.5, 0.5)).s_range == (0.5, 0.5)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            SweepConfig(seed=-1)

    @pytest.mark.parametrize("field", ["trials", "seed"])
    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} .* not an integer"):
            SweepConfig(**{field: value})

    @pytest.mark.parametrize("field", ["trials", "seed"])
    def test_numpy_integer_counts_accepted(self, field):
        assert getattr(SweepConfig(**{field: np.int64(3)}), field) == 3


class TestTrainLda:
    def test_symmetric_homoscedastic(self):
        s1, s2, priors = balanced([1.0, 0.0], np.eye(2),
                                  [-1.0, 0.0], np.eye(2))
        disc, pe, _ = train_lda(s1, s2, priors)
        assert disc.w[0] > 0 and disc.w[1] == 0.0
        assert disc.w0 == 0.0
        assert_allclose(pe, Q_AT_1, rtol=1e-12)

    def test_balanced_midpoint_rule(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            s1, s2, _ = random_stats(rng, d)
            disc, _, _ = train_lda(s1, s2, Priors(0.5, 0.5))
            assert_allclose(disc.w0, 0.5 * (s1.mean + s2.mean) @ disc.w,
                            rtol=1e-10)

    def test_never_beats_fixed_point_on_reference_parameters(self):
        s1, s2, priors = d1_population()
        _, pe_lda, _ = train_lda(s1, s2, priors)
        _, pe_gld, _ = train_gld(s1, s2, priors)
        assert pe_lda >= pe_gld - 1e-12

    def test_equal_means(self):
        s1, s2, priors = balanced([1.0], [[1.0]], [1.0], [[2.0]])
        with pytest.raises(ZeroDirection):
            train_lda(s1, s2, priors)


class TestTrainChld:
    def test_blend_collapses_when_covariances_match(self):
        rng = np.random.default_rng(5)
        root = rng.standard_normal((3, 3))
        cov = root @ root.T + 3 * np.eye(3)
        s1, s2, priors = balanced(rng.normal(0, 2, 3), cov,
                                  rng.normal(0, 2, 3), cov)
        disc, pe, _ = train_chld(s1, s2, priors, SweepConfig(step=0.05))
        _, pe_lda, _ = train_lda(s1, s2, priors)
        assert abs(pe - pe_lda) <= 1e-10

    def test_grid_size_and_tie_policy(self, monkeypatch):
        grids = []
        search = hetlda.baselines._blend_search

        def recording(stats1, stats2, priors, s1, s2, *rest):
            grids.append((list(s1), list(s2)))
            return search(stats1, stats2, priors, s1, s2, *rest)

        # every candidate scores the same, in the screen and exactly
        monkeypatch.setattr(hetlda.baselines, "_blend_search", recording)
        for tail in ("_q", "_rough_q"):
            monkeypatch.setattr(hetlda.baselines, tail,
                                lambda z: np.full(np.shape(z), 0.3))
        s1, s2, priors = balanced([1.0], [[1.0]], [-1.0], [[4.0]])
        _, pe, info = train_chld(s1, s2, priors, SweepConfig(step=0.5))
        assert grids[0] == ([0.0, 0.5, 1.0], [1.0, 0.5, 0.0])
        assert info[0] == 0.0 and pe == 0.3   # all tied: smallest s kept
        train_chld(s1, s2, priors, SweepConfig(step=0.3))
        assert grids[1][0] == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0],
                                            abs=1e-12)

    def test_matches_fixed_point_on_d2(self):
        s1, s2, priors = d2_population()
        _, pe_chld, _ = train_chld(s1, s2, priors)
        _, pe_gld, _ = train_gld(s1, s2, priors)
        assert abs(pe_chld - pe_gld) <= 1e-4

    def test_grid_cannot_beat_fixed_point_by_much(self):
        rng = np.random.default_rng(7)
        cases = [d1_population(), d2_population()]
        cases += [random_stats(rng, 3) for _ in range(3)]
        for s1, s2, priors in cases:
            _, pe_chld, _ = train_chld(s1, s2, priors)
            _, pe_gld, _ = train_gld(s1, s2, priors)
            assert pe_chld >= pe_gld - 1e-3

    def test_equal_means(self):
        s1, s2, priors = balanced([1.0], [[1.0]], [1.0], [[2.0]])
        with pytest.raises(ZeroDirection):
            train_chld(s1, s2, priors)


class TestTrainRhld1:
    def test_pinned_draw_on_shared_covariance_equals_lda(self):
        rng = np.random.default_rng(11)
        root = rng.standard_normal((2, 2))
        cov = root @ root.T + 2 * np.eye(2)
        s1, s2, priors = balanced(rng.normal(0, 2, 2), cov,
                                  rng.normal(0, 2, 2), cov)
        cfg = SweepConfig(trials=1, s_range=(0.5, 0.5))
        disc, pe, info = train_rhld1(s1, s2, priors, cfg)
        lda_disc, pe_lda, _ = train_lda(s1, s2, priors)
        assert info[1] == 0.5
        # the engine's T x and lda's solve agree to rounding, not bit for bit
        assert (np.linalg.norm(disc.w - lda_disc.w)
                <= 1e-12 * np.linalg.norm(lda_disc.w))
        assert_allclose(disc.w0, lda_disc.w0, rtol=1e-12)
        assert_allclose(pe, pe_lda, rtol=1e-12)

    def test_same_seed_is_bit_identical(self):
        s1, s2, priors = d2_population()
        cfg = SweepConfig(trials=200, seed=42)
        first = train_rhld1(s1, s2, priors, cfg)
        second = train_rhld1(s1, s2, priors, cfg)
        assert np.array_equal(first[0].w, second[0].w)
        assert first[0].w0 == second[0].w0
        assert first[1] == second[1] and first[2] == second[2]

    def test_dense_search_matches_fixed_point_on_d1(self):
        s1, s2, priors = d1_population()
        _, pe, _ = train_rhld1(s1, s2, priors, SweepConfig(trials=1000))
        _, pe_gld, _ = train_gld(s1, s2, priors)
        assert abs(pe - pe_gld) <= 5e-4

    def test_unit_interval_search_converges_to_grid_best(self):
        s1, s2, priors = d2_population()
        cfg = SweepConfig(trials=10_000, s_range=(0.0, 1.0), seed=1)
        _, pe_rand, _ = train_rhld1(s1, s2, priors, cfg)
        _, pe_grid, _ = train_chld(s1, s2, priors)
        assert abs(pe_rand - pe_grid) <= 1e-4


class TestTrainRhld2:
    def test_scaling_the_draw_range_keeps_the_rule(self):
        # The blend-family rule depends on (s1, s2) only through their
        # ratio, and doubling the range doubles every uniform draw
        # exactly, so the searches visit the same rules.
        s1, s2, priors = d2_population()
        base = train_rhld2(s1, s2, priors,
                           SweepConfig(trials=50, s_range=(0.25, 2.0)))
        scaled = train_rhld2(s1, s2, priors,
                             SweepConfig(trials=50, s_range=(0.5, 4.0)))
        assert abs(base[1] - scaled[1]) <= 1e-12
        assert_allclose(scaled[2][0], 2 * base[2][0], rtol=1e-15)
        assert_allclose(scaled[2][1], 2 * base[2][1], rtol=1e-15)
        points = np.random.default_rng(0).normal(0, 3, (200, 4))
        assert np.array_equal(decision_values(base[0], points) >= 0,
                              decision_values(scaled[0], points) >= 0)

    def test_same_seed_is_bit_identical(self):
        s1, s2, priors = d1_population()
        cfg = SweepConfig(trials=100, seed=9)
        first = train_rhld2(s1, s2, priors, cfg)
        second = train_rhld2(s1, s2, priors, cfg)
        assert np.array_equal(first[0].w, second[0].w)
        assert first[0].w0 == second[0].w0
        assert first[1:] == second[1:]

    def test_dense_search_matches_fixed_point_on_d2(self):
        s1, s2, priors = d2_population()
        _, pe, _ = train_rhld2(s1, s2, priors, SweepConfig(trials=1000))
        _, pe_gld, _ = train_gld(s1, s2, priors)
        assert abs(pe - pe_gld) <= 5e-4


class TestVanishingCovariances:
    # features scaled by 1e-200 square to exact zeros: both class
    # covariances vanish while the means still differ
    def stats(self):
        data = generate_d2(0)
        return compute_class_stats(
            LabeledDataset(data.features * 1e-200, data.labels), 0, 1)

    def test_lda_has_no_direction(self):
        s1, s2, priors = self.stats()
        assert not np.any(s1.cov) and np.any(s1.mean - s2.mean)
        with pytest.raises(ZeroDirection, match="pooled covariance range"):
            train_lda(s1, s2, priors)

    def test_blend_searches_have_no_usable_rule(self):
        s1, s2, priors = self.stats()
        cfg = SweepConfig(step=0.1, trials=20)
        for train in (train_chld, train_rhld1, train_rhld2):
            with pytest.raises(DegenerateProjection, match="no blend"):
                train(s1, s2, priors, cfg)


class TestCommonGuarantees:
    def test_rules_are_well_formed(self):
        rng = np.random.default_rng(13)
        cfg = SweepConfig(step=0.05, trials=50)
        for _ in range(6):
            s1, s2, priors = random_stats(rng, int(rng.integers(1, 4)))
            results = [train_lda(s1, s2, priors)[:2],
                       train_chld(s1, s2, priors, cfg)[:2],
                       train_rhld1(s1, s2, priors, cfg)[:2],
                       train_rhld2(s1, s2, priors, cfg)[:2]]
            for disc, pe in results:
                assert np.linalg.norm(disc.w) > 0
                assert math.isfinite(disc.w0)
                assert 0.0 <= pe <= 0.5 + 1e-12

    def test_info_is_the_blend_the_direction_solves(self):
        rng = np.random.default_rng(29)
        cfg = SweepConfig(step=0.05, trials=50)
        for _ in range(6):
            s1, s2, priors = random_stats(rng, int(rng.integers(1, 5)))
            fits = [train_lda(s1, s2, priors)]
            fits += [search(s1, s2, priors, cfg)
                     for search in TRAINERS.values()]
            assert fits[0][2] == (priors.pi1, priors.pi2)
            for disc, _pe, (t1, t2) in fits:
                w = solve_symmetric(t1 * s1.cov + t2 * s2.cov,
                                    s1.mean - s2.mean)
                assert np.linalg.norm(disc.w - w) <= 1e-12 * np.linalg.norm(w)

    def test_broken_moments_fail_clearly(self):
        # a shape or a non-finite entry is refused where the moments are
        # made, before any trainer mistakes it for a degenerate rule
        good = ClassStats(np.zeros(4), np.eye(4), 10)
        broken = [
            (DimensionMismatch, lambda: ClassStats(np.ones(3), np.eye(4), 10)),
            (DimensionMismatch, lambda: ClassStats(np.ones((1, 4)),
                                                   np.eye(4), 10)),
            (ValueError, lambda: ClassStats(np.ones(4),
                                            np.full((4, 4), math.nan), 10)),
            (ValueError, lambda: ClassStats(np.array([1.0, math.inf, 0, 0]),
                                            np.eye(4), 10)),
        ]
        for error, make in broken:
            for train in (train_lda, *TRAINERS.values(), train_gld):
                with pytest.raises(error, match="d x d|finite"):
                    train(make(), good, Priors(0.5, 0.5))

    def test_constant_feature_changes_no_rule(self):
        # the mean of a constant 0.1 is not 0.1, and the rounding left in
        # its variance must not count as a direction
        for data in (generate_d1(0), generate_d2(0)):
            base = compute_class_stats(data, 0, 1)
            for value in (3.0, 0.1, 1e5 + 0.1):
                padded = LabeledDataset(
                    np.column_stack([data.features,
                                     np.full(data.n_samples, value)]),
                    data.labels)
                wide = compute_class_stats(padded, 0, 1)
                for train in (train_lda, *TRAINERS.values(), train_gld):
                    disc, pe, info = train(*base)
                    disc_c, pe_c, info_c = train(*wide)
                    assert abs(pe_c - pe) <= 1e-12 * pe, (train.__name__,
                                                          value)
                    if train is train_gld:
                        info = info.converged_by
                        info_c = info_c.converged_by
                    assert info_c == info, train.__name__
                    assert disc_c.w[-1] == 0.0, train.__name__

    def test_rescaling_a_feature_moves_no_error(self):
        # every trainer decides rank on the unit-diagonal pooled matrix,
        # so the units of a feature move no eigenvalue across the cut
        trainers = (train_lda, *TRAINERS.values(), train_gld)
        for data in (generate_d1(0), generate_d2(0)):
            expected = [train(*compute_class_stats(data, 0, 1))[1]
                        for train in trainers]
            for k in (-8, -6, -5, 5, 6, 8):
                for j in range(data.n_features):
                    x = data.features.copy()
                    x[:, j] *= 10.0 ** k
                    stats = compute_class_stats(LabeledDataset(x, data.labels),
                                                0, 1)
                    for train, pe in zip(trainers, expected):
                        assert abs(train(*stats)[1] - pe) <= 1e-9 * pe, (
                            train.__name__, k, j)

    def test_exact_sum_column_gives_lda_the_engine_direction(self):
        # the pooled matrix is singular up to rounding; lda's solve and
        # the engine must drop the same rounding eigenvalue
        for data in (generate_d1(0), generate_d2(0)):
            x = np.column_stack([data.features,
                                 data.features[:, 1] + data.features[:, 2]])
            stats1, stats2, priors = compute_class_stats(
                LabeledDataset(x, data.labels), 0, 1)
            t, lam, mu = _blend_basis(stats1, stats2, priors)
            engine = t @ _blend_directions(t.T @ (stats1.mean - stats2.mean),
                                           lam, mu, priors.pi1, priors.pi2)
            w = train_lda(stats1, stats2, priors)[0].w
            assert (np.linalg.norm(w - engine)
                    <= 1e-12 * np.linalg.norm(engine))

    def test_signal_in_a_near_dependency_reaches_gld(self):
        # the classes differ only along b - a, whose spread is 1e-5 of
        # a's, so the pooled matrix has an eigenvalue near 5e-11 of its
        # largest: a real direction, which gld must keep as lda does
        rng = np.random.default_rng(3)
        a = rng.standard_normal(4000)
        signal = np.concatenate([rng.normal(0.0, 1.0, 2000),
                                 rng.normal(1.5, 2.0, 2000)])
        x = np.column_stack([a, a + 1e-5 * signal, rng.standard_normal(4000)])
        stats = compute_class_stats(
            LabeledDataset(x, np.repeat([0, 1], 2000)), 0, 1)
        assert train_gld(*stats)[1] <= train_lda(*stats)[1]


def reference_search(method, stats1, stats2, priors, cfg):
    """The per-candidate loop the blend engine replaced: one solve per
    candidate in the method's own convention, then project, threshold
    and evaluate; ties keep the first candidate and threshold."""
    c1, c2 = stats1.cov, stats2.cov
    rng = np.random.default_rng(cfg.seed)
    if method == "chld":
        count = int(math.floor(1.0 / cfg.step + 1e-9))
        grid = [min(i * cfg.step, 1.0) for i in range(count + 1)]
        if grid[-1] < 1.0 - 1e-12:
            grid.append(1.0)
        candidates = [((s,), s * c1 + (1.0 - s) * c2) for s in grid]
    elif method == "rhld1":
        draws = rng.uniform(cfg.s_range[0], cfg.s_range[1], cfg.trials)
        candidates = [((s,), s * c2 + (1.0 - s) * c1) for s in draws.tolist()]
    else:
        draws = rng.uniform(cfg.s_range[0], cfg.s_range[1], (cfg.trials, 2))
        candidates = [((a, b), a * c1 + b * c2) for a, b in draws.tolist()]

    def thresholds(params, pre):
        if method == "chld":
            s, = params
            return [(s * pre.mu2 * pre.var1 + (1.0 - s) * pre.mu1 * pre.var2)
                    / (s * pre.var1 + (1.0 - s) * pre.var2)]
        if method == "rhld1":
            s, = params
            denom = (1.0 - s) * pre.var1 + s * pre.var2
            if denom == 0.0:
                return []
            return [((1.0 - s) * pre.mu2 * pre.var1 + s * pre.mu1 * pre.var2)
                    / denom]
        c_one = pre.mu1 - params[0] * pre.var1
        c_two = pre.mu2 + params[1] * pre.var2
        return [c_one, c_two, 0.5 * (c_one + c_two)]

    best = None
    for params, blend in candidates:
        w = solve_symmetric(blend, stats1.mean - stats2.mean)
        if not np.any(w) or not np.all(np.isfinite(w)):
            continue
        try:
            pre = project_stats(LinearDiscriminant(w, 0.0), stats1, stats2)
        except DegenerateProjection:
            continue
        for w0 in thresholds(params, pre):
            if not math.isfinite(w0):
                continue
            disc = LinearDiscriminant(w, w0)
            pe = bayes_error(project_stats(disc, stats1, stats2), priors)
            if best is None or pe < best[1]:
                best = (disc, pe, *params)
    return best


TRAINERS = {"chld": train_chld, "rhld1": train_rhld1, "rhld2": train_rhld2}


class TestBlendEngine:
    def assert_matches_loop(self, stats1, stats2, priors, cfg,
                            methods=TRAINERS):
        for method in methods:
            disc, pe, info = TRAINERS[method](stats1, stats2, priors, cfg)
            ref = reference_search(method, stats1, stats2, priors, cfg)
            params = {"chld": info[:1], "rhld1": info[1:], "rhld2": info}
            assert list(params[method]) == list(ref[2:]), method
            assert abs(pe - ref[1]) <= 1e-12, method
            # ref[0].w is solve_symmetric on the winning blend; the
            # engine's T x agrees with it to rounding, not bit for bit
            w, w0 = ref[0].w, ref[0].w0
            assert np.linalg.norm(disc.w - w) <= 1e-12 * np.linalg.norm(w)
            assert abs(disc.w0 - w0) <= 1e-12 * max(1.0, abs(w0))
            if method == "rhld2":
                self.assert_threshold_identity(disc, info, stats1, stats2)

    def assert_threshold_identity(self, disc, info, stats1, stats2):
        # rhld2's one threshold rests on mu1 - s1 var1 = mu2 + s2 var2
        pre = project_stats(LinearDiscriminant(disc.w, 0.0), stats1, stats2)
        one = pre.mu1 - info[0] * pre.var1
        two = pre.mu2 + info[1] * pre.var2
        scale = max(abs(pre.mu1), abs(pre.mu2), abs(info[0] * pre.var1),
                    abs(info[1] * pre.var2))
        assert abs(disc.w0 - one) <= 1e-12 * scale
        assert abs(disc.w0 - two) <= 1e-12 * scale

    def count_solves(self, monkeypatch):
        calls = []
        solve = hetlda.numkit.solve_symmetric
        for module in (hetlda.numkit, hetlda.baselines, hetlda.gld):
            monkeypatch.setattr(module, "solve_symmetric",
                                lambda a, b: calls.append(1) or solve(a, b))
        return calls

    def test_matches_loop_on_random_stats(self):
        rng = np.random.default_rng(17)
        for d in range(1, 6):
            for seed in range(3):
                cfg = SweepConfig(step=0.01, trials=300, seed=seed)
                self.assert_matches_loop(*random_stats(rng, d), cfg)
        for d in range(2, 6):
            # C1 and C2 share a zero row and column, so pi1 C1 + pi2 C2
            # is singular and every blend vanishes on that axis
            s1, s2, priors = random_stats(rng, d)
            keep = np.arange(d) != rng.integers(d)
            s1, s2 = (ClassStats(s.mean, s.cov * np.outer(keep, keep),
                                 s.count) for s in (s1, s2))
            cfg = SweepConfig(step=0.01, trials=300, seed=d)
            self.assert_matches_loop(s1, s2, priors, cfg)

    def test_matches_loop_on_reference_populations(self):
        for stats in (d1_population(), d2_population()):
            self.assert_matches_loop(*stats, SweepConfig())

    def test_searches_make_no_dense_solve(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        for trainer in (train_lda, *TRAINERS.values(), train_gld):
            trainer(*d1_population())
            assert not calls, trainer.__name__

    def test_singular_class2_covariance_needs_no_solve(self, monkeypatch):
        rng = np.random.default_rng(23)
        root = rng.standard_normal((3, 3))
        v = rng.standard_normal(3)
        s1, s2, priors = balanced(rng.normal(0, 2, 3),
                                  root @ root.T + np.eye(3),
                                  rng.normal(0, 2, 3), np.outer(v, v))
        cfg = SweepConfig(step=0.05, trials=40, seed=3)
        self.assert_matches_loop(s1, s2, priors, cfg)
        calls = self.count_solves(monkeypatch)
        train_rhld2(s1, s2, priors, cfg)
        assert not calls

    def test_pinned_draw_at_singular_blend_takes_least_squares(
            self, monkeypatch):
        # C1 v = 2 C2 v for v = e1, so s C2 + (1-s) C1 is singular at
        # s = 2 / (2 - 1); the engine drops that direction, as the
        # reference's least-squares solve does.
        s1, s2, priors = balanced([1.0, 1.0], np.diag([2.0, 1.0]),
                                  [0.0, 0.0], np.eye(2))
        cfg = SweepConfig(trials=1, s_range=(2.0, 2.0))
        calls = self.count_solves(monkeypatch)
        disc, _, info = train_rhld1(s1, s2, priors, cfg)
        assert info[1] == 2.0 and not calls
        assert disc.w[0] == 0.0 and disc.w[1] != 0.0
        self.assert_matches_loop(s1, s2, priors, cfg, methods=["rhld1"])


class TestScreenedScoring:
    # the engine screens candidates with a tabulated tail and scores the
    # rest with math.erfc; every result must be bit for bit that of
    # scoring every candidate exactly (helpers.exact_blend_search)
    def checked(self, monkeypatch):
        winners = []

        def checking(*args):
            try:
                ref_disc, ref_pe, ref_blend, i = exact_blend_search(*args)
            except DegenerateProjection:
                with pytest.raises(DegenerateProjection, match="no blend"):
                    _blend_search(*args)
                raise
            disc, pe, blend = _blend_search(*args)
            assert blend == ref_blend == (float(args[3][i]),
                                          float(args[4][i]))
            assert disc.w.tobytes() == ref_disc.w.tobytes()
            assert np.float64([disc.w0, pe]).tobytes() == \
                np.float64([ref_disc.w0, ref_pe]).tobytes()
            winners.append((i, pe))
            return disc, pe, blend

        for module in (hetlda.baselines, hetlda.gld):
            monkeypatch.setattr(module, "_blend_search", checking)
        return winners

    def run_all(self, stats1, stats2, priors):
        for train in (*TRAINERS.values(), train_gld):
            try:
                train(stats1, stats2, priors)
            except DegenerateProjection:
                pass

    def test_random_problems(self, monkeypatch):
        winners = self.checked(monkeypatch)
        rng = np.random.default_rng(41)
        for d in range(1, 9):
            for _ in range(3):
                self.run_all(*random_stats(rng, d))
        for d in range(2, 9):
            # a zero row and column shared by both covariances
            s1, s2, priors = random_stats(rng, d)
            keep = np.arange(d) != rng.integers(d)
            self.run_all(*(ClassStats(s.mean, s.cov * np.outer(keep, keep),
                                      s.count) for s in (s1, s2)), priors)
        assert len(winners) == 4 * (8 * 3 + 7)

    def test_far_apart_classes(self, monkeypatch):
        # winners from 1e-6 down past the floor to an error of exactly 0
        winners = self.checked(monkeypatch)
        for gap in (10.0, 60.0, 70.0, 71.0, 72.0, 74.0, 76.0, 80.0, 1e3):
            self.run_all(*balanced([gap / 2, 0.0], [[1.0, 0.2], [0.2, 2.0]],
                                   [-gap / 2, 0.0], [[1.5, 0.0], [0.0, 1.0]]))
        errors = [pe for _, pe in winners]
        assert any(0.0 < pe < _SCREEN_FLOOR for pe in errors)
        assert any(_SCREEN_FLOOR < pe < 1e-250 for pe in errors)
        assert 0.0 in errors

    @pytest.mark.parametrize("screen_min", [1, _SCREEN_MIN])
    @pytest.mark.parametrize("gap, spread", [(0.5, 0.01), (1.0, 0.1),
                                             (3.0, 10.0), (0.5, 100.0)])
    def test_gld_scan_with_nan_thresholds(self, monkeypatch, gap, spread,
                                          screen_min):
        # crossing covariances: some scanned blends have no real
        # threshold, and the scan gives them NaN; its 17 candidates are
        # scored exactly unless the screen is forced on
        winners = self.checked(monkeypatch)
        monkeypatch.setattr(hetlda.baselines, "_SCREEN_MIN", screen_min)
        nan_counts = []
        search = hetlda.gld._blend_search

        def counting(s1, s2, priors, a, b, threshold, basis):
            def counted(*args):
                w0 = threshold(*args)
                nan_counts.append(int(np.isnan(w0).sum()))
                return w0
            return search(s1, s2, priors, a, b, counted, basis)

        monkeypatch.setattr(hetlda.gld, "_blend_search", counting)
        s1 = ClassStats(np.array([gap, 0.0]), np.diag([1.0, spread]), 100)
        s2 = ClassStats(np.array([0.0, gap]), np.diag([spread, 1.0]), 1000)
        train_gld(s1, s2, Priors(100 / 1100, 1000 / 1100))
        assert len(winners) == 1 and 0 < nan_counts[0] < 17

    def test_exact_ties_keep_the_first(self, monkeypatch):
        # scaling a blend by 2 halves its direction, means, variance
        # terms and threshold exactly, so every z, and every error, ties
        s1, s2, priors = d1_population()
        scale = 2.0 ** (np.arange(_SCREEN_MIN) % 7 - 3)
        for order in (scale, scale[::-1]):
            disc, pe, blend = _blend_search(s1, s2, priors, 0.3 * order,
                                            0.9 * order, _midpoint_threshold)
            ref = exact_blend_search(s1, s2, priors, 0.3 * order,
                                     0.9 * order, _midpoint_threshold)
            assert ref[3] == 0 and blend == (0.3 * order[0], 0.9 * order[0])
            assert (disc.w.tobytes(), disc.w0, pe) == (
                ref[0].w.tobytes(), ref[0].w0, ref[1])
        # a whole grid tied through both tails keeps its first candidate
        monkeypatch.setattr(hetlda.baselines, "_q",
                            lambda z: np.full(np.shape(z), 0.25))
        monkeypatch.setattr(hetlda.baselines, "_rough_q",
                            lambda z: np.full(np.shape(z), 0.25))
        s = np.linspace(0.0, 1.0, _SCREEN_MIN + 1)
        assert _blend_search(s1, s2, priors, s, 1.0 - s,
                             _weighted_threshold)[2] == (0.0, 1.0)

    @pytest.mark.parametrize("count", [4, _SCREEN_MIN, 1000])
    def test_single_usable_candidate(self, count):
        # the blend (0, 0) has no direction, so only index 2 is usable
        s1, s2, priors = d2_population()
        a, b = np.zeros(count), np.zeros(count)
        a[2], b[2] = 0.4, 0.6
        disc, pe, blend = _blend_search(s1, s2, priors, a, b,
                                        _weighted_threshold)
        ref = exact_blend_search(s1, s2, priors, a, b, _weighted_threshold)
        assert ref[3] == 2 and blend == (0.4, 0.6)
        assert (disc.w.tobytes(), disc.w0, pe) == (
            ref[0].w.tobytes(), ref[0].w0, ref[1])

    def test_directions_match_row_major_bytes(self):
        # the engine builds its directions eigenvalue-major; the bytes,
        # the (candidates, d) shape and the C layout are those of the
        # row-per-blend division, so every matvec after it rounds alike
        rng = np.random.default_rng(43)
        cases = [d1_population(), d2_population()]
        cases += [random_stats(rng, d) for d in (1, 3, 6)]
        for stats1, stats2, priors in cases:
            t, lam, mu = _blend_basis(stats1, stats2, priors)
            b = t.T @ (stats1.mean - stats2.mean)
            s = rng.uniform(-2.0, 3.0, (2, 500))
            # exactly singular blends: lam_j s1 + mu_j s2 = 0
            s[:, :len(lam)] = np.array([mu, -lam])
            s[:, -1] = (0.0, 0.0)
            x = _blend_directions(b, lam, mu, s[0], s[1])
            ref = row_major_directions(b, lam, mu, s[0], s[1])
            assert x.shape == ref.shape and x.flags.c_contiguous
            assert x.tobytes() == ref.tobytes()
            for a, c in s.T[:5].tolist():
                one = _blend_directions(b, lam, mu, a, c)
                assert one.shape == b.shape
                assert one.tobytes() == row_major_directions(
                    b, lam, mu, a, c).tobytes()
            # blends too large to form: a NaN eigenvalue zeroes its blend
            big = np.array([[np.inf, 1.0, 1e308], [-np.inf, np.inf, 1e308]])
            with np.errstate(over="ignore", invalid="ignore"):
                x = _blend_directions(b, lam, mu, big[0], big[1])
                ref = row_major_directions(b, lam, mu, big[0], big[1])
            assert x.tobytes() == ref.tobytes()

    def test_a_search_scores_few_candidates_exactly(self, monkeypatch):
        scored = []
        q = hetlda.baselines._q
        monkeypatch.setattr(hetlda.baselines, "_q",
                            lambda z: scored.append(z.size) or q(z))
        _rough_q(np.zeros(1))  # builds the table with _q before counting
        for stats in (d1_population(), d2_population()):
            for train in TRAINERS.values():
                scored.clear()
                train(*stats)
                assert 2 <= sum(scored) <= 2 * 50, train.__name__

    def test_rough_tail_bound(self):
        exact = np.frompyfunc(lambda z: 0.5 * math.erfc(z / math.sqrt(2.0)),
                              1, 1)
        z = np.concatenate([np.linspace(-45.0, 40.0, 85 * 640 + 1),
                            np.random.default_rng(47).uniform(-12, 39, 20000),
                            _TAIL_HI + np.array([-1e-9, 0.0, 1e-9])])
        q, rough = exact(z).astype(float), _rough_q(z)
        above = q > _SCREEN_FLOOR
        assert above.sum() > 50000
        # never high, low by at most _TAIL_RTOL above the floor; beyond
        # _TAIL_HI it reads Q(_TAIL_HI), far below the floor
        q_top = 0.5 * math.erfc(_TAIL_HI / math.sqrt(2.0))
        assert q_top < 1e-20 * _SCREEN_FLOOR
        assert np.all(np.abs(rough[above] - q[above])
                      <= _TAIL_RTOL * q[above])
        assert np.all(rough <= (q + q_top) * (1.0 + 1e-12))
        low, high = _rough_q(np.array([-np.inf, np.inf]))
        assert low == 1.0 and 0.0 < high <= q_top * (1.0 + 1e-12)
        # the screen's margin covers the bound on both sides
        assert _SCREEN_MARGIN > 2.0 * _TAIL_RTOL

    def test_nan_scores_always_reach_exact_scoring(self, monkeypatch):
        # a usable candidate with a NaN z wins np.argmin, so it must
        # never be screened out, whatever the others score
        seen = []
        q = hetlda.baselines._q
        monkeypatch.setattr(hetlda.baselines, "_q",
                            lambda z: seen.append(z.copy()) or q(z))
        priors = Priors(0.3, 0.7)
        rng = np.random.default_rng(53)
        za = rng.uniform(-1.0, 40.0, _SCREEN_MIN)
        zb = rng.uniform(-1.0, 40.0, _SCREEN_MIN)
        za[[20, 90]] = zb[[50, 100]] = math.nan
        za[7], zb[7] = 39.0, 39.0  # p_e 0 beside the NaNs
        _rough_q(np.zeros(1))  # builds the table with _q before counting
        for unusable in ([], [20], [20, 50], [20, 50, 90, 100]):
            usable = np.ones(_SCREEN_MIN, dtype=bool)
            usable[unusable] = False
            seen.clear()
            i, pe = _screened_argmin(priors, za, zb, usable)
            exact = np.where(usable, priors.pi1 * q(za) + priors.pi2 * q(zb),
                             np.inf)
            assert i == int(np.argmin(exact))
            if len(unusable) < 4:
                # a usable NaN wins and sends every usable candidate to
                # math.erfc
                assert math.isnan(pe) and i == min({20, 50, 90, 100}
                                                   - set(unusable))
                assert sum(z.size for z in seen) == 2 * usable.sum()
            else:
                assert (i, pe) == (7, 0.0)
                assert sum(z.size for z in seen) < 2 * usable.sum()


class TestBasisCache:
    def count_builds(self, monkeypatch):
        # each build of a basis makes one unit_diagonal_eigh call
        builds = []
        eigh = hetlda.baselines.unit_diagonal_eigh
        monkeypatch.setattr(hetlda.baselines, "unit_diagonal_eigh",
                            lambda a: builds.append(a) or eigh(a))
        return builds

    def test_one_basis_per_pair_per_fold(self, monkeypatch):
        # every method of a fold gets the fold's ClassStats objects, so
        # the five Gaussian trainers build the pair's basis once
        builds = self.count_builds(monkeypatch)
        data = generate_d2(0).subset(np.arange(0, 6000, 10))
        names = ("lda", "chld", "rhld1", "rhld2", "gld")
        report = run_benchmark(data, [(m, make_trainer(m)) for m in names],
                               CvPlan(folds=3, trials=1))
        assert sum(m.failures for m in report.methods) == 0
        assert len(builds) == 3

    def test_cached_basis_is_shared_read_only(self, monkeypatch):
        builds = self.count_builds(monkeypatch)
        s1, s2, priors = d1_population()
        basis = _blend_basis(s1, s2, priors)
        assert all(not a.flags.writeable for a in basis)
        again = _blend_basis(s1, s2, Priors(priors.pi1, priors.pi2))
        assert all(a is b for a, b in zip(basis, again))
        assert len(builds) == 1
        with pytest.raises(ValueError, match="read-only"):
            basis[1][0] = 0.0

    def test_new_priors_or_new_stats_recompute(self, monkeypatch):
        builds = self.count_builds(monkeypatch)
        s1, s2, priors = d1_population()
        t = _blend_basis(s1, s2, priors)[0]
        other = _blend_basis(s1, s2, Priors(0.5, 0.5))[0]
        # equal moments in new objects are new statistics to the cache
        fresh = [ClassStats(s.mean.copy(), s.cov.copy(), s.count)
                 for s in (s1, s2)]
        rebuilt = _blend_basis(*fresh, priors)[0]
        swapped = _blend_basis(s2, s1, priors)[0]
        assert len(builds) == 4
        assert not np.array_equal(t, other)
        assert rebuilt is not t and rebuilt.tobytes() == t.tobytes()
        assert swapped.shape == t.shape

    def test_threads_share_the_cache_safely(self):
        # more threads than cores, switching often, on a few pairs: every
        # result must be its pair's basis, whoever built it
        problems = [random_stats(np.random.default_rng(k), 4)
                    for k in range(3)]
        expected = [[a.tobytes() for a in _blend_basis.__wrapped__(*stats)]
                    for stats in problems]
        wrong = []

        def work(k):
            for j in range(300):
                stats = problems[(k + j) % 3]
                if j % 7 == 0:  # fresh objects keep entries churning
                    stats = (ClassStats(stats[0].mean, stats[0].cov, 9),
                             ClassStats(stats[1].mean, stats[1].cov, 9),
                             stats[2])
                got = [a.tobytes() for a in _blend_basis(*stats)]
                if got != expected[(k + j) % 3]:
                    wrong.append((k, j))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
