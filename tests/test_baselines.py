import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hetlda.baselines
import hetlda.gld
import hetlda.numkit
from hetlda import (ClassStats, DegenerateProjection, DimensionMismatch,
                    LabeledDataset, LinearDiscriminant, Priors, SweepConfig,
                    ZeroDirection, bayes_error, compute_class_stats,
                    d1_population, d2_population, decision_values,
                    generate_d1, generate_d2, project_stats, solve_symmetric,
                    train_chld, train_gld, train_lda, train_rhld1,
                    train_rhld2)
from hetlda.baselines import _blend_basis, _blend_directions

from helpers import random_stats

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

        # every candidate scores the same
        monkeypatch.setattr(hetlda.baselines, "_blend_search", recording)
        monkeypatch.setattr(hetlda.baselines, "_q",
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
