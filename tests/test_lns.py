import tracemalloc

import numpy as np
import pytest

import hetlda.lns
from hetlda import (DimensionMismatch, LabeledDataset, LinearDiscriminant,
                    LnsConfig, compute_class_stats,
                    local_neighbourhood_search, train_gld,
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


def reference_search(init, train, cfg, class_a, class_b, on_sweep):
    # The search as a loop that scores one candidate at a time with its
    # own matrix-vector product: the definition the sweep kernel must
    # reproduce, ties and all.
    features, labels = train.features, train.labels

    def count_errors(vec):
        side_a = features @ vec[1:] >= vec[0]
        predicted = np.where(side_a, class_a, class_b)
        return int(np.sum(predicted != labels))

    current = np.concatenate(([init.w0], init.w))
    best = current.copy()
    best_count = count_errors(current)
    stall = 0
    for sweep in range(cfg.max_iters):
        scale = float(np.max(np.abs(current)))
        zero_step = 1e-3 * scale if scale > 0 else 1e-3
        sweep_best = sweep_count = None
        for i in range(current.shape[0]):
            delta = cfg.perturb_fraction * abs(current[i])
            if delta == 0.0:
                delta = zero_step
            for signed in (delta, -delta):
                candidate = current.copy()
                candidate[i] += signed
                count = count_errors(candidate)
                if sweep_count is None or count < sweep_count:
                    sweep_best, sweep_count = candidate, count
        current = sweep_best
        if sweep_count < best_count:
            best, best_count = sweep_best.copy(), sweep_count
            stall = 0
        else:
            stall += 1
        on_sweep(sweep, best_count)
        if stall >= cfg.early_stop:
            break
    return LinearDiscriminant(best[1:], float(best[0])), best_count


def reference_count_errors(features, is_a, candidates):
    # The sweep kernel before packed words: one product per block, a
    # broadcast >= against each candidate's threshold, != and
    # count_nonzero. The counter must give its counts exactly.
    weights, thresholds = candidates[1:].T, candidates[0][:, None]
    counts = np.zeros(candidates.shape[1], dtype=np.int64)
    for start in range(0, features.shape[0], hetlda.lns._BLOCK_ROWS):
        stop = start + hetlda.lns._BLOCK_ROWS
        side_a = weights @ features[start:stop].T >= thresholds
        counts += np.count_nonzero(side_a != is_a[start:stop], axis=1)
    return counts


def reference_counts(data, class_a, class_b, candidates):
    # The search's counts as the reference kernel gives them: rows of a
    # third class dropped once and counted as mistakes on both sides.
    in_pair = (data.labels == class_a) | (data.labels == class_b)
    return (reference_count_errors(data.features[in_pair],
                                   data.labels[in_pair] == class_a,
                                   candidates)
            + np.count_nonzero(~in_pair))


def tie_heavy_problems(seed, count):
    # Rounded features at scales from 1e-6 to 1e6, so that many candidates
    # share a count; zero weights, so the absolute step is used; every
    # third problem has rows of a third class and explicit sides.
    rng = np.random.default_rng(seed)
    for k in range(count):
        d, n = k % 8 + 1, int(rng.integers(4, 201))
        scale = 10.0 ** rng.uniform(-6, 6)
        features = np.round(rng.normal(0, 1, (n, d)),
                            int(rng.integers(0, 3))) * scale
        labels = rng.integers(0, 2, n)
        if k % 3 == 0:
            labels[rng.random(n) < 0.2] = 2
        labels[:2] = (0, 1)
        w = rng.normal(0, 1, d) / scale
        w[rng.random(d) < 0.3] = 0.0
        w0 = float(rng.normal()) if k % 4 else 0.0
        if k % 3 == 0:
            class_a, class_b = (2, 0) if k % 2 else (1, 0)
        else:
            class_a, class_b = (1, 0) if k % 2 else (0, 1)
        max_iters = int(rng.integers(1, 40))
        cfg = LnsConfig(max_iters=max_iters,
                        early_stop=int(rng.integers(1, max_iters + 1)),
                        perturb_fraction=float(rng.uniform(0.01, 0.5)))
        yield (LinearDiscriminant(w, w0), LabeledDataset(features, labels),
               cfg, class_a, class_b)


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

    @pytest.mark.parametrize("field", ["max_iters", "early_stop"])
    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} .* not an integer"):
            LnsConfig(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = LnsConfig(max_iters=np.int64(3), early_stop=np.int64(3))
        assert (cfg.max_iters, cfg.early_stop) == (3, 3)

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
        with pytest.raises(ValueError, match="both"):
            local_neighbourhood_search(init, data, class_a=1)

    def test_dimension_mismatch(self):
        data = four_points()
        with pytest.raises(DimensionMismatch):
            local_neighbourhood_search(
                LinearDiscriminant(np.array([1.0, 2.0]), 0.0), data)


class TestSweepKernel:
    def assert_matches_loop(self, problems):
        for init, data, cfg, class_a, class_b in problems:
            got, want = [], []
            result, count = local_neighbourhood_search(
                init, data, cfg, class_a=class_a, class_b=class_b,
                on_sweep=lambda i, best: got.append((i, best)))
            ref, ref_count = reference_search(
                init, data, cfg, class_a, class_b,
                lambda i, best: want.append((i, best)))
            assert count == ref_count and got == want
            assert np.array_equal(result.w, ref.w) and result.w0 == ref.w0

    def test_matches_loop_on_tie_heavy_problems(self):
        self.assert_matches_loop(tie_heavy_problems(41, 240))

    def test_matches_loop_across_row_blocks(self, monkeypatch):
        for rows in (3, 5, 64):
            monkeypatch.setattr(hetlda.lns, "_BLOCK_ROWS", rows)
            self.assert_matches_loop(tie_heavy_problems(43, 60))

    def test_matches_loop_on_default_search(self):
        rng = np.random.default_rng(47)
        for _ in range(4):
            data, init = random_problem(rng, n=300, d=6)
            self.assert_matches_loop([(init, data, LnsConfig(), 0, 1)])

    def test_matches_loop_on_gamma_pairs_from_gld(self):
        # Shaped like the cv-lns benchmark: three gamma classes, d = 6,
        # each pair's rows as train_ovo hands them over, the search
        # started from train_gld's rule with the default budget.
        shapes = np.array([[1.5, 3.0, 2.0, 3.5, 2.0, 3.0],
                           [3.0, 1.5, 3.5, 2.0, 3.0, 2.0],
                           [2.2, 2.2, 1.5, 1.5, 3.5, 3.5]])
        rng = np.random.default_rng(59)
        features = np.vstack([rng.gamma(shape, 1.0, (300, shape.size))
                              for shape in shapes])
        data = LabeledDataset(features, np.repeat(np.arange(3), 300))
        for a, b in ((0, 1), (0, 2), (1, 2)):
            pair = data.subset(np.flatnonzero((data.labels == a)
                                              | (data.labels == b)))
            init, _p_e, _trace = train_gld(
                *compute_class_stats(pair, a, b))
            self.assert_matches_loop([(init, pair, LnsConfig(), a, b)])

    def test_peak_memory_is_a_small_fraction_of_the_features(self):
        # The sweep's n x 2(d+1) temporaries are cut into row blocks; one
        # product over all 2e5 rows would take 2.8 times the feature bytes.
        # The sides are given, as every trainer gives them.
        rng = np.random.default_rng(53)
        data, init = random_problem(rng, n=200_000, d=6)
        cfg = LnsConfig(max_iters=2, early_stop=2)
        tracemalloc.start()
        try:
            _, count = local_neighbourhood_search(init, data, cfg,
                                                  class_a=0, class_b=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count <= training_error_count(init, data)
        assert peak <= 0.25 * data.features.nbytes

    def test_inferring_the_classes_keeps_peak_memory_small(self):
        # np.unique's sorted copy of the labels once lifted the inferred
        # peak by 0.06 (numpy warm) to 0.18 (cold) times the feature bytes
        # above the peak with the sides given
        rng = np.random.default_rng(53)
        data, init = random_problem(rng, n=200_000, d=6)
        cfg = LnsConfig(max_iters=2, early_stop=2)
        peaks = []
        for sides in ({"class_a": 0, "class_b": 1}, {}):
            tracemalloc.start()
            try:
                local_neighbourhood_search(init, data, cfg, **sides)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        explicit, inferred = peaks
        assert inferred <= 0.25 * data.features.nbytes
        assert inferred <= explicit + 0.02 * data.features.nbytes


class TestErrorCounter:
    def assert_matches_reference(self, problems):
        # Each problem's first rows, n - 7 … n of them, so that the pair's
        # row counts take every residue mod 8; one counter per dataset
        # scores the start column and three sweeps along the reference's
        # picks, so that its reused buffer carries bits between calls.
        seen = {"residues": set(), "short_tail": False, "other": False}
        for init, data, cfg, class_a, class_b in problems:
            for drop in range(min(8, data.n_samples - 1)):
                part = data.subset(np.arange(data.n_samples - drop))
                in_pair = np.count_nonzero((part.labels == class_a)
                                           | (part.labels == class_b))
                seen["residues"].add(in_pair % 8)
                block = hetlda.lns._BLOCK_ROWS
                seen["short_tail"] |= in_pair > block and in_pair % block > 0
                seen["other"] |= in_pair < part.n_samples
                count = hetlda.lns._error_counter(part, class_a, class_b,
                                                  init.w.shape[0] + 1)
                current = np.concatenate(([init.w0], init.w))
                assert np.array_equal(
                    count(current[:, None]),
                    reference_counts(part, class_a, class_b,
                                     current[:, None]))
                for _ in range(3):
                    candidates = hetlda.lns._sweep_candidates(
                        current, cfg.perturb_fraction)
                    want = reference_counts(part, class_a, class_b,
                                            candidates)
                    assert np.array_equal(count(candidates), want)
                    current = candidates[:, int(np.argmin(want))]
        return seen

    def test_matches_reference_kernel_on_tie_heavy_problems(self):
        seen = self.assert_matches_reference(tie_heavy_problems(41, 240))
        assert seen["residues"] == set(range(8)) and seen["other"]

    def test_matches_reference_kernel_across_row_blocks(self, monkeypatch):
        for rows in (3, 5, 8, 64):
            monkeypatch.setattr(hetlda.lns, "_BLOCK_ROWS", rows)
            seen = self.assert_matches_reference(tie_heavy_problems(43, 30))
            assert seen["residues"] == set(range(8)), rows
            assert seen["short_tail"] and seen["other"], rows

    def test_pair_without_rows_counts_only_the_other_class(self):
        data = LabeledDataset(np.array([[1.0], [2.0], [3.0]]),
                              np.array([2, 2, 2]))
        count = hetlda.lns._error_counter(data, 0, 1, 2)
        candidates = hetlda.lns._sweep_candidates(np.array([0.5, 1.0]), 0.1)
        assert count(candidates).tolist() == [3] * 4
