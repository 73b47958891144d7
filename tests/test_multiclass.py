import tracemalloc

import numpy as np
import pytest

from hetlda import (DegenerateProjection, DimensionMismatch, EmptyClass,
                    LabeledDataset, LinearDiscriminant, OvoModel, classify,
                    compute_class_stats, generate_d2, make_trainer,
                    predict_ovo, predict_ovo_batch, train_ovo)


def blobs(centers, n_per_class, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    chunks, labels = [], []
    for k, center in enumerate(centers):
        chunks.append(rng.normal(0, scale, (n_per_class, len(center)))
                      + np.asarray(center, float))
        labels.append(np.full(n_per_class, k))
    return LabeledDataset(np.vstack(chunks), np.concatenate(labels))


def rigged(pairs, k):
    # pairs: (a, b, w scalar sign, p_e); sign +1 votes a at x=[1], -1 votes b
    built = tuple(
        (a, b, LinearDiscriminant(np.array([float(sign)]), 0.0), p_e)
        for a, b, sign, p_e in pairs)
    return OvoModel(built, k)


class TestOvoModel:
    def test_pair_coverage_enforced(self):
        disc = LinearDiscriminant(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            OvoModel(((0, 1, disc, 0.1),), 3)          # missing pairs
        with pytest.raises(ValueError):
            OvoModel(((0, 1, disc, 0.1), (0, 1, disc, 0.1),
                      (1, 2, disc, 0.1)), 3)           # duplicate
        with pytest.raises(ValueError):
            OvoModel(((1, 0, disc, 0.1),), 2)          # a >= b

    def test_pair_count_checked_without_listing_every_pair(self):
        # one pair under a claimed 2000 classes: listing all 1999000
        # expected pairs first took over 200 MB
        disc = LinearDiscriminant(np.array([1.0]), 0.0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exactly once"):
                OvoModel(((0, 1, disc, 0.1),), 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000

    def test_fewer_than_two_classes_rejected(self):
        for k in (1, 0, -1):
            with pytest.raises(ValueError, match="at least two classes"):
                OvoModel((), k)

    def test_error_rate_bounds(self):
        disc = LinearDiscriminant(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            OvoModel(((0, 1, disc, 1.5),), 2)

    def test_class_names_length(self):
        disc = LinearDiscriminant(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            OvoModel(((0, 1, disc, 0.1),), 2, ("only",))

    def test_class_names_must_be_strings(self):
        disc = LinearDiscriminant(np.array([1.0]), 0.0)
        for names in ([1, 2], "ab", ("a", None)):
            with pytest.raises(ValueError, match="not a list of strings"):
                OvoModel(((0, 1, disc, 0.1),), 2, names)
        model = OvoModel(((0, 1, disc, 0.1),), 2, ["a", "b"])
        assert model.class_names == ("a", "b")

    def test_non_finite_rules_rejected(self):
        # a NaN weight used to vote for the second class on every row; the
        # rule is refused when built, so no model can hold one
        for w, w0 in (([1.0, np.nan], 0.0), ([1.0, 2.0], np.inf)):
            with pytest.raises(ValueError, match="non-finite"):
                LinearDiscriminant(np.array(w), w0)

    def test_class_fields_must_be_integers(self):
        disc = LinearDiscriminant(np.array([1.0]), 0.0)
        for pairs, k in ((((0, True, disc, 0.1),), 2),
                         (((False, 1, disc, 0.1),), 2),
                         (((0.0, 1, disc, 0.1),), 2),
                         (((0, 1, disc, 0.1),), 2.0),
                         (((0, 1, disc, 0.1),), True)):
            with pytest.raises(ValueError, match="not an integer"):
                OvoModel(pairs, k)
        model = OvoModel(
            ((np.int64(0), np.int32(1), disc, np.float32(0.5)),), np.int64(2))
        assert model.n_classes == 2
        # stored as the Python numbers json writes
        assert type(model.n_classes) is int
        assert [type(v) for v in model.pairs[0]] == [int, int,
                                                     LinearDiscriminant, float]

    def test_weight_vectors_share_one_non_empty_length(self):
        short, long = (LinearDiscriminant(np.ones(d), 0.0) for d in (2, 3))
        with pytest.raises(ValueError, match="different lengths"):
            OvoModel(((0, 1, short, 0.1), (0, 2, short, 0.1),
                      (1, 2, long, 0.1)), 3)
        empty = LinearDiscriminant(np.array([]), 0.0)
        with pytest.raises(ValueError, match="empty"):
            OvoModel(((0, 1, empty, 0.1),), 2)

    def test_default_class_names(self):
        disc = LinearDiscriminant(np.array([1.0]), 0.0)
        assert OvoModel(((0, 1, disc, 0.1),), 2).class_names == ("0", "1")
        assert rigged([(0, 1, 1, 0.1), (0, 2, 1, 0.1), (1, 2, 1, 0.1)],
                      3).class_names == ("0", "1", "2")

    def test_mean_error(self):
        model = rigged([(0, 1, 1, 0.1), (0, 2, 1, 0.3), (1, 2, 1, 0.2)], 3)
        assert model.mean_p_e == pytest.approx(0.2)


class TestTrainOvo:
    def test_two_classes_reduce_to_binary(self):
        data = blobs([(0.0, 0.0), (4.0, 4.0)], 50, seed=1)
        model = train_ovo(data, make_trainer("gld"))
        assert len(model.pairs) == 1 and model.n_classes == 2
        _a, _b, disc, _pe = model.pairs[0]
        for x in data.features[:20]:
            assert predict_ovo(model, x) == classify(disc, x)

    def test_pair_count_for_four_classes(self):
        data = blobs([(0, 0), (6, 0), (0, 6), (6, 6)], 30, seed=2)
        model = train_ovo(data, make_trainer("lda"))
        assert len(model.pairs) == 6
        assert [(a, b) for a, b, *_ in model.pairs] == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_separated_blobs_have_small_pairwise_error(self):
        data = blobs([(0.0, 0.0), (8.0, 0.0), (4.0, 7.0)], 100, seed=3)
        model = train_ovo(data, make_trainer("gld"))
        for *_pair, p_e in model.pairs:
            assert p_e < 0.01

    def test_pairs_get_exactly_their_rows_and_share_class_moments(self):
        # labels interleaved, so the pair rows are not contiguous
        data = blobs([(0, 0), (6, 0), (0, 6), (6, 6)], 30, seed=4)
        order = np.random.default_rng(5).permutation(data.n_samples)
        data = data.subset(order)
        seen = []
        lda = make_trainer("lda")

        def recording(pair, a, b):
            seen.append((pair, a, b, compute_class_stats(pair, a, b)))
            return lda(pair, a, b)

        train_ovo(data, recording)
        means = {}
        for pair, a, b, (stats_a, stats_b, _priors) in seen:
            scanned = data.subset(np.flatnonzero((data.labels == a)
                                                 | (data.labels == b)))
            assert pair.features.tobytes() == scanned.features.tobytes()
            assert pair.labels.tobytes() == scanned.labels.tobytes()
            assert pair.class_names == scanned.class_names
            fresh = compute_class_stats(scanned, a, b)
            for label, stats, exact in ((a, stats_a, fresh[0]),
                                        (b, stats_b, fresh[1])):
                assert stats.mean.tobytes() == exact.mean.tobytes()
                assert stats.cov.tobytes() == exact.cov.tobytes()
                # one computation per class, shared by its three pairs
                assert means.setdefault(label, stats.mean) is stats.mean
        assert len(seen) == 6 and len(means) == 4

    def test_a_class_whose_moments_raise_fails_only_its_pairs(self):
        # squares of 1e200 overflow: class 2 has no moments to hand over,
        # and computing them again on its pairs raises again
        data = LabeledDataset([[0.0], [1.0], [4.0], [6.0], [1e200], [-1e200]],
                              [0, 0, 1, 1, 2, 2])
        handed, raised = {}, []

        def recording(pair, a, b):
            handed[a, b] = {label: pair._moments.get(label) is
                            data._moments.get(label, False)
                            for label in (a, b)}
            try:
                compute_class_stats(pair, a, b)
            except DegenerateProjection:
                raised.append((a, b))
            return LinearDiscriminant([1.0], 0.0), 0.5

        train_ovo(data, recording)
        assert handed == {(0, 1): {0: True, 1: True},
                          (0, 2): {0: True, 2: False},
                          (1, 2): {1: True, 2: False}}
        assert raised == [(0, 2), (1, 2)]

    def test_two_classes_train_on_the_dataset_itself(self):
        data = blobs([(0.0, 0.0), (4.0, 4.0)], 20, seed=6)
        seen = []

        def recording(pair, a, b):
            seen.append(pair)
            return make_trainer("lda")(pair, a, b)

        train_ovo(data, recording)
        assert seen == [data] and seen[0] is data

    def test_single_class_rejected(self):
        data = LabeledDataset(np.zeros((4, 2)), np.zeros(4, dtype=int))
        with pytest.raises(EmptyClass):
            train_ovo(data, make_trainer("lda"))

    def test_undersized_class_rejected(self):
        data = LabeledDataset(np.arange(10.0).reshape(5, 2),
                              np.array([0, 0, 1, 1, 2]))
        with pytest.raises(EmptyClass, match="class 2 has 1 samples"):
            train_ovo(data, make_trainer("lda"))


class TestPredictOvo:
    def test_weighted_tally_beats_plain_count(self):
        # two rules vote class 0 at weight 0.9 each, one votes class 1
        # at weight 1.0: class 0 wins 1.8 to 1.0
        model = rigged([(0, 1, 1, 0.1), (0, 2, 1, 0.1), (1, 2, 1, 0.0)], 3)
        assert predict_ovo(model, [1.0]) == 0

    def test_plurality_tie_resolved_by_weights(self):
        # one vote each; the most reliable voter (p_e = 0.1) wins
        model = rigged([(0, 1, 1, 0.3), (1, 2, 1, 0.1), (0, 2, -1, 0.2)], 3)
        assert predict_ovo(model, [1.0]) == 1

    def test_exact_score_tie_takes_lowest_index(self):
        model = rigged([(0, 1, 1, 0.1), (1, 2, 1, 0.1), (0, 2, -1, 0.1)], 3)
        assert predict_ovo(model, [1.0]) == 0

    def test_equal_weights_match_majority_vote(self):
        model = rigged([(0, 1, 1, 0.2), (0, 2, 1, 0.2), (1, 2, 1, 0.2)], 3)
        assert predict_ovo(model, [1.0]) == 0  # two votes to one

    def test_batch_agrees_with_single(self):
        data = blobs([(0.0, 0.0), (6.0, 0.0), (0.0, 6.0)], 40, seed=5)
        model = train_ovo(data, make_trainer("gld"))
        probe = data.features[::7]
        batch = predict_ovo_batch(model, probe)
        assert batch.tolist() == [predict_ovo(model, x) for x in probe]

    @pytest.mark.parametrize("x", [1.0, [1.0], [[1.0]]],
                             ids=["scalar", "vector", "matrix"])
    def test_one_sample_in_each_accepted_shape(self, x):
        model = rigged([(0, 1, -1, 0.1)], 2)
        assert predict_ovo(model, x) == 1
        assert predict_ovo_batch(model, x).tolist() == [1]

    def test_dimension_mismatch(self):
        model = rigged([(0, 1, 1, 0.1)], 2)
        with pytest.raises(DimensionMismatch):
            predict_ovo(model, [1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            predict_ovo_batch(model, np.ones((5, 1, 1)))

    def test_more_than_one_row_rejected(self):
        # predict_ovo answers for one sample, never for a matrix's first row
        model = rigged([(0, 1, 1, 0.1)], 2)
        for x in ([[1.0], [-1.0]], [[-1.0], [1.0]], np.zeros((0, 1))):
            with pytest.raises(DimensionMismatch):
                predict_ovo(model, x)
        assert predict_ovo_batch(model, [[1.0], [-1.0]]).tolist() == [0, 1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        # a NaN compares false and used to vote for the second class
        model = train_ovo(generate_d2(0), make_trainer("lda"))
        sample = [bad, 0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="samples must be finite"):
            predict_ovo_batch(model, [[0.0] * 4, sample])
        with pytest.raises(ValueError, match="samples must be finite"):
            predict_ovo(model, sample)
        with pytest.raises(ValueError, match="samples must be finite"):
            classify(model.pairs[0][2], sample)

    def test_permutation_equivariance(self):
        data = blobs([(0.0, 0.0), (9.0, 0.0), (0.0, 9.0)], 60, seed=7)
        perm = np.array([2, 0, 1])          # label k becomes perm[k]
        permuted = LabeledDataset(data.features, perm[data.labels])
        base = train_ovo(data, make_trainer("lda"))
        moved = train_ovo(permuted, make_trainer("lda"))
        probe = np.random.default_rng(8).normal(3, 4, (50, 2))
        expected = perm[predict_ovo_batch(base, probe)]
        assert np.array_equal(predict_ovo_batch(moved, probe), expected)


class TestMakeTrainer:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_trainer("qda")

    def test_all_methods_produce_valid_models(self):
        data = blobs([(0.0, 0.0), (5.0, 5.0), (5.0, -5.0)], 40, seed=9)
        for name in ("lda", "chld", "rhld1", "rhld2", "gld", "gld-lns"):
            model = train_ovo(data, make_trainer(name))
            assert len(model.pairs) == 3
            for *_pair, p_e in model.pairs:
                assert 0.0 <= p_e <= 1.0

    def test_search_refinement_reports_empirical_error(self):
        # the perturbation stage optimizes the raw mistake count, so the
        # reported rate must be a multiple of 1/n on the pair's subset
        data = blobs([(0.0, 0.0), (3.0, 0.0)], 25, seed=10)
        model = train_ovo(data, make_trainer("gld-lns"))
        _a, _b, disc, p_e = model.pairs[0]
        assert p_e * 50 == pytest.approx(round(p_e * 50), abs=1e-9)
