import numpy as np
import pytest

from hetlda import (DimensionMismatch, EmptyClass, LabeledDataset,
                    LinearDiscriminant, OvoModel, classify, make_trainer,
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

    def test_single_class_rejected(self):
        data = LabeledDataset(np.zeros((4, 2)), np.zeros(4, dtype=int))
        with pytest.raises(EmptyClass):
            train_ovo(data, make_trainer("lda"))

    def test_undersized_class_rejected(self):
        data = LabeledDataset(np.arange(10.0).reshape(5, 2),
                              np.array([0, 0, 1, 1, 2]))
        with pytest.raises(EmptyClass):
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

    def test_dimension_mismatch(self):
        model = rigged([(0, 1, 1, 0.1)], 2)
        with pytest.raises(DimensionMismatch):
            predict_ovo(model, [1.0, 2.0])

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
