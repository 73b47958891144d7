import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hetlda import (FORMAT_VERSION, LabeledDataset, OvoModel, ParseError,
                    VersionMismatch, dataset_hash, load_model, make_trainer,
                    predict_ovo_batch, save_model, train_ovo)


def trained_model(seed=0, k=3):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 6, (k, 3))
    features = np.vstack([rng.normal(0, 1, (40, 3)) + c for c in centers])
    labels = np.repeat(np.arange(k), 40)
    data = LabeledDataset(features, labels,
                          tuple(f"kind-{i}" for i in range(k)))
    return train_ovo(data, make_trainer("gld")), data


class TestRoundTrip:
    def test_exact_fields(self, tmp_path):
        model, data = trained_model()
        path = str(tmp_path / "model.json")
        save_model(path, model, "gld", {"source": "unit-test", "n": 3})
        loaded, method, metadata = load_model(path)
        assert method == "gld"
        assert metadata == {"source": "unit-test", "n": 3}
        assert loaded.n_classes == model.n_classes
        assert loaded.class_names == model.class_names
        for (a, b, disc, p_e), (la, lb, ldisc, lp_e) in zip(model.pairs,
                                                            loaded.pairs):
            assert (a, b) == (la, lb)
            assert np.array_equal(disc.w, ldisc.w)   # bit-exact weights
            assert disc.w0 == ldisc.w0
            assert p_e == lp_e

    def test_predictions_preserved(self, tmp_path):
        model, data = trained_model(seed=1)
        path = str(tmp_path / "model.json")
        save_model(path, model, "gld")
        loaded, _, _ = load_model(path)
        probe = np.random.default_rng(2).normal(0, 5, (100, 3))
        assert np.array_equal(predict_ovo_batch(loaded, probe),
                              predict_ovo_batch(model, probe))

    def test_missing_metadata_defaults_empty(self, tmp_path):
        model, _ = trained_model(seed=3, k=2)
        path = str(tmp_path / "model.json")
        save_model(path, model, "lda")
        _, _, metadata = load_model(path)
        assert metadata == {}


    def test_save_refuses_what_load_refuses(self, tmp_path):
        # a non-str method or a metadata that is not None or a dict used
        # to write a file that load_model refused, [] silently as {}
        model, _ = trained_model(seed=9, k=2)
        path = tmp_path / "model.json"
        for method, metadata in ((5, [1]), ("lda", []), ("lda", "x"),
                                 (None, None), ("lda", 0)):
            with pytest.raises(ValueError, match="method must be a str"):
                save_model(str(path), model, method, metadata)
        assert not path.exists()

    def test_failed_save_leaves_the_old_file_whole(self, tmp_path):
        # numpy class indices used to make json.dump raise halfway through,
        # leaving the old file truncated; they are stored as int now
        model, _ = trained_model(seed=10, k=3)
        path = tmp_path / "model.json"
        save_model(str(path), model, "gld", {"n": 3})
        before = path.read_bytes()
        numpy_model = OvoModel(
            tuple((np.int64(a), np.int32(b), disc, np.float64(p_e))
                  for a, b, disc, p_e in model.pairs), np.int64(3),
            model.class_names)
        save_model(str(path), numpy_model, "gld", {"n": 3})
        assert path.read_bytes() == before
        # metadata that JSON cannot hold raises before the file is opened
        for metadata in ({"n": np.int64(3)}, {"seen": {1, 2}}):
            with pytest.raises(TypeError):
                save_model(str(path), model, "gld", metadata)
            assert path.read_bytes() == before


class TestFormatGuards:
    def test_version_gate(self, tmp_path):
        model, _ = trained_model(seed=4, k=2)
        path = str(tmp_path / "model.json")
        save_model(path, model, "lda")
        document = json.loads(Path(path).read_text())
        document["format_version"] = FORMAT_VERSION + 1
        Path(path).write_text(json.dumps(document))
        with pytest.raises(VersionMismatch):
            load_model(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_model(str(path))

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": FORMAT_VERSION,
                                    "method": "lda"}))
        with pytest.raises(ParseError):
            load_model(str(path))

    def test_method_and_metadata_types(self, tmp_path):
        model, _ = trained_model(seed=6, k=2)
        path = str(tmp_path / "model.json")
        save_model(path, model, "lda")
        saved = json.loads(Path(path).read_text())
        for key, value in (("method", 7), ("method", None),
                           ("metadata", 5), ("metadata", [1]),
                           ("metadata", "x"), ("metadata", None)):
            Path(path).write_text(json.dumps({**saved, key: value}))
            with pytest.raises(ParseError, match="malformed model file"):
                load_model(path)
        del saved["metadata"]
        Path(path).write_text(json.dumps(saved))
        assert load_model(path)[1:] == ("lda", {})

    def test_bad_pair_entry(self, tmp_path):
        model, _ = trained_model(seed=5, k=2)
        path = str(tmp_path / "model.json")
        save_model(path, model, "lda")
        document = json.loads(Path(path).read_text())
        del document["pairs"][0]["w0"]
        Path(path).write_text(json.dumps(document))
        with pytest.raises(ParseError):
            load_model(path)

    def test_non_finite_values_rejected(self, tmp_path):
        model, _ = trained_model(seed=8, k=2)
        path = str(tmp_path / "model.json")
        save_model(path, model, "lda")
        for key, value in (("w", [1.0, float("nan"), 0.5]),
                           ("w0", float("inf")), ("p_e", float("nan"))):
            document = json.loads(Path(path).read_text())
            document["pairs"][0][key] = value
            broken = tmp_path / f"{key}.json"
            broken.write_text(json.dumps(document))   # NaN, Infinity
            # the rule refuses a non-finite weight or threshold when built
            reason = "outside" if key == "p_e" else "non-finite"
            with pytest.raises(ParseError, match=f"malformed .*{reason}"):
                load_model(str(broken))

    def test_nesting_too_deep_to_decode(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ParseError, match="not valid JSON"):
            load_model(str(path))

    def test_null_class_names_load_as_defaults(self, tmp_path):
        # files written before every model named its classes hold null
        model, _ = trained_model(seed=12, k=3)
        path = str(tmp_path / "model.json")
        save_model(path, model, "gld")
        document = json.loads(Path(path).read_text())
        document["class_names"] = None
        Path(path).write_text(json.dumps(document))
        loaded, _, _ = load_model(path)
        assert loaded.class_names == ("0", "1", "2")
        probe = np.random.default_rng(2).normal(0, 5, (50, 3))
        assert np.array_equal(predict_ovo_batch(loaded, probe),
                              predict_ovo_batch(model, probe))

    def test_unnamed_model_saves_its_default_names(self, tmp_path):
        model, _ = trained_model(seed=13, k=2)
        path = str(tmp_path / "model.json")
        save_model(path, OvoModel(model.pairs, 2), "gld")
        assert json.loads(Path(path).read_text())["class_names"] == [
            "0", "1"]

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]")
        with pytest.raises(ParseError, match="not a JSON object"):
            load_model(str(path))

    def test_class_fields_must_be_integers(self, tmp_path):
        model, _ = trained_model(seed=10, k=2)
        path = str(tmp_path / "model.json")
        save_model(path, model, "lda")
        for key, value in (("class_a", 0.0), ("class_b", True),
                           ("n_classes", True)):
            document = json.loads(Path(path).read_text())
            owner = document if key == "n_classes" else document["pairs"][0]
            owner[key] = value
            broken = tmp_path / f"{key}.json"
            broken.write_text(json.dumps(document))
            with pytest.raises(ParseError, match="not an integer"):
                load_model(str(broken))

    def test_fewer_than_two_classes_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "format_version": FORMAT_VERSION, "method": "gld",
            "n_classes": 1, "class_names": ["only"], "pairs": []}))
        with pytest.raises(ParseError, match="malformed model file"):
            load_model(str(path))

    def test_class_names_must_be_strings(self, tmp_path):
        model, _ = trained_model(seed=11, k=2)
        path = str(tmp_path / "model.json")
        save_model(path, model, "lda")
        for names in ([1, 2], "ab", 0):
            document = json.loads(Path(path).read_text())
            document["class_names"] = names
            broken = tmp_path / "names.json"
            broken.write_text(json.dumps(document))
            with pytest.raises(ParseError, match="malformed model file"):
                load_model(str(broken))

    def test_class_names_must_be_distinct(self, tmp_path):
        model, _ = trained_model(seed=11, k=2)
        path = tmp_path / "model.json"
        save_model(str(path), model, "lda")
        document = json.loads(path.read_text())
        document["class_names"] = ["a", "a"]
        path.write_text(json.dumps(document))
        with pytest.raises(ParseError, match="not distinct"):
            load_model(str(path))

    def test_weight_lengths_must_agree(self, tmp_path):
        model, _ = trained_model(seed=9, k=3)
        path = str(tmp_path / "model.json")
        save_model(path, model, "lda")
        document = json.loads(Path(path).read_text())
        document["pairs"][1]["w"] = document["pairs"][1]["w"][:2]
        Path(path).write_text(json.dumps(document))
        with pytest.raises(ParseError, match="different lengths"):
            load_model(path)

    def test_rule_numbers_must_be_json_numbers(self, tmp_path):
        # float() and np.array(..., dtype=float) would take the first six;
        # the last is a JSON integer beyond the float range
        model, _ = trained_model(seed=10, k=2)
        path = str(tmp_path / "model.json")
        save_model(path, model, "lda")
        broken = tmp_path / "broken.json"
        for key, value in (("w", [True, False]), ("w", ["1", "2"]),
                           ("w0", True), ("w0", "1.5"),
                           ("p_e", False), ("p_e", "0.1"),
                           ("w0", 10 ** 400)):
            document = json.loads(Path(path).read_text())
            document["pairs"][0][key] = value
            broken.write_text(json.dumps(document))
            with pytest.raises(ParseError, match="malformed model file"):
                load_model(str(broken))


class TestDatasetHash:
    def test_shape_and_stability(self):
        _, data = trained_model(seed=6, k=2)
        digest = dataset_hash(data)
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")
        assert dataset_hash(data) == digest
        # a fixed dataset's digest, so stored dataset_sha256 values stay
        # comparable across versions
        fixed = LabeledDataset([[0.0, 1.5], [2.0, -3.0], [4.0, 0.25]],
                               [0, 1, 1])
        assert dataset_hash(fixed) == (
            "a860763d5bf75219bc51f2ea84b873361a7a8113072db363e8d30e238e5a41a0")

    def test_hashes_the_arrays_in_place(self):
        features = np.random.default_rng(8).normal(0, 1, (100_000, 8))
        data = LabeledDataset(features, np.arange(100_000) % 3)
        tracemalloc.start()
        try:
            dataset_hash(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < data.features.nbytes / 10

    def test_sensitive_to_any_change(self):
        _, data = trained_model(seed=7, k=2)
        digest = dataset_hash(data)
        bumped = LabeledDataset(data.features + 1e-9, data.labels)
        relabeled = LabeledDataset(data.features, 1 - data.labels)
        assert dataset_hash(bumped) != digest
        assert dataset_hash(relabeled) != digest
