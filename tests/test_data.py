import csv
import itertools
import math
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hetlda.data
import hetlda.methods
from hetlda import (CSV_HEADER, METHOD_NAMES, CvPlan, DegenerateProjection,
                    InconsistentWidth, InfeasibleStratification,
                    LabeledDataset, ParseError, accuracy_score, d1_population,
                    d2_population, default_workers, generate_d1, generate_d2,
                    kfold_split, load_csv, load_matrix_csv, make_trainer,
                    predict_ovo_batch, run_benchmark, save_csv, train_ovo)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def two_blob_data(n=100, seed=0):
    rng = np.random.default_rng(seed)
    features = np.vstack([rng.normal(0, 1, (n // 2, 2)),
                          rng.normal(3, 1, (n // 2, 2))])
    labels = np.repeat([0, 1], n // 2)
    return LabeledDataset(features, labels)


def three_class_data(n_per_class=40, seed=0):
    # overlapping gamma classes, d=3
    rng = np.random.default_rng(seed)
    shapes = ((1.5, 3.0, 2.0), (3.0, 1.5, 3.5), (2.2, 2.2, 1.5))
    features = np.vstack([rng.gamma(shape, 1.0, (n_per_class, 3))
                          for shape in shapes])
    labels = np.repeat([0, 1, 2], n_per_class)
    order = rng.permutation(labels.size)  # classes interleaved
    return LabeledDataset(features[order], labels[order])


def standardized(train_features, test_features):
    # the scaling run_benchmark fits on a training fold, written out
    mean = train_features.mean(axis=0)
    std = train_features.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return (train_features - mean) / std, (test_features - mean) / std


class TestLoadCsv:
    def test_string_labels_mapped_in_first_appearance_order(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,A\n3.0,4.0,B\n")
        data = load_csv(path, label_column=2)
        assert data.n_samples == 2 and data.n_features == 2
        assert data.labels.tolist() == [0, 1]
        assert data.class_names == ("A", "B")
        assert_allclose(data.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write(tmp_path, ""))

    def test_header_only_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write(tmp_path, "a,b,label\n"), has_header=True)

    def test_non_finite_feature_located(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,0\n3.0,NaN,1\n")
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert info.value.row == 2 and info.value.column == 2

    def test_unparseable_feature_located(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1.0,oops,0\n")
        with pytest.raises(ParseError) as info:
            load_csv(path, has_header=True)
        assert info.value.row == 2 and info.value.column == 2

    def test_cell_past_the_csv_field_limit_located(self, tmp_path):
        # the csv module refuses cells over 131072 characters
        path = write(tmp_path, "1.0,0\n" + "1" * 200_000 + ",1\n3.0,1\n")
        for load in (load_csv, load_matrix_csv):
            with pytest.raises(ParseError, match="field limit") as info:
                load(path)
            assert info.value.row == 2

    def test_locations_count_blank_lines(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,0\n\n3.0,x,1\n")
        for load in (load_csv, load_matrix_csv):
            with pytest.raises(ParseError) as info:
                load(path)
            assert info.value.row == 3 and info.value.column == 2
        path = write(tmp_path, "a,b,label\n\n1.0,2.0,0\n\n3.0,1\n")
        for load in (load_csv, load_matrix_csv):
            with pytest.raises(InconsistentWidth) as info:
                load(path, has_header=True)
            assert info.value.row == 5
        path = write(tmp_path, "\na,b,label\n\n\n1.0,2.0,0\n\n3.0,x,1\n")
        for load in (load_csv, load_matrix_csv):
            with pytest.raises(ParseError) as info:
                load(path, has_header=True)
            assert info.value.row == 7 and info.value.column == 2

    def test_first_fault_in_file_order_is_reported(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,0\n3.0,x,1\n5.0,6.0,0\n7.0,1\n")
        for load in (load_csv, load_matrix_csv):
            with pytest.raises(ParseError) as info:
                load(path)
            assert not isinstance(info.value, InconsistentWidth)
            assert info.value.row == 2 and info.value.column == 2

    def test_peak_memory_is_a_small_multiple_of_the_result(self, tmp_path):
        rng = np.random.default_rng(0)
        data = LabeledDataset(rng.normal(size=(20000, 8)),
                              rng.integers(0, 3, 20000))
        labeled = str(tmp_path / "labeled.csv")
        save_csv(data, labeled)
        bare = str(tmp_path / "bare.csv")
        np.savetxt(bare, data.features, fmt="%.17g", delimiter=",")
        for load, path in ((lambda p: load_csv(p).features, labeled),
                           (load_matrix_csv, bare)):
            tracemalloc.start()
            try:
                features = load(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(features, data.features)
            assert peak <= 4 * features.nbytes

    def test_ragged_rows(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,0\n3.0,1\n")
        with pytest.raises(InconsistentWidth) as info:
            load_csv(path)
        assert info.value.row == 2

    def test_dense_integer_labels_kept(self, tmp_path):
        path = write(tmp_path, "0.5,1\n0.6,0\n0.7,1\n")
        data = load_csv(path)
        assert data.labels.tolist() == [1, 0, 1]
        assert data.class_names == ("0", "1")

    def test_sparse_integer_labels_remapped(self, tmp_path):
        path = write(tmp_path, "0.5,5\n0.6,7\n0.7,5\n")
        data = load_csv(path)
        assert data.labels.tolist() == [0, 1, 0]
        assert data.class_names == ("5", "7")

    def test_distinct_label_texts_stay_distinct_classes(self, tmp_path):
        data = load_csv(write(tmp_path, "0.5,0\n0.6,1\n0.7,01\n0.8,1\n"))
        assert data.labels.tolist() == [0, 1, 2, 1]
        assert data.class_names == ("0", "1", "01")

    def test_non_canonical_integer_label_keeps_its_text(self, tmp_path):
        rows = [f"0.{k},{k}\n" for k in range(10)] + ["0.9,1_0\n"]
        data = load_csv(write(tmp_path, "".join(rows)))
        assert data.labels.tolist() == list(range(11))
        assert data.class_names[10] == "1_0"

    def test_label_column_positions(self, tmp_path):
        path = write(tmp_path, "A,1.0,2.0\nB,3.0,4.0\n")
        data = load_csv(path, label_column=0)
        assert data.class_names == ("A", "B")
        assert_allclose(data.features, [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ParseError):
            load_csv(path, label_column=3)

    def test_single_column_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write(tmp_path, "1\n2\n"))

    def test_header_skipped(self, tmp_path):
        path = write(tmp_path, "f1,f2,label\n1.0,2.0,A\n3.0,4.0,B\n")
        data = load_csv(path, has_header=True)
        assert data.n_samples == 2

    def test_matrix_loader(self, tmp_path):
        path = write(tmp_path, "1.0,2.0\n3.0,4.0\n")
        assert_allclose(load_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])


# Files on which a naive np.loadtxt reading disagrees with the csv loop,
# plus plain files that the numpy path must read to the same result.
CSV_TRAPS = {
    "wider_row": "1.0,0\n2.0,1,\n",
    "header_after_blank_line": "\n1,2,3\n4,5,6\n",
    "nul_in_label": "1.0,A\x00\n2.0,B\n",
    "padded_labels": "1.0, B \n2.0,A\n",
    "underscore_cell": "1_0,0\n2.0,1\n",
    "arabic_digit_cell": "\u0661\u0662,0\n2.0,1\n",
    "quoted_label_with_comma": '1.0,"a,b"\n2.0,c\n',
    "quoted_labels": '1.0,"A"\n2.0,B\n',
    "quoted_label_with_newline": '1.0,"A\nB"\n2.0,C\n',
    "quoted_header": '"f0","f 1","label"\r\n1.5,2,0\r\n3,4,1\r\n',
    "quoted_header_running_on": '"f0,label\n1.0,0"\n2.0,1\n3.0,0\n',
    "whitespace_line": "1.5\n  \n2.5\n",
    "cr_line_endings": "1.0,0\r2.0,1\r",
    "cell_past_field_limit": "1.0,0\n" + "1" * 200_000 + ",1\n",
    "nan_cell": "1.0,0\nnan,1\n",
    "inf_cell": "1.0,0\n-inf,1\n",
    "empty_file": "",
    "header_only": "a,b\n",
    "plain_crlf": "1.5,2,0\r\n-0.0,5e-324,1\r\n",
    "plain_blank_lines": "\nf,g,h\n\n 1.5 ,2,0\n\n3,4e8, 1\n\n",
    "plain_cr_blank_lines": "1.5,0\r\r2.5,1\r\r",
}


def load_outcome(load, path, **kwargs):
    """The arrays and names a load returns, or its error's type, text,
    row and column."""
    try:
        result = load(path, **kwargs)
    except (ParseError, ValueError) as exc:
        return (type(exc), str(exc), getattr(exc, "row", None),
                getattr(exc, "column", None))
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape, result.tobytes()
    return (result.features.dtype, result.features.shape,
            result.features.tobytes(), result.labels.tolist(),
            result.class_names)


class TestNumpyPath:
    LOADS = ((load_matrix_csv, {}), (load_csv, {"label_column": -1}),
             (load_csv, {"label_column": 0}))

    @pytest.mark.parametrize("has_header", [False, True])
    @pytest.mark.parametrize("text", CSV_TRAPS.values(), ids=CSV_TRAPS.keys())
    def test_agrees_with_the_csv_loop(self, tmp_path, monkeypatch, text,
                                      has_header):
        path = write(tmp_path, text)
        both = [load_outcome(load, path, has_header=has_header, **kwargs)
                for load, kwargs in self.LOADS]
        monkeypatch.setattr(hetlda.data, "_read_plain", lambda *args: None)
        loop = [load_outcome(load, path, has_header=has_header, **kwargs)
                for load, kwargs in self.LOADS]
        assert both == loop

    @pytest.mark.parametrize("name, has_header", [
        ("plain_crlf", False), ("plain_blank_lines", True),
        ("plain_cr_blank_lines", False)])
    def test_answers_for_plain_files(self, tmp_path, name, has_header):
        path = write(tmp_path, CSV_TRAPS[name])
        for _load, kwargs in self.LOADS:
            column = kwargs.get("label_column")
            assert hetlda.data._read_plain(path, has_header, column) \
                is not None

    def test_undecodable_byte_past_the_fault(self, tmp_path, monkeypatch):
        # The pre-pass decodes the whole file and gives up at the byte that
        # is not UTF-8, beyond the first 8 KB; the csv loop decodes as it
        # reads, so it reports row 2's bad feature, whichever column holds
        # the label, before reaching that byte.
        path = tmp_path / "data.csv"
        path.write_bytes(b"1.0,0\noops,oops\n" + b"2.0,0\n" * 2000
                         + b"\xff,1\n")
        assert hetlda.data._read_plain(str(path), False, -1) is None
        for plain in (True, False):
            if not plain:
                monkeypatch.setattr(hetlda.data, "_read_plain",
                                    lambda *args: None)
            for load, kwargs in self.LOADS:
                with pytest.raises(ParseError) as info:
                    load(str(path), **kwargs)
                assert info.value.row == 2

    @pytest.mark.parametrize("name", [
        "wider_row", "nul_in_label", "underscore_cell", "arabic_digit_cell",
        "quoted_label_with_comma", "quoted_labels",
        "quoted_label_with_newline", "cell_past_field_limit", "nan_cell",
        "inf_cell", "empty_file", "header_only", "quoted_header",
        "quoted_header_running_on"])
    def test_leaves_these_traps_to_the_csv_loop(self, tmp_path, name):
        path = write(tmp_path, CSV_TRAPS[name])
        # a quote refuses a file even on its header line
        has_header = name in ("header_only", "quoted_header",
                              "quoted_header_running_on")
        for column in (None, -1):
            assert hetlda.data._read_plain(path, has_header, column) is None


def reference_save_csv(data, path):
    # The csv.writer loop that save_csv's block formatting must match
    # byte for byte.
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        for x, label in zip(data.features, data.labels):
            writer.writerow([f"{v:.17g}" for v in x] + [int(label)])


class TestSaveCsv:
    def test_bytes_match_the_csv_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(2500, 3)) * 10.0 ** rng.uniform(
            -300, 300, size=(2500, 3))
        features[:6] = [[-0.0, 0.0, 5e-324], [-5e-324, 1.7976931348623157e308,
                        -1.7976931348623157e308], [1.0, -2.0, 3e15],
                        [2.0**53, 1e16, 123456789.0], [0.1, 1 / 3, 2 / 3],
                        [1e-5, 1e-4, 1e17]]
        labels = rng.integers(0, 13, 2500)
        labels[:3] = [10, 12, 0]
        data = LabeledDataset(features, labels)
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        save_csv(data, str(ours))
        reference_save_csv(data, str(ref))
        assert ours.read_bytes() == ref.read_bytes()

    def test_peak_memory_stays_far_below_the_matrix_as_floats(self,
                                                              tmp_path):
        # .tolist() on the whole matrix alone would hold 160 000 floats
        rng = np.random.default_rng(0)
        data = LabeledDataset(rng.normal(size=(20000, 8)),
                              rng.integers(0, 3, 20000))
        whole = data.features.size * sys.getsizeof(1.0)
        tracemalloc.start()
        try:
            save_csv(data, str(tmp_path / "out.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole / 4

    def test_round_trip_is_exact(self, tmp_path):
        data = generate_d2(seed=3).subset(np.arange(0, 6000, 100))
        path = str(tmp_path / "out.csv")
        save_csv(data, path)
        back = load_csv(path)
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.labels, data.labels)


class TestGenerators:
    def test_d1_shape_and_counts(self):
        data = generate_d1(seed=0)
        assert data.n_samples == 3000 and data.n_features == 8
        assert data.class_indices(0).size == 1000
        assert data.class_indices(1).size == 2000

    def test_d2_shape_and_counts(self):
        data = generate_d2(seed=0)
        assert data.n_samples == 6000 and data.n_features == 4
        assert data.class_indices(0).size == 2000
        assert data.class_indices(1).size == 4000

    def test_d1_first_class_mean(self):
        data = generate_d1(seed=11)
        sample_mean = data.features[data.class_indices(0)].mean(axis=0)
        target = d1_population()[0].mean
        assert np.all(np.abs(sample_mean - target) <= 3 / math.sqrt(1000))

    def test_d2_second_class_covariance_diagonal(self):
        data = generate_d2(seed=12)
        block = data.features[data.class_indices(1)]
        diag = np.var(block, axis=0)
        target = np.array([0.25, 0.75, 1.25, 1.75])
        assert np.all(np.abs(diag - target) <= 0.1 * target)

    def test_same_seed_bit_identical(self):
        a, b = generate_d1(seed=5), generate_d1(seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a, b = generate_d2(seed=5), generate_d2(seed=6)
        assert not np.array_equal(a.features, b.features)


class TestPopulations:
    def test_d1_parameters(self):
        s1, s2, priors = d1_population()
        assert_allclose(s2.mean,
                        [3.86, 3.10, 0.84, 0.84, 1.64, 1.08, 0.26, 0.01])
        assert_allclose(s1.mean, s2.mean - 0.3)
        assert np.array_equal(s1.cov, np.eye(8))
        assert_allclose(np.diag(s2.cov),
                        [8.41, 12.06, 0.12, 0.22, 1.49, 1.77, 0.35, 2.73])
        assert_allclose(priors.tau, 2.0)
        assert_allclose(priors.pi1, 1 / 3)

    def test_d2_parameters(self):
        s1, s2, priors = d2_population()
        assert_allclose(s2.mean, [-1.5, -0.75, 0.75, 1.5])
        assert_allclose(s1.mean, s2.mean - 0.75)
        assert np.array_equal(s1.cov, np.eye(4))
        assert_allclose(priors.tau, 2.0)


class TestCvPlan:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CvPlan(folds=1)
        with pytest.raises(ValueError):
            CvPlan(trials=0)
        with pytest.raises(ValueError):
            CvPlan(seed=-1)

    @pytest.mark.parametrize("field", ["folds", "trials", "seed"])
    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} .* not an integer"):
            CvPlan(**{field: value})

    @pytest.mark.parametrize("field", ["folds", "trials", "seed"])
    def test_numpy_integer_counts_accepted(self, field):
        assert getattr(CvPlan(**{field: np.int64(3)}), field) == 3


class TestKfoldSplit:
    def test_partition_properties(self):
        data = two_blob_data(n=57 * 2)
        plan = CvPlan(folds=7, trials=3, seed=4)
        for trial in kfold_split(data, plan):
            seen = np.concatenate([test for _train, test in trial])
            assert np.array_equal(np.sort(seen), np.arange(data.n_samples))
            for train, test in trial:
                assert np.intersect1d(train, test).size == 0
                assert train.size + test.size == data.n_samples

    def test_stratified_ratio(self):
        labels = np.repeat([0, 1], [30, 70])
        data = LabeledDataset(np.arange(100.0)[:, None], labels)
        splits = kfold_split(data, CvPlan(folds=10, trials=2))
        for trial in splits:
            for _train, test in trial:
                assert np.sum(labels[test] == 0) == 3
                assert np.sum(labels[test] == 1) == 7

    def test_infeasible_stratification(self):
        labels = np.repeat([0, 1], [5, 35])
        data = LabeledDataset(np.arange(40.0)[:, None], labels)
        with pytest.raises(InfeasibleStratification):
            kfold_split(data, CvPlan(folds=10, trials=1))

    def test_too_few_samples(self):
        data = LabeledDataset(np.arange(4.0)[:, None], np.array([0, 0, 1, 1]))
        with pytest.raises(ValueError):
            kfold_split(data, CvPlan(folds=5, trials=1))

    def test_deterministic_given_plan(self):
        data = two_blob_data()
        plan = CvPlan(folds=5, trials=2, seed=9)
        first = kfold_split(data, plan)
        second = kfold_split(data, plan)
        for a_trial, b_trial in zip(first, second):
            for (a_tr, a_te), (b_tr, b_te) in zip(a_trial, b_trial):
                assert np.array_equal(a_tr, b_tr)
                assert np.array_equal(a_te, b_te)
        shifted = kfold_split(data, CvPlan(folds=5, trials=2, seed=10))
        assert not all(
            np.array_equal(a[0][1], b[0][1]) for a, b in zip(first, shifted))


class TestAccuracyScore:
    def test_hand_count(self):
        predicted = [0, 1, 1, 0, 2, 2]
        actual = [0, 1, 0, 0, 2, 1]
        assert accuracy_score(predicted, actual) == pytest.approx(4 / 6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy_score([0, 1], [0, 1, 0])


class TestRunBenchmark:
    def test_report_shape_on_d1(self):
        data = generate_d1(seed=0)
        plan = CvPlan(folds=10, trials=1)
        report = run_benchmark(data, [("lda", make_trainer("lda"))], plan)
        assert len(report.methods) == 1
        row = report.methods[0]
        assert row.method == "lda" and len(row.per_fold) == 10
        assert 0.0 <= row.mean_bayes_error <= 1.0
        assert 0.0 <= row.accuracy <= 1.0

    def test_fixed_point_orders_below_pooled_on_d1(self):
        data = generate_d1(seed=0)
        plan = CvPlan(folds=10, trials=1)
        report = run_benchmark(
            data, [("lda", make_trainer("lda")), ("gld", make_trainer("gld"))],
            plan)
        by_name = {m.method: m for m in report.methods}
        assert (by_name["gld"].mean_bayes_error
                <= by_name["lda"].mean_bayes_error)

    def test_deterministic_apart_from_timing(self):
        data = two_blob_data(n=80, seed=2)
        plan = CvPlan(folds=4, trials=2, seed=7)
        methods = [("lda", make_trainer("lda")), ("gld", make_trainer("gld"))]
        first = run_benchmark(data, methods, plan).methods
        second = run_benchmark(data, methods, plan).methods
        for a, b in zip(first, second, strict=True):
            assert a.mean_bayes_error == b.mean_bayes_error
            assert a.bayes_error_std == b.bayes_error_std
            assert a.accuracy == b.accuracy
            assert a.accuracy_std == b.accuracy_std
            for ra, rb in zip(a.per_fold, b.per_fold):
                assert ra.bayes_error == rb.bayes_error
                assert ra.accuracy == rb.accuracy

    def test_cells_run_one_at_a_time(self):
        lock = threading.Lock()
        running = peak = 0
        lda = make_trainer("lda")

        def counting(data, class_a, class_b):
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
            time.sleep(0.002)
            with lock:
                running -= 1
            return lda(data, class_a, class_b)

        data = two_blob_data(n=40, seed=4)
        report = run_benchmark(data, [("lda", counting)],
                               CvPlan(folds=4, trials=2))
        assert report.methods[0].failures == 0
        assert peak == 1

    def test_failing_trainer_recorded_not_fatal(self):
        def broken(_data, _a, _b):
            raise DegenerateProjection("forced failure")

        data = two_blob_data(n=40, seed=3)
        plan = CvPlan(folds=4, trials=1)
        report = run_benchmark(
            data, [("lda", make_trainer("lda")), ("broken", broken)], plan)
        good, bad = report.methods
        assert good.failures == 0
        assert bad.failures == 4 and math.isnan(bad.mean_bayes_error)
        assert all(r.failure for r in bad.per_fold)
        assert "DegenerateProjection" in bad.per_fold[0].failure

    def test_no_methods_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark(two_blob_data(), [])

    def test_standardization_cancels_feature_scaling(self):
        base = two_blob_data(n=60, seed=4)
        # power-of-two scaling keeps the standardized features bit-equal
        scaled = LabeledDataset(base.features * 4.0, base.labels)
        plan = CvPlan(folds=3, trials=1, seed=1)
        methods = [("lda", make_trainer("lda"))]
        a = run_benchmark(base, methods, plan, standardize=True).methods[0]
        b = run_benchmark(scaled, methods, plan, standardize=True).methods[0]
        assert a.accuracy == b.accuracy
        assert a.mean_bayes_error == b.mean_bayes_error

    def test_serial_and_pooled_agree(self):
        # every cell of every method matches the same cell run by hand on
        # a training set built afresh, so a fold's later cells are checked
        # as well as its first
        cases = [(two_blob_data(n=60, seed=5), ["gld", "rhld1"]),
                 (three_class_data(seed=1), ["gld-lns", "lda"]),
                 (three_class_data(seed=2), ["lda", "gld"])]
        plan = CvPlan(folds=3, trials=2)
        for (data, names), standardize in itertools.product(cases,
                                                            [False, True]):
            methods = [(name, make_trainer(name)) for name in names]
            report = run_benchmark(data, methods, plan, standardize)
            for (name, trainer), pooled in zip(methods, report.methods,
                                               strict=True):
                serial = []
                for trial, splits in enumerate(kfold_split(data, plan)):
                    for fold, (train_idx, test_idx) in enumerate(splits):
                        train = data.subset(train_idx)
                        test_features = data.features[test_idx]
                        if standardize:
                            features, test_features = standardized(
                                train.features, test_features)
                            train = LabeledDataset(features, train.labels,
                                                   train.class_names)
                        model = train_ovo(train, trainer)
                        predicted = predict_ovo_batch(model, test_features)
                        serial.append((trial, fold, model.mean_p_e,
                                       accuracy_score(predicted,
                                                      data.labels[test_idx])))
                assert pooled.method == name and pooled.failures == 0
                assert [(r.trial, r.fold, r.bayes_error, r.accuracy)
                        for r in pooled.per_fold] == serial
                assert pooled.mean_bayes_error == np.mean(
                    [c[2] for c in serial])
                assert pooled.accuracy == np.mean([c[3] for c in serial])

    @pytest.mark.parametrize("standardize", [False, True])
    def test_each_class_moments_computed_once_per_fold(self, monkeypatch,
                                                       standardize):
        # a computed moment is a new array and a cached one the same
        # array, so distinct means count the computations
        means = []
        original = hetlda.methods.compute_class_stats

        def recording(data, class_a, class_b):
            stats1, stats2, priors = original(data, class_a, class_b)
            means.extend((stats1.mean, stats2.mean))
            return stats1, stats2, priors

        monkeypatch.setattr(hetlda.methods, "compute_class_stats", recording)
        data = three_class_data(seed=3)
        plan = CvPlan(folds=4, trials=2, seed=1)
        methods = [(name, make_trainer(name)) for name in METHOD_NAMES]
        report = run_benchmark(data, methods, plan, standardize)
        assert sum(m.failures for m in report.methods) == 0
        # every method trains 3 pairs in each of the 8 cells
        assert len(means) == len(METHOD_NAMES) * 8 * 3 * 2
        assert len({id(m) for m in means}) == 8 * 3

    def test_overflowing_class_fails_only_its_folds(self):
        # one class-2 row is 1e200: the folds that train on it overflow
        # that class's moments, and only those
        data = three_class_data(seed=4)
        features = data.features.copy()
        big = int(np.flatnonzero(data.labels == 2)[0])
        features[big] *= 1e200
        data = LabeledDataset(features, data.labels)
        plan = CvPlan(folds=4, trials=2, seed=2)
        names = ("lda", "gld", "gld-lns")
        report = run_benchmark(data, [(m, make_trainer(m)) for m in names],
                               plan)
        splits = kfold_split(data, plan)
        for row, name in zip(report.methods, names):
            trainer = make_trainer(name)
            assert row.failures == 2 * 3
            for r in row.per_fold:
                train_idx, test_idx = splits[r.trial][r.fold]
                if big in train_idx:
                    assert r.failure == ("DegenerateProjection: class 2 "
                                         "moments overflow: the mean or "
                                         "covariance is not finite")
                    continue
                model = train_ovo(data.subset(train_idx), trainer)
                predicted = predict_ovo_batch(model, data.features[test_idx])
                assert r.failure is None
                assert r.bayes_error == model.mean_p_e
                assert r.accuracy == accuracy_score(predicted,
                                                    data.labels[test_idx])

    def test_no_moment_cache_outlives_its_fold(self):
        # when a cell trains, every dataset an earlier cell trained on
        # is gone or holds the current fold's rows, and none is left
        # once the run returns
        seen = []
        stale = []
        lda = make_trainer("lda")

        def watching(train, class_a, class_b):
            rows = train.features.tobytes()
            stale.extend(d for d in (ref() for ref in seen)
                         if d is not None and d.features.tobytes() != rows)
            seen.append(weakref.ref(train))
            return lda(train, class_a, class_b)

        data = two_blob_data(n=60, seed=7)
        run_benchmark(data, [("a", watching), ("b", watching)],
                      CvPlan(folds=3, trials=2))
        assert len(seen) == 12 and stale == []
        assert all(ref() is None for ref in seen)
        assert data._moments == {}

    def test_standardizing_an_overflowing_spread_fails_its_cells(self):
        # the spread of a 1e200-scaled feature overflows; it must not be
        # divided away to zeros (pytest turns numpy's warning into an error)
        data = two_blob_data(n=40, seed=8)
        features = data.features.copy()
        features[:, 1] *= 1e200
        data = LabeledDataset(features, data.labels)
        plan = CvPlan(folds=4, trials=1)
        report = run_benchmark(
            data, [("lda", make_trainer("lda")), ("gld", make_trainer("gld"))],
            plan, standardize=True)
        for row in report.methods:
            assert row.failures == 4 and math.isnan(row.mean_bayes_error)
            assert {r.failure for r in row.per_fold} == {
                "DegenerateProjection: feature 2 cannot be standardized: "
                "its mean or spread on the training fold is not finite"}


class TestReportFormats:
    def test_csv_header_and_rows(self):
        data = two_blob_data(n=40, seed=6)
        plan = CvPlan(folds=4, trials=1)
        report = run_benchmark(data, [("lda", make_trainer("lda"))], plan)
        lines = report.to_csv().splitlines()
        assert lines[0] == ("method,bayes_error_mean,bayes_error_std,"
                            "accuracy_mean,accuracy_std,train_time_mean")
        assert lines[0] == CSV_HEADER
        cells = lines[1].split(",")
        assert cells[0] == "lda" and len(cells) == 6
        assert float(cells[1]) == report.methods[0].mean_bayes_error

    @pytest.mark.parametrize("name", ["lda, shrunk", '"lda" "2"', "lda\nv2",
                                      "a,\"b\"\r\nc"])
    def test_csv_method_name_reads_back_as_one_cell(self, name):
        data = two_blob_data(n=40, seed=6)
        report = run_benchmark(data, [(name, make_trainer("lda"))],
                               CvPlan(folds=4, trials=1))
        rows = list(csv.reader(report.to_csv().splitlines(keepends=True)))
        assert len(rows) == 2 and len(rows[1]) == 6
        assert rows[1][0] == name
        assert float(rows[1][1]) == report.methods[0].mean_bayes_error

    def test_text_report_marks_failed_cells(self):
        data = two_blob_data(n=40, seed=6)
        plan = CvPlan(folds=4, trials=2)
        lda = make_trainer("lda")

        def fails_with_row_zero(train, a, b):
            if np.any(np.all(train.features == data.features[0], axis=1)):
                raise DegenerateProjection("forced failure")
            return lda(train, a, b)

        report = run_benchmark(data, [("flaky", fails_with_row_zero)], plan)
        row = report.methods[0]
        reference = run_benchmark(data, [("lda", lda)], plan).methods[0]
        # row 0 trains in 3 of 4 folds of each trial
        assert row.failures == 6
        kept = [(r, ref) for r, ref in zip(row.per_fold, reference.per_fold)
                if r.failure is None]
        assert len(kept) == 2
        for r, ref in kept:
            assert (r.trial, r.fold) == (ref.trial, ref.fold)
            assert r.bayes_error == ref.bayes_error
            assert r.accuracy == ref.accuracy
        bayes = np.array([r.bayes_error for r, _ in kept])
        acc = np.array([r.accuracy for r, _ in kept])
        assert row.mean_bayes_error == float(bayes.mean())
        assert row.bayes_error_std == float(bayes.std())
        assert row.accuracy == float(acc.mean())
        assert row.accuracy_std == float(acc.std())
        line = report.to_text().splitlines()[2]
        assert line.startswith("flaky ")
        assert line.endswith("  [6 failed cells]")
        assert f"{bayes.mean():.4f} ± {bayes.std():.4f}" in line
        assert f"{acc.mean():.4f} ± {acc.std():.4f}" in line

    def test_text_report_mentions_protocol(self):
        data = two_blob_data(n=40, seed=6)
        report = run_benchmark(data, [("lda", make_trainer("lda"))],
                               CvPlan(folds=4, trials=1))
        text = report.to_text()
        assert "training fold" in text
        assert "gld-lns, the training misclassification rate" in text
        assert "lda" in text and "±" in text


class TestDefaultWorkers:
    def test_threads_variable_has_no_effect(self, monkeypatch):
        for value in ("3", "0"):
            monkeypatch.setenv("HETLDA_THREADS", value)
            assert default_workers() == 1

    def test_unset_env(self, monkeypatch):
        monkeypatch.delenv("HETLDA_THREADS", raising=False)
        assert default_workers() >= 1
