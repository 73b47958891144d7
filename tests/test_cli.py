import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hetlda import (CSV_HEADER, CvPlan, GldConfig, LabeledDataset, LnsConfig,
                    OvoModel, SweepConfig, cli, load_csv, load_model,
                    make_trainer, predict_ovo_batch, save_csv, save_model,
                    train_ovo)
from hetlda.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def small_csv(tmp_path, n_per_class=20, seed=0, name="train.csv"):
    rng = np.random.default_rng(seed)
    features = np.vstack([rng.normal(0, 1, (n_per_class, 2)),
                          rng.normal(3.5, 1.5, (n_per_class, 2))])
    labels = np.repeat([0, 1], n_per_class)
    path = str(tmp_path / name)
    save_csv(LabeledDataset(features, labels), path)
    return path


def three_class_csv(tmp_path):
    rng = np.random.default_rng(1)
    lines = []
    for name, center in (("ash", (0, 0)), ("birch", (7, 0)),
                         ("cedar", (0, 7))):
        for _ in range(8):
            x = rng.normal(0, 1, 2) + center
            lines.append(f"{x[0]},{x[1]},{name}")
    path = tmp_path / "trees.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestGenerate:
    def test_writes_d1(self, tmp_path, capsys):
        out = str(tmp_path / "d1.csv")
        code, stdout, _ = run(capsys, "generate", "d1", "--seed", "7",
                              "--out", out)
        assert code == 0
        assert "n=3000" in stdout and "d=8" in stdout
        assert "[1000, 2000]" in stdout
        assert len(Path(out).read_text().splitlines()) == 3000

    def test_repeatable(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run(capsys, "generate", "d2", "--seed", "3", "--out", a)
        run(capsys, "generate", "d2", "--seed", "3", "--out", b)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_unwritable_path(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "generate", "d1", "--out",
                              str(tmp_path / "missing" / "d1.csv"))
        assert code == 1
        assert "error:" in stderr

    def test_module_entry_point(self, tmp_path):
        # python -m hetlda is how the benchmark starts the CLI as a child
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        out = tmp_path / "d2.csv"
        done = subprocess.run(
            [sys.executable, "-m", "hetlda", "generate", "d2", "--seed", "1",
             "--out", str(out)], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert len(out.read_text().splitlines()) == 6000

    def test_cli_module_entry_point(self, tmp_path):
        # python -m hetlda.cli, as the README documents it
        out = tmp_path / "d1.csv"
        done = module_run("generate", "d1", "--seed", "1", "--out", str(out),
                          module="hetlda.cli")
        assert done.returncode == 0, done.stderr
        assert len(out.read_text().splitlines()) > 1


def module_run(*argv, module="hetlda"):
    # python -m hetlda (or another module) in a child process, so that
    # stderr shows anything the program or numpy would print there
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True)


class TestTrain:
    @pytest.mark.parametrize("text, header", [("", []),
                                              ("a,b,label\n", ["--header"])],
                             ids=["empty", "header_only"])
    def test_file_without_rows_gives_one_error_line(self, tmp_path, text,
                                                    header):
        data = tmp_path / "rows.csv"
        data.write_text(text)
        done = module_run("train", "gld", str(data), "--label-col", "-1",
                          *header, "--out", str(tmp_path / "m.json"))
        assert done.returncode == 1
        assert done.stderr == "error: no data rows\n"

    def test_binary_model(self, tmp_path, capsys):
        data = small_csv(tmp_path)
        out = str(tmp_path / "model.json")
        code, stdout, _ = run(capsys, "train", "gld", data,
                              "--label-col", "2", "--out", out)
        assert code == 0
        assert "pair (0, 1): p_e=" in stdout
        assert "trained gld" in stdout
        model, method, metadata = load_model(out)
        assert method == "gld" and len(model.pairs) == 1
        assert len(metadata["dataset_sha256"]) == 64
        assert metadata["config"]["max_iters"] == 20

    def test_three_class_string_labels(self, tmp_path, capsys):
        data = three_class_csv(tmp_path)
        out = str(tmp_path / "model.json")
        code, stdout, _ = run(capsys, "train", "lda", data,
                              "--label-col", "2", "--out", out)
        assert code == 0
        model, _, _ = load_model(out)
        assert len(model.pairs) == 3
        assert model.class_names == ("ash", "birch", "cedar")

    def test_every_method_trains(self, tmp_path, capsys):
        data = small_csv(tmp_path)
        for method in ("lda", "chld", "rhld1", "rhld2", "gld", "gld-lns"):
            out = str(tmp_path / f"{method}.json")
            code, _, _ = run(capsys, "train", method, data,
                             "--label-col", "2", "--out", out,
                             "--trials", "50", "--lns-iters", "50",
                             "--lns-early-stop", "10")
            assert code == 0, method

    def test_lns_early_stop_defaults_to_its_config_field(self, tmp_path,
                                                         capsys):
        data = small_csv(tmp_path)
        out = str(tmp_path / "m.json")
        for argv, used in ((["--lns-iters", "50"], LnsConfig.early_stop),
                           (["--lns-iters", "500"], LnsConfig.early_stop),
                           (["--lns-iters", "50", "--lns-early-stop", "7"],
                            7)):
            code, _, _ = run(capsys, "train", "gld-lns", data,
                             "--label-col", "-1", "--out", out, *argv)
            assert code == 0, argv
            _model, _method, metadata = load_model(out)
            assert metadata["config"]["lns_early_stop"] == used, argv
        code, _, stderr = run(capsys, "train", "gld-lns", data,
                              "--label-col", "-1", "--out", out,
                              "--lns-iters", "50", "--lns-early-stop", "0")
        assert code == 2 and "early_stop must be at least 1" in stderr

    def test_early_stop_at_or_above_the_sweep_budget_changes_no_pair(
            self, tmp_path, capsys):
        data = three_class_csv(tmp_path)
        documents = []
        for extra in ([], ["--lns-early-stop", "50"],
                      ["--lns-early-stop", "200"]):
            out = str(tmp_path / f"m{len(documents)}.json")
            code, _, _ = run(capsys, "train", "gld-lns", data, "--label-col",
                             "-1", "--out", out, "--lns-iters", "50", *extra)
            assert code == 0, extra
            documents.append(json.loads(Path(out).read_text()))
        assert [d["metadata"]["config"].pop("lns_early_stop")
                for d in documents] == [LnsConfig.early_stop, 50, 200]
        assert documents[0] == documents[1] == documents[2]
        assert len(documents[0]["pairs"]) == 3

    def test_help_prints_every_trainer_default(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["train", "--help"])
        assert info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert ("sweeps without improvement before stopping (default "
                f"{LnsConfig.early_stop})") in text

    def test_missing_required_flag_is_usage_error(self, tmp_path, capsys):
        data = small_csv(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["train", "gld", data, "--out", str(tmp_path / "m.json")])
        assert info.value.code == 2

    def test_unknown_method_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["train", "qda", "x.csv", "--label-col", "2",
                  "--out", "m.json"])
        assert info.value.code == 2

    def test_bad_flag_value_exits_two(self, tmp_path, capsys):
        data = small_csv(tmp_path)
        code, _, stderr = run(capsys, "train", "chld", data,
                              "--label-col", "2", "--step", "0",
                              "--out", str(tmp_path / "m.json"))
        assert code == 2 and "error:" in stderr

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        data = small_csv(tmp_path)
        code, _, stderr = run(capsys, "train", "rhld1", data,
                              "--label-col", "2", "--seed", "-1",
                              "--out", str(tmp_path / "m.json"))
        assert code == 2 and "seed" in stderr

    def test_cell_past_the_csv_field_limit_exits_one(self, tmp_path, capsys):
        data = tmp_path / "long.csv"
        data.write_text("1.0,0\n" + "1" * 200_000 + ",1\n3.0,1\n")
        code, _, stderr = run(capsys, "train", "gld", str(data),
                              "--label-col", "1",
                              "--out", str(tmp_path / "m.json"))
        assert code == 1 and stderr.startswith("error:")
        assert "row 2" in stderr

    def test_features_too_large_to_square_exit_one(self, tmp_path, capfd):
        # the class covariances overflow; LAPACK used to get them and
        # print DLASCL complaints on standard output
        rng = np.random.default_rng(3)
        data = str(tmp_path / "huge.csv")
        save_csv(LabeledDataset(rng.normal(0, 1, (40, 3)) * 1e200,
                                np.repeat([0, 1], 20)), data)
        for method in ("lda", "chld", "gld"):
            code = main(["train", method, data, "--label-col", "3",
                         "--out", str(tmp_path / "m.json")])
            stdout, stderr = capfd.readouterr()
            assert code == 1 and stderr.startswith("error: class 0"), method
            assert "DLASCL" not in stdout and "Warning" not in stderr

    def test_missing_data_file_exits_one(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "train", "gld",
                              str(tmp_path / "absent.csv"),
                              "--label-col", "2",
                              "--out", str(tmp_path / "m.json"))
        assert code == 1 and "error:" in stderr


class TestPredict:
    def fitted(self, tmp_path, capsys, method="gld-lns"):
        data = small_csv(tmp_path)
        model_path = str(tmp_path / "model.json")
        run(capsys, "train", method, data, "--label-col", "2",
            "--out", model_path)
        return data, model_path

    def test_accuracy_on_training_file_matches_stored_rate(self, tmp_path,
                                                           capsys):
        data, model_path = self.fitted(tmp_path, capsys)
        out = str(tmp_path / "pred.txt")
        code, stdout, _ = run(capsys, "predict", model_path, data,
                              "--label-col", "2", "--out", out)
        assert code == 0
        printed = float(stdout.split("accuracy:")[1].strip())
        # the search stage stores the empirical training error rate
        stored = load_model(model_path)[0].pairs[0][3]
        assert printed == pytest.approx(1.0 - stored, abs=5e-5)
        assert len(Path(out).read_text().splitlines()) == 40

    def test_unlabeled_input_gives_no_accuracy_line(self, tmp_path, capsys):
        _, model_path = self.fitted(tmp_path, capsys)
        bare = tmp_path / "bare.csv"
        bare.write_text("0.1,0.2\n3.4,3.2\n")
        out = str(tmp_path / "pred.txt")
        code, stdout, _ = run(capsys, "predict", model_path, str(bare),
                              "--out", out)
        assert code == 0
        assert "accuracy" not in stdout
        assert len(Path(out).read_text().splitlines()) == 2

    def test_string_names_written(self, tmp_path, capsys):
        data = three_class_csv(tmp_path)
        model_path = str(tmp_path / "model.json")
        run(capsys, "train", "lda", data, "--label-col", "2",
            "--out", model_path)
        out = str(tmp_path / "pred.txt")
        code, _, _ = run(capsys, "predict", model_path, data,
                         "--label-col", "2", "--out", out)
        assert code == 0
        written = set(Path(out).read_text().split())
        assert written <= {"ash", "birch", "cedar"}

    def test_dimension_mismatch_exits_one(self, tmp_path, capsys):
        _, model_path = self.fitted(tmp_path, capsys, method="lda")
        wide = tmp_path / "wide.csv"
        wide.write_text("1.0,2.0,3.0\n")
        code, _, stderr = run(capsys, "predict", model_path, str(wide),
                              "--out", str(tmp_path / "p.txt"))
        assert code == 1 and "error:" in stderr

    def test_bad_model_file_exits_one(self, tmp_path, capsys):
        broken = tmp_path / "model.json"
        broken.write_text("{}")
        data = small_csv(tmp_path)
        code, _, _ = run(capsys, "predict", str(broken), data,
                         "--out", str(tmp_path / "p.txt"))
        assert code == 1

    def test_deeply_nested_model_file_exits_one(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code, stdout, stderr = run(capsys, "predict", str(deep),
                                   small_csv(tmp_path),
                                   "--out", str(tmp_path / "p.txt"))
        assert code == 1 and "not valid JSON" in stderr
        assert "predictions" not in stdout

    def test_non_finite_model_weight_exits_one(self, tmp_path, capsys):
        _, model_path = self.fitted(tmp_path, capsys, method="lda")
        document = json.loads(Path(model_path).read_text())
        document["pairs"][0]["w"][0] = float("nan")
        Path(model_path).write_text(json.dumps(document))
        data = small_csv(tmp_path)
        code, stdout, stderr = run(capsys, "predict", model_path, data,
                                   "--label-col", "2",
                                   "--out", str(tmp_path / "p.txt"))
        assert code == 1 and "non-finite" in stderr
        assert "predictions" not in stdout

    def test_malformed_model_shapes_exit_one(self, tmp_path, capsys):
        _, model_path = self.fitted(tmp_path, capsys, method="lda")
        document = json.loads(Path(model_path).read_text())
        document["pairs"][0]["class_a"] = 0.0
        float_index = tmp_path / "float_index.json"
        float_index.write_text(json.dumps(document))
        top_level_list = tmp_path / "list.json"
        top_level_list.write_text("[1, 2]")
        data = small_csv(tmp_path)
        for broken in (float_index, top_level_list):
            code, stdout, stderr = run(capsys, "predict", str(broken), data,
                                       "--out", str(tmp_path / "p.txt"))
            assert code == 1 and stderr.startswith("error: malformed")
            assert "predictions" not in stdout

    def test_malformed_weight_vectors_exit_one(self, tmp_path, capsys):
        _, model_path = self.fitted(tmp_path, capsys, method="lda")
        document = json.loads(Path(model_path).read_text())
        data = small_csv(tmp_path)
        broken = tmp_path / "w.json"
        for w in ([[1.0, 1.0]], []):
            document["pairs"][0]["w"] = w
            broken.write_text(json.dumps(document))
            code, stdout, stderr = run(capsys, "predict", str(broken), data,
                                       "--out", str(tmp_path / "p.txt"))
            assert code == 1 and stderr.startswith("error: malformed"), w
            assert "predictions" not in stdout

    def test_rule_numbers_that_are_not_numbers_exit_one(self, tmp_path,
                                                        capsys):
        _, model_path = self.fitted(tmp_path, capsys, method="lda")
        data = small_csv(tmp_path)
        broken = tmp_path / "numbers.json"
        for key, value in (("w", [True, False]), ("w0", "1.5"),
                           ("p_e", False)):
            document = json.loads(Path(model_path).read_text())
            document["pairs"][0][key] = value
            broken.write_text(json.dumps(document))
            code, stdout, stderr = run(capsys, "predict", str(broken), data,
                                       "--out", str(tmp_path / "p.txt"))
            assert code == 1 and stderr.startswith("error: malformed"), key
            assert "predictions" not in stdout

    def test_non_string_class_names_exit_one(self, tmp_path, capsys):
        _, model_path = self.fitted(tmp_path, capsys, method="lda")
        document = json.loads(Path(model_path).read_text())
        data = small_csv(tmp_path)
        broken = tmp_path / "names.json"
        for names in ([1, 2], "ab"):
            document["class_names"] = names
            broken.write_text(json.dumps(document))
            code, stdout, stderr = run(capsys, "predict", str(broken), data,
                                       "--out", str(tmp_path / "p.txt"))
            assert code == 1 and stderr.startswith("error: malformed"), names
            assert "predictions" not in stdout

    def test_fewer_than_two_classes_exit_one(self, tmp_path, capsys):
        data = small_csv(tmp_path)
        broken = tmp_path / "model.json"
        for k, names in ((1, ["only"]), (0, []), (-1, None)):
            broken.write_text(json.dumps({
                "format_version": 1, "method": "gld", "n_classes": k,
                "class_names": names, "pairs": []}))
            code, stdout, stderr = run(capsys, "predict", str(broken), data,
                                       "--out", str(tmp_path / "p.txt"))
            assert code == 1 and stderr.startswith("error: malformed"), k
            assert "predictions" not in stdout

    def test_model_without_names_is_scored_by_name(self, tmp_path, capsys):
        # The file's labels 0 and 2 load as dense indices 0 and 1 named
        # "0" and "2"; a model without class names writes and scores
        # index k as the name str(k), so only the "0" rows can match.
        rng = np.random.default_rng(2)
        rows = [f"{x:.17g},{y:.17g},{label}"
                for label, center in ((0, 0.0), (2, 9.0))
                for x, y in rng.normal(center, 1.0, (20, 2))]
        data = tmp_path / "sparse.csv"
        data.write_text("\n".join(rows) + "\n")
        model = train_ovo(load_csv(str(data), label_column=2),
                          make_trainer("lda"))
        model_path = str(tmp_path / "model.json")
        save_model(model_path, OvoModel(model.pairs, model.n_classes),
                   "lda")
        out = tmp_path / "pred.txt"
        code, stdout, _ = run(capsys, "predict", model_path, str(data),
                              "--label-col", "2", "--out", str(out))
        assert code == 0
        assert out.read_text().split() == ["0"] * 20 + ["1"] * 20
        assert "accuracy: 0.5000" in stdout

    def test_class_name_that_spans_lines_exits_one(self, tmp_path, capsys):
        # predictions are written one name per line, so a quoted label
        # holding a line break would shift every later prediction
        rng = np.random.default_rng(3)
        rows = [f"{x:.17g},{y:.17g},{label}"
                for label, center in (("x", 0.0), ('"a\nb"', 6.0))
                for x, y in rng.normal(center, 1.0, (3, 2))]
        data = tmp_path / "quoted.csv"
        data.write_text("\n".join(rows) + "\n")
        model_path = str(tmp_path / "model.json")
        code, _, _ = run(capsys, "train", "lda", str(data), "--label-col",
                         "2", "--out", model_path)
        assert code == 0
        assert load_model(model_path)[0].class_names == ("x", "a\nb")
        out = tmp_path / "pred.txt"
        code, _, err = run(capsys, "predict", model_path, str(data),
                           "--label-col", "2", "--out", str(out))
        assert code == 1
        assert "'a\\nb'" in err
        assert not out.exists()

    @pytest.mark.parametrize("name, written", [
        ("a\r", False), ("a\n", False), ("a\x1c", False),
        ("\u2028", False), ("", True), ("a b", True)])
    def test_only_names_that_split_are_refused(self, tmp_path, capsys, name,
                                               written):
        rng = np.random.default_rng(4)
        data = LabeledDataset(np.vstack([rng.normal(0, 1, (4, 2)),
                                         rng.normal(6, 1, (4, 2))]),
                              np.repeat([0, 1], 4), ("c", name))
        model_path = str(tmp_path / "model.json")
        save_model(model_path, train_ovo(data, make_trainer("lda")), "lda")
        rows = tmp_path / "rows.csv"
        rows.write_text("0,0\n6,6\n")
        out = tmp_path / "pred.txt"
        code, _, err = run(capsys, "predict", model_path, str(rows),
                           "--out", str(out))
        assert (code, out.exists()) == ((0, True) if written else (1, False))
        if written:
            assert out.read_text() == f"c\n{name}\n"
        else:
            assert repr(name) in err


class TestPredictOutput:
    def test_matches_a_row_by_row_writer_past_one_block(self, tmp_path,
                                                         capsys):
        rng = np.random.default_rng(4)
        names = np.array(["ash", "birch", "cedar"])
        labels = rng.integers(0, 3, 2500)
        features = rng.normal(0, 1, (2500, 2)) + 4.0 * labels[:, None]
        path = tmp_path / "trees.csv"
        path.write_text("".join(f"{x:.17g},{y:.17g},{names[k]}\n"
                                for (x, y), k in zip(features, labels)))
        model_path = str(tmp_path / "model.json")
        run(capsys, "train", "lda", str(path), "--label-col", "2",
            "--out", model_path)
        out = tmp_path / "pred.txt"
        code, stdout, _ = run(capsys, "predict", model_path, str(path),
                              "--label-col", "2", "--out", str(out))
        assert code == 0
        model = load_model(model_path)[0]
        data = load_csv(str(path), label_column=2)
        predicted = [model.class_names[p]
                     for p in predict_ovo_batch(model, data.features)]
        assert out.read_text() == "".join(name + "\n" for name in predicted)
        truth = [data.class_names[a] for a in data.labels]
        acc = float(np.mean([p == t for p, t in zip(predicted, truth)]))
        assert f"accuracy: {acc:.4f}\n" in stdout
        assert len(set(predicted)) == 3 and acc < 1.0


class TestBenchmark:
    def test_small_csv_smoke(self, tmp_path, capsys):
        path = tmp_path / "ten.csv"
        rows = ["0.1,0.2,0", "0.3,0.1,0", "0.2,0.4,0", "0.0,0.3,0",
                "0.4,0.0,0", "3.1,3.2,1", "3.3,3.1,1", "3.2,3.4,1",
                "3.0,3.3,1", "3.4,3.0,1"]
        path.write_text("\n".join(rows) + "\n")
        code, stdout, _ = run(capsys, "benchmark", str(path),
                              "--methods", "lda", "--folds", "2",
                              "--trials", "1")
        assert code == 0
        assert "lda" in stdout and "±" in stdout

    def test_csv_format_contract(self, tmp_path, capsys):
        data = small_csv(tmp_path, n_per_class=30)
        code, stdout, _ = run(capsys, "benchmark", data, "--methods",
                              "lda,gld", "--folds", "3", "--trials", "1",
                              "--format", "csv")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == CSV_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["lda", "gld"]

    def test_generated_dataset_ordering(self, tmp_path, capsys):
        out = str(tmp_path / "report.csv")
        code, stdout, _ = run(capsys, "benchmark", "d1", "--methods",
                              "lda,gld", "--folds", "10", "--trials", "1",
                              "--seed", "1", "--format", "csv",
                              "--out", out)
        assert code == 0 and "report written" in stdout
        rows = {line.split(",")[0]: line.split(",")
                for line in Path(out).read_text().splitlines()[1:]}
        assert float(rows["gld"][1]) <= float(rows["lda"][1])

    def test_every_config_field_has_a_flag(self, monkeypatch, capsys):
        given = {}
        build = cli._config

        def recording(kind, **fields):
            given[kind] = set(fields)
            return build(kind, **fields)

        monkeypatch.setattr(cli, "_config", recording)
        code, _, _ = run(capsys, "benchmark", "d2", "--methods", "lda",
                         "--folds", "2", "--trials", "1")
        assert code == 0
        assert set(given) == {GldConfig, SweepConfig, LnsConfig, CvPlan}
        for kind, names in given.items():
            assert names == {f.name for f in dataclasses.fields(kind)}, kind

    def test_lns_early_stop_defaults_to_its_config_field(
            self, tmp_path, monkeypatch, capsys):
        configs = []
        build = cli._config

        def recording(kind, **fields):
            configs.append(build(kind, **fields))
            return configs[-1]

        monkeypatch.setattr(cli, "_config", recording)
        data = small_csv(tmp_path, n_per_class=10)
        code, stdout, _ = run(capsys, "benchmark", data, "--methods",
                              "gld-lns", "--folds", "2", "--trials", "1",
                              "--lns-iters", "50")
        assert code == 0 and "gld-lns" in stdout
        lns = [c for c in configs if isinstance(c, LnsConfig)]
        assert lns == [LnsConfig(max_iters=50)]
        assert lns[0].early_stop == LnsConfig.early_stop
        code, _, stderr = run(capsys, "benchmark", data, "--methods",
                              "gld-lns", "--folds", "2", "--trials", "1",
                              "--lns-iters", "50", "--lns-early-stop", "0")
        assert code == 2 and "early_stop must be at least 1" in stderr

    def test_unknown_method_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["benchmark", "d1", "--methods", "lda,svm"])
        assert info.value.code == 2

    def test_empty_method_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["benchmark", "d1", "--methods", ","])
        assert info.value.code == 2
        assert "no methods given" in capsys.readouterr().err

    def test_infeasible_folds_exit_one(self, tmp_path, capsys):
        path = tmp_path / "six.csv"
        path.write_text("0.1,0.2,0\n0.2,0.1,0\n0.3,0.4,0\n"
                        "3.1,3.2,1\n3.3,3.1,1\n3.2,3.4,1\n")
        code, _, stderr = run(capsys, "benchmark", str(path),
                              "--methods", "lda", "--folds", "5",
                              "--trials", "1")
        assert code == 1 and "error:" in stderr

    def test_data_errors_exit_one_and_flag_errors_exit_two(self, tmp_path,
                                                          capsys):
        path = tmp_path / "three.csv"
        path.write_text("0.1,0.2,0\n0.3,0.4,1\n0.5,0.1,0\n")
        code, _, stderr = run(capsys, "benchmark", str(path),
                              "--methods", "lda", "--folds", "5",
                              "--trials", "1")
        assert code == 1 and "cannot fill" in stderr
        code, _, stderr = run(capsys, "benchmark", str(path),
                              "--methods", "lda", "--folds", "1")
        assert code == 2 and "folds" in stderr
        code, _, _ = run(capsys, "generate", "d1", "--seed", "-1",
                         "--out", str(tmp_path / "d1.csv"))
        assert code == 2
