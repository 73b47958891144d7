"""Tests of the benchmark itself: every declared metric is emitted, the
output checks catch corrupted results, and the span derivation holds."""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import hetlda.methods  # noqa: E402
from hetlda import (LabeledDataset, kfold_split, load_model,  # noqa: E402
                    make_trainer, run_benchmark, train_ovo)
from hetbench import checks, tracing, workloads  # noqa: E402
from hetbench.harness import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_follows_its_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert DECLARED["paths"] == ["perfbench"]
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    for w in DECLARED["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in DECLARED[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    for m in DECLARED["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


def test_fails_without_a_result_when_the_package_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "cv-gld", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def cv_inputs():
    return workloads.cv_inputs(workloads.CV_SPECS["cv-lns"], 5, tiny=True)


@pytest.fixture(scope="module")
def cv_pass(cv_inputs):
    inputs = cv_inputs
    capture = checks.RuleCapture()
    methods = [(m, capture.wrap(m, make_trainer(m)))
               for m in inputs.spec.methods]
    data, plan = inputs.cases[0]
    report = run_benchmark(data, methods, plan)
    return data, report, kfold_split(data, plan), capture


def test_clean_cells_pass_the_error_check(cv_pass):
    data, report, splits, capture = cv_pass
    made, failed = checks.check_cells(report, data, splits, capture)
    assert made == sum(len(r.per_fold) for r in report.methods)
    assert failed == 0


def test_corrupted_rule_error_is_counted(cv_pass):
    data, report, splits, capture = cv_pass
    corrupted = checks.RuleCapture()
    corrupted.rules = dict(capture.rules)
    for method in ("gld", "gld-lns"):
        key = next(k for k in corrupted.rules if k[0] == method)
        w, w0, p_e = corrupted.rules[key]
        corrupted.rules[key] = (w, w0, p_e + 1e-6)
    _made, failed = checks.check_cells(report, data, splits, corrupted)
    assert failed == 2


def test_corrupted_cell_error_is_counted(cv_pass):
    data, report, splits, capture = cv_pass
    row = report.methods[0]
    cells = list(row.per_fold)
    cells[0] = replace(cells[0], bayes_error=cells[0].bayes_error * 1.01)
    bad = replace(report, methods=(replace(row, per_fold=tuple(cells)),)
                  + report.methods[1:])
    _made, failed = checks.check_cells(bad, data, splits, capture)
    assert failed == 1
    assert checks.check_repeat(report, bad) == (len(cells) * 2, 1)


def test_independent_error_matches_the_package(cv_pass):
    from hetlda import bayes_error, compute_class_stats, project_stats
    from hetlda.discriminant import LinearDiscriminant
    data = cv_pass[0]
    pair = data.subset([i for i, y in enumerate(data.labels) if y < 2])
    s1, s2, priors = compute_class_stats(pair, 0, 1)
    disc = LinearDiscriminant(s1.mean - s2.mean, 0.3)
    expected = bayes_error(project_stats(disc, s1, s2), priors)
    rows = pair.features
    got = checks.gaussian_error(disc.w, disc.w0, rows[pair.labels == 0],
                                rows[pair.labels == 1])
    assert checks.close(got, expected)


def _cli_round(tmp_path):
    inputs = workloads.cli_inputs(2, True, str(tmp_path))
    reference = train_ovo(inputs.data, make_trainer("gld"))
    _times, codes, _rss = workloads._cli_round(inputs, None, None)
    return inputs, reference, codes


def test_clean_cli_round_passes(tmp_path):
    inputs, reference, codes = _cli_round(tmp_path)
    out = workloads.Outcome()
    assert workloads._check_cli_round(inputs, codes, reference, out)
    assert (out.attempted, out.failed) == (5, 0)


def test_corrupted_prediction_is_counted(tmp_path):
    inputs, reference, codes = _cli_round(tmp_path)
    path = Path(inputs.path("preds.csv"))
    lines = path.read_text().splitlines()
    lines[7] = "2" if lines[7] != "2" else "1"
    path.write_text("\n".join(lines) + "\n")
    out = workloads.Outcome()
    workloads._check_cli_round(inputs, codes, reference, out)
    assert (out.attempted, out.failed) == (5, 1)


def test_corrupted_model_weight_is_counted(tmp_path):
    inputs, reference, codes = _cli_round(tmp_path)
    path = Path(inputs.path("model.json"))
    document = json.loads(path.read_text())
    document["pairs"][0]["w"][0] *= 1 + 2 ** -50
    path.write_text(json.dumps(document))
    model, _, _ = load_model(str(path))
    assert not checks.check_model(model, reference)
    out = workloads.Outcome()
    workloads._check_cli_round(inputs, codes, reference, out)
    assert out.failed >= 1


def test_failed_cli_command_is_counted(tmp_path):
    inputs, reference, _codes = _cli_round(tmp_path)
    out = workloads.Outcome()
    assert workloads._check_cli_round(
        inputs, {"train": 0, "predict": 1}, reference, out) is None
    assert (out.attempted, out.failed) == (5, 3)


def _span(id, parent, thread, cpu, leaf=0.0, name="x"):
    return tracing.Span(id, parent, 1, name, thread, 0.0, 0.0, end=cpu,
                        cpu_end=cpu, leaf_s=leaf)


def test_self_time_subtracts_same_thread_children_and_aggregated_calls():
    spans = [_span(1, None, 7, 10.0, leaf=1.0), _span(2, 1, 7, 3.0),
             _span(3, 1, 7, 2.0), _span(4, 1, 8, 9.0), _span(5, 2, 7, 1.0)]
    selfs = tracing.self_times(spans)
    assert selfs[(0, 1)] == pytest.approx(4.0)
    assert selfs[(0, 2)] == pytest.approx(2.0)
    assert selfs[(0, 4)] == pytest.approx(9.0)


def test_traced_pass_restores_the_package_and_round_trips(tmp_path,
                                                          cv_inputs, cv_pass):
    inputs = cv_inputs
    original = hetlda.methods.train_gld
    out = workloads.run_cv(inputs, 0.0, traced=True)
    assert hetlda.methods.train_gld is original
    assert LabeledDataset.subset.__name__ == "subset"
    assert not hasattr(LabeledDataset.subset, "__wrapped__")
    assert out.failed == 0 and out.spans and out.passes
    names = {s.name for s in out.spans}
    assert {"data.run_benchmark", "data.cell", "methods.trainer.gld-lns",
            "lns.local_neighbourhood_search"} <= names
    cells = {s.group for s in out.spans if s.name == "data.cell"}
    assert len(cells) == sum(len(r.per_fold) for r in cv_pass[1].methods)

    path = tmp_path / "spans.jsonl"
    tracing.write_spans(str(path), out.spans, out.passes)
    spans, passes = tracing.load_spans(str(path))
    methods = ("gld", "gld-lns")
    assert tracing.layer_metrics(spans, passes, methods) == \
        tracing.layer_metrics(out.spans, out.passes, methods)


def test_untraced_pass_records_no_spans(cv_inputs):
    out = workloads.run_cv(cv_inputs, 0.0, traced=False)
    assert out.spans == [] and out.passes == []
    assert out.failed == 0


def test_regret_compares_gld_with_the_best_baseline_of_its_cell():
    from hetlda import FoldRecord

    def cells(*errors):
        return [FoldRecord(0, fold, e, 0.5, 0.0)
                for fold, e in enumerate(errors)]

    by_method = {"lda": cells(0.30, 0.20, 0.25),
                 "rhld1": cells(0.20, 0.30, 0.25),
                 "gld": cells(0.21, 0.20, 0.25 + 1e-12)}
    assert workloads.regret_counts(by_method) == (1, 3)
    assert workloads.regret_counts({"gld": cells(0.2)}) == (0, 0)
