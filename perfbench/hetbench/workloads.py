"""The four workloads: their inputs, one timed pass of each, and the
output checks and quality figures that go with it.

A cross-validation pass is one ``run_benchmark`` call: one dataset and
one split plan. A run cycles through a fixed list of such cases, each
drawn with its own seed derived from the run's seed. The quality figures
are taken from the first time each case runs, so they depend on the seed
alone, and averaging over several datasets keeps them from hinging on
one draw; the timing uses every pass the run has time for. A CLI pass
is one round of ``save_csv``, ``hetlda train`` and ``hetlda predict``.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from hetlda import (CvPlan, LabeledDataset, generate_d1, generate_d2,
                    kfold_split, load_model, make_trainer, predict_ovo_batch,
                    run_benchmark, save_csv, train_ovo)
import hetlda.cli

from . import checks
from .tracing import Tracer, instrument

BASELINES = ("lda", "chld", "rhld1", "rhld2")
# case i of a run with seed s draws its dataset and shuffles its folds
# with seed s * CASE_STRIDE + i
CASE_STRIDE = 1000
# datasets per cross-validation run: the quality figures average over
# them, which keeps one unlucky draw from moving a run's figures
CASES = 8
FOLDS = 10
TINY_FOLDS = 2


# ---------------------------------------------------------------------------
# Inputs

# Gamma shapes per class (rows) and feature (columns), unit scale: skewed,
# overlapping classes that a Gaussian model describes poorly.
_GAMMA_SHAPES = np.array([[1.5, 3.0, 2.0, 3.5, 2.0, 3.0],
                          [3.0, 1.5, 3.5, 2.0, 3.0, 2.0],
                          [2.2, 2.2, 1.5, 1.5, 3.5, 3.5]])

# Three heteroscedastic Gaussian classes in 8 dimensions.
_CLI_MEANS = 1.5 * np.array([[0.0] * 8,
                             [0.7, 0.5, 0.3, 0.0, 0.6, 0.2, 0.4, 0.1],
                             [-0.3, 0.6, -0.5, 0.7, 0.0, 0.5, -0.2, 0.6]])
_CLI_STDS = np.array([[1.0] * 8,
                      [1.6, 0.7, 1.2, 0.9, 1.4, 0.8, 1.1, 1.3],
                      [0.8, 1.3, 0.9, 1.5, 0.7, 1.2, 1.4, 0.9]])


def gamma_classes(seed: int, per_class: int = 1000) -> LabeledDataset:
    """Three gamma-distributed classes, d=6, per_class rows each."""
    rng = np.random.default_rng(seed)
    features = np.vstack([rng.gamma(shape, 1.0, (per_class, shape.size))
                          for shape in _GAMMA_SHAPES])
    labels = np.repeat(np.arange(len(_GAMMA_SHAPES)), per_class)
    return LabeledDataset(features, labels)


def gaussian_classes(seed: int, rows: int) -> LabeledDataset:
    """Three Gaussian classes, d=8, rows in total (near-equal counts)."""
    rng = np.random.default_rng(seed)
    counts = [rows - 2 * (rows // 3), rows // 3, rows // 3]
    features = np.vstack([rng.standard_normal((count, _CLI_MEANS.shape[1]))
                          * _CLI_STDS[k] + _CLI_MEANS[k]
                          for k, count in enumerate(counts)])
    return LabeledDataset(features, np.repeat(np.arange(3), counts))


# ---------------------------------------------------------------------------
# Cross-validation workloads

@dataclass(frozen=True)
class CvSpec:
    name: str
    methods: tuple[str, ...]
    headline: str
    make_data: object  # (seed, tiny) -> LabeledDataset
    trials_per_pass: int


CV_SPECS = {
    "cv-blend": CvSpec(
        "cv-blend", BASELINES + ("gld",), "gld",
        lambda seed, tiny: generate_d1(seed), trials_per_pass=1),
    "cv-gld": CvSpec(
        "cv-gld", ("lda", "gld"), "gld",
        lambda seed, tiny: generate_d2(seed), trials_per_pass=20),
    "cv-lns": CvSpec(
        "cv-lns", ("gld", "gld-lns"), "gld-lns",
        lambda seed, tiny: gamma_classes(seed, 60 if tiny else 1000),
        trials_per_pass=1),
}


@dataclass
class CvInputs:
    spec: CvSpec
    cases: list[tuple[LabeledDataset, CvPlan]]

    def sizes(self) -> dict:
        data, plan = self.cases[0]
        return {"rows": data.n_samples, "d": data.n_features,
                "K": data.n_classes, "methods": list(self.spec.methods),
                "folds": plan.folds, "trials_per_pass": plan.trials,
                "datasets": len(self.cases)}


def cv_inputs(spec: CvSpec, seed: int, tiny: bool) -> CvInputs:
    folds = TINY_FOLDS if tiny else FOLDS
    trials = 1 if tiny else spec.trials_per_pass
    seeds = [seed * CASE_STRIDE + i for i in range(1 if tiny else CASES)]
    return CvInputs(spec, [(spec.make_data(s, tiny),
                            CvPlan(folds=folds, trials=trials, seed=s))
                           for s in seeds])


@dataclass
class Outcome:
    """What a run measured, checked and traced."""

    attempted: int = 0
    failed: int = 0
    pass_walls: dict = field(default_factory=dict)  # case -> [seconds]
    items_per_pass: dict = field(default_factory=dict)  # case -> count
    quality: dict = field(default_factory=dict)
    named: dict = field(default_factory=dict)  # per-workload figures
    spans: list = field(default_factory=list)
    passes: list = field(default_factory=list)  # per-pass records
    layer_extra: dict = field(default_factory=dict)
    child_peak_rss_mb: float = 0.0

    def count(self, made: int, failed: int) -> None:
        self.attempted += made
        self.failed += failed

    def items_per_s(self) -> float:
        """Items over the per-case median pass times, summed over cases."""
        items = sum(self.items_per_pass[p] for p in self.pass_walls)
        seconds = sum(statistics.median(w) for w in self.pass_walls.values())
        return items / seconds


def _cv_pass(inputs: CvInputs, trainers: dict, capture, case: int,
             tracer: Tracer | None):
    data, plan = inputs.cases[case]
    if tracer is None:
        methods = [(m, capture.wrap(m, t)) for m, t in trainers.items()]
        start = time.perf_counter()
        report = run_benchmark(data, methods, plan)
        return report, time.perf_counter() - start
    methods = [(m, capture.wrap(m, tracer.wrap(f"methods.trainer.{m}", t)))
               for m, t in trainers.items()]
    with instrument(tracer):
        start = time.perf_counter()
        with tracer.root("data.run_benchmark"):
            report = run_benchmark(data, methods, plan)
        return report, time.perf_counter() - start


def _in_order(step: int, plain, traced):
    """Run a step's untraced and traced pass, alternating which goes first
    so that the order does not bias trace.overhead_s. Returns both
    results, untraced first."""
    if step % 2:
        traced_result = traced()
        return plain(), traced_result
    plain_result = plain()
    return plain_result, traced()


def run_cv(inputs: CvInputs, seconds: float, traced: bool) -> Outcome:
    """Cycle through the cases until the time is up (at least one cycle).

    Untraced, every pass is timed. Traced, each step runs the case once
    untraced and once traced, and only the traced passes record spans.
    """
    spec = inputs.spec
    out = Outcome()
    capture = checks.RuleCapture()
    trainers = {m: make_trainer(m) for m in spec.methods}
    first: dict[int, object] = {}
    cycle = len(inputs.cases)
    deadline = time.perf_counter() + seconds
    step = 0
    while step < cycle or time.perf_counter() < deadline:
        p = step % cycle
        if traced:
            tracer = Tracer(pass_index=step)
            (report, wall), (traced_report, traced_wall) = _in_order(
                step, lambda: _cv_pass(inputs, trainers, capture, p, None),
                lambda: _cv_pass(inputs, trainers, capture, p, tracer))
            out.spans.extend(tracer.spans)
            out.passes.append({"pass": step, "case": p, "wall_s": wall,
                               "traced_wall_s": traced_wall})
            out.count(*checks.check_repeat(report, traced_report))
        else:
            report, wall = _cv_pass(inputs, trainers, capture, p, None)
        out.pass_walls.setdefault(p, []).append(wall)
        cells = sum(len(row.per_fold) for row in report.methods)
        out.items_per_pass[p] = cells
        failed_cells = sum(row.failures for row in report.methods)
        out.count(cells, failed_cells)
        if p in first:
            out.count(*checks.check_repeat(first[p], report))
        else:
            first[p] = report
        step += 1

    for p, report in first.items():
        data, plan = inputs.cases[p]
        splits = kfold_split(data, plan)
        out.count(*checks.check_cells(report, data, splits, capture))
    out.count(1, int(capture.conflicts > 0))
    _cv_quality(spec, list(first.values()), out)
    return out


def _cv_quality(spec: CvSpec, reports: list, out: Outcome) -> None:
    head, regretted, compared = [], 0, 0
    for report in reports:
        cells = {row.method: [c for c in row.per_fold if c.failure is None]
                 for row in report.methods}
        head.extend(cells[spec.headline])
        worse, total = regret_counts(cells)
        regretted += worse
        compared += total
    # with no successful headline cell, report the worst possible values
    out.quality["test_accuracy"] = (float(np.mean([c.accuracy for c in head]))
                                    if head else 0.0)
    out.quality["model_error"] = (float(np.mean([c.bayes_error for c in head]))
                                  if head else 1.0)
    if spec.headline == "gld":
        out.named["gld_model_error"] = ("fraction", out.quality["model_error"])
    else:
        out.named["lns_train_error"] = ("fraction", out.quality["model_error"])
    regret = regretted / compared if compared else 0.0
    out.layer_extra["gld.regret_share"] = regret
    if spec.name == "cv-blend":
        out.named["gld_regret_share"] = ("fraction", regret)


def regret_counts(cells: dict[str, list]) -> tuple[int, int]:
    """Over the cells of one run_benchmark report: how many gld cells have
    a model error above the best Gaussian baseline's in the same cell by
    more than 1e-9, and how many gld cells had a baseline to compare."""
    best: dict[tuple[int, int], float] = {}
    for m in BASELINES:
        for c in cells.get(m, ()):
            key = (c.trial, c.fold)
            best[key] = min(best.get(key, math.inf), c.bayes_error)
    compared = [c.bayes_error > best[(c.trial, c.fold)] + 1e-9
                for c in cells.get("gld", ()) if (c.trial, c.fold) in best]
    return sum(compared), len(compared)


# ---------------------------------------------------------------------------
# CLI workload

CLI_ROWS = 100_000
CLI_TINY_ROWS = 300


@dataclass
class CliInputs:
    data: LabeledDataset
    workdir: str

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def sizes(self) -> dict:
        return {"rows": self.data.n_samples, "d": self.data.n_features,
                "K": self.data.n_classes, "methods": ["gld"],
                "commands": ["save_csv", "train", "predict"]}


def cli_inputs(seed: int, tiny: bool, workdir: str) -> CliInputs:
    data = gaussian_classes(seed, CLI_TINY_ROWS if tiny else CLI_ROWS)
    return CliInputs(data, workdir)


def _feature_copy(src: str, dst: str) -> None:
    """Write the CSV file src without its last (label) column."""
    with open(src) as rows, open(dst, "w") as out:
        out.writelines(line.rsplit(",", 1)[0] + "\n" for line in rows)


def cli_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], env: dict, stderr_path: str
              ) -> tuple[int, float]:
    """Run a child process to completion; returns (exit code, peak RSS MB)."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(stderr_path, errors="replace") as err:
            sys.stderr.write(err.read()[-2000:])
    return proc.returncode, usage.ru_maxrss / 1024.0


def _cli_commands(inputs: CliInputs) -> dict[str, list[str]]:
    return {"train": ["train", "gld", inputs.path("data.csv"),
                      "--label-col", "-1", "--out", inputs.path("model.json")],
            "predict": ["predict", inputs.path("model.json"),
                        inputs.path("features.csv"), "--out",
                        inputs.path("preds.csv")]}


def _cli_round(inputs: CliInputs, env: dict | None, tracer: Tracer | None
               ) -> tuple[dict, dict, float]:
    """save_csv, train, predict. Between the first two, untimed, the
    benchmark strips the label column into the feature-only copy that
    predict reads. With env, the commands run as child processes; without,
    in process through hetlda.cli.main (traced when a tracer is given).
    Returns (phase seconds, exit codes, child peak RSS)."""
    times, codes, rss = {}, {}, 0.0
    commands = _cli_commands(inputs)
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(instrument(tracer))
        start = time.perf_counter()
        if tracer is not None:
            with tracer.span("data.save_csv", new_group=True):
                save_csv(inputs.data, inputs.path("data.csv"))
        else:
            save_csv(inputs.data, inputs.path("data.csv"))
        times["save_csv"] = time.perf_counter() - start
        _feature_copy(inputs.path("data.csv"), inputs.path("features.csv"))
        for name, argv in commands.items():
            start = time.perf_counter()
            if env is not None:
                codes[name], child_rss = run_child(
                    [sys.executable, "-m", "hetlda", *argv], env,
                    inputs.path("cli.err"))
                rss = max(rss, child_rss)
            else:
                with contextlib.redirect_stdout(io.StringIO()), \
                        (tracer.root(f"cli.{name}") if tracer
                         else contextlib.nullcontext()):
                    codes[name] = hetlda.cli.main(argv)
            times[name] = time.perf_counter() - start
    return times, codes, rss


def _check_cli_round(inputs: CliInputs, codes: dict, reference, out: Outcome
                     ) -> list[str] | None:
    """Exit codes, prediction file and model round trip of one round.
    Returns the predicted label names when the round succeeded."""
    out.count(1 + len(codes), sum(code != 0 for code in codes.values()))
    if any(codes.values()):
        out.count(2, 2)
        return None
    model, _method, _meta = load_model(inputs.path("model.json"))
    predicted = predict_ovo_batch(model, inputs.data.features)
    names = [model.class_names[p] if model.class_names else str(int(p))
             for p in predicted]
    out.count(1, int(not checks.check_predictions(inputs.path("preds.csv"),
                                                  names)))
    out.count(1, int(not checks.check_model(model, reference)))
    if "model_error" not in out.quality:
        truth = [str(int(y)) for y in inputs.data.labels]
        out.quality["test_accuracy"] = float(np.mean(
            [a == b for a, b in zip(names, truth)]))
        out.quality["model_error"] = model.mean_p_e
    return names


def _checked_round(inputs: CliInputs, env: dict | None,
                   tracer: Tracer | None, reference, out: Outcome) -> dict:
    times, codes, rss = _cli_round(inputs, env, tracer)
    out.child_peak_rss_mb = max(out.child_peak_rss_mb, rss)
    _check_cli_round(inputs, codes, reference, out)
    return times


def run_cli(inputs: CliInputs, seconds: float, traced: bool, src: str
            ) -> Outcome:
    out = Outcome()
    env = cli_env(src)
    reference = train_ovo(inputs.data, make_trainer("gld"))
    phases: dict[str, list[float]] = {}
    deadline = time.perf_counter() + seconds
    step = 0
    while step < 1 or time.perf_counter() < deadline:
        if traced:
            tracer = Tracer(pass_index=step)
            plain, times = _in_order(
                step,
                lambda: _checked_round(inputs, None, None, reference, out),
                lambda: _checked_round(inputs, None, tracer, reference, out))
            out.spans.extend(tracer.spans)
            out.passes.append({"pass": step, "case": 0,
                               "wall_s": sum(plain.values()),
                               "traced_wall_s": sum(times.values())})
        else:
            times = _checked_round(inputs, env, None, reference, out)
        for phase, value in times.items():
            phases.setdefault(phase, []).append(value)
        out.pass_walls.setdefault(0, []).append(sum(times.values()))
        step += 1

    rows = inputs.data.n_samples
    out.items_per_pass[0] = rows
    for metric, phase in (("write_rows_per_s", "save_csv"),
                          ("train_rows_per_s", "train"),
                          ("predict_rows_per_s", "predict")):
        out.named[metric] = ("rows/s",
                             rows / statistics.median(phases[phase]))
    out.layer_extra["data.csv.bytes"] = os.path.getsize(
        inputs.path("data.csv"))
    out.layer_extra["model_io.model_bytes"] = os.path.getsize(
        inputs.path("model.json"))
    return out
