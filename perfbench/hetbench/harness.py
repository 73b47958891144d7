"""Command line of the benchmark: set up one workload, measure it for the
given time, check its outputs and print the metrics.

With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics,
from spans recorded around hetlda's calls. Both print the environment
block and the figures named per workload before the last line, which is
the JSON result, and write the same record (plus the spans, when
tracing) under ``.perfbench-runs/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from . import workloads
from .environment import environment
from .tracing import layer_metrics, write_spans

WORKLOADS = ("cv-blend", "cv-gld", "cv-lns", "cli-csv")
SETUP_PROBES = 9
IMPORT_PROBES = 3
RUNS_DIR = ".perfbench-runs"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Measure one workload of the hetlda benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def build_inputs(workload: str, seed: int, tiny: bool, workdir: str):
    if workload == "cli-csv":
        return workloads.cli_inputs(seed, tiny, workdir)
    return workloads.cv_inputs(workloads.CV_SPECS[workload], seed, tiny)


def _median_child_seconds(argv: list[str], env: dict, workdir: str,
                          count: int) -> float:
    seconds = []
    for _ in range(count):
        start = time.perf_counter()
        code, _rss = workloads.run_child(argv, env,
                                         os.path.join(workdir, "probe.err"))
        seconds.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"probe {argv[1:]} exited with {code}")
    return statistics.median(seconds)


def _probes(count: int, tiny: bool) -> int:
    return 1 if tiny else count


def setup_seconds(args, src: Path, workdir: str) -> float:
    """Median wall time of fresh interpreters that import hetlda and build
    the workload's inputs."""
    run_py = Path(__file__).resolve().parents[1] / "run.py"
    argv = [sys.executable, str(run_py), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    if args.tiny:
        argv.append("--tiny")
    return _median_child_seconds(argv, workloads.cli_env(str(src)), workdir,
                                 _probes(SETUP_PROBES, args.tiny))


def import_seconds(args, src: Path, workdir: str) -> float:
    """Median wall time of a fresh interpreter that imports hetlda.cli."""
    argv = [sys.executable, "-c", "import hetlda.cli"]
    return _median_child_seconds(argv, workloads.cli_env(str(src)), workdir,
                                 _probes(IMPORT_PROBES, args.tiny))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _select(declared: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared}


def main(root: Path, src: Path, argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    declared = json.loads((root / "BENCHMARK.json").read_text())
    runs = root / RUNS_DIR
    runs.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=runs)
    try:
        if args.setup_probe:
            build_inputs(args.workload, args.seed, args.tiny, workdir)
            return 0
        return _run(args, root, src, declared, runs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, root: Path, src: Path, declared: dict, runs: Path,
         workdir: str) -> int:
    values: dict[str, float] = {}
    if args.trace:
        values["cli.import_s"] = import_seconds(args, src, workdir)
    else:
        values["setup_s"] = setup_seconds(args, src, workdir)
    inputs = build_inputs(args.workload, args.seed, args.tiny, workdir)
    if args.workload == "cli-csv":
        out = workloads.run_cli(inputs, args.seconds, bool(args.trace),
                                str(src))
    else:
        out = workloads.run_cv(inputs, args.seconds, bool(args.trace))
        out.named["cells_per_s"] = ("1/s", out.items_per_s())

    if args.trace:
        from hetlda import METHOD_NAMES
        values.update(layer_metrics(out.spans, out.passes, METHOD_NAMES))
        # figures of layers this workload does not run are 0
        values.update({"data.csv.bytes": 0, "model_io.model_bytes": 0,
                       "gld.regret_share": 0.0, **out.layer_extra})
        metrics = _select(declared["per_layer"], values)
    else:
        values["peak_rss_mb"] = max(_peak_rss_mb(), out.child_peak_rss_mb)
        values["items_per_s"] = out.items_per_s()
        values.update(out.quality)
        metrics = _select(declared["end_to_end"], values)

    env = environment(root, src, args.workload, args.seed, inputs.sizes())
    named = {name: {"value": value, "unit": unit}
             for name, (unit, value) in out.named.items()}
    named["timed_passes"] = {
        "value": sum(len(w) for w in out.pass_walls.values()),
        "unit": "count"}
    named["failed_share"] = {"value": out.failed / out.attempted,
                             "unit": f"fraction ({out.failed} of "
                                     f"{out.attempted} operations)"}
    result = {"correct": out.failed == 0, "attempted": out.attempted,
              "failed": out.failed, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(runs / f"{stem}.json", "w") as handle:
        json.dump({"environment": env, "named": named, **result}, handle,
                  indent=1)
    if args.trace:
        write_spans(str(runs / f"{stem}.spans.jsonl"), out.spans, out.passes)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(env))
    for name, m in {**metrics, **named}.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0
