"""Spans around calls into hetlda's modules, and the per-layer metrics
derived from them.

The package itself is not modified. ``instrument`` replaces the
module-level names that hetlda's own code calls through (for example
``hetlda.methods.train_gld``) with wrappers that record a span around the
original, and puts the originals back on exit. Spans are kept in memory;
``write_spans`` stores them as JSON lines when the benchmark ends and
``load_spans`` reads them back, so the derivation below can be re-run
on a saved trace.

Each span records its wall-clock interval and the CPU time of its thread
(``time.thread_time``). The cross-validation pool runs its cells on
threads that share the interpreter lock, so a span's wall time there is
mostly time spent waiting for the lock; the per-layer seconds are
therefore busy (thread CPU) time, and the pool's waiting is reported on
its own.

Each span has a parent and a group. Spans of one cross-validation cell,
or of one CLI command, share a group. A cell begins when a pool thread
with no open span takes the fold's training subset, and ends when the
cell's prediction returns (or its training raises). The symmetric solves
are frequent enough (about 3000 per fold in the blend searches) that they
are aggregated into the calling span as a count and a time instead of
being recorded one by one.
"""
from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

SOLVE = "numkit.solve_symmetric"
BLEND_TRAINERS = ("baselines.train_chld", "baselines.train_rhld1",
                  "baselines.train_rhld2")
CELL = "data.cell"


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    group: int
    name: str
    thread: int
    start: float
    cpu_start: float
    end: float = float("nan")
    cpu_end: float = float("nan")
    leaf_s: float = 0.0  # CPU time of aggregated calls made directly
    counts: dict = field(default_factory=dict)
    pass_index: int = 0

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def cpu_s(self) -> float:
        return self.cpu_end - self.cpu_start


class Tracer:
    """Collects the spans of one workload pass.

    Every thread keeps its own stack of open spans. A span opened on a
    thread with an empty stack takes the current root span (the
    benchmark's call into ``run_benchmark`` or into a CLI command) as
    its parent, which is how the pool threads' cells attach to it.
    """

    def __init__(self, pass_index: int = 0):
        self.pass_index = pass_index
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, new_group: bool = False) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span_id = next(self._ids)
        group = span_id if new_group or parent is None else parent.group
        span = Span(span_id, parent.id if parent else None, group, name,
                    threading.get_ident(), time.perf_counter(),
                    time.thread_time(), pass_index=self.pass_index)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.cpu_end = time.thread_time()
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, new_group: bool = False):
        span = self.open(name, new_group)
        try:
            yield span
        finally:
            self.close(span)

    @contextmanager
    def root(self, name: str):
        """A top-level span that spans on other threads attach to."""
        with self.span(name, new_group=True) as span:
            self._root = span
            try:
                yield span
            finally:
                self._root = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def leaf(self, name: str, fn):
        """Wrap fn so its calls add a count and a CPU time to the open span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.thread_time() - start
                stack = self._stack()
                if stack:
                    owner = stack[-1]
                    owner.leaf_s += elapsed
                    owner.counts[name + ".calls"] = \
                        owner.counts.get(name + ".calls", 0) + 1
                    owner.counts[name + ".s"] = \
                        owner.counts.get(name + ".s", 0.0) + elapsed
        return wrapper

    def begin_cell(self) -> None:
        if self._root is not None and not self._stack():
            self.open(CELL, new_group=True)

    def end_cell(self) -> None:
        stack = self._stack()
        if stack and stack[-1].name == CELL:
            self.close(stack[-1])


def _candidate_count(name: str, config) -> int:
    """Blend parameter values a search examines under its configuration."""
    from hetlda.baselines import SweepConfig
    cfg = config or SweepConfig()
    if name == "chld":
        count = int(np.floor(1.0 / cfg.step + 1e-9)) + 1
        last = min((count - 1) * cfg.step, 1.0)
        return count + (1 if last < 1.0 - 1e-12 else 0)
    return cfg.trials


@contextmanager
def instrument(tracer: Tracer):
    """Route hetlda's internal calls through span-recording wrappers."""
    import hetlda.baselines
    import hetlda.cli
    import hetlda.data
    import hetlda.gld
    import hetlda.methods
    from hetlda.discriminant import LabeledDataset
    from hetlda.methods import make_trainer

    def subset(fn):
        @functools.wraps(fn)
        def wrapper(self, indices):
            tracer.begin_cell()
            with tracer.span("discriminant.subset"):
                return fn(self, indices)
        return wrapper

    def train_ovo(fn, in_cell: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                with tracer.span("multiclass.train_ovo") as span:
                    model = fn(*args, **kwargs)
                    span.counts["multiclass.pairs"] = len(model.pairs)
                    return model
            except BaseException:
                if in_cell:
                    tracer.end_cell()
                raise
        return wrapper

    def predict(fn, in_cell: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                with tracer.span("multiclass.predict_ovo_batch"):
                    return fn(*args, **kwargs)
            finally:
                if in_cell:
                    tracer.end_cell()
        return wrapper

    def blend(name, fn):
        @functools.wraps(fn)
        def wrapper(stats1, stats2, priors, config=None):
            with tracer.span(f"baselines.train_{name}") as span:
                span.counts["baselines.candidates"] = \
                    _candidate_count(name, config)
                return fn(stats1, stats2, priors, config)
        return wrapper

    def train_gld(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span("gld.train_gld") as span:
                disc, p_e, trace = fn(*args, **kwargs)
                span.counts["gld.iterations"] = len(trace.records) - 1
                span.counts["gld.max_iters"] = \
                    int(trace.converged_by == "max_iters")
                return disc, p_e, trace
        return wrapper

    def lns(fn):
        from hetlda.discriminant import training_error_count

        @functools.wraps(fn)
        def wrapper(init, data, cfg=None, *, class_a=None, class_b=None):
            best = [training_error_count(init, data, class_a, class_b)]
            sweeps = [0, 0]  # sweeps, sweeps that lowered the best count

            def on_sweep(_index, best_count):
                sweeps[0] += 1
                if best_count < best[0]:
                    sweeps[1] += 1
                    best[0] = best_count

            with tracer.span("lns.local_neighbourhood_search") as span:
                result = fn(init, data, cfg, class_a=class_a,
                            class_b=class_b, on_sweep=on_sweep)
                span.counts["lns.sweeps"] = sweeps[0]
                span.counts["lns.improving_sweeps"] = sweeps[1]
                span.counts["lns.error_evaluations"] = \
                    sweeps[0] * 2 * (init.w.shape[0] + 1)
                return result
        return wrapper

    def traced_make_trainer(name, **kwargs):
        return tracer.wrap(f"methods.trainer.{name}",
                           make_trainer(name, **kwargs))

    m, d, c = hetlda.methods, hetlda.data, hetlda.cli
    patches = [
        (LabeledDataset, "subset", subset(LabeledDataset.subset)),
        (d, "kfold_split", tracer.wrap("data.kfold_split", d.kfold_split)),
        (d, "train_ovo", train_ovo(d.train_ovo, in_cell=True)),
        (d, "predict_ovo_batch", predict(d.predict_ovo_batch, in_cell=True)),
        (m, "compute_class_stats",
         tracer.wrap("discriminant.compute_class_stats",
                     m.compute_class_stats)),
        (m, "train_lda", tracer.wrap("baselines.train_lda", m.train_lda)),
        (m, "train_chld", blend("chld", m.train_chld)),
        (m, "train_rhld1", blend("rhld1", m.train_rhld1)),
        (m, "train_rhld2", blend("rhld2", m.train_rhld2)),
        (m, "train_gld", train_gld(m.train_gld)),
        (m, "local_neighbourhood_search", lns(m.local_neighbourhood_search)),
        (hetlda.baselines, "solve_symmetric",
         tracer.leaf(SOLVE, hetlda.baselines.solve_symmetric)),
        (hetlda.gld, "solve_symmetric",
         tracer.leaf(SOLVE, hetlda.gld.solve_symmetric)),
        (c, "load_csv", tracer.wrap("data.load_csv", c.load_csv)),
        (c, "load_matrix_csv",
         tracer.wrap("data.load_matrix_csv", c.load_matrix_csv)),
        (c, "train_ovo", train_ovo(c.train_ovo, in_cell=False)),
        (c, "predict_ovo_batch", predict(c.predict_ovo_batch, in_cell=False)),
        (c, "make_trainer", traced_make_trainer),
        (c, "dataset_hash", tracer.wrap("model_io.dataset_hash",
                                        c.dataset_hash)),
        (c, "save_model", tracer.wrap("model_io.save_model", c.save_model)),
        (c, "load_model", tracer.wrap("model_io.load_model", c.load_model)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Derivation

def self_times(spans: list[Span]) -> dict[tuple[int, int], float]:
    """Busy time of each span minus that of its children on the same thread
    and of its aggregated calls, keyed by (pass index, span id)."""
    children = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[(s.pass_index, s.parent, s.thread)] += s.cpu_s
    return {(s.pass_index, s.id):
            s.cpu_s - children[(s.pass_index, s.id, s.thread)] - s.leaf_s
            for s in spans}


SELF_TIMED = {"data.run_benchmark": "data.run_benchmark.self_s",
              "multiclass.train_ovo": "multiclass.train_ovo.self_s",
              "cli.train": "cli.train.self_s",
              "cli.predict": "cli.predict.self_s"}
TIMED = ("data.kfold_split", "data.load_csv", "data.load_matrix_csv",
         "data.save_csv", "discriminant.compute_class_stats",
         "discriminant.subset", "gld.train_gld", "baselines.train_lda",
         "baselines.train_chld", "baselines.train_rhld1",
         "baselines.train_rhld2", "lns.local_neighbourhood_search",
         "multiclass.predict_ovo_batch", "model_io.save_model",
         "model_io.load_model", "model_io.dataset_hash")
CALLED = ("discriminant.compute_class_stats", "gld.train_gld")
COUNTED = ("gld.iterations", "numkit.solve_symmetric.calls",
           "numkit.solve_symmetric.s", "baselines.candidates", "lns.sweeps",
           "lns.error_evaluations", "multiclass.pairs")


def pass_totals(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one pass: seconds, calls and counts."""
    out: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    for s in spans:
        if s.name in SELF_TIMED:
            out[SELF_TIMED[s.name]] += selfs[(s.pass_index, s.id)]
        if s.name in TIMED:
            out[s.name + ".s"] += s.cpu_s
        if s.name in CALLED:
            out[s.name + ".calls"] += 1
        for key, value in s.counts.items():
            out[key] += value
        if s.name in BLEND_TRAINERS:
            out["baselines.blend_solves"] += s.counts.get(SOLVE + ".calls", 0)
        if s.name == CELL:
            out["data.cell_busy_s"] += s.cpu_s
            out["data.pool.wait_s"] += s.wall_s - s.cpu_s
        if s.name == "data.run_benchmark":
            out["data.run_benchmark.wall_s"] += s.wall_s
    return out


def trainer_cell_times(spans: list[Span]) -> dict[str, list[float]]:
    """Per method, the training time of each cell or CLI command (the sum
    over its class pairs)."""
    per_group: dict[tuple[int, int, str], float] = defaultdict(float)
    for s in spans:
        if s.name.startswith("methods.trainer."):
            method = s.name[len("methods.trainer."):]
            per_group[(s.pass_index, s.group, method)] += s.cpu_s
    out: dict[str, list[float]] = defaultdict(list)
    for (_pass, _group, method), seconds in per_group.items():
        out[method].append(seconds)
    return out


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[Span], passes: list[dict],
                  methods: tuple[str, ...]) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Seconds, calls and counts are per workload pass, as the median over
    the traced passes; ratios are taken over all traced passes together.
    Each pass record holds the wall time of one pass run untraced and of
    the same pass traced; trace.overhead_s is the median difference.
    """
    by_pass: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_pass[s.pass_index].append(s)
    totals = [pass_totals(by_pass[p]) for p in sorted(by_pass)]
    keys = ({v for v in SELF_TIMED.values()} | {n + ".s" for n in TIMED}
            | {n + ".calls" for n in CALLED} | set(COUNTED)
            | {"data.pool.wait_s"})
    out = {k: statistics.median(t.get(k, 0.0) for t in totals)
           if totals else 0.0 for k in sorted(keys)}
    summed: dict[str, float] = defaultdict(float)
    for t in totals:
        for k, v in t.items():
            summed[k] += v
    out["data.pool.parallelism"] = _share(summed["data.cell_busy_s"],
                                          summed["data.run_benchmark.wall_s"])
    out["gld.max_iters_share"] = _share(summed["gld.max_iters"],
                                        summed["gld.train_gld.calls"])
    out["baselines.solves_per_candidate"] = _share(
        summed["baselines.blend_solves"], summed["baselines.candidates"])
    out["lns.improving_sweep_share"] = _share(summed["lns.improving_sweeps"],
                                              summed["lns.sweeps"])
    cells = trainer_cell_times(spans)
    for method in methods:
        out[f"methods.trainer.{method}.p50_s"] = _percentile(cells[method], 50)
        out[f"methods.trainer.{method}.p90_s"] = _percentile(cells[method], 90)
    overheads = [p["traced_wall_s"] - p["wall_s"] for p in passes]
    out["trace.overhead_s"] = statistics.median(overheads) if overheads \
        else 0.0
    return out


def write_spans(path: str, spans: list[Span], passes: list[dict]) -> None:
    """One JSON line per pass record, then one per span."""
    with open(path, "w") as handle:
        for record in passes:
            handle.write(json.dumps({"kind": "pass", **record}) + "\n")
        for s in spans:
            handle.write(json.dumps({"kind": "span", **asdict(s)}) + "\n")


def load_spans(path: str) -> tuple[list[Span], list[dict]]:
    spans, passes = [], []
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            kind = record.pop("kind")
            if kind == "span":
                spans.append(Span(**record))
            else:
                passes.append(record)
    return spans, passes
