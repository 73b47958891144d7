"""Command-line front end.

Subcommands: generate (synthetic datasets to CSV), train (fit and save a
model), predict (apply a saved model), benchmark (repeated k-fold
comparison). Exit codes: 0 success, 1 runtime or data error, 2 usage
error.
"""
from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .baselines import SweepConfig
from .data import (_WRITE_BLOCK_ROWS, CvPlan, accuracy_score, generate_d1,
                   generate_d2, load_csv, load_matrix_csv, run_benchmark,
                   save_csv)
from .errors import HetldaError
from .gld import GldConfig
from .lns import LnsConfig
from .methods import METHOD_NAMES, make_trainer
from .model_io import dataset_hash, load_model, save_model
from .multiclass import predict_ovo_batch, train_ovo

__all__ = ["main"]

_GENERATORS = {"d1": generate_d1, "d2": generate_d2}


class _UsageError(Exception):
    """A flag value that the configuration built from it rejects."""


def _config(kind, **fields):
    try:
        return kind(**fields)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _add_trainer_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("trainer options")
    for flag, default, text in (
            ("--max-iters", GldConfig.max_iters, "fixed-point iteration cap"),
            ("--grad-tol", GldConfig.grad_tol,
             "gld stops when the norm of the w-gradient of its unit-length "
             "rule falls to this; unit-free, the same for data scaled by "
             "10^-16 to 10^16"),
            ("--step", SweepConfig.step, "grid spacing for chld"),
            ("--s-min", SweepConfig.s_range[0], "random-draw range lower end"),
            ("--s-max", SweepConfig.s_range[1], "random-draw range upper end"),
            ("--lns-iters", LnsConfig.max_iters,
             "perturbation sweeps for gld-lns"),
            ("--lns-early-stop", LnsConfig.early_stop,
             "sweeps without improvement before stopping"),
            ("--perturb-fraction", LnsConfig.perturb_fraction,
             "relative perturbation size")):
        group.add_argument(flag, type=type(default), default=default,
                           help=f"{text} (default %(default)s)")


def _trainer_configs(args) -> tuple[GldConfig, SweepConfig, LnsConfig]:
    gld = _config(GldConfig, max_iters=args.max_iters, grad_tol=args.grad_tol)
    sweep = _config(SweepConfig, step=args.step, trials=args.search_trials,
                    s_range=(args.s_min, args.s_max), seed=args.seed)
    lns = _config(LnsConfig, max_iters=args.lns_iters,
                  early_stop=args.lns_early_stop,
                  perturb_fraction=args.perturb_fraction)
    return gld, sweep, lns


def _method_list(text: str) -> list[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise argparse.ArgumentTypeError("no methods given")
    for name in names:
        if name not in METHOD_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown method {name!r}; choose from "
                f"{', '.join(METHOD_NAMES)}")
    return names


def cmd_generate(args) -> int:
    if args.seed < 0:
        raise _UsageError("seed must be non-negative")
    data = _GENERATORS[args.dataset](args.seed)
    save_csv(data, args.out)
    counts = [int(data.class_indices(k).size) for k in range(data.n_classes)]
    print(f"wrote {args.out}: n={data.n_samples} d={data.n_features} "
          f"class counts={counts}")
    return 0


def cmd_train(args) -> int:
    gld, sweep, lns = _trainer_configs(args)
    data = load_csv(args.data, has_header=args.header,
                    label_column=args.label_col)
    trainer = make_trainer(args.method, gld_config=gld, sweep_config=sweep,
                           lns_config=lns)
    start = time.perf_counter()
    model = train_ovo(data, trainer)
    elapsed = time.perf_counter() - start
    metadata = {
        "dataset_sha256": dataset_hash(data),
        "source": args.data,
        "seed": sweep.seed,
        "config": {
            "max_iters": gld.max_iters, "grad_tol": gld.grad_tol,
            "step": sweep.step, "trials": sweep.trials,
            "s_range": list(sweep.s_range),
            "lns_iters": lns.max_iters,
            "lns_early_stop": lns.early_stop,
            "perturb_fraction": lns.perturb_fraction,
        },
    }
    save_model(args.out, model, args.method, metadata)
    for a, b, _disc, p_e in model.pairs:
        print(f"pair ({a}, {b}): p_e={p_e:.6f}")
    print(f"trained {args.method} in {elapsed:.3f} s; model written to "
          f"{args.out}")
    return 0


def cmd_predict(args) -> int:
    model, _method, _metadata = load_model(args.model)
    names = model.class_names
    for name in names:  # written one per line below
        if name.splitlines() not in ([], [name]):
            raise ValueError(f"class name {name!r} holds a line break")
    data = None
    if args.label_col is not None:
        data = load_csv(args.data, has_header=args.header,
                        label_column=args.label_col)
        features = data.features
    else:
        features = load_matrix_csv(args.data, has_header=args.header)
    predicted = predict_ovo_batch(model, features)
    with open(args.out, "w") as handle:
        for start in range(0, predicted.shape[0], _WRITE_BLOCK_ROWS):
            block = predicted[start:start + _WRITE_BLOCK_ROWS].tolist()
            handle.write("".join([names[label] + "\n" for label in block]))
    print(f"wrote {predicted.shape[0]} predictions to {args.out}")
    if data is not None:
        # each model class as the data's label of the same name, or -1
        same = {name: k for k, name in enumerate(data.class_names)}
        as_data = np.array([same.get(name, -1) for name in names])
        acc = accuracy_score(as_data[predicted], data.labels)
        print(f"accuracy: {acc:.4f}")
    return 0


def cmd_benchmark(args) -> int:
    gld, sweep, lns = _trainer_configs(args)
    plan = _config(CvPlan, folds=args.folds, trials=args.cv_trials,
                   seed=args.seed)
    if args.data in _GENERATORS:
        data = _GENERATORS[args.data](args.seed)
    else:
        data = load_csv(args.data, has_header=args.header,
                        label_column=args.label_col)
    methods = [(name, make_trainer(name, gld_config=gld, sweep_config=sweep,
                                   lns_config=lns))
               for name in args.methods]
    report = run_benchmark(data, methods, plan,
                           standardize=args.standardize)
    text = report.to_csv() if args.format == "csv" else report.to_text()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"report written to {args.out}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetlda",
        description="Minimum-error linear discriminants for heteroscedastic "
                    "Gaussian class models")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset to CSV")
    gen.add_argument("dataset", choices=sorted(_GENERATORS))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.set_defaults(func=cmd_generate)

    train = sub.add_parser("train", help="fit a model and save it")
    train.add_argument("method", choices=METHOD_NAMES)
    train.add_argument("data", help="CSV file with a label column")
    train.add_argument("--label-col", type=int, required=True,
                       help="0-based label column index (negative counts "
                            "from the end)")
    train.add_argument("--header", action="store_true",
                       help="skip the first row")
    train.add_argument("--out", required=True, help="model file path")
    train.add_argument("--trials", dest="search_trials", type=int,
                       default=SweepConfig.trials,
                       help="random draws for rhld1/rhld2 (default %(default)s)")
    train.add_argument("--seed", type=int, default=SweepConfig.seed,
                       help="seed for the random-search trainers "
                            "(default %(default)s)")
    _add_trainer_flags(train)
    train.set_defaults(func=cmd_train)

    predict = sub.add_parser("predict", help="apply a saved model")
    predict.add_argument("model", help="model file from train")
    predict.add_argument("data", help="CSV file of feature rows")
    predict.add_argument("--label-col", type=int, default=None,
                         help="label column present in the data; enables "
                              "the accuracy line")
    predict.add_argument("--header", action="store_true",
                         help="skip the first row")
    predict.add_argument("--out", required=True, help="predictions path")
    predict.set_defaults(func=cmd_predict)

    bench = sub.add_parser("benchmark",
                           help="repeated k-fold method comparison")
    bench.add_argument("data", help="d1, d2, or a CSV path")
    bench.add_argument("--methods", type=_method_list, required=True,
                       help="comma-separated subset of "
                            f"{','.join(METHOD_NAMES)}")
    bench.add_argument("--folds", type=int, default=CvPlan.folds)
    bench.add_argument("--trials", dest="cv_trials", type=int,
                       default=CvPlan.trials,
                       help="number of cross-validation repetitions "
                            "(default %(default)s)")
    bench.add_argument("--label-col", type=int, default=-1,
                       help="label column for CSV input (default: last)")
    bench.add_argument("--header", action="store_true",
                       help="skip the first row of CSV input")
    bench.add_argument("--search-trials", type=int,
                       default=SweepConfig.trials,
                       help="random draws for rhld1/rhld2 (default %(default)s)")
    bench.add_argument("--seed", type=int, default=CvPlan.seed,
                       help="seeds generation, fold shuffling, and the "
                            "random-search trainers (default %(default)s)")
    bench.add_argument("--standardize", action="store_true",
                       help="z-score features using training-fold statistics")
    bench.add_argument("--format", choices=["text", "csv"], default="text")
    bench.add_argument("--out", default=None, help="write the report here "
                       "instead of stdout")
    _add_trainer_flags(bench)
    bench.set_defaults(func=cmd_benchmark)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (HetldaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
