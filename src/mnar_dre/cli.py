"""Command-line interface.

Commands::

    fit           fit a density ratio model from a labelled CSV
    np-calibrate  select an error-controlled classification threshold on a
                  separate class-0 calibration CSV
    classify      label points with a calibrated classifier
    learn-phi     learn per-feature missingness by querying latent values
    corrupt       induce synthetic MNAR missingness in a CSV
    preprocess    trim / impute / normalize a CSV
    experiment    run the synthetic replication studies (msd | power | rho-sweep)
    emit-plot-data  reshape an experiment table into tidy plot-ready CSV

Every command is a pure function of its inputs, flags, and seed; reruns are
byte-identical.  Flags override values from an optional ``--config`` file of
``key = value`` lines.  A command takes only the flags it reads: only the
commands that read a dataset CSV take ``--missing-token`` and
``--label-column``, and an experiment kind, after which its flags come,
takes those of its config (``MsdConfig``, or ``PowerConfig`` for power and
rho-sweep).  Exit codes: 0 success, 2 usage error (a bad or unknown flag or
key, or ``ConfigError``), 3 data error (``DataError``), 4 numeric failure
(``NumericError``); all three error types live in ``model``.

``np-calibrate`` reads its class-0 calibration sample from its own
``--calibration`` file; class-1 rows there are ignored, and a file of
class-0 rows alone will do.  The NP Type I guarantee holds only when that
sample is drawn independently of the data the model was fitted on.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

import numpy as np

from . import __version__, dataio, experiments, kliep, naive_bayes
from .kliep import COMPLETE_CASE, FULLY_OBSERVED, Mnar
from .missingness import learn_missingness
from .model import (
    EPS_PHI,
    ConfigError,
    DataError,
    FeatureMap,
    MissingnessFunction,
    NumericError,
)
from .np_classify import build_np_classifier, labels_from_scores
# Unused here; benchmarks/tracing.py wraps the classify step under this name.
from .np_classify import classify as np_classify_points  # noqa: F401

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill unset flags from the optional config file; flags win.

    A key is a flag of the command without its leading dashes (``n-test`` for
    ``--n-test``); a key the command has no flag for is refused.  Its value
    goes through the flag's own ``type`` and ``choices``, and a
    ``store_true`` flag takes ``true`` or ``false``.
    """
    if not args.config:
        return
    file_cfg = dataio.read_config_file(args.config)
    flags = {
        action.option_strings[0].lstrip("-"): action
        for action in parser._actions
        if action.option_strings and action.dest not in ("help", "config")
    }
    unknown = set(file_cfg) - set(flags)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, raw in file_cfg.items():
        action = flags[key]
        if getattr(args, action.dest) != action.default:
            continue  # the flag was given
        try:
            value = _config_value(action, raw)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise ConfigError(
                f"config key {key!r}: cannot parse {raw!r} ({exc})"
            ) from None
        setattr(args, action.dest, value)


def _config_value(action: argparse.Action, raw: str):
    if action.nargs == 0:  # store_true
        if raw not in ("true", "false"):
            raise ValueError("expected true or false")
        return raw == "true"
    value = action.type(raw) if action.type else raw
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"choose from {', '.join(map(str, action.choices))}")
    return [value] if isinstance(action, argparse._AppendAction) else value


def _require(args, *names) -> None:
    """Refuse each flag, named by its dest, that neither argv nor config set."""
    flags = {a.dest: a.option_strings[0] for a in args.command_parser._actions}
    for name in names:
        if getattr(args, name) is None:
            raise ConfigError(f"{flags[name]} is required")


def _feature_map(kind: str | None, dim: int) -> FeatureMap:
    if kind == "identity-squares":
        return FeatureMap.identity_plus_squares(dim)
    return FeatureMap.identity(dim)


def _read_csv(args, path: str, require_class1: bool = True):
    """``dataio.read_dataset_csv`` of ``path`` under the command's
    ``--missing-token`` and ``--label-column``."""
    return dataio.read_dataset_csv(
        path, args.missing_token or "NA", args.label_column or "label", require_class1
    )


def _read_phi(path: str | None, dim: int) -> MissingnessFunction:
    """The missingness file at ``path``, or no missingness without one.  A
    file with other than ``dim`` coordinates raises ``DataError`` naming both."""
    if path is None:
        return MissingnessFunction.none(dim)
    with open(path) as fh:
        phi = dataio.missingness_from_text(fh.read())
    if phi.dim != dim:
        raise DataError(
            f"missingness file {path} has {phi.dim} coordinates, the data has "
            f"{dim} features"
        )
    return phi


def _check_model_dim(model, data) -> None:
    """Refuse data whose feature count is not the model's, naming both."""
    if model.dim != data.dim:
        raise DataError(
            f"the model takes {model.dim} features, the data has {data.dim}"
        )


def _comma_list(convert, what: str):
    """The flag type of a comma list of ``convert`` values (``what``)."""

    def parse(text: str) -> tuple:
        try:
            return tuple(convert(t) for t in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma list of {what}, got {text!r}"
            ) from None

    return parse


_int_list, _float_list = _comma_list(int, "integers"), _comma_list(float, "numbers")


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


def _open_unit(text: str) -> float:
    """A number strictly between 0 and 1, such as a level alpha or delta."""
    value = _number(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"must lie strictly between 0 and 1, got {text!r}"
        )
    return value


def _proportion(text: str) -> float:
    """A missing fraction in [0, 1 - EPS_PHI), the fractions that
    ``dataio.solve_target_proportion`` can reach."""
    value = _number(text)
    if not 0.0 <= value < 1.0 - EPS_PHI:
        raise argparse.ArgumentTypeError(
            f"must lie in [0, {1.0 - EPS_PHI!r}), got {text!r}"
        )
    return value


def _class_labels(text: str) -> tuple[int, ...]:
    labels = [t.strip() for t in text.split(",")]
    if not set(labels) <= {"0", "1"} or len(set(labels)) < len(labels):
        raise argparse.ArgumentTypeError(
            f"expected distinct class labels 0 and 1 in a comma list, got {text!r}"
        )
    return tuple(int(t) for t in labels)


def _trim_spec(spec: str) -> tuple[int, tuple[float, float]]:
    """Parse ``column:lo:hi``: each bound a finite number, or ``none`` for an
    open side, with lo <= hi."""
    try:
        column, lo, hi = spec.split(":")
        if not all(t == "none" or math.isfinite(float(t)) for t in (lo, hi)):
            raise ValueError
        lo = -math.inf if lo == "none" else float(lo)
        hi = math.inf if hi == "none" else float(hi)
        if lo > hi:
            raise ValueError
        return int(column), (lo, hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"trim spec {spec!r} must be column:lo:hi with finite lo <= hi "
            "(use 'none' to skip a side)"
        ) from None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_fit(args) -> int:
    _require(args, "data", "out", "mode")
    class0, class1, _ = _read_csv(args, args.data)
    if args.mode == "mkliep":
        weighting = Mnar(
            _read_phi(args.phi, class1.dim), _read_phi(args.phi0, class0.dim)
        )
    else:
        weighting = {"cckliep": COMPLETE_CASE, "kliep": FULLY_OBSERVED}[args.mode]
    if args.per_dim:
        fmap1d = _feature_map(args.features, 1)
        model = naive_bayes.fit_naive_bayes(
            class1, class0, weighting, feature_map_1d=fmap1d
        )
    else:
        fmap = _feature_map(args.features, class1.dim)
        model = kliep.fit(class1, class0, fmap, weighting)
        model = model.with_normalizer(
            kliep.normalizing_constant(model, class0, weighting)
        )
    if args.strict and not model.converged:
        raise NumericError("fit did not converge (strict mode)")
    with open(args.out, "w") as fh:
        fh.write(dataio.model_to_text(model))
    print(f"wrote model to {args.out}")
    return 0


def _cmd_np_calibrate(args) -> int:
    _require(args, "model", "calibration", "out", "alpha", "delta")
    with open(args.model) as fh:
        model = dataio.model_from_text(fh.read())
    class0 = _read_csv(args, args.calibration, require_class1=False)[0]
    _check_model_dim(model, class0)
    phi0 = _read_phi(args.phi0, class0.dim)
    clf = build_np_classifier(
        model, class0, args.alpha, args.delta, phi0=phi0, rule=args.rule or "auto"
    )
    with open(args.out, "w") as fh:
        fh.write(dataio.classifier_to_text(clf))
    reason = clf.degenerate_reason()
    print(
        f"threshold {clf.threshold!r} (method {clf.method}, "
        f"degenerate {clf.provenance.degenerate}"
        + (f": {reason})" if reason else ")")
    )
    return 0


def _cmd_classify(args) -> int:
    _require(args, "classifier", "data", "out")
    with open(args.classifier) as fh:
        clf = dataio.classifier_from_text(fh.read())
    class0, class1, _ = _read_csv(args, args.data)
    _check_model_dim(clf.model, class0)
    classified = []
    for ds in (class0, class1):
        if not ds.fully_observed:
            raise DataError(
                f"class {ds.label} has missing entries; classify needs fully "
                "observed points"
            )
        scores = clf.score_fn(ds.values)
        classified.append((ds.label, scores, labels_from_scores(scores, clf.threshold)))
    dataio.write_labels_csv(args.out, classified, meta={"classifier": args.classifier})
    print(f"wrote {class0.n + class1.n} labels to {args.out}")
    return 0


def _cmd_learn_phi(args) -> int:
    _require(args, "data", "latent", "queries", "out")
    label = 1 if args.class_label is None else args.class_label
    corrupted = _read_csv(args, args.data)[label]
    latent = _read_csv(args, args.latent)[label]
    phi = learn_missingness(corrupted, latent, args.queries, args.seed or 0)
    with open(args.out, "w") as fh:
        fh.write(dataio.missingness_to_text(phi))
    print(f"wrote learned missingness to {args.out}")
    return 0


def _cmd_corrupt(args) -> int:
    _require(args, "data", "out")
    class0, class1, names = _read_csv(args, args.data)
    rng = np.random.default_rng(args.seed or 0)
    by_label = {0: class0, 1: class1}
    for label in args.classes or (1,):
        ds = by_label[label]
        if args.preset == "paper-rwe":
            phi = dataio.rwe_preset(ds, rng)
        elif args.target_proportion is not None:
            entries = [
                dataio.solve_target_proportion(ds.column(j), args.target_proportion)
                for j in range(ds.dim)
            ]
            phi = MissingnessFunction.per_coordinate(entries)
        elif args.phi is not None:
            phi = _read_phi(args.phi, ds.dim)
        else:
            raise ConfigError(
                "corrupt needs --phi, --preset paper-rwe, or --target-proportion"
            )
        by_label[label] = dataio.corrupt_dataset(ds, phi, rng)
    dataio.write_dataset_csv(
        args.out, by_label[0], by_label[1], args.missing_token or "NA",
        feature_names=names, label_column=args.label_column or "label",
    )
    print(f"wrote corrupted data to {args.out}")
    return 0


def _cmd_preprocess(args) -> int:
    _require(args, "data", "out")
    trim = {}
    for column, bounds in args.trim or ():
        if column in trim:
            raise ConfigError(f"--trim given twice for column {column}")
        trim[column] = bounds
    class0, class1, names = _read_csv(args, args.data)
    class0, class1 = dataio.preprocess(
        class0,
        class1,
        trim=trim,
        mean_impute=args.impute,
        normalize=args.normalize,
    )
    dataio.write_dataset_csv(
        args.out, class0, class1, args.missing_token or "NA",
        feature_names=names, label_column=args.label_column or "label",
    )
    print(f"wrote preprocessed data to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    _require(args, "scenario", "ns", "out")
    if args.kind == "rho-sweep":
        _require(args, "rhos")
    config_class, run, _ = EXPERIMENT_KINDS[args.kind]
    # Each flag sets the config field named by its dest; unset ones keep defaults.
    cfg = config_class(**{
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(config_class)
        if getattr(args, field.name, None) is not None
    })
    rows = run(cfg)
    # The worker count does not change results, so it stays out of the hash.
    settings = dataclasses.asdict(cfg)
    del settings["workers"]
    meta = {
        "command": f"experiment-{args.kind}",
        "scenario": args.scenario,
        "seed": cfg.seed,
        "version": __version__,
        "config_hash": dataio.config_hash(settings),
    }
    dataio.write_table_csv(args.out, rows, meta=meta)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _table_number(row: dict, key: str, row_num: int) -> int | float:
    """``row[key]``, which ``read_table_csv`` leaves a string unless it parses
    as a number; a string raises ``DataError`` naming the row and column."""
    value = row[key]
    if not isinstance(value, (int, float)):
        raise DataError(
            f"table row {row_num}: column {key!r} is not a number: {value!r}"
        )
    return value


def _cmd_emit_plot_data(args) -> int:
    _require(args, "table", "out")
    rows, meta = dataio.read_table_csv(args.table)
    out_rows = []
    for row_num, row in enumerate(rows, start=1):
        new = dict(row)
        for stat, half in (("power_mean", "power_ci_half"), ("msd_mean", "ci_half")):
            if stat in row and half in row:
                mean = _table_number(row, stat, row_num)
                width = _table_number(row, half, row_num)
                new[stat.replace("_mean", "_lo")] = mean - width
                new[stat.replace("_mean", "_hi")] = mean + width
        if "n" in row:
            n = _table_number(row, "n", row_num)
            if not n > 0:
                raise DataError(
                    f"table row {row_num}: column 'n' must be positive, got {n!r}"
                )
            new["log_n"] = float(np.log(n))
        out_rows.append(new)
    dataio.write_table_csv(args.out, out_rows, meta=meta)
    print(f"wrote {len(out_rows)} plot rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# The flag of each experiment config field, with its add_argument options.
_EXPERIMENT_FLAGS = {
    "scenario": ("--scenario", {}),
    "ns": ("--n", {"type": _int_list, "metavar": "N",
                   "help": "comma list of per-class sample sizes"}),
    "rho": ("--rho", {"type": _number, "help": "scenario parameter"}),
    "rhos": ("--rho", {"type": _float_list, "help": "comma list of rho values"}),
    "reps": ("--reps", {"type": int}),
    "seed": ("--seed", {"type": int}),
    "estimators": ("--estimators", {"type": _comma_list(str, "names")}),
    "alpha": ("--alpha", {"type": _open_unit}),
    "delta": ("--delta", {"type": _open_unit}),
    "n_test": ("--n-test", {"type": int}),
    "n_type1": ("--n-type1", {"type": int}),
    "calibration_n": ("--calibration-n", {"type": int}),
    "threshold_rule": ("--rule", {"choices": ["auto", "binomial", "missing"]}),
    "corrupt_class": ("--corrupt-class", {"type": int, "choices": [0, 1]}),
    "queries": ("--queries", {"type": int}),
    "workers": ("--workers", {"type": int}),
}

# Each experiment kind: its config class, the function that runs it, and the
# field of that class it takes no flag for (nor for one without a flag above,
# ci_level).  rho-sweep sweeps ``rhos`` at one n; power and msd take one rho.
EXPERIMENT_KINDS = {
    "msd": (experiments.MsdConfig, experiments.run_msd_experiment, None),
    "power": (experiments.PowerConfig, experiments.run_power_experiment, "rhos"),
    "rho-sweep": (experiments.PowerConfig, experiments.run_power_experiment, "rho"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and every call of ``main`` gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="mnar-dre",
        description="Density ratio estimation and error-controlled "
        "classification for data that is missing not at random.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, csv=True):
        p.set_defaults(func=func, command_parser=p)
        p.add_argument("--config", help="key = value config file; flags override")
        if csv:
            p.add_argument("--missing-token", dest="missing_token")
            p.add_argument("--label-column", dest="label_column")

    p = sub.add_parser("fit", help="fit a density ratio model")
    common(p, _cmd_fit)
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--mode", choices=["mkliep", "cckliep", "kliep"])
    p.add_argument("--features", choices=["identity", "identity-squares"])
    p.add_argument("--phi", help="class-1 missingness file (mkliep)")
    p.add_argument("--phi0", help="class-0 missingness file (mkliep)")
    p.add_argument("--per-dim", dest="per_dim", action="store_true",
                   help="factorized per-dimension fit (handles partial missingness)")
    p.add_argument("--strict", action="store_true",
                   help="treat non-convergence as a failure (exit 4)")

    p = sub.add_parser("np-calibrate", help="select a classification threshold")
    common(p, _cmd_np_calibrate)
    p.add_argument("--model")
    p.add_argument("--calibration",
                   help="CSV whose class-0 rows calibrate the threshold; a "
                   "separate file, drawn independently of the training data")
    p.add_argument("--alpha", type=_open_unit)
    p.add_argument("--delta", type=_open_unit)
    p.add_argument("--rule", choices=["auto", "binomial", "missing"])
    p.add_argument("--phi0", help="class-0 missingness file")
    p.add_argument("--out")

    p = sub.add_parser("classify", help="label points with a calibrated classifier")
    common(p, _cmd_classify)
    p.add_argument("--classifier")
    p.add_argument("--data")
    p.add_argument("--out")

    p = sub.add_parser("learn-phi", help="learn missingness from queried samples")
    common(p, _cmd_learn_phi)
    p.add_argument("--data", help="corrupted CSV")
    p.add_argument("--latent", help="CSV with the true values")
    p.add_argument("--queries", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--class-label", dest="class_label", type=int, choices=[0, 1])
    p.add_argument("--out")

    p = sub.add_parser("corrupt", help="induce synthetic MNAR missingness")
    common(p, _cmd_corrupt)
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--phi", help="missingness file to apply")
    p.add_argument("--preset", choices=["paper-rwe"],
                   help="standardized per-feature logistic with random tails")
    p.add_argument("--target-proportion", dest="target_proportion", type=_proportion,
                   help="solve the logistic intercept for this missing fraction")
    p.add_argument("--classes", type=_class_labels,
                   help="comma list of class labels to corrupt "
                   "(default: 1, the non-error-controlled class)")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("preprocess", help="trim / impute / normalize")
    common(p, _cmd_preprocess)
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--impute", action="store_true")
    p.add_argument("--trim", action="append", type=_trim_spec,
                   help="column:lo:hi ('none' to skip a side)")

    p = sub.add_parser("experiment", help="run a replication study")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, (config_class, _, unset) in EXPERIMENT_KINDS.items():
        k = kinds.add_parser(kind)
        common(k, _cmd_experiment, csv=False)
        for field in dataclasses.fields(config_class):
            if field.name != unset and field.name in _EXPERIMENT_FLAGS:
                flag, options = _EXPERIMENT_FLAGS[field.name]
                k.add_argument(flag, dest=field.name, **options)
        k.add_argument("--out")

    p = sub.add_parser("emit-plot-data", help="tidy a table for plotting")
    common(p, _cmd_emit_plot_data, csv=False)
    p.add_argument("--table")
    p.add_argument("--out")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        _merge_config(args, args.command_parser)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
