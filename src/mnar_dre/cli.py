"""Command-line interface.

Commands::

    fit           fit a density ratio model from a labelled CSV
    np-calibrate  select an error-controlled classification threshold
    classify      label points with a calibrated classifier
    learn-phi     learn per-feature missingness by querying latent values
    corrupt       induce synthetic MNAR missingness in a CSV
    preprocess    trim / impute / normalize a CSV
    experiment    run the synthetic replication studies (msd | power | rho-sweep)
    emit-plot-data  reshape an experiment table into tidy plot-ready CSV

Every command is a pure function of its inputs, flags, and seed; reruns are
byte-identical.  Flags override values from an optional ``--config`` file of
``key = value`` lines.  Exit codes: 0 success, 2 usage error, 3 data error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import __version__, dataio, experiments, kliep, naive_bayes
from .kliep import COMPLETE_CASE, FULLY_OBSERVED, Mnar
from .missingness import learn_missingness
from .model import Dataset, DataError, FeatureMap, MissingnessFunction, NumericError
from .np_classify import build_np_classifier, classify as np_classify_points

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class _UsageError(Exception):
    pass


def _merge_config(args: argparse.Namespace, keys: dict[str, type]) -> None:
    """Fill unset flags from the optional config file; flags win."""
    if not getattr(args, "config", None):
        return
    file_cfg = dataio.read_config_file(args.config)
    for key, caster in keys.items():
        if getattr(args, key, None) is None and key.replace("_", "-") in file_cfg:
            raw = file_cfg[key.replace("_", "-")]
            try:
                setattr(args, key, caster(raw))
            except ValueError:
                raise _UsageError(f"config key {key!r}: cannot parse {raw!r}") from None
    unknown = set(file_cfg) - {k.replace("_", "-") for k in keys}
    if unknown:
        raise _UsageError(f"unknown config keys: {sorted(unknown)}")


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise _UsageError(f"--{name.replace('_', '-')} is required")


def _feature_map(kind: str, dim: int) -> FeatureMap:
    if kind == "identity":
        return FeatureMap.identity(dim)
    if kind == "identity-squares":
        return FeatureMap.identity_plus_squares(dim)
    raise _UsageError(f"unknown feature map {kind!r}")


def _read_phi(path: str | None) -> MissingnessFunction | None:
    if path is None:
        return None
    with open(path) as fh:
        return dataio.missingness_from_text(fh.read())


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(","))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_fit(args) -> int:
    _merge_config(
        args,
        {"data": str, "out": str, "mode": str, "features": str, "phi": str,
         "phi0": str, "missing_token": str, "label_column": str, "per_dim": bool},
    )
    _require(args, "data", "out", "mode")
    class0, class1 = dataio.read_dataset_csv(
        args.data, args.missing_token or "NA", args.label_column or "label"
    )
    mode = args.mode
    if mode == "mkliep":
        phi1 = _read_phi(args.phi) or MissingnessFunction.none(class1.dim)
        phi0 = _read_phi(args.phi0) or MissingnessFunction.none(class0.dim)
        weighting = Mnar(phi1, phi0)
    elif mode == "cckliep":
        weighting = COMPLETE_CASE
    elif mode == "kliep":
        weighting = FULLY_OBSERVED
    else:
        raise _UsageError(f"unknown fit mode {mode!r}")
    if args.per_dim:
        fmap1d = _feature_map(args.features or "identity", 1)
        model = naive_bayes.fit_naive_bayes(
            class1, class0, weighting, feature_map_1d=fmap1d
        )
    else:
        fmap = _feature_map(args.features or "identity", class1.dim)
        model = kliep.fit(class1, class0, fmap, weighting)
        phi0_for_n = weighting.phi0 if isinstance(weighting, Mnar) else None
        if mode == "cckliep":
            class0 = class0.restrict(class0.observed_rows())
        model = model.with_normalizer(
            kliep.normalizing_constant(model, class0, phi0_for_n)
        )
    if args.strict and not model.converged:
        raise NumericError("fit did not converge (strict mode)")
    with open(args.out, "w") as fh:
        fh.write(dataio.model_to_text(model))
    print(f"wrote model to {args.out}")
    return 0


def _cmd_np_calibrate(args) -> int:
    _merge_config(
        args,
        {"model": str, "calibration": str, "data": str, "out": str, "alpha": float,
         "delta": float, "rule": str, "phi0": str, "split": float, "seed": int,
         "missing_token": str, "label_column": str},
    )
    _require(args, "model", "out", "alpha", "delta")
    if args.calibration is None and (args.data is None or args.split is None):
        raise _UsageError(
            "np-calibrate needs --calibration, or --data with an explicit "
            "--split fraction (training data must never double as calibration)"
        )
    with open(args.model) as fh:
        model = dataio.model_from_text(fh.read())
    if args.calibration is not None:
        class0, _class1 = dataio.read_dataset_csv(
            args.calibration, args.missing_token or "NA",
            args.label_column or "label",
        )
    else:
        class0_all, _ = dataio.read_dataset_csv(
            args.data, args.missing_token or "NA", args.label_column or "label"
        )
        rng = np.random.default_rng(args.seed or 0)
        n = class0_all.n
        n_cal = int(round((args.split) * n))
        if not 0 < n_cal <= n:
            raise _UsageError("--split must leave a non-empty calibration part")
        idx = rng.permutation(n)[:n_cal]
        idx = np.sort(idx)
        class0 = Dataset(class0_all.values[idx], 0)
        with open(args.out + ".split-indices.txt", "w") as fh:
            fh.write("\n".join(str(i) for i in idx) + "\n")
    phi0 = _read_phi(args.phi0)
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
    _merge_config(
        args, {"classifier": str, "data": str, "out": str, "missing_token": str,
               "label_column": str},
    )
    _require(args, "classifier", "data", "out")
    with open(args.classifier) as fh:
        clf = dataio.classifier_from_text(fh.read())
    class0, class1 = dataio.read_dataset_csv(
        args.data, args.missing_token or "NA", args.label_column or "label"
    )
    rows = []
    for ds in (class0, class1):
        if not ds.fully_observed:
            raise DataError(
                f"class {ds.label} has missing entries; classify needs fully "
                "observed points"
            )
        scores = clf.score_fn(ds.values)
        labels = np_classify_points(clf, ds.values)
        for truth, score, label in zip(
            np.full(ds.n, ds.label), scores, labels
        ):
            rows.append(
                {"true_label": int(truth), "score": float(score), "label": int(label)}
            )
    dataio.write_table_csv(args.out, rows, meta={"classifier": args.classifier})
    print(f"wrote {len(rows)} labels to {args.out}")
    return 0


def _cmd_learn_phi(args) -> int:
    _merge_config(
        args, {"data": str, "latent": str, "queries": int, "seed": int, "out": str,
               "class_label": int, "missing_token": str, "label_column": str},
    )
    _require(args, "data", "latent", "queries", "out")
    label = 1 if args.class_label is None else args.class_label
    corrupted = dataio.read_dataset_csv(
        args.data, args.missing_token or "NA", args.label_column or "label"
    )[label]
    latent = dataio.read_dataset_csv(
        args.latent, args.missing_token or "NA", args.label_column or "label"
    )[label]
    phi = learn_missingness(corrupted, latent, args.queries, args.seed or 0)
    with open(args.out, "w") as fh:
        fh.write(dataio.missingness_to_text(phi))
    print(f"wrote learned missingness to {args.out}")
    return 0


def _cmd_corrupt(args) -> int:
    _merge_config(
        args, {"data": str, "out": str, "phi": str, "preset": str,
               "target_proportion": float, "classes": str, "seed": int,
               "missing_token": str, "label_column": str},
    )
    _require(args, "data", "out")
    class0, class1 = dataio.read_dataset_csv(
        args.data, args.missing_token or "NA", args.label_column or "label"
    )
    rng = np.random.default_rng(args.seed or 0)
    targets = [int(c) for c in (args.classes or "1").split(",")]
    by_label = {0: class0, 1: class1}
    for label in targets:
        ds = by_label[label]
        if args.preset == "paper-rwe":
            phi = dataio.rwe_preset(ds, rng)
        elif args.target_proportion is not None:
            entries = [
                dataio.solve_target_proportion(ds.column(j), args.target_proportion)
                for j in range(ds.dim)
            ]
            phi = MissingnessFunction.per_coordinate(entries)
        else:
            phi = _read_phi(args.phi)
            if phi is None:
                raise _UsageError(
                    "corrupt needs --phi, --preset paper-rwe, or --target-proportion"
                )
        by_label[label] = dataio.corrupt_dataset(ds, phi, rng)
    dataio.write_dataset_csv(
        args.out, by_label[0], by_label[1], args.missing_token or "NA",
        label_column=args.label_column or "label",
    )
    print(f"wrote corrupted data to {args.out}")
    return 0


def _parse_trim(specs: list[str] | None) -> dict[int, tuple[float, float]]:
    trim = {}
    for spec in specs or []:
        parts = spec.split(":")
        if len(parts) != 3:
            raise _UsageError(f"trim spec {spec!r} must be column:lo:hi (use 'none')")
        j = int(parts[0])
        lo = -float("inf") if parts[1] == "none" else float(parts[1])
        hi = float("inf") if parts[2] == "none" else float(parts[2])
        trim[j] = (lo, hi)
    return trim


def _cmd_preprocess(args) -> int:
    _merge_config(
        args, {"data": str, "out": str, "normalize": bool, "impute": bool,
               "missing_token": str, "label_column": str},
    )
    _require(args, "data", "out")
    class0, class1 = dataio.read_dataset_csv(
        args.data, args.missing_token or "NA", args.label_column or "label"
    )
    if args.apply_transform:
        raise _UsageError("--apply-transform is not supported yet; fit on train data")
    class0, class1, _rec = dataio.preprocess(
        class0,
        class1,
        trim=_parse_trim(args.trim),
        mean_impute=bool(args.impute),
        normalize=bool(args.normalize),
    )
    dataio.write_dataset_csv(
        args.out, class0, class1, args.missing_token or "NA",
        label_column=args.label_column or "label",
    )
    print(f"wrote preprocessed data to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    _merge_config(
        args,
        {"scenario": str, "n": str, "rho": str, "reps": int, "seed": int,
         "out": str, "estimators": str, "alpha": float, "delta": float,
         "n_test": int, "n_type1": int, "calibration_n": int, "rule": str,
         "corrupt_class": int, "queries": int, "workers": int},
    )
    _require(args, "scenario", "out", "n")
    # Unset flags take the defaults of the experiment config dataclasses.
    keys = ["reps", "seed", "corrupt_class", "workers"]
    if args.kind != "msd":
        keys += ["alpha", "delta", "n_test", "n_type1", "calibration_n", "queries"]
    given = {k: getattr(args, k) for k in keys if getattr(args, k) is not None}
    if args.estimators:
        given["estimators"] = tuple(args.estimators.split(","))
    ns = _parse_int_list(args.n)
    if args.kind == "msd":
        rho = float(args.rho) if args.rho else 0.0
        cfg = experiments.MsdConfig(scenario=args.scenario, ns=ns, rho=rho, **given)
        run = experiments.run_msd_experiment
    elif args.kind in ("power", "rho-sweep"):
        if args.rule:
            given["threshold_rule"] = args.rule
        rhos = _parse_float_list(args.rho) if args.kind == "rho-sweep" else None
        if args.kind == "rho-sweep" and not rhos:
            raise _UsageError("rho-sweep needs --rho with a comma-separated list")
        rho = float(args.rho) if (args.rho and args.kind == "power") else 0.0
        cfg = experiments.PowerConfig(
            scenario=args.scenario, ns=ns, rhos=rhos, rho=rho, **given
        )
        run = experiments.run_power_experiment
    else:
        raise _UsageError(f"unknown experiment kind {args.kind!r}")
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


def _cmd_emit_plot_data(args) -> int:
    _merge_config(args, {"table": str, "out": str})
    _require(args, "table", "out")
    rows, meta = dataio.read_table_csv(args.table)
    out_rows = []
    for row in rows:
        new = dict(row)
        for stat, half in (("power_mean", "power_ci_half"), ("msd_mean", "ci_half")):
            if stat in row and half in row:
                new[stat.replace("_mean", "_lo")] = row[stat] - row[half]
                new[stat.replace("_mean", "_hi")] = row[stat] + row[half]
        if "n" in row:
            new["log_n"] = float(np.log(row["n"]))
        out_rows.append(new)
    dataio.write_table_csv(args.out, out_rows, meta=meta)
    print(f"wrote {len(out_rows)} plot rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mnar-dre",
        description="Density ratio estimation and error-controlled "
        "classification for data that is missing not at random.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file; flags override")
        p.add_argument("--missing-token", dest="missing_token")
        p.add_argument("--label-column", dest="label_column")
        p.add_argument("--strict", action="store_true",
                       help="treat non-convergence as a failure (exit 4)")

    p = sub.add_parser("fit", help="fit a density ratio model")
    common(p)
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--mode", choices=["mkliep", "cckliep", "kliep"])
    p.add_argument("--features", choices=["identity", "identity-squares"])
    p.add_argument("--phi", help="class-1 missingness file (mkliep)")
    p.add_argument("--phi0", help="class-0 missingness file (mkliep)")
    p.add_argument("--per-dim", dest="per_dim", action="store_true",
                   help="factorized per-dimension fit (handles partial missingness)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("np-calibrate", help="select a classification threshold")
    common(p)
    p.add_argument("--model")
    p.add_argument("--calibration", help="class-0 calibration CSV (distinct file)")
    p.add_argument("--data", help="with --split: file to split for calibration")
    p.add_argument("--split", type=float,
                   help="calibration fraction; indices are recorded next to --out")
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--rule", choices=["auto", "binomial", "missing"])
    p.add_argument("--phi0", help="class-0 missingness file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_np_calibrate)

    p = sub.add_parser("classify", help="label points with a calibrated classifier")
    common(p)
    p.add_argument("--classifier")
    p.add_argument("--data")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("learn-phi", help="learn missingness from queried samples")
    common(p)
    p.add_argument("--data", help="corrupted CSV")
    p.add_argument("--latent", help="CSV with the true values")
    p.add_argument("--queries", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--class-label", dest="class_label", type=int, choices=[0, 1])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_learn_phi)

    p = sub.add_parser("corrupt", help="induce synthetic MNAR missingness")
    common(p)
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--phi", help="missingness file to apply")
    p.add_argument("--preset", choices=["paper-rwe"],
                   help="standardized per-feature logistic with random tails")
    p.add_argument("--target-proportion", dest="target_proportion", type=float,
                   help="solve the logistic intercept for this missing fraction")
    p.add_argument("--classes", help="comma list of class labels to corrupt "
                   "(default: 1, the non-error-controlled class)")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("preprocess", help="trim / impute / normalize")
    common(p)
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--normalize", action="store_true", default=None)
    p.add_argument("--impute", action="store_true", default=None)
    p.add_argument("--trim", action="append", help="column:lo:hi ('none' to skip a side)")
    p.add_argument("--apply-transform", dest="apply_transform")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("experiment", help="run a replication study")
    common(p)
    p.add_argument("kind", choices=["msd", "power", "rho-sweep"])
    p.add_argument("--scenario")
    p.add_argument("--n", help="comma list of per-class sample sizes")
    p.add_argument("--rho", help="scenario parameter (comma list for rho-sweep)")
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--estimators", help="comma list")
    p.add_argument("--alpha", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--n-test", dest="n_test", type=int)
    p.add_argument("--n-type1", dest="n_type1", type=int)
    p.add_argument("--calibration-n", dest="calibration_n", type=int)
    p.add_argument("--rule", choices=["auto", "binomial", "missing"])
    p.add_argument("--corrupt-class", dest="corrupt_class", type=int, choices=[0, 1])
    p.add_argument("--queries", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("emit-plot-data", help="tidy a table for plotting")
    common(p)
    p.add_argument("--table")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_emit_plot_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (_UsageError, experiments.ConfigError) as exc:
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
