"""Command-line front end.

Subcommands:
  fit         split, optionally PCA-reduce, expand, fit, score on the test set
  predict     apply a saved model container to new rows
  vif-probe   per-layer collinearity report for a trained or imported network
  equiv-demo  degree growth and forward-vs-polynomial deviation report

Every subcommand accepts ``--config FILE`` holding ``key = value`` lines
(keys are the long option names with dashes replaced by underscores);
command-line flags override config values. Warnings are summarized on
stderr; data goes to stdout or files.

Exit codes: 0 success; 2 usage or config error; 3 unusable input data;
4 numeric or training failure; 5 size budget exceeded; 6 bad model or
weight container.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from . import diagnostics, equivalence, fitcore, modelio, mlp as mlpmod, polyterms, stepwise
from .dataset import (
    DummyGroups,
    encode_design,
    load_csv,
    load_design_for_predict,
    parse_schema_sidecar,
    split,
)
from .errors import (
    DataError,
    MemoryBudgetError,
    ModelFormatError,
    PolykitError,
    TrainingDiverged,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_BUDGET = 5
EXIT_MODEL = 6

RESULTS_HEADER = "setting,dataset,seed,metric,value"

#: Options that must be present after merging the config file.
REQUIRED_OPTIONS = {
    "fit": ("data",),
    "predict": ("model", "data"),
    "vif-probe": ("data",),
    "equiv-demo": (),
}


def _parse_config_file(path) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            out = {}
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DataError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                out[key.replace("-", "_")] = value
            return out
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc


def _coerce_config(sub: argparse.ArgumentParser, cfg: dict[str, str]) -> dict:
    """Convert config strings with each option's own type converter."""
    actions = {a.dest: a for a in sub._actions}
    out = {}
    for key, value in cfg.items():
        if key == "config":
            continue
        if key not in actions:
            raise DataError(f"config key {key!r} is not an option of this subcommand")
        action = actions[key]
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            lowered = value.lower()
            if lowered not in ("true", "false", "1", "0", "yes", "no"):
                raise DataError(f"config key {key!r} expects a boolean, got {value!r}")
            out[key] = lowered in ("true", "1", "yes")
        elif action.type is not None:
            try:
                out[key] = action.type(value)
            except (TypeError, ValueError) as exc:
                raise DataError(f"config key {key!r}: bad value {value!r}") from exc
        else:
            out[key] = value
    return out


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value config file; flags override it")
    sub.add_argument("--seed", type=int, default=0, help="random seed (default 0)")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="polykit",
        description="Polynomial-regression engine and network diagnostics.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    table: dict[str, argparse.ArgumentParser] = {}

    fit = subs.add_parser("fit", help="fit a polynomial model and score it")
    table["fit"] = fit
    _add_common(fit)
    fit.add_argument("--data", help="training CSV with header row")
    fit.add_argument("--schema", help="schema sidecar file (column = kind lines)")
    fit.add_argument("--response", help="response column name (default: last column)")
    fit.add_argument("--classify", action="store_true",
                     help="force the response to be treated as class labels")
    fit.add_argument("--degree", type=int, default=2, help="polynomial degree (default 2)")
    fit.add_argument("--interact", type=int, default=None,
                     help="total-degree cap for interaction terms (default: degree)")
    fit.add_argument("--method", choices=("auto", "ols", "ridge", "logistic"),
                     default="auto", help="fit method (auto: ols or logistic by response)")
    fit.add_argument("--ridge-lambda", type=float, default=None,
                     help="ridge penalty (requires --method ridge)")
    fit.add_argument("--pca", type=float, default=None, metavar="FRACTION",
                     help="PCA-reduce the design to this variance fraction first")
    fit.add_argument("--keep-fraction", type=float, default=1.0,
                     help="randomly keep this fraction of non-linear terms")
    fit.add_argument("--fsr", action="store_true", help="forward stepwise selection")
    fit.add_argument("--validation-fraction", type=float, default=0.2,
                     help="FSR holdout fraction of the training rows (default 0.2)")
    fit.add_argument("--min-models", type=int, default=200,
                     help="FSR keeps exploring until this many candidates were scored"
                          " (each remaining candidate counts once per greedy step)")
    fit.add_argument("--improvement-tolerance", type=float, default=0.0,
                     help="FSR stops once the best candidate improves by less than this")
    fit.add_argument("--max-iter", type=int, default=100, help="logistic Newton iterations (>= 1)")
    fit.add_argument("--tol", type=float, default=1e-8, help="logistic stop: max |gradient| entry")
    fit.add_argument("--out-dir", default=".", help="directory for model and trace files")
    fit.add_argument("--results", help="CSV file to append the scored result row to")
    fit.set_defaults(func=cmd_fit)

    pred = subs.add_parser("predict", help="predict with a saved model container")
    table["predict"] = pred
    _add_common(pred)
    pred.add_argument("--model", help="model container from 'fit'")
    pred.add_argument("--data", help="CSV of feature rows")
    pred.add_argument("--out", help="predictions CSV (default: stdout)")
    pred.set_defaults(func=cmd_predict)

    probe = subs.add_parser("vif-probe", help="layer-by-layer collinearity report")
    table["vif-probe"] = probe
    _add_common(probe)
    probe.add_argument("--data", help="CSV used to train and/or probe")
    probe.add_argument("--schema", help="schema sidecar file")
    probe.add_argument("--response", help="response column name (default: last column)")
    probe.add_argument("--classify", action="store_true",
                       help="force the response to be treated as class labels")
    probe.add_argument("--weights", help="probe an imported weights container instead of training")
    probe.add_argument("--widths", type=_int_list, default=(10, 10, 10),
                       help="dense layer widths, output last (default 10,10,10)")
    probe.add_argument("--activations", type=_str_list, default=(),
                       help="hidden activations (default: relu for each)")
    probe.add_argument("--dropout", type=_float_list, default=(),
                       help="dropout rate after each hidden layer (default 0)")
    probe.add_argument("--epochs", type=int, default=10)
    probe.add_argument("--batch-size", type=int, default=32)
    probe.add_argument("--learning-rate", type=float, default=0.05)
    probe.add_argument("--probe-rows", type=int, default=2000,
                       help="rows subsampled for the probe input (default 2000)")
    probe.add_argument("--csv", help="also write the summary table as CSV here")
    probe.set_defaults(func=cmd_vif_probe)

    demo = subs.add_parser("equiv-demo", help="degree growth and deviation report")
    table["equiv-demo"] = demo
    _add_common(demo)
    demo.add_argument("--inputs", type=int, default=2, help="input features (default 2)")
    demo.add_argument("--layers", type=int, default=2, help="layers (default 2)")
    demo.add_argument("--units", type=int, default=3, help="units per layer (default 3)")
    demo.add_argument("--activation", choices=("square", "identity"), default="square")
    demo.add_argument("--points", type=int, default=100,
                      help="random evaluation points (default 100)")
    demo.set_defaults(func=cmd_equiv_demo)

    return parser, table


def _setting_string(args) -> str:
    parts = []
    if args.fsr:
        parts.append("fsr")
    parts.append(f"pr-d{args.degree}")
    if args.interact is not None and args.interact != args.degree:
        parts.append(f"i{args.interact}")
    if args.pca is not None:
        parts.append(f"pca{args.pca:g}")
    if args.method == "ridge":
        parts.append(f"ridge{args.ridge_lambda:g}")
    if args.keep_fraction != 1.0:
        parts.append(f"keep{args.keep_fraction:g}")
    return "-".join(parts)


def _append_result(path, setting: str, dataset: str, seed: int, metric: str, value: float):
    path = Path(path)
    fresh = not path.exists()
    with open(path, "a", encoding="utf-8") as fh:
        if fresh:
            fh.write(RESULTS_HEADER + "\n")
        fh.write(f"{setting},{dataset},{seed},{metric},{value!r}\n")


def cmd_fit(args) -> int:
    # comparisons written so that NaN fails them
    for ok, message in (
        (args.max_iter >= 1, "--max-iter must be at least 1"),
        (args.tol >= 0, "--tol must be at least 0"),
        (args.improvement_tolerance >= 0, "--improvement-tolerance must be at least 0"),
        (args.pca is None or 0 < args.pca <= 1, "--pca must be in (0, 1]"),
    ):
        if not ok:
            print(f"error: {message}", file=sys.stderr)
            return EXIT_USAGE
    hints = parse_schema_sidecar(args.schema) if args.schema else {}
    ds = load_csv(args.data, kind_hints=hints or None, response=args.response)
    if args.classify and not ds.schema.is_classification:
        hints[ds.schema.response.name] = "response_class"
        ds = load_csv(args.data, kind_hints=hints, response=args.response)

    classify = ds.schema.is_classification
    method = args.method
    if method == "auto":
        method = "logistic" if classify else "ols"
    if method == "logistic" and not classify:
        raise DataError("--method logistic needs a class response (use --classify)")
    if method in ("ols", "ridge") and classify:
        raise DataError(f"--method {method} needs a numeric response")
    if (args.ridge_lambda is not None) != (method == "ridge"):
        raise DataError("--ridge-lambda must be given exactly when --method ridge is")
    if args.fsr and method == "ridge":
        raise DataError("--fsr and --method ridge cannot be combined")
    if args.fsr and args.pca is not None:
        raise DataError("--fsr and --pca cannot be combined")

    train, test = split(ds, args.seed)
    design, groups = encode_design(train)
    spec = polyterms.PolySpec(args.degree, args.interact)

    pca_basis = None
    if args.pca is not None:
        pca_basis = fitcore.pca_fit(design, args.pca)
        term_width = pca_basis.r
        term_groups = DummyGroups.all_numeric(term_width)
    else:
        term_width = design.shape[1]
        term_groups = groups

    terms = polyterms.enumerate_terms(term_width, term_groups, spec)
    if args.keep_fraction < 1.0:
        terms = polyterms.drop_random_columns(terms, args.keep_fraction, args.seed)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.fsr:
        cfg = stepwise.FSRConfig(
            candidates=terms,
            validation_fraction=args.validation_fraction,
            min_models=args.min_models,
            improvement_tolerance=args.improvement_tolerance,
            max_iter=args.max_iter, tol=args.tol,
        )
        result = stepwise.fsr(train, cfg, args.seed)
        model = result.model
        trace_path = out_dir / "fsr_trace.csv"
        trace_path.write_text(stepwise.trace_to_csv(result.trace), encoding="utf-8")
        print(f"fsr selected {len(model.terms)} of {len(terms)} candidate terms")
    else:
        model = fitcore.fit_poly_model(
            design, train.response_values(), terms, method,
            lam=args.ridge_lambda, pca=pca_basis, schema=train.schema, groups=groups,
            max_iter=args.max_iter, tol=args.tol,
        )

    test_design, _ = encode_design(test, train.schema)
    preds = fitcore.predict(model, test_design)
    actual = test.response_values()
    if classify:
        metric, value = "pcc", fitcore.pcc(preds, actual)
    else:
        metric, value = "mape", fitcore.mape(preds, actual)

    model_path = out_dir / "model.json"
    modelio.save_model(model, model_path)

    setting = _setting_string(args)
    dataset_name = Path(args.data).stem
    print(f"setting={setting} dataset={dataset_name} n_train={train.n} n_test={test.n}")
    print(f"{metric}={value!r}")
    if not classify and len(np.unique(preds)) > 1 and len(np.unique(actual)) > 1:
        print(f"corr={fitcore.corr(preds, actual)!r}")
    print(f"model written to {model_path}")
    if args.results:
        _append_result(args.results, setting, dataset_name, args.seed, metric, value)
    return EXIT_OK


def cmd_predict(args) -> int:
    model = modelio.load_model(args.model)
    if model.schema is None:
        raise ModelFormatError("model container carries no schema; cannot read raw CSV")
    design = load_design_for_predict(args.data, model.schema)
    if design.shape[1] != model.input_width:
        raise ModelFormatError(f"model container's schema encodes {design.shape[1]}"
                               f" design columns but its terms expect {model.input_width}")
    if design.shape[0] == 0:
        warnings.warn(f"{args.data}: no data rows; writing empty predictions")
        lines = ["prediction"]
    else:
        preds = fitcore.predict(model, design)
        if model.method == "logistic":
            lines = ["prediction"] + [str(v) for v in preds]
        else:
            lines = ["prediction"] + [repr(float(v)) for v in preds]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"{len(lines) - 1} prediction(s) written to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_vif_probe(args) -> int:
    hints = parse_schema_sidecar(args.schema) if args.schema else {}
    ds = load_csv(args.data, kind_hints=hints or None, response=args.response)
    if args.classify and not ds.schema.is_classification:
        hints[ds.schema.response.name] = "response_class"
        ds = load_csv(args.data, kind_hints=hints, response=args.response)
    design, _ = encode_design(ds)

    if args.weights:
        net = mlpmod.load_weights(args.weights)
        if net.input_width != design.shape[1]:
            raise DataError(f"network input width {net.input_width} does not match the"
                            f" data's design width {design.shape[1]}")
    else:
        if ds.schema.is_classification:
            targets, _classes = mlpmod.one_hot(ds.response_values())
            output_kind = "softmax"
            out_width = targets.shape[1]
        else:
            targets = ds.response_values()[:, None]
            output_kind = "linear"
            out_width = 1
        widths = tuple(args.widths)
        if widths[-1] != out_width:
            raise DataError(
                f"output width {widths[-1]} does not match the response ({out_width})"
            )
        config = mlpmod.MLPConfig(
            layer_widths=widths,
            activations=tuple(args.activations),
            dropout_rates=tuple(args.dropout),
            output_kind=output_kind,
            epochs=args.epochs,
            batch_size=args.batch_size,
            learning_rate=args.learning_rate,
            seed=args.seed,
        )
        net = mlpmod.train_mlp(design, targets, config)

    rng = np.random.default_rng(args.seed)
    n = design.shape[0]
    rows = min(args.probe_rows, n)
    idx = np.sort(rng.choice(n, size=rows, replace=False))
    reports = diagnostics.probe_layers(net, design[idx])
    sys.stdout.write(diagnostics.format_reports(reports))
    if args.csv:
        Path(args.csv).write_text(diagnostics.reports_to_csv(reports), encoding="utf-8")
    return EXIT_OK


def cmd_equiv_demo(args) -> int:
    for name in ("inputs", "layers", "units", "points"):
        if getattr(args, name) < 1:
            print(f"error: --{name} must be at least 1", file=sys.stderr)
            return EXIT_USAGE
    net = equivalence.random_polynomial_network(
        args.inputs, args.layers, args.units, args.seed, args.activation
    )
    per_layer = equivalence.extract_layer_polynomials(net)
    degrees = equivalence.degree_growth_report(per_layer)
    deviation = equivalence.equivalence_check(
        net, per_layer[-1], n_points=args.points, seed=args.seed
    )
    print("layer degrees: " + " ".join(str(d) for d in degrees))
    print(f"max relative deviation: {deviation:.3e}")
    for j, poly in enumerate(per_layer[-1][: min(3, len(per_layer[-1]))]):
        label = poly.label()
        pieces = label.split(" + ")
        if len(pieces) > 8:
            label = " + ".join(pieces[:8]) + f" + ... ({len(pieces) - 8} more terms)"
        print(f"output {j} ({len(poly)} terms, degree {poly.degree}): {label}")
    return EXIT_OK


def main(argv=None) -> int:
    parser, table = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            cfg = _coerce_config(table[args.command], _parse_config_file(args.config))
        except DataError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        table[args.command].set_defaults(**cfg)
        args = parser.parse_args(argv)

    for name in REQUIRED_OPTIONS[args.command]:
        if getattr(args, name) is None:
            print(f"error: --{name} is required (flag or config file)", file=sys.stderr)
            return EXIT_USAGE

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = args.func(args)
        except DataError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA
        except MemoryBudgetError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        except TrainingDiverged as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        except ModelFormatError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_MODEL
        except (ValueError, PolykitError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
            if caught:
                print(f"{len(caught)} warning(s)", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
