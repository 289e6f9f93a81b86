"""Command-line front end.

Subcommands:
  fit         encode, split, optionally PCA-reduce, expand, fit, score on the test set
  predict     apply a saved model container to new rows
  vif-probe   per-layer collinearity report for a trained or imported network
  equiv-demo  degree growth and forward-vs-polynomial deviation report

Every subcommand accepts ``--config FILE`` holding ``key = value`` lines.
Each key is a full long option name (dashes or underscores) and each line
becomes the argument ``--key=value`` placed before the command-line flags,
which therefore override it; a boolean option takes true/false, yes/no or
1/0. One parse checks config values and flags alike: every option's type,
choices and range is its argument type, and the rules that tie options
together are checked right after it. Warnings are summarized on stderr;
data goes to stdout or files.

Exit codes: 0 success; 2 usage or config error, or an output path that
cannot be written; 3 unusable input data; 4 numeric or training failure;
5 size budget exceeded; 6 bad model or weight container. The package's
error types carry their own codes (``errors``).
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
    design_rows,
    encode_design,
    holdout,
    key_value_lines,
    load_csv,
    load_design_for_predict,
    parse_schema_sidecar,
    split_rows,
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
EXIT_DATA = DataError.exit_code
EXIT_NUMERIC = TrainingDiverged.exit_code
EXIT_BUDGET = MemoryBudgetError.exit_code
EXIT_MODEL = ModelFormatError.exit_code

RESULTS_HEADER = "setting,dataset,seed,metric,value"


def _config_arguments(sub: argparse.ArgumentParser, path) -> list[str]:
    """A config file's ``key = value`` lines as arguments for ``sub``:
    ``--key=value``, or for a boolean option the bare flag when the value
    is true and nothing when it is false."""
    out = []
    try:
        for _, key, value in key_value_lines(path, "config"):
            flag = "--" + key.replace("_", "-")
            if sub.get_default(key.replace("-", "_")) is not False:
                out.append(f"{flag}={value}")
            elif value.lower() in ("true", "1", "yes"):
                out.append(flag)
            elif value.lower() not in ("false", "0", "no"):
                sub.error(f"config key {key!r} expects a boolean, got {value!r}")
    except DataError as exc:
        sub.error(str(exc))
    return out


def _ranged(kind, interval: str):
    """Argument type: ``kind(text)`` inside ``interval``, written like
    "(0, 1]" or "[1, inf)". The comparisons fail for NaN."""
    low, high = (float(end) for end in interval[1:-1].split(","))

    def convert(text: str):
        value = kind(text)
        above = value > low if interval[0] == "(" else value >= low
        below = value < high if interval[-1] == ")" else value <= high
        if not (above and below):
            raise argparse.ArgumentTypeError(f"{text!r} is not in {interval}")
        return value

    convert.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return convert


def _one_of(names: tuple[str, ...]):
    def convert(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError(f"{text!r} is not one of {', '.join(names)}")
        return text

    return convert


def _listed(convert):
    """Argument type: a comma-separated list of at least one ``convert`` entry."""
    def parse(text: str) -> tuple:
        entries = tuple(convert(v.strip()) for v in text.split(",") if v.strip())
        if not entries:
            raise argparse.ArgumentTypeError("expected at least one comma-separated value")
        return entries

    parse.__name__ = f"{convert.__name__} list"
    return parse


AT_LEAST_ONE = _ranged(int, "[1, inf)")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value config file; flags override it")
    sub.add_argument("--seed", type=_ranged(int, "[0, inf)"), default=0,
                     help="random seed (default 0)")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="polykit",
        description="Polynomial-regression engine and network diagnostics.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    table: dict[str, argparse.ArgumentParser] = {}

    fit = table["fit"] = subs.add_parser("fit", help="fit a polynomial model and score it",
                                         allow_abbrev=False)
    _add_common(fit)
    fit.add_argument("--data", required=True, help="training CSV with header row")
    fit.add_argument("--schema", help="schema sidecar file (column = kind lines)")
    fit.add_argument("--response", help="response column name (default: last column)")
    fit.add_argument("--classify", action="store_true",
                     help="force the response to be treated as class labels")
    fit.add_argument("--degree", type=AT_LEAST_ONE, default=2,
                     help="polynomial degree (default 2)")
    fit.add_argument("--interact", type=AT_LEAST_ONE, default=None,
                     help="total-degree cap for interaction terms (default: degree)")
    fit.add_argument("--method", choices=("auto", "ols", "ridge", "logistic"),
                     default="auto", help="fit method (auto: ols or logistic by response)")
    fit.add_argument("--ridge-lambda", type=_ranged(float, "(0, inf)"), default=None,
                     help="ridge penalty (requires --method ridge)")
    fit.add_argument("--pca", type=_ranged(float, "(0, 1]"), default=None, metavar="FRACTION",
                     help="PCA-reduce the design to this variance fraction first")
    fit.add_argument("--keep-fraction", type=_ranged(float, "(0, 1]"), default=1.0,
                     help="randomly keep this fraction of non-linear terms")
    fit.add_argument("--fsr", action="store_true", help="forward stepwise selection")
    fit.add_argument("--validation-fraction", type=_ranged(float, "(0, 1)"), default=0.2,
                     help="FSR holdout fraction of the training rows (default 0.2)")
    fit.add_argument("--min-models", type=AT_LEAST_ONE, default=200,
                     help="FSR keeps exploring until this many candidates were scored"
                          " (each remaining candidate counts once per greedy step)")
    fit.add_argument("--improvement-tolerance", type=_ranged(float, "[0, inf]"), default=0.0,
                     help="FSR stops once the best candidate improves by less than this")
    fit.add_argument("--max-iter", type=AT_LEAST_ONE, default=fitcore.NEWTON_MAX_ITER,
                     help="logistic Newton iterations (default %(default)s)")
    fit.add_argument("--tol", type=_ranged(float, "[0, inf]"), default=fitcore.NEWTON_TOL,
                     help="logistic stop: max |gradient| entry")
    fit.add_argument("--out-dir", default=".", help="directory for model and trace files")
    fit.add_argument("--results", help="CSV file to append the scored result row to")
    fit.set_defaults(func=cmd_fit, usage=_fit_usage)

    pred = table["predict"] = subs.add_parser(
        "predict", help="predict with a saved model container", allow_abbrev=False)
    _add_common(pred)
    pred.add_argument("--model", required=True, help="model container from 'fit'")
    pred.add_argument("--data", required=True, help="CSV of feature rows")
    pred.add_argument("--out", help="predictions CSV (default: stdout)")
    pred.set_defaults(func=cmd_predict)

    probe = table["vif-probe"] = subs.add_parser(
        "vif-probe", help="layer-by-layer collinearity report", allow_abbrev=False)
    _add_common(probe)
    probe.add_argument("--data", required=True, help="CSV used to train and/or probe")
    probe.add_argument("--schema", help="schema sidecar file")
    probe.add_argument("--response", help="response column name (default: last column)")
    probe.add_argument("--classify", action="store_true",
                       help="force the response to be treated as class labels")
    probe.add_argument("--weights", help="probe an imported weights container instead of training")
    probe.add_argument("--widths", type=_listed(AT_LEAST_ONE),
                       help="dense layer widths, output last (default 10,10,<classes or 1>)")
    probe.add_argument("--activations", type=_listed(_one_of(mlpmod.HIDDEN_ACTIVATIONS)),
                       default=(),
                       help="hidden activations (default: relu for each)")
    probe.add_argument("--dropout", type=_listed(_ranged(float, "[0, 1)")), default=(),
                       help="dropout rate after each hidden layer (default 0)")
    probe.add_argument("--epochs", type=_ranged(int, "[0, inf)"), default=10,
                       help="training epochs; 0 probes the untrained network (default 10)")
    probe.add_argument("--batch-size", type=AT_LEAST_ONE, default=32)
    probe.add_argument("--learning-rate", type=_ranged(float, "(0, inf)"), default=0.05)
    probe.add_argument("--probe-rows", type=AT_LEAST_ONE, default=2000,
                       help="rows subsampled for the probe input (default 2000)")
    probe.add_argument("--csv", help="also write the summary table as CSV here")
    probe.set_defaults(func=cmd_vif_probe, usage=_vif_probe_usage)

    demo = table["equiv-demo"] = subs.add_parser(
        "equiv-demo", help="degree growth and deviation report", allow_abbrev=False)
    _add_common(demo)
    demo.add_argument("--inputs", type=AT_LEAST_ONE, default=2, help="input features (default 2)")
    demo.add_argument("--layers", type=AT_LEAST_ONE, default=2, help="layers (default 2)")
    demo.add_argument("--units", type=AT_LEAST_ONE, default=3, help="units per layer (default 3)")
    demo.add_argument("--activation", choices=equivalence.POLYNOMIAL_ACTIVATIONS,
                      default="square")
    demo.add_argument("--points", type=AT_LEAST_ONE, default=100,
                      help="random evaluation points (default 100)")
    demo.set_defaults(func=cmd_equiv_demo)

    return parser, table


def _fit_usage(args) -> str | None:
    """The first cross-option rule the ``fit`` arguments break, if any."""
    if args.interact is not None and args.interact > args.degree:
        return f"--interact {args.interact} exceeds --degree {args.degree}"
    if (args.ridge_lambda is not None) != (args.method == "ridge"):
        return "--ridge-lambda must be given exactly when --method ridge is"
    if args.fsr and args.method == "ridge":
        return "--fsr and --method ridge cannot be combined"
    if args.fsr and args.pca is not None:
        return "--fsr and --pca cannot be combined"
    return None


def _vif_probe_usage(args) -> str | None:
    """The first cross-option rule the ``vif-probe`` arguments break, if any."""
    hidden = 2 if args.widths is None else len(args.widths) - 1
    for name, given in (("--activations", args.activations), ("--dropout", args.dropout)):
        if args.weights is None and given and len(given) != hidden:
            return f"{name} needs one entry per hidden layer of --widths ({hidden})"
    return None


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


def _load_table(args):
    """The ``--data`` CSV, typed by the ``--schema`` sidecar, ``--response``
    and ``--classify``."""
    hints = parse_schema_sidecar(args.schema) if args.schema else {}
    return load_csv(args.data, kind_hints=hints or None, response=args.response,
                    classify=args.classify)


def cmd_fit(args) -> int:
    ds = _load_table(args)

    classify = ds.schema.is_classification
    method = args.method
    if method == "auto":
        method = "logistic" if classify else "ols"
    if method == "logistic" and not classify:
        raise DataError("--method logistic needs a class response (use --classify)")
    if method in ("ols", "ridge") and classify:
        raise DataError(f"--method {method} needs a numeric response")

    train_idx, test_idx = split_rows(ds.n, args.seed)
    design, groups = encode_design(ds)  # the whole table's, then its training rows
    design, test_design = design_rows(design, train_idx), design_rows(design, test_idx)
    y = ds.response_values()
    y_train, actual = y[train_idx], y[test_idx]
    spec = polyterms.PolySpec(args.degree, args.interact)

    pca_basis = None
    if args.pca is not None:
        pca_basis = fitcore.pca_fit(design, args.pca)
        term_width = pca_basis.r
        term_groups = DummyGroups.all_numeric(term_width)
    else:
        term_width = design.shape[1]
        term_groups = groups

    total = polyterms.count_terms(term_width, term_groups, spec)
    polyterms.check_cell_budget(
        len(y_train), polyterms.kept_term_count(total, term_width, args.keep_fraction))
    if args.keep_fraction < 1.0:
        terms = polyterms.thinned_terms(term_width, term_groups, spec, args.keep_fraction,
                                        args.seed)
    else:
        terms = polyterms.enumerate_terms(term_width, term_groups, spec)

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
        result = stepwise.search(design, groups, y_train, ds.schema, cfg, args.seed)
        model = result.model
        trace_path = out_dir / "fsr_trace.csv"
        trace_path.write_text(stepwise.trace_to_csv(result.trace), encoding="utf-8")
        print(f"fsr selected {len(model.terms)} of {len(terms)} candidate terms")
    else:
        model = fitcore.fit_poly_model(
            design, y_train, terms, method,
            lam=args.ridge_lambda, pca=pca_basis, schema=ds.schema, groups=groups,
            max_iter=args.max_iter, tol=args.tol,
        )

    preds = fitcore.predict(model, test_design)
    if classify:
        metric, value = "pcc", fitcore.pcc(preds, actual)
    else:
        metric, value = "mape", fitcore.mape(preds, actual)

    model_path = out_dir / "model.json"
    modelio.save_model(model, model_path)

    setting = _setting_string(args)
    dataset_name = Path(args.data).stem
    print(f"setting={setting} dataset={dataset_name} n_train={len(y_train)} n_test={len(actual)}")
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
    ds = _load_table(args)
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
        else:
            targets = ds.response_values()[:, None]
            output_kind = "linear"
        widths = (10, 10, targets.shape[1]) if args.widths is None else tuple(args.widths)
        if widths[-1] != targets.shape[1]:
            raise DataError(f"output width {widths[-1]} does not match the response"
                            f" ({targets.shape[1]})")
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

    n = design.shape[0]
    _, idx = holdout(n, min(args.probe_rows, n), args.seed)
    reports = diagnostics.probe_layers(net, design[idx])
    sys.stdout.write(diagnostics.format_reports(reports))
    if args.csv:
        Path(args.csv).write_text(diagnostics.reports_to_csv(reports), encoding="utf-8")
    return EXIT_OK


def cmd_equiv_demo(args) -> int:
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


def _exit_code(exc: Exception) -> int:
    """A package error's own exit code; any other ValueError is a numeric
    failure, and an OSError is an unusable output path, since every input
    read wraps its OSError in a package error."""
    if isinstance(exc, PolykitError):
        return exc.exit_code
    return EXIT_NUMERIC if isinstance(exc, ValueError) else EXIT_USAGE


def main(argv=None) -> int:
    parser, table = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] in table:
            pre = argparse.ArgumentParser(prog=f"polykit {argv[0]}", add_help=False,
                                          allow_abbrev=False)
            pre.add_argument("--config")
            path = pre.parse_known_args(argv[1:])[0].config
            if path:
                # right after the subcommand, so later command-line flags win
                argv[1:1] = _config_arguments(table[argv[0]], path)
        args = parser.parse_args(argv)
        problem = args.usage(args) if hasattr(args, "usage") else None
        if problem:
            table[args.command].error(problem)
    except SystemExit as exc:  # argparse's usage errors (2) and --help (0)
        return exc.code

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = args.func(args)
        except (PolykitError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return _exit_code(exc)
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
            if caught:
                print(f"{len(caught)} warning(s)", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
