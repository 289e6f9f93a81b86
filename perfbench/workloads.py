"""The four seeded batch workloads of the polykit benchmark.

Each workload has four parts:

* ``stage(workdir, seed, size)`` writes the generated inputs to files. It
  runs once per benchmark run, before any timed process starts.
* ``load(workdir, size)`` reads the staged inputs back in each worker
  process. It is part of set-up, not of the timed region.
* ``run(inputs, size)`` is the timed region: raw inputs -> fitted model ->
  scored outputs, calling polykit only through its public functions and
  in the order the ``polykit`` subcommands call them. It returns an
  :class:`Outcome` with the stage clock and everything the checks need.
* ``check(inputs, outcome, size)`` runs after the timed region. It raises
  :class:`CheckFailed` when an output is wrong and returns the quality
  numbers and the workload's own counts.

polykit is always called through module attributes (``fitcore.fit_ols``,
never a name imported into this file), so the tracer sees every call.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from polykit import (
    dataset,
    diagnostics,
    equivalence,
    fitcore,
    mlp,
    modelio,
    polyterms,
    stepwise,
    synthdata,
)


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Outcome:
    """What one timed run produced.

    ``marks`` holds perf_counter readings: ``start``, ``fit_end`` (the
    model is fitted), ``score_start``/``score_end`` (the fitted model is
    turned into scored outputs) and ``end``. ``scored_rows`` is the number
    of rows the score stage produced outputs for.
    """

    marks: dict = field(default_factory=dict)
    scored_rows: int = 0
    values: dict = field(default_factory=dict)

    def mark(self, name: str) -> None:
        self.marks[name] = time.perf_counter()


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --------------------------------------------------------------------------
# digits_ova: PCA -> degree-2 terms -> one-vs-all logistic IRLS
# --------------------------------------------------------------------------

DIGITS_NOISE = 1.2  # the generator default (0.12) scores PCC 1.0 and gives no quality signal


def stage_digits_ova(workdir, seed, size):
    X, labels = synthdata.synthetic_digits(size["rows"], seed, noise=DIGITS_NOISE)
    np.save(os.path.join(workdir, "digits_X.npy"), X)
    np.save(os.path.join(workdir, "digits_y.npy"), labels)


def load_digits_ova(workdir, size):
    return {
        "X": np.load(os.path.join(workdir, "digits_X.npy")),
        "y": np.load(os.path.join(workdir, "digits_y.npy")),
        "seed": size["seed"],
    }


def run_digits_ova(inputs, size):
    out = Outcome()
    out.mark("start")
    ds = dataset.dataset_from_arrays(inputs["X"], inputs["y"], classification=True)
    train, test = dataset.split(ds, inputs["seed"])
    design, _ = dataset.encode_design(train)
    basis = fitcore.pca_fit(design, n_components=size["components"])
    terms = polyterms.enumerate_terms(
        basis.r, dataset.DummyGroups.all_numeric(basis.r), polyterms.PolySpec(2)
    )
    # tol 0 runs every class for max_iter IRLS steps, so the work does not
    # depend on how many classes happen to converge for this seed
    model = fitcore.fit_poly_model(
        design, train.response_values(), terms, "logistic",
        pca=basis, schema=train.schema, max_iter=size["max_iter"], tol=0.0,
    )
    out.mark("fit_end")
    out.mark("score_start")
    test_design, _ = dataset.encode_design(test, train.schema)
    preds = fitcore.predict(model, test_design)
    pcc = fitcore.pcc(preds, test.response_values())
    out.mark("score_end")
    out.mark("end")
    out.scored_rows = test.n
    out.values.update(model=model, train=train, test=test, design=design, preds=preds, pcc=pcc)
    return out


def check_digits_ova(inputs, out, size):
    model, train, test = out.values["model"], out.values["train"], out.values["test"]
    _check(len(out.values["preds"]) == test.n, "one prediction per test row")
    pcc = out.values["pcc"]
    chance = 1.0 / len(model.classes)
    _check(pcc >= size["min_pcc"], f"test PCC {pcc:.3f} is not far above chance ({chance:.2f})")

    # Solver-quality probes at the returned coefficients, on the training rows.
    P = polyterms.expand(fitcore.pca_transform(model.pca, out.values["design"]), model.terms)
    classes = np.asarray(model.classes)
    y01 = (train.response_values()[:, None] == classes[None, :]).astype(np.float64)
    scores = P @ model.coef + model.intercept
    logloss = float(np.mean(np.logaddexp(0.0, scores) - y01 * scores))  # mean over classes
    resid = y01 - expit(scores)
    # gradient on z-scaled columns, the scale of the solver's own tolerance
    scales = P.std(axis=0)
    scales = np.where(scales > 0, scales, 1.0)
    Z = (P - P.mean(axis=0)) / scales
    grad = np.vstack([resid.sum(axis=0), Z.T @ resid])
    _check(np.all(np.isfinite(grad)), "non-finite logistic gradient")

    return {
        "quality": {
            "test_pcc": (pcc, "fraction"),
            "train_logloss": (logloss, "nats"),
        },
        "test_score": pcc,
        "counts": {
            "polyterms.terms": len(model.terms),
            "fitcore.logistic_max_abs_grad": float(np.max(np.abs(grad))),
            "fitcore.train_logloss": logloss,
        },
    }


# --------------------------------------------------------------------------
# wages tables: mixed numeric / categorical CSVs shared by wages_fsr and wages_score
# --------------------------------------------------------------------------

OCCUPATIONS = ("clerk", "craft", "manager", "sales", "service", "tech")
REGIONS = ("east", "north", "south", "west")
SECTORS = ("private", "public")
BASE_NUMERIC = ("educ", "exper", "hours", "age", "tenure", "commute")

#: Terms (by label) of the wage response; FSR should pick one of them first.
WAGES_SUPPORT = frozenset(
    {"educ", "exper", "hours", "educ^2", "exper^2", "sector=public",
     "educ*occupation=manager", "hours*sector=public"}
    | {f"occupation={level}" for level in OCCUPATIONS[1:]}
    | {f"region={level}" for level in REGIONS[1:]}
)


def wages_table(rng: np.random.Generator, n: int, n_numeric: int):
    """Columns (name -> values) of a synthetic wage table plus the response.

    The response has quadratic terms in education and experience, a
    dummy x numeric interaction (manager x education) and Gaussian noise.
    Numeric columns are centred and of unit scale, so a product term is not
    a near copy of a main effect (as ``hours * x`` would be for hours near
    40). Numeric columns past the six named ones are correlated nuisance
    features built from three shared factors.
    """
    educ = rng.normal(0.0, 1.0, n)
    exper = rng.uniform(-1.5, 1.5, n) + 0.3 * educ
    hours = rng.normal(0.0, 1.0, n)
    age = 0.6 * exper + rng.normal(0.0, 0.8, n)
    tenure = 0.5 * exper + rng.normal(0.0, 0.8, n)
    commute = rng.gamma(2.0, 0.5, n) - 1.0
    occ = rng.integers(0, len(OCCUPATIONS), n)
    region = rng.integers(0, len(REGIONS), n)
    sector = rng.integers(0, len(SECTORS), n)

    numeric = dict(zip(BASE_NUMERIC, (educ, exper, hours, age, tenure, commute)))
    factors = rng.normal(0.0, 1.0, (n, 3))
    for j in range(len(BASE_NUMERIC), n_numeric):
        mix = np.array([1.0, 0.5 * ((j % 3) - 1), 0.3])
        numeric[f"x{j + 1:02d}"] = factors @ mix + rng.normal(0.0, 0.7, n)

    occ_effect = np.array([0.0, 1.5, 4.0, 0.5, -1.5, 3.0])
    region_effect = np.array([0.5, 0.0, -1.0, 1.2])
    wage = (
        20.0 + 3.0 * educ + 0.8 * educ**2 + 2.0 * exper - 1.0 * exper**2 + 1.0 * hours
        + occ_effect[occ] + region_effect[region] + 1.0 * sector
        + 1.5 * (occ == 2) * educ + 0.8 * (sector == 1) * hours
        + rng.normal(0.0, 2.0, n)
    )
    columns = {name: numeric[name] for name in list(numeric)[:n_numeric]}
    columns["occupation"] = np.asarray(OCCUPATIONS)[occ]
    columns["region"] = np.asarray(REGIONS)[region]
    columns["sector"] = np.asarray(SECTORS)[sector]
    return columns, wage


def write_csv(path, columns: dict, response: np.ndarray | None) -> int:
    """Write a header row plus one row per entry; returns the cell count."""
    cells = []
    for name, values in columns.items():
        if values.dtype.kind == "f":
            cells.append(np.char.mod("%.6f", values))
        else:
            cells.append(values.astype(str))
    names = list(columns)
    if response is not None:
        cells.append(np.char.mod("%.6f", response))
        names.append("wage")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))
    return len(cells[0]) * len(names)


# --------------------------------------------------------------------------
# wages_fsr: forward stepwise regression over dummy-rule degree-2 candidates
# --------------------------------------------------------------------------

def stage_wages_fsr(workdir, seed, size):
    rng = np.random.default_rng([seed, 1])
    columns, wage = wages_table(rng, size["rows"], size["numeric"])
    cells = write_csv(os.path.join(workdir, "fsr.csv"), columns, wage)
    columns, wage = wages_table(rng, size["score_rows"], size["numeric"])
    cells += write_csv(os.path.join(workdir, "fsr_new.csv"), columns, None)
    np.save(os.path.join(workdir, "fsr_truth.npy"), wage)
    np.save(os.path.join(workdir, "fsr_cells.npy"), np.array([cells]))


def load_wages_fsr(workdir, size):
    return {
        "csv": os.path.join(workdir, "fsr.csv"),
        "new_csv": os.path.join(workdir, "fsr_new.csv"),
        "model_path": os.path.join(workdir, "fsr_model.json"),
        "truth": np.load(os.path.join(workdir, "fsr_truth.npy")),
        "cells": int(np.load(os.path.join(workdir, "fsr_cells.npy"))[0]),
        "seed": size["seed"],
    }


def run_wages_fsr(inputs, size):
    """``polykit fit --fsr`` on the table, then ``polykit predict`` on new rows."""
    out = Outcome()
    out.mark("start")
    ds = dataset.load_csv(inputs["csv"])
    train, test = dataset.split(ds, inputs["seed"])
    design, groups = dataset.encode_design(train)
    terms = polyterms.enumerate_terms(design.shape[1], groups, polyterms.PolySpec(2))
    # min_models = every candidate fit of a full greedy pass: the search runs
    # until no candidate is left, so its work does not depend on the seed.
    m = len(terms)
    config = stepwise.FSRConfig(
        candidates=terms, improvement_tolerance=0.0, min_models=m * (m + 1) // 2
    )
    result = stepwise.fsr(train, config, inputs["seed"])
    out.mark("fit_end")
    test_design, _ = dataset.encode_design(test, train.schema)
    split_mape = fitcore.mape(fitcore.predict(result.model, test_design), test.response_values())
    out.mark("score_start")
    modelio.save_model(result.model, inputs["model_path"])
    reloaded = modelio.load_model(inputs["model_path"])
    new_design = dataset.load_design_for_predict(inputs["new_csv"], reloaded.schema)
    preds = fitcore.predict(reloaded, new_design)
    out.mark("score_end")
    out.mark("end")
    out.scored_rows = len(preds)
    out.values.update(result=result, terms=terms, train=train, split_mape=split_mape,
                      new_design=new_design, preds=preds)
    return out


def check_wages_fsr(inputs, out, size):
    result, terms, train = out.values["result"], out.values["terms"], out.values["train"]
    steps = [row for row in result.trace if row.step > 0]
    _check(len(steps) >= 1 and len(result.model.terms) >= 1, "FSR selected no term")
    first = [row.term_label for row in steps[: size["support_steps"]]]
    _check(any(label in WAGES_SUPPORT for label in first),
           f"no true-support term among the first FSR steps {first}")
    preds, truth = out.values["preds"], inputs["truth"]
    _check(preds.shape == truth.shape, f"{preds.shape[0]} predictions for {truth.shape[0]} rows")
    mem = fitcore.predict(result.model, out.values["new_design"])
    _check(np.array_equal(mem, preds), "reloaded FSR model predicts differently")

    test_mape = fitcore.mape(preds, truth)
    null_mae = np.mean(np.abs(truth - train.response_values().mean()))
    fits = result.trace[-1].fits_evaluated
    return {
        "quality": {"test_mape": (test_mape, "wage"),
                    "split_test_mape": (out.values["split_mape"], "wage")},
        "test_score": 1.0 - test_mape / null_mae,
        "counts": {
            "polyterms.terms": len(terms),
            "stepwise.candidate_fits": fits,
            "stepwise.accept_ratio": len(result.model.terms) / fits,
            "modelio.container_bytes": os.path.getsize(inputs["model_path"]),
            "dataset.csv_cells": inputs["cells"],
        },
    }


# --------------------------------------------------------------------------
# wages_score: one large OLS fit, container round trip, bulk CSV scoring
# --------------------------------------------------------------------------

def stage_wages_score(workdir, seed, size):
    rng = np.random.default_rng([seed, 2])
    columns, wage = wages_table(rng, size["rows"], size["numeric"])
    fit_cells = write_csv(os.path.join(workdir, "score_train.csv"), columns, wage)
    columns, wage = wages_table(rng, size["score_rows"], size["numeric"])
    score_cells = write_csv(os.path.join(workdir, "score_new.csv"), columns, None)
    np.save(os.path.join(workdir, "score_truth.npy"), wage)
    np.save(os.path.join(workdir, "score_cells.npy"), np.array([fit_cells + score_cells]))


def load_wages_score(workdir, size):
    return {
        "csv": os.path.join(workdir, "score_train.csv"),
        "new_csv": os.path.join(workdir, "score_new.csv"),
        "model_path": os.path.join(workdir, "score_model.json"),
        "truth": np.load(os.path.join(workdir, "score_truth.npy")),
        "cells": int(np.load(os.path.join(workdir, "score_cells.npy"))[0]),
    }


def run_wages_score(inputs, size):
    out = Outcome()
    out.mark("start")
    ds = dataset.load_csv(inputs["csv"])
    design, groups = dataset.encode_design(ds)
    terms = polyterms.enumerate_terms(design.shape[1], groups, polyterms.PolySpec(2))
    model = fitcore.fit_poly_model(
        design, ds.response_values(), terms, "ols", schema=ds.schema, groups=groups
    )
    out.mark("fit_end")
    out.mark("score_start")
    modelio.save_model(model, inputs["model_path"])
    reloaded = modelio.load_model(inputs["model_path"])
    new_design = dataset.load_design_for_predict(inputs["new_csv"], reloaded.schema)
    preds = fitcore.predict(reloaded, new_design)
    out.mark("score_end")
    out.mark("end")
    out.scored_rows = len(preds)
    out.values.update(model=model, ds=ds, design=design, new_design=new_design, preds=preds)
    return out


def check_wages_score(inputs, out, size):
    model, ds, preds = out.values["model"], out.values["ds"], out.values["preds"]
    new_design, truth = out.values["new_design"], inputs["truth"]
    _check(preds.shape == truth.shape, f"{preds.shape[0]} predictions for {truth.shape[0]} rows")

    # Reference: plain lstsq on the same expanded matrix, intercept first.
    P = polyterms.expand(out.values["design"], model.terms)
    y = ds.response_values()
    beta, *_ = np.linalg.lstsq(np.column_stack([np.ones(P.shape[0]), P]), y, rcond=None)
    ref = P @ beta[1:] + beta[0]
    fitted = P @ model.coef + model.intercept
    worst = float(np.max(np.abs(fitted - ref) / np.maximum(1.0, np.abs(ref))))
    _check(worst <= 1e-6, f"OLS predictions deviate {worst:.2e} from lstsq")
    del P
    step = 10_000  # chunks keep the check's memory below the timed region's
    for lo in range(0, len(preds), step):
        mem = fitcore.predict(model, new_design[lo : lo + step])
        _check(np.array_equal(mem, preds[lo : lo + step]),
               "reloaded container predicts differently from the in-memory model")

    test_mape = fitcore.mape(preds, truth)
    null_mae = np.mean(np.abs(truth - y.mean()))
    return {
        "quality": {"test_mape": (test_mape, "wage")},
        "test_score": 1.0 - test_mape / null_mae,
        "counts": {
            "polyterms.terms": len(model.terms),
            "modelio.container_bytes": os.path.getsize(inputs["model_path"]),
            "dataset.csv_cells": inputs["cells"],
        },
    }


# --------------------------------------------------------------------------
# net_probe: MLP training, layer-by-layer VIF probe, polynomial equivalence
# --------------------------------------------------------------------------

def stage_net_probe(workdir, seed, size):
    X, labels = synthdata.synthetic_digits(
        size["rows"] + size["test_rows"], seed, noise=DIGITS_NOISE
    )
    np.save(os.path.join(workdir, "net_X.npy"), X)
    np.save(os.path.join(workdir, "net_y.npy"), labels)


def load_net_probe(workdir, size):
    X = np.load(os.path.join(workdir, "net_X.npy"))
    y = np.load(os.path.join(workdir, "net_y.npy"))
    n = size["rows"]
    return {"X": X[:n], "y": y[:n], "X_test": X[n:], "y_test": y[n:], "seed": size["seed"]}


def run_net_probe(inputs, size):
    out = Outcome()
    seed = inputs["seed"]
    out.mark("start")
    targets, classes = mlp.one_hot(inputs["y"])
    config = mlp.MLPConfig(
        layer_widths=(100, 50, len(classes)), activations=("relu", "relu"),
        dropout_rates=(0.2, 0.2), output_kind="softmax", epochs=size["epochs"],
        batch_size=32, learning_rate=0.05, seed=seed,
    )
    net = mlp.train_mlp(inputs["X"], targets, config)
    out.mark("fit_end")
    out.mark("score_start")
    probs = mlp.forward(net, inputs["X_test"])
    preds = np.asarray(classes)[np.argmax(probs, axis=1)]
    pcc = fitcore.pcc(preds, inputs["y_test"])
    out.mark("score_end")
    rng = np.random.default_rng(seed)
    n = inputs["X"].shape[0]
    idx = np.sort(rng.choice(n, size=min(size["probe_rows"], n), replace=False))
    reports = diagnostics.probe_layers(net, inputs["X"][idx])
    poly_net = equivalence.random_polynomial_network(
        size["poly_inputs"], size["poly_layers"], size["poly_units"], seed
    )
    per_layer = equivalence.extract_layer_polynomials(poly_net)
    degrees = equivalence.degree_growth_report(per_layer)
    deviation = equivalence.equivalence_check(poly_net, per_layer[-1], n_points=100, seed=seed)
    out.mark("end")
    out.scored_rows = len(preds)
    out.values.update(net=net, pcc=pcc, idx=idx,
                      reports=reports, per_layer=per_layer, degrees=degrees,
                      deviation=deviation)
    return out


def check_net_probe(inputs, out, size):
    net, reports = out.values["net"], out.values["reports"]
    pcc = out.values["pcc"]
    _check(pcc >= size["min_pcc"], f"MLP test PCC {pcc:.3f} is not far above chance")
    expected_degrees = [2 ** (k + 1) for k in range(size["poly_layers"])]
    _check(out.values["degrees"] == expected_degrees,
           f"layer degrees {out.values['degrees']} != {expected_degrees}")
    deviation = out.values["deviation"]
    _check(deviation <= 1e-8, f"network and extracted polynomials deviate by {deviation:.2e}")

    cap = getattr(diagnostics, "VIF_CAP", 1e15)
    labels = mlp.layer_labels(net)
    _check([r.layer_label for r in reports] == labels, "one VIF report per network layer")
    probe_X = inputs["X"][out.values["idx"]]
    all_vifs = []
    checked = 0
    for i, rep in enumerate(reports):
        if labels[i].startswith("dropout") or rep.undefined:
            continue
        vifs = np.asarray(rep.vifs)
        all_vifs.append(vifs)
        acts = mlp.layer_activations(net, probe_X, i)
        live = np.flatnonzero(acts.std(axis=0) > 0)
        # VIF = diag(inv(corr)) holds where every capped column is a dead (constant) unit
        if live.size < 2 or np.any(vifs[live] >= cap):
            continue
        ref = np.diag(np.linalg.inv(np.corrcoef(acts[:, live], rowvar=False)))
        rel = np.abs(vifs[live] - ref) / ref
        _check(float(rel.max()) <= 1e-6,
               f"{rep.layer_label}: VIF deviates {rel.max():.2e} from inv(corr) diagonal")
        checked += 1
    _check(checked >= 1, "no layer's VIFs could be checked against inv(corr)")
    vifs = np.concatenate(all_vifs)

    monomials = sum(len(p) for p in out.values["per_layer"][-1])
    return {
        "quality": {"test_pcc": (pcc, "fraction"), "max_rel_dev": (deviation, "ratio")},
        "test_score": pcc,
        "counts": {
            "diagnostics.capped_share": float(np.mean(vifs >= cap)),
            "equivalence.monomials": monomials,
            "equivalence.max_rel_dev": deviation,
            "mlp.samples": inputs["X"].shape[0] * size["epochs"],
        },
    }


# --------------------------------------------------------------------------

#: Sizes of a measured run, and of the smoke mode and each worker's warm-up.
SIZES = {
    "digits_ova": (
        {"rows": 3000, "components": 20, "max_iter": 8, "min_pcc": 0.5},
        {"rows": 600, "components": 4, "max_iter": 4, "min_pcc": 0.3},
    ),
    "wages_fsr": (
        {"rows": 1000, "numeric": 3, "score_rows": 10000, "support_steps": 3},
        {"rows": 300, "numeric": 1, "score_rows": 300, "support_steps": 3},
    ),
    "wages_score": (
        {"rows": 10000, "numeric": 20, "score_rows": 25000},
        {"rows": 400, "numeric": 4, "score_rows": 500},
    ),
    "net_probe": (
        {"rows": 6000, "test_rows": 2000, "epochs": 6, "probe_rows": 1000,
         "poly_inputs": 4, "poly_layers": 4, "poly_units": 4, "min_pcc": 0.5},
        {"rows": 2000, "test_rows": 300, "epochs": 4, "probe_rows": 200,
         "poly_inputs": 2, "poly_layers": 3, "poly_units": 2, "min_pcc": 0.3},
    ),
}

WORKLOADS = {
    name: {
        "stage": globals()[f"stage_{name}"],
        "load": globals()[f"load_{name}"],
        "run": globals()[f"run_{name}"],
        "check": globals()[f"check_{name}"],
    }
    for name in SIZES
}
