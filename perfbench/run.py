"""polykit benchmark: seeded batch workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root; polykit is imported from ./src. One run
stages the workload's inputs from the seed, then starts a fresh worker
process per timed run, back to back (one client, closed loop), for
``--seconds`` seconds. Each worker sets up (imports, input load, a warm-up
pass at smoke size), times raw inputs -> fitted model -> scored outputs
once, then checks the outputs. A worker that raises or fails a check is a
failed operation and contributes no timing.

With ``--trace 0`` the last stdout line reports the end-to-end metrics, as
medians over the successful runs. With ``--trace 1`` the runs alternate
between untraced and traced; it reports the per-layer metrics as medians
over the traced runs, plus the tracing overhead (traced minus untraced
``wall_s``). ``--smoke`` runs tiny inputs, for a check in seconds.

This process imports only the standard library (``tracer`` needs nothing
else), so it stays small and does not inflate the workers' peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from tracer import TRACED

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("digits_ova", "wages_fsr", "wages_score", "net_probe")

#: A run must end within this many seconds, whatever --seconds says.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s", "fit_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "test_score": "fraction",
}

#: Units of the per-layer metrics that are not times in seconds.
PER_LAYER_UNITS = {
    "dataset.cells_per_s": "1/s", "polyterms.terms": "count",
    "polyterms.expand_calls": "count", "polyterms.expand_cells": "count",
    "polyterms.expand_mb": "MB", "fitcore.logistic_max_abs_grad": "nats",
    "fitcore.train_logloss": "nats", "fitcore.fit_ols_calls": "count",
    "fitcore.fit_ols_us_per_call": "us", "stepwise.candidate_fits": "count",
    "stepwise.accept_ratio": "ratio", "modelio.container_bytes": "bytes",
    "mlp.samples_per_s": "1/s", "diagnostics.vif_calls": "count",
    "diagnostics.regressions": "count", "diagnostics.capped_share": "fraction",
    "equivalence.monomials": "count", "equivalence.max_rel_dev": "ratio",
    "trace.spans": "count", "trace.missing": "count",
}


def worker(mode: str, args, workdir: str, timeout: float, spans: str | None = None):
    """Run one worker process; returns its JSON record, or None if it failed."""
    cmd = [sys.executable, WORKER, mode, "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir]
    if args.smoke:
        cmd.append("--smoke")
    if spans:
        cmd += ["--trace", "--spans", spans]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{mode} worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"{mode} worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_layer(record: dict) -> dict:
    """Per-layer metrics of one traced run (0 where a layer did no work)."""
    tr = record["trace"]
    total, own, calls = tr["total"], tr["self"], tr["calls"]
    counts = dict(record["counts"], **tr["counts"])

    def t(name):
        return total.get(name, 0.0)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    csv_s = t("dataset.load_csv") + t("dataset.load_design_for_predict")
    cells = counts.get("polyterms.expand_cells", 0.0)
    m = {
        "dataset.load_csv_s": t("dataset.load_csv"),
        "dataset.load_design_for_predict_s": t("dataset.load_design_for_predict"),
        "dataset.encode_design_s": t("dataset.encode_design"),
        "dataset.cells_per_s": ratio(counts.get("dataset.csv_cells", 0.0), csv_s),
        "polyterms.enumerate_terms_s": t("polyterms.enumerate_terms"),
        "polyterms.terms": counts.get("polyterms.terms", 0.0),
        "polyterms.expand_s": t("polyterms.expand"),
        "polyterms.expand_calls": calls.get("polyterms.expand", 0),
        "polyterms.expand_cells": cells,
        "polyterms.expand_mb": cells * 8 / 1e6,
        "fitcore.pca_fit_s": t("fitcore.pca_fit"),
        "fitcore.fit_logistic_ova_s": t("fitcore.fit_logistic_ova"),
        "fitcore.logistic_max_abs_grad": counts.get("fitcore.logistic_max_abs_grad", 0.0),
        "fitcore.train_logloss": counts.get("fitcore.train_logloss", 0.0),
        "fitcore.fit_ols_s": t("fitcore.fit_ols"),
        "fitcore.fit_ols_calls": calls.get("fitcore.fit_ols", 0),
        "fitcore.fit_ols_us_per_call": 1e6 * ratio(t("fitcore.fit_ols"),
                                                   calls.get("fitcore.fit_ols", 0)),
        "fitcore.fit_poly_model_self_s": own.get("fitcore.fit_poly_model", 0.0),
        "fitcore.predict_s": t("fitcore.predict"),
        "stepwise.fsr_s": t("stepwise.fsr"),
        "stepwise.fsr_self_s": own.get("stepwise.fsr", 0.0),
        "stepwise.candidate_fits": counts.get("stepwise.candidate_fits", 0.0),
        "stepwise.accept_ratio": counts.get("stepwise.accept_ratio", 0.0),
        "modelio.save_model_s": t("modelio.save_model"),
        "modelio.load_model_s": t("modelio.load_model"),
        "modelio.container_bytes": counts.get("modelio.container_bytes", 0.0),
        "mlp.train_mlp_s": t("mlp.train_mlp"),
        "mlp.samples_per_s": ratio(counts.get("mlp.samples", 0.0), t("mlp.train_mlp")),
        "diagnostics.probe_layers_s": t("diagnostics.probe_layers"),
        "diagnostics.vif_s": t("diagnostics.vif"),
        "diagnostics.vif_calls": calls.get("diagnostics.vif", 0),
        "diagnostics.regressions": tr["fit_ols_under_vif"],
        "diagnostics.capped_share": counts.get("diagnostics.capped_share", 0.0),
        "equivalence.extract_layer_polynomials_s": t("equivalence.extract_layer_polynomials"),
        "equivalence.equivalence_check_s": t("equivalence.equivalence_check"),
        "equivalence.monomials": counts.get("equivalence.monomials", 0.0),
        "equivalence.max_rel_dev": counts.get("equivalence.max_rel_dev", 0.0),
    }
    for layer in TRACED:
        m[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.startswith(layer + "."))
    m["trace.spans"] = tr["spans"]
    m["trace.missing"] = len(tr["missing"])
    return m


def end_to_end(record: dict) -> dict:
    return {
        "wall_s": record["wall_s"],
        "fit_s": record["fit_s"],
        "peak_rss_mb": record["peak_rss_mb"],
        "setup_s": record["setup_s"],
        "test_score": record["test_score"],
    }


def medians(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    started = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "polykit", "__init__.py")):
        print("no src/polykit under the current directory: run from the repository root",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-{args.seed}{'-smoke' if args.smoke else ''}-t{args.trace}"
    workdir = os.path.join(root, ".perfbench_work", tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    staged = worker("stage", args, workdir, timeout=RUN_LIMIT_S / 2)
    if staged is None:
        return 1

    min_runs = 2 if args.trace else (1 if args.smoke else 3)
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    durations: list[float] = []
    loop_start = time.perf_counter()
    while True:
        now = time.perf_counter()
        typical = statistics.median(durations) if durations else 0.0
        if attempted >= min_runs and now - loop_start + typical > args.seconds:
            break
        remaining = RUN_LIMIT_S - (now - started)
        if remaining < 2 * typical or remaining < 5:
            break
        spans = None
        if args.trace and attempted % 2 == 1:
            spans = os.path.join(workdir, f"spans-{attempted}.json")
        record = worker("run", args, workdir, timeout=remaining, spans=spans)
        durations.append(time.perf_counter() - now)
        attempted += 1
        if record is None:
            failed += 1
        elif spans:
            traced.append(record)
        else:
            plain.append(record)

    for name in os.listdir(workdir):
        path = os.path.join(workdir, name)
        if not name.startswith("spans-"):
            shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
    if not os.listdir(workdir):
        os.rmdir(workdir)

    ok = plain + traced
    info = {"workload": args.workload, "seed": args.seed, "runs": len(ok),
            "stage_s": staged["stage_s"], "env": staged["env"]}
    if ok:
        info["quality"] = {k: {"value": statistics.median(r["quality"][k][0] for r in ok),
                               "unit": ok[0]["quality"][k][1]} for k in ok[0]["quality"]}
    rows = [end_to_end(r) for r in plain]
    if rows:
        info["untraced_samples"] = {k: [row[k] for row in rows] for k in rows[0]}
        info["score_rows_per_s"] = {
            "value": statistics.median(r["scored_rows"] / r["score_s"] for r in plain),
            "unit": "1/s"}
    print(json.dumps(info))

    if args.trace:
        metrics = {}
        if traced and plain:
            metrics = medians([per_layer(r) for r in traced])
            metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                           - statistics.median(r["wall_s"] for r in plain))
        units = {k: PER_LAYER_UNITS.get(k, "s") for k in metrics}
    else:
        metrics = medians(rows) if rows else {}
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
