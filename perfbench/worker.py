"""One benchmark process: stage the inputs, or make one timed run.

    python3 perfbench/worker.py stage --workload NAME --seed N --workdir DIR [--smoke]
    python3 perfbench/worker.py run   --workload NAME --seed N --workdir DIR [--smoke]
                                      [--trace --spans FILE]

``run`` is started fresh for every timed run, so its peak RSS is that
run's own. It prints one JSON object as its last stdout line: set-up time,
stage times, quality numbers, peak RSS and, when traced, the per-layer
summary of the spans. A check that fails, or any exception, exits 1.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here: imports, input load, warm-up

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import polykit  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library mapped into this process."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                found[os.path.basename(path)] = int(getattr(lib, sym)())
                break
    return found


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("version"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "data": "polykit.synthdata.synthetic_digits and the benchmark's wage tables",
    }


def sizes(workload: str, seed: int, smoke: bool) -> tuple[dict, dict]:
    full, small = workloads.SIZES[workload]
    return dict(small if smoke else full, seed=seed), dict(small, seed=seed)


def stage(args) -> dict:
    size, warm = sizes(args.workload, args.seed, args.smoke)
    fns = workloads.WORKLOADS[args.workload]
    warm_dir = os.path.join(args.workdir, "warm")
    os.makedirs(warm_dir, exist_ok=True)
    t = time.perf_counter()
    fns["stage"](args.workdir, args.seed, size)
    fns["stage"](warm_dir, args.seed, warm)
    return {"stage_s": time.perf_counter() - t, "env": environment()}


def run(args) -> dict:
    size, warm = sizes(args.workload, args.seed, args.smoke)
    fns = workloads.WORKLOADS[args.workload]
    inputs = fns["load"](args.workdir, size)
    warm_dir = os.path.join(args.workdir, "warm")
    fns["run"](fns["load"](warm_dir, warm), warm)
    tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
    if args.trace:
        tracer.install()
    setup_s = time.perf_counter() - T0

    tracer.active = args.trace
    out = fns["run"](inputs, size)
    tracer.active = False

    result = fns["check"](inputs, out, size)
    marks = out.marks
    record = {
        "setup_s": setup_s,
        "wall_s": marks["end"] - marks["start"],
        "fit_s": marks["fit_end"] - marks["start"],
        "score_s": marks["score_end"] - marks["score_start"],
        "scored_rows": out.scored_rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_score": float(result["test_score"]),
        "quality": {k: [float(v), unit] for k, (v, unit) in result["quality"].items()},
        "counts": {k: float(v) for k, v in result["counts"].items()},
    }
    if args.trace:
        record["trace"] = tracer.summary()
        tracer.write(args.spans)
    return record


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("stage", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(polykit.__file__).startswith(src + os.sep):
        print(f"polykit imported from {polykit.__file__}, not from {src}", file=sys.stderr)
        return 2
    try:
        record = stage(args) if args.mode == "stage" else run(args)
    except workloads.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
