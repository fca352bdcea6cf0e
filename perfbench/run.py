"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-2d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
With ``--trace 0`` the last line of output carries the end-to-end
metrics; with ``--trace 1`` traced and untraced passes alternate and it
carries the per-layer metrics. ``--workload all`` runs each workload in
a process of its own. See perfbench/README.md.
"""

import time

STARTED = time.perf_counter()  # set-up is timed from here, before imports

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sweep-2d", "ball-3d", "heat-st")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: m=10, one set-up sample")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# The end-to-end metrics, name -> unit, as BENCHMARK.json lists them.
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MiB", "err_ratio": "ratio"}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def set_up(args):
    """Import the program and warm it up.

    Returns the workloads module, the workload and the set-up seconds.

    The warm-up solves each of the workload's problems once at m=10. That
    starts the BLAS threads, whose first QR costs about a second.
    """
    sys.path.insert(0, str(SOURCE))
    import workloads
    workload = workloads.make_workload(args.workload, args.tiny,
                                       OUT_DIR / f"csv-{args.workload}")
    workload.warm_up()
    return workloads, workload, time.perf_counter() - STARTED


def probe_set_up(args) -> float:
    """Set-up time of a fresh process, as run with --setup-probe."""
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--setup-probe"]
    done = subprocess.run(argv, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _openblas_libraries():
    """Name, build configuration and thread count of each OpenBLAS that
    this process has loaded."""
    import ctypes
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) >= 6 and "openblas" in fields[5]:
                    paths.add(fields[5])
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}",
                              None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads and config:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                entry["config"] = config().decode()
                entry["threads"] = threads()
                break
        found.append(entry)
    return found


def dgemm_gflops(size: int = 1000, repeats: int = 5) -> float:
    """Median double-precision matrix-multiply rate, measured now."""
    import numpy as np
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, size, size))
    a @ b
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        a @ b
        rates.append(2.0 * size ** 3 / (time.perf_counter() - start) / 1e9)
    return statistics.median(rates)


def environment() -> dict:
    import numpy as np
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": _openblas_libraries(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "dgemm_gflops": dgemm_gflops(),
    }


# ---------------------------------------------------------------------------
# timed passes
# ---------------------------------------------------------------------------

def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_passes(workload, rng, seconds: float, trace: bool):
    """Closed-loop passes until the next one would overrun `seconds`.

    In a traced run, passes alternate traced and untraced, starting
    traced, with at least one of each.
    """
    from spans import Tracer
    passes = []
    began = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 0
        plan = workload.draw(rng)
        tracer = Tracer() if traced else None
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        with tracer or contextlib.nullcontext():
            result = workload.run(plan)
        wall = time.perf_counter() - wall0
        passes.append({"traced": traced, "wall_s": wall,
                       "cpu_s": cpu_seconds() - cpu0,
                       "outcomes": workload.outcomes(result),
                       "spans": tracer.spans if traced else []})
        if trace and len(passes) < 2:
            continue
        if time.perf_counter() - began + wall > seconds:
            return passes


def layer_metrics(passes):
    """Per-layer medians over the traced passes, plus the tracing cost."""
    from spans import LAYER_UNITS, pass_metrics
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    per_pass = []
    for p in traced:
        values = pass_metrics(p["spans"], p["wall_s"])
        values["experiments.rows_floored"] = sum(
            1 for o in p["outcomes"] if o.row is not None and o.row.floored)
        per_pass.append(values)
    # median_low, so that each value is one observed pass's, counts too
    values = {name: statistics.median_low(v[name] for v in per_pass)
              for name in per_pass[0]}
    values["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_UNITS.items()}


def measure(args) -> int:
    workloads, workload, first_setup = set_up(args)
    if args.setup_probe:
        print(json.dumps({"setup_s": first_setup}))
        return 0
    reference = workloads.load_reference()
    samples = 1 if args.tiny or args.trace else SETUP_SAMPLES
    setups = [first_setup] + [probe_set_up(args) for _ in range(samples - 1)]
    passes = run_passes(workload, random.Random(args.seed), args.seconds,
                        bool(args.trace))

    outcomes = [o for p in passes for o in p["outcomes"]]
    failures = [(o.key, problems) for o in outcomes
                for problems in [workloads.check(o, reference)] if problems]
    ratios = [r for r in (workloads.error_ratio(o, reference)
                          for o in outcomes) if not math.isnan(r)]
    if args.trace:
        metrics = layer_metrics(passes)
    else:
        timed = [p for p in passes if not p["traced"]]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in timed),
            "cpu_s": statistics.median(p["cpu_s"] for p in timed),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "err_ratio": max(ratios, default=math.nan),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "environment": environment(),
        "setup_samples_s": setups,
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                    "cpu_s": p["cpu_s"], "solves": len(p["outcomes"])}
                   for p in passes],
        "fail_frac": len(failures) / len(outcomes),
        "failures": failures,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(OUT_DIR / f"{stem}-spans.json", "w") as fh:
            json.dump([[[s.name, s.parent, s.start, s.end, s.info]
                        for s in p["spans"]] for p in passes if p["traced"]],
                      fh)
    print(json.dumps({k: record[k] for k in
                      ("workload", "seed", "environment", "fail_frac",
                       "failures")}))
    print(json.dumps({"correct": not failures, "attempted": len(outcomes),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a process of its own, so that peak RSS is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv + (["--tiny"] if args.tiny else []),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-1])
    for name, result in results.items():
        shown = {"fail_frac": result["failed"] / result["attempted"]}
        shown.update((k, v["value"]) for k, v in result["metrics"].items())
        print(name, " ".join(f"{k}={v:.6g}" for k, v in shown.items()))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "ssem" / "__init__.py").is_file():
        print(f"perfbench: no ssem sources under {SOURCE}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
