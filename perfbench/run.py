"""Time one qrep workload from outside the package and print its metrics.

    python3 perfbench/run.py --workload chartable --seed 1 --seconds 30 --trace 0

Run from the repository root (or any copy of it holding src/qrep).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the full record
(samples, environment, problems).  See perfbench/README.md.
"""

import os

# BLAS threads are pinned before numpy is imported, here and in every
# child: on a 2-core machine a threaded SVD (two_dim_commutant_projectors)
# competes with everything else running, and one thread keeps runs
# comparable.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_PROBES = 7
# calibration samples after each setup probe (and before the first)
SETUP_CAL = 10
_PROBE = "import time; import qrep; print(repr(time.monotonic()))"

WORKLOADS = ("chartable", "verify", "reach_gl2", "reach_sl2")


def measure_setup(n=SETUP_PROBES):
    """Seconds from launching a fresh interpreter to `import qrep` done,
    one sample per probe process, and the calibration samples taken
    around the probes.  CLOCK_MONOTONIC is shared by the parent and the
    child on Linux, so the child's reading is comparable."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples, cal = [], [calibrate.sample() for _ in range(SETUP_CAL)]
    for _ in range(n):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        samples.append(float(done.stdout) - t0)
        cal += [calibrate.sample() for _ in range(SETUP_CAL)]
    return samples, cal


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_rev():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return done.stdout.strip() or None


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"machine": platform.machine(), "processor": platform.processor(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "blas_threads_requested": BLAS_THREADS,
            "git_rev": _git_rev()}


def _tail(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven."""
    xs = sorted(samples)
    if len(xs) < 11:
        return None
    k = len(xs) - 11
    return round(100 * (k + 1) / len(xs)), xs[k]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(cases, seconds, record):
    """End-to-end metrics of whole passes.  Each case time is scaled to
    the reference speed of calibrate.py by the samples taken during it
    (or during its pass); the record keeps the raw seconds too."""
    from workloads import measure
    passes = measure(cases, seconds)
    scaled = [[calibrate.case_at_reference(t, own, cal)
               for _, t, own in times] for times, _, _, cal in passes]
    raw = [sum(t for _, t, _ in times) for times, _, _, _ in passes]
    walls = [sum(case_s) for case_s in scaled]
    record["pass_raw_s"] = raw
    record["pass_s"] = walls
    record["wall_raw_s"] = statistics.median(raw)
    record["case_raw_s"] = [{name: t for name, t, _ in times}
                            for times, _, _, _ in passes]
    record["calibration_s"] = [cal for _, _, _, cal in passes]
    record["wall_s_tail"] = _tail(walls)
    record["peak_rss_mb_by_pass"] = [peak for _, _, peak, _ in passes]
    # Later passes start from the allocator residue of earlier ones, so
    # only the first pass's peak is independent of how many passes fit.
    return [p for _, probs, _, _ in passes for p in probs], {
        "wall_s": _metric(statistics.median(walls), "s"),
        "max_case_s": _metric(statistics.median(map(max, scaled)), "s"),
        "peak_rss_mb": _metric(passes[0][2], "MB"),
    }


def run_traced(cases, workload, record):
    from tracing import LAYER_METRICS, Tracer, layer_metrics
    from workloads import VerifyCase, check_pass, parse_suites, run_pass
    plain = run_pass(cases)
    problems = check_pass(plain)
    with Tracer() as tracer:
        traced = run_pass(cases)
    problems += check_pass(traced)
    suites = [parse_suites(out[1]) for case, _, out, _ in traced
              if isinstance(case, VerifyCase) and out is not None]
    values = layer_metrics(tracer, suites)
    untraced_wall = sum(r[1] for r in plain)
    values["trace.wall_s"] = sum(r[1] for r in traced)
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = values["trace.wall_s"] - untraced_wall
    values["trace.spans"] = len(tracer.start)
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans_{workload}.npz"
    tracer.save(spans_file)
    record["spans_file"] = str(spans_file.relative_to(ROOT))
    return problems, {name: _metric(values[name], unit)
                      for name, unit, _ in LAYER_METRICS}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qrep" / "__init__.py").is_file():
        print(f"error: no qrep sources under {SRC}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    setup, setup_cal = measure_setup() if not args.trace else ([], [])
    sys.path.insert(0, str(SRC))
    from workloads import make_cases
    record["env"] = environment()
    cases = make_cases(args.workload, args.seed)
    if args.trace:
        case_problems, metrics = run_traced(cases, args.workload, record)
    else:
        case_problems, metrics = run_untraced(cases, args.seconds, record)
        record["setup_probe_s"] = setup
        record["setup_calibration_s"] = setup_cal
        record["setup_raw_s"] = statistics.median(setup)
        metrics["setup_s"] = _metric(calibrate.at_reference(
            statistics.median(setup), setup_cal), "s")
    failed = sum(1 for probs in case_problems if probs)
    record["problems"] = [p for probs in case_problems for p in probs]
    record["failed_frac"] = failed / len(case_problems)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0,
                      "attempted": len(case_problems), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
