"""The benchmark's workloads: which public qrep calls one pass makes, and
how each call's output is checked against the stored references.

A workload is a list of cases.  A case is what a user waits for in one
command: one ``build_table(kind, q)`` plus its json and csv ``emit``, or
one ``qrep verify --suite S --q q``.  ``run`` is the timed region;
``check`` runs outside it and returns a list of problems (empty when the
output is correct).
"""

import contextlib
import gc
import gzip
import io
import json
import re
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import calibrate
from qrep import chartab, cli, get_tol
from qrep.repcore import character_table_bruteforce

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

TABLE_CASES = {
    "chartable": [("gl2", 3), ("gl2", 5), ("gl2", 7),
                  ("sl2", 3), ("sl2", 5), ("sl2", 7), ("sl2", 9)],
    "reach_gl2": [("gl2", 9)],
    "reach_sl2": [("sl2", 17), ("sl2", 19)],
}
VERIFY_QS = (3, 5, 7)
# reach_* sizes lie beyond chartab.SUPPORTED; their tables are also
# matched against the class-algebra oracle, since no test covers them.
ORACLE_WORKLOADS = ("reach_gl2", "reach_sl2")

_SUITE_LINE = re.compile(
    r"^suite (\w+): (\d+) checks, (\d+) failures, max defect (\S+)$", re.M)


def reference_path(kind, q, fmt):
    return REFERENCE_DIR / f"{kind}_{q}.{fmt}.gz"


def load_reference(kind, q):
    return {fmt: gzip.decompress(reference_path(kind, q, fmt).read_bytes())
            .decode("utf-8") for fmt in ("json", "csv")}


def load_verify_counts():
    with open(REFERENCE_DIR / "verify_counts.json") as fh:
        return {int(q): counts for q, counts in json.load(fh).items()}


def extend_supported(cases):
    """Add the given (kind, q) sizes to qrep.chartab.SUPPORTED in place,
    keeping every entry already there."""
    for kind, q in cases:
        chartab.SUPPORTED[kind] = tuple(sorted(
            set(chartab.SUPPORTED[kind]) | {q}))


def _first_difference(got, want):
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return i
    return min(len(got), len(want))


def oracle_mismatch(table):
    """Match every row against character_table_bruteforce within
    get_tol(), up to row order.  Returns a problem string or None."""
    brute = character_table_bruteforce(table.gctx.view)
    got = table.matrix
    if brute.shape != got.shape:
        return f"oracle has shape {brute.shape}, table {got.shape}"
    dist = np.abs(got[:, None, :] - brute[None, :, :]).max(axis=2)
    hits = dist < get_tol()
    if not (hits.sum(axis=1) == 1).all() or \
            len(set(hits.argmax(axis=1))) != len(got):
        return (f"rows do not match the oracle one-to-one "
                f"(worst nearest distance {dist.min(axis=1).max():.3g})")
    return None


class TableCase:
    """build_table(kind, q), then emit json and csv to in-memory sinks."""

    def __init__(self, kind, q, expected, oracle=False):
        self.kind, self.q = kind, q
        self.name = f"{kind}_{q}"
        self.expected = expected
        self.oracle = oracle

    def run(self):
        table = chartab.build_table(self.kind, self.q)
        sinks = {"json": io.StringIO(), "csv": io.StringIO()}
        for fmt, sink in sinks.items():
            chartab.emit(table, fmt, sink)
        return table, {fmt: s.getvalue() for fmt, s in sinks.items()}

    def check(self, out):
        table, texts = out
        problems = []
        for fmt, want in self.expected.items():
            if texts[fmt] != want:
                problems.append(
                    f"{self.name}: {fmt} differs from the reference at "
                    f"character {_first_difference(texts[fmt], want)}")
        if self.oracle:
            bad = oracle_mismatch(table)
            if bad:
                problems.append(f"{self.name}: {bad}")
        return problems


def parse_suites(text):
    """{suite: (checks, failures, max_defect)} from verify's summary lines."""
    return {m[1]: (int(m[2]), int(m[3]), float(m[4]))
            for m in _SUITE_LINE.finditer(text)}


class VerifyCase:
    """qrep verify --suite suite --q q --seed seed, stdout captured.
    `expected` maps each suite the command runs to its check count."""

    def __init__(self, q, seed, expected, suite="all"):
        self.q, self.seed, self.suite = q, seed, suite
        self.name = f"verify_{q}" if suite == "all" else f"verify_{q}_{suite}"
        self.expected = expected

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.run(["verify", "--suite", self.suite, "--q", str(self.q),
                          "--seed", str(self.seed)])
        return rc, buf.getvalue()

    def check(self, out):
        rc, text = out
        problems = [] if rc == 0 else [f"{self.name}: exit code {rc}"]
        suites = parse_suites(text)
        got = {name: s[0] for name, s in suites.items()}
        if got != self.expected:
            problems.append(f"{self.name}: check counts {got}, "
                            f"stored {self.expected}")
        failing = sorted(name for name, s in suites.items() if s[1])
        if failing:
            problems.append(f"{self.name}: failures in {failing}")
        return problems


def make_cases(workload, seed):
    if workload == "verify":
        # One case per suite: `verify --suite all` runs the same suites
        # one after another, and a suite of its own is scaled by the
        # calibration samples taken while it ran (run.run_untraced).
        counts = load_verify_counts()
        return [VerifyCase(q, seed, {suite: n}, suite)
                for q in VERIFY_QS for suite, n in counts[q].items()]
    sizes = TABLE_CASES[workload]
    oracle = workload in ORACLE_WORKLOADS
    if oracle:
        extend_supported(sizes)
    return [TableCase(kind, q, load_reference(kind, q), oracle)
            for kind, q in sizes]


def run_case(case, sampler=None):
    """(seconds, output, error) of one timed case.run(); a case that
    raises gets output None and an error string.  The time a running
    calibrate.Sampler took inside the case is not counted."""
    gc.collect()  # the previous case's garbage is not this case's time
    spent = sampler.spent if sampler else 0.0
    t0 = time.perf_counter()
    try:
        out, err = case.run(), None
    except Exception as e:  # counted as a failed case, never fatal
        out, err = None, f"{case.name}: {type(e).__name__}: {e}"
    dt = time.perf_counter() - t0
    return dt - (sampler.spent - spent if sampler else 0.0), out, err


def check_case(case, out, err):
    """The case's problems; an empty list when its output is correct."""
    if err is not None:
        return [err]
    try:
        return case.check(out)
    except Exception as e:  # a broken check fails its case
        return [f"{case.name}: check raised {type(e).__name__}: {e}"]


def run_pass(cases):
    """Run every case once, keeping the outputs: [(case, seconds, output,
    error)].  Used where checking must wait until the pass is over."""
    return [(case, *run_case(case)) for case in cases]


def check_pass(results):
    """Problems of one pass from run_pass, one list per case."""
    return [check_case(case, out, err) for case, _, out, err in results]


def measure(cases, seconds):
    """Whole passes until the next one would end past `seconds` (at
    least one), each under a calibrate.Sampler.  Returns [([(case name,
    seconds, calibration samples taken during the case)], problems,
    peak MB, calibration samples of the pass)] per pass, the peak being
    ru_maxrss when the pass ended.  Each output is checked and dropped
    before the next case runs, so memory does not accumulate across
    cases or passes."""
    passes, elapsed = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        times, problems = [], []
        with calibrate.Sampler() as sampler:
            for case in cases:
                first = len(sampler.samples)
                dt, out, err = run_case(case, sampler)
                times.append((case.name, dt, sampler.samples[first:]))
                problems.append(check_case(case, out, err))
                out = None
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes.append((times, problems, peak, sampler.samples))
        elapsed.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(elapsed) > seconds:
            return passes
