"""Self-tests of the benchmark: its gates fire, its tracing leaves qrep
as it found it, and its reported metrics are the declared ones."""

import json
import sys
from pathlib import Path

import numpy as np

import calibrate
import run
import tracing
import workloads
from qrep import chartab, get_tol
from qrep.weil import CuspidalModule

ROOT = Path(__file__).resolve().parents[2]


def _benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_corrupted_reference_counts_as_failed(monkeypatch, capsys):
    real = workloads.load_reference

    def corrupted(kind, q):
        ref = real(kind, q)
        if (kind, q) == ("sl2", 3):
            ref["json"] = ref["json"].replace("1", "2", 1)
        return ref

    monkeypatch.setattr(workloads, "load_reference", corrupted)
    assert run.main(["--workload", "chartable", "--seed", "1",
                     "--seconds", "0"]) == 0
    res = _result(capsys)
    assert res["correct"] is False
    assert res["attempted"] == len(workloads.TABLE_CASES["chartable"])
    assert res["failed"] == 1
    want = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


def test_verify_count_mismatch_fails():
    counts = workloads.load_verify_counts()[3]
    out = workloads.VerifyCase(3, 1, counts).run()
    assert workloads.VerifyCase(3, 1, counts).check(out) == []
    changed = dict(counts, fields=counts["fields"] + 1)
    problems = workloads.VerifyCase(3, 1, changed).check(out)
    assert len(problems) == 1 and "check counts" in problems[0]


def test_oracle_rejects_a_perturbed_row():
    table = chartab.build_table("sl2", 3)
    assert workloads.oracle_mismatch(table) is None
    table.rows[-1].values = table.rows[-1].values + 10 * get_tol()
    assert "one-to-one" in workloads.oracle_mismatch(table)


def _namespaces():
    """Every binding the tracer may touch: qrep module globals, the
    entries of their dicts, and the methods of the traced classes."""
    snap = {}
    for mod in tracing._qrep_modules():
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
            if isinstance(value, dict) and name != "__builtins__":
                for k, v in value.items():
                    snap[(mod.__name__, name, k)] = v
    for cls in (sys.modules["qrep.ff"].FieldCtx,
                sys.modules["qrep.gl2"].GroupCtx, CuspidalModule):
        for name, value in vars(cls).items():
            snap[(cls.__qualname__, name)] = value
    return snap


def _small_cases():
    return [workloads.TableCase(k, 3, workloads.load_reference(k, 3))
            for k in ("gl2", "sl2")]


def test_traced_run_restores_every_original():
    before = _namespaces()
    with tracing.Tracer() as tracer:
        assert chartab.induced_character is not \
            before[("qrep.chartab", "induced_character")]
        assert sys.modules["qrep.cli"].SUITES["weil"] is not \
            before[("qrep.cli", "SUITES", "weil")]
        results = workloads.run_pass(_small_cases())
    assert workloads.check_pass(results) == [[], []]
    after = _namespaces()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert len(tracer.start) > 0


def test_self_times_sum_to_at_most_the_traced_wall():
    with tracing.Tracer() as tracer:
        results = workloads.run_pass(_small_cases())
    wall = sum(r[1] for r in results)
    totals = tracer.layer_totals()
    own = sum(t[1] for t in totals.values())
    assert 0 < own <= wall
    assert all(t[1] >= 0 for t in totals.values())
    values = tracing.layer_metrics(tracer)
    assert sum(v for k, v in values.items() if k.endswith("self_s")) <= wall


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            workloads.run_pass(_small_cases())
        values = tracing.layer_metrics(tracer)
        counts.append({k: v for k, v in values.items()
                       if k.endswith((".calls", ".elements", ".bytes"))})
    assert counts[0] == counts[1]
    assert counts[0]["ff.arith.calls"] > 0


def test_traced_metrics_are_the_declared_per_layer_metrics():
    declared = [(m["name"], m["unit"], m["better"])
                for m in _benchmark_json()["per_layer"]]
    assert declared == list(tracing.LAYER_METRICS)


def test_span_file_round_trips(tmp_path):
    with tracing.Tracer() as tracer:
        workloads.run_pass(_small_cases()[:1])
    path = tmp_path / "spans.npz"
    tracer.save(path)
    with np.load(path) as saved:
        assert len(saved["start"]) == len(tracer.start)
        assert list(saved["layers"]) == tracer.layers


def test_verify_cases_are_every_suite_once():
    counts = workloads.load_verify_counts()
    cases = workloads.make_cases("verify", 1)
    got = {}
    for case in cases:
        got.setdefault(case.q, {}).update(case.expected)
    assert got == counts
    assert len({case.name for case in cases}) == len(cases)


def test_at_reference_scales_by_the_median_calibration():
    ref = calibrate.REF_S
    assert calibrate.at_reference(2.0, [ref, ref, 3 * ref]) == 2.0
    # Samples four times slower halve the measured time: the scaling is
    # the square root of the calibration ratio.
    assert calibrate.ELASTICITY == 0.5
    assert abs(calibrate.at_reference(4.0, [4 * ref, 4 * ref, ref])
               - 2.0) < 1e-12
    # A case with too few samples of its own is scaled by its pass's.
    own, whole = [ref] * calibrate.MIN_SAMPLES, [4 * ref] * 9
    assert calibrate.case_at_reference(2.0, own, whole) == 2.0
    assert calibrate.case_at_reference(2.0, own[1:], whole) == 1.0
    assert calibrate.sample() > 0
