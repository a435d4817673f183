"""Command line interface: exit codes, output formats, input validation."""

import csv
import io
import json
import os
import re
import time

import numpy as np
import pytest

from qrep import chartab, cli, get_tol, gl2, simclass, weil
from qrep.ff import FieldCtx


def _order(kind, q):
    return (q * q - 1) * (q * q - q) if kind == "gl2" else q ** 3 - q


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_field_dump(capsys):
    assert cli.run(["field", "--p", "3", "--k", "2"]) == 0
    obj = _json_out(capsys)
    assert obj["q"] == 9
    assert obj["modulus"] == [1, 0, 1]
    assert obj["gen"] == 4
    assert obj["trace_to_prime"] == [0, 2, 1, 0, 2, 1, 0, 2, 1]
    assert sorted(obj["exp"]) == list(range(1, 9))


def test_field_exits_1_on_a_failed_construction_gate(capsys, monkeypatch):
    # a corrupted zech entry of F_9 fails the add-table gate, which must
    # reach the exit contract as a verification failure, not a traceback
    fill = FieldCtx._fill_tables

    def corrupt_then_fill(self):
        if self.zech is not None:
            self.zech[5] = (self.zech[5] + 1) % (self.q - 1)
        fill(self)

    monkeypatch.setattr(FieldCtx, "_fill_tables", corrupt_then_fill)
    assert cli.run(["field", "--p", "3", "--k", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure: VerificationFailed: ")
    assert "Traceback" not in err


def test_field_rejects_composite_characteristic(capsys):
    assert cli.run(["field", "--p", "6"]) == 2  # invalid input
    assert "not prime" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["field", "--p", "4"],
    ["field", "--p", "6"],
    ["field", "--p", "1"],
    ["field", "--p", "-3"],
    ["field", "--p", "2", "--k", "0"],
    ["simclass", "--q", "3", "--n", "0", "--count"],
    ["simclass", "--q", "3", "--n", "-1", "--matrix", "1"],
    ["cuspidal-count", "--q", "3", "--n", "0"],
    ["cuspidal-count", "--q", "3", "--n", "-2"],
])
def test_invalid_input_is_refused_with_exit_two(argv, capsys):
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_classes_json(capsys):
    assert cli.run(["classes", "--group", "sl2", "--q", "3"]) == 0
    obj = _json_out(capsys)
    assert obj["group"] == "sl2" and obj["q"] == 3
    assert len(obj["classes"]) == 7
    assert sum(c["size"] for c in obj["classes"]) == 24
    for c in obj["classes"]:
        assert c["size"] * c["centralizer_order"] == 24


def test_classes_csv(capsys):
    assert cli.run(["classes", "--group", "gl2", "--q", "5",
                    "--format", "csv"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["tag", "params", "rep", "size", "centralizer_order"]
    assert len(rows) == 1 + 24  # q^2 - 1 classes


def test_classes_needs_odd_q(capsys):
    assert cli.run(["classes", "--group", "sl2", "--q", "4"]) == 2
    assert "odd" in capsys.readouterr().err


def test_chartable_csv_shape(capsys):
    assert cli.run(["chartable", "--group", "gl2", "--q", "3",
                    "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1 + 8
    assert all(len(r) == 1 + 8 for r in rows)


def test_chartable_json_to_file(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert cli.run(["chartable", "--group", "sl2", "--q", "5",
                    "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["q"] == 5
    assert len(obj["irreducibles"]) == 9
    degs = sorted(r["degree"] for r in obj["irreducibles"])
    assert degs == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    capsys.readouterr()


def test_chartable_unsupported_size(capsys):
    assert cli.run(["chartable", "--group", "gl2", "--q", "9"]) == 2
    assert "unsupported" in capsys.readouterr().err


def test_weil_check_and_dump(tmp_path, capsys):
    d = tmp_path / "mats"
    assert cli.run(["weil", "--q", "3", "--dump-matrices", str(d)]) == 0
    out = capsys.readouterr().out
    assert "certified 48 (element, generator) products, word length 7" in out
    files = sorted(os.listdir(d))
    assert len(files) == 24
    flat = json.loads((d / "0.json").read_text())
    assert len(flat) == 81  # 9 x 9 entries as [re, im]
    assert all(len(z) == 2 for z in flat)


@pytest.mark.parametrize("where", ["an existing file", "below a file"])
def test_weil_refuses_an_unusable_dump_path_before_the_certificate(
        tmp_path, capsys, monkeypatch, where):
    # os.makedirs raises FileExistsError on a file and NotADirectoryError
    # below one: either is an IoError, exit 1 with no traceback, before
    # verify_ordinary builds a single image
    taken = tmp_path / "taken"
    taken.write_text("")
    path = taken if where == "an existing file" else taken / "x"
    calls = []
    monkeypatch.setattr(weil, "verify_ordinary", calls.append)
    assert cli.run(["weil", "--q", "3", "--dump-matrices", str(path)]) == 1
    got = capsys.readouterr()
    assert got.out == "" and calls == []
    assert "IoError" in got.err and "Traceback" not in got.err


@pytest.mark.parametrize("argv", [
    ["chartable", "--group", "gl2", "--q", "3", "--out", "{dir}"],
    ["weil", "--q", "3", "--dump-matrices", "{file}"]])
def test_an_unusable_output_path_is_not_a_verification_failure(
        tmp_path, capsys, argv):
    # an I/O error keeps exit 1, with its own message
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = [a.format(dir=tmp_path, file=taken) for a in argv]
    assert cli.run(argv) == 1
    got = capsys.readouterr()
    assert got.err.startswith("i/o failure: IoError: ")
    assert "verification failure" not in got.err


@pytest.mark.parametrize("argv", [
    ["classes", "--group", "gl2", "--q", "67"],
    ["field", "--p", "2", "--k", "21"]])
def test_a_size_refusal_is_not_a_verification_failure(capsys, argv):
    # nothing is verified before a size bound refuses: exit 1 stays, with
    # its own message
    assert cli.run(argv) == 1
    got = capsys.readouterr()
    assert got.err.startswith("size limit: SizeExceeded: ")
    assert "verification failure" not in got.err


def test_weil_has_no_check_option():
    assert cli.run(["weil", "--q", "3"]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.run(["weil", "--q", "3", "--check", "all"])
    assert exc.value.code == 2


def test_simclass_matrix_report(capsys):
    assert cli.run(["simclass", "--q", "3", "--n", "2",
                    "--matrix", "1,1;0,1"]) == 0
    obj = _json_out(capsys)
    assert obj["type"] == [{"poly": [2, 1], "partition": [2]}]
    assert obj["jordan"] == [[1, 0], [1, 1]]
    assert obj["centralizer_dim"] == 2
    assert obj["centralizer_units"] == 6


def test_simclass_reports_a_centralizer_too_large_to_enumerate(capsys):
    # the scalar 3 x 3 at q = 7 commutes with all 7^9 matrices; its units
    # are |GL_3(F_7)|, read off the similarity type
    assert cli.run(["simclass", "--q", "7", "--n", "3",
                    "--matrix", "3,0,0;0,3,0;0,0,3"]) == 0
    obj = _json_out(capsys)
    assert obj["type"] == [{"poly": [4, 1], "partition": [1, 1, 1]}]
    assert obj["centralizer_dim"] == 9
    assert obj["centralizer_units"] == 33784128


# (q, n, matrix, the report as json.dump(indent=2) printed it when
# similarity types came from a Smith form over F_q[t])
SIMCLASS_PANEL = [
    ("5", "4", "2,1,0,0;0,2,0,0;0,0,2,0;0,0,1,3",
     {"q": 5, "n": 4,
      "type": [{"poly": [2, 1], "partition": [1]},
               {"poly": [3, 1], "partition": [1, 2]}],
      "jordan": [[3, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 1, 2]],
      "centralizer_dim": 6, "centralizer_units": 8000}),
    ("9", "3", "1,2,3;4,5,6;7,8,0",
     {"q": 9, "n": 3,
      "type": [{"poly": [0, 1], "partition": [2]},
               {"poly": [6, 1], "partition": [1]}],
      "jordan": [[0, 0, 0], [1, 0, 0], [0, 0, 3]],
      "centralizer_dim": 3, "centralizer_units": 576}),
    ("3", "4", "0,2,0,0;1,0,0,0;0,1,0,2;0,0,1,0",
     {"q": 3, "n": 4,
      "type": [{"poly": [1, 0, 1], "partition": [2]}],
      "jordan": [[0, 2, 0, 0], [1, 0, 0, 0], [1, 0, 0, 2], [0, 1, 1, 0]],
      "centralizer_dim": 4, "centralizer_units": 72}),
    ("7", "3", "3,1,0;0,3,0;0,0,3",
     {"q": 7, "n": 3,
      "type": [{"poly": [4, 1], "partition": [1, 2]}],
      "jordan": [[3, 0, 0], [0, 3, 0], [0, 1, 3]],
      "centralizer_dim": 5, "centralizer_units": 12348}),
    ("5", "2", "0,2;1,0",
     {"q": 5, "n": 2,
      "type": [{"poly": [3, 0, 1], "partition": [1]}],
      "jordan": [[0, 2], [1, 0]],
      "centralizer_dim": 2, "centralizer_units": 24}),
]


@pytest.mark.parametrize("q,n,matrix,report", SIMCLASS_PANEL,
                         ids=[f"q{row[0]}n{row[1]}" for row in SIMCLASS_PANEL])
def test_simclass_matrix_report_is_byte_identical(capsys, q, n, matrix,
                                                  report):
    # repeated factors (the kernel-rank path) at q = 3, 5, 7, 9
    assert cli.run(["simclass", "--q", q, "--n", n, "--matrix", matrix]) == 0
    assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"


def test_simclass_count(capsys):
    assert cli.run(["simclass", "--q", "2", "--n", "2", "--count"]) == 0
    assert _json_out(capsys)["count"] == 6


def test_simclass_count_builds_no_field(capsys, monkeypatch):
    def no_field(*args):
        raise AssertionError("simclass --count built a field")
    monkeypatch.setattr(cli.ff, "make_field", no_field)
    q = 1000003
    assert cli.run(["simclass", "--q", str(q), "--n", "2", "--count"]) == 0
    assert _json_out(capsys)["count"] == q * q + q
    assert cli.run(["simclass", "--q", "6", "--n", "2", "--count"]) == 2
    assert "prime power" in capsys.readouterr().err


def test_simclass_bad_matrix(capsys):
    assert cli.run(["simclass", "--q", "3", "--n", "2",
                    "--matrix", "1,1;0"]) == 2
    assert cli.run(["simclass", "--q", "3", "--n", "2",
                    "--matrix", "1,5;0,1"]) == 2
    assert cli.run(["simclass", "--q", "3", "--n", "2"]) == 2
    capsys.readouterr()


def test_cuspidal_count_command(capsys):
    assert cli.run(["cuspidal-count", "--q", "3", "--n", "2"]) == 0
    obj = _json_out(capsys)
    assert obj == {"q": 3, "n": 2, "orbit_count": 3, "monic_count": 3,
                   "equal": True}


def test_cuspidal_count_rejects_non_prime_power(capsys):
    assert cli.run(["cuspidal-count", "--q", "6", "--n", "2"]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert "prime power" in got.err


def test_cuspidal_count_refuses_beyond_the_enumeration_bound(capsys):
    t0 = time.perf_counter()
    assert cli.run(["cuspidal-count", "--q", "10007", "--n", "2"]) == 1
    assert time.perf_counter() - t0 < 1.0
    got = capsys.readouterr()
    assert got.out == ""
    assert "SizeExceeded" in got.err and "Traceback" not in got.err
    # q^2 - 1 = 1018080 stays under the bound and is still enumerated
    assert simclass.cuspidal_count_identity(1009, 2) == \
        (1009 * 1008 // 2, 1009 * 1008 // 2, True)


@pytest.mark.parametrize("argv", [
    ["classes", "--group", "gl2", "--q", "101"],
    ["verify", "--suite", "classes", "--q", "101"],
    ["verify", "--suite", "parabolic", "--q", "101"],
])
def test_classes_refuse_beyond_the_grid_bound(argv, capsys):
    # |GL2(F_101)| = 104,030,000 elements would take 3.3 GB of elems
    # alone: the order bound refuses it before allocating, while GL2 up to
    # q = 61 and SL2 at q = 101 stay admitted.  The parabolic suite takes
    # the gl2 bound too, for the 2.5 GB induced model of SL2(F_101)
    assert _order("gl2", 61) <= gl2.MAX_ORDER < _order("gl2", 67)
    assert _order("sl2", 101) <= gl2.MAX_ORDER
    t0 = time.perf_counter()
    assert cli.run(argv) == 1
    assert time.perf_counter() - t0 < 1.0
    got = capsys.readouterr()
    assert "SizeExceeded" in got.out + got.err
    assert "Traceback" not in got.out + got.err


@pytest.mark.parametrize("argv", [
    ["classes", "--group", "gl2", "--q", "531441"],
    *(["verify", "--suite", suite, "--q", "531441"]
      for suite in ("classes", "bruhat", "parabolic", "weil", "cuspidal")),
    ["weil", "--q", "531441"],
])
def test_grid_refusal_comes_before_the_field(argv, capsys):
    # F_{3^12} takes seconds to build, and the order bound needs q alone:
    # the same refusal GroupCtx gives for the largest group the command
    # builds, before any field is built
    kind = "sl2" if "weil" in argv else "gl2"
    t0 = time.perf_counter()
    assert cli.run(argv) == 1
    assert time.perf_counter() - t0 < 1.0
    got = capsys.readouterr()
    assert (f"SizeExceeded: |{kind}(F_531441)| = {_order(kind, 531441)} "
            f"exceeds {gl2.MAX_ORDER}") in got.out + got.err
    assert "Traceback" not in got.out + got.err


def test_classes_build_sl2_past_the_gl2_bound(capsys):
    # |SL2(F_67)| = 300,696: the bound is on the group built, so SL2
    # builds where GL2 over the same field is refused
    assert cli.run(["classes", "--group", "sl2", "--q", "67"]) == 0
    got = capsys.readouterr()
    assert json.loads(got.out)["group"] == "sl2" and got.err == ""
    assert len(json.loads(got.out)["classes"]) == 67 + 4


def test_a_size_refusal_in_verify_is_not_a_failed_check(capsys):
    # nothing was checked, so verify reports the refusal as every other
    # command does, not as a FAIL line of the suite
    assert cli.run(["verify", "--suite", "classes", "--q", "101"]) == 1
    got = capsys.readouterr()
    assert "FAIL" not in got.out
    assert got.err.startswith("size limit: SizeExceeded: |gl2(F_101)| = ")


def test_verify_counting_json(capsys):
    assert cli.run(["verify", "--suite", "counting", "--q", "3",
                    "--json"]) == 0
    got = capsys.readouterr()
    obj = json.loads(got.out)
    assert obj["suite"] == "counting" and obj["q"] == 3
    assert obj["failures"] == []
    assert obj["checks"] > 0
    assert "seed: 20070714" in got.err  # progress goes to stderr with --json


def test_verify_fields_plain(capsys):
    assert cli.run(["verify", "--suite", "fields", "--q", "5"]) == 0
    out = capsys.readouterr().out
    assert "seed: 20070714" in out
    assert "0 failures" in out


def test_verify_rejects_even_q_before_any_output(capsys):
    assert cli.run(["verify", "--suite", "weil", "--q", "4"]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert "odd" in got.err


@pytest.mark.parametrize("suite", ["all", "chartable"])
def test_verify_refuses_a_q_without_a_table_before_any_suite(capsys, suite):
    # q = 11 lies in no SUPPORTED tuple: refused before the seed line and
    # before any suite runs
    assert cli.run(["verify", "--suite", suite, "--q", "11"]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == (f"error: no character table support at q = 11; "
                       f"supported: {chartab.SUPPORTED}\n")


def test_verify_rejects_non_prime_power(capsys):
    assert cli.run(["verify", "--suite", "fields", "--q", "15"]) == 2
    assert "prime power" in capsys.readouterr().err


def test_verify_reports_failures_with_exit_one(capsys, monkeypatch):
    def sabotaged(rec, q, seed):
        rec.check("deliberate failure", 1.0)
    monkeypatch.setitem(cli.SUITES, "counting", sabotaged)
    assert cli.run(["verify", "--suite", "counting", "--q", "3",
                    "--json"]) == 1
    obj = _json_out(capsys)
    assert len(obj["failures"]) == 1
    assert obj["max_defect"] == 1.0


def _verify_one_defect(defect, monkeypatch):
    monkeypatch.setitem(cli.SUITES, "counting",
                        lambda rec, q, seed: rec.check("reported", defect))
    return cli.run(["verify", "--suite", "counting", "--q", "3"])


def test_verify_passes_a_defect_equal_to_the_tolerance(capsys, monkeypatch):
    # the rule of config.gate: defect <= tol passes
    assert _verify_one_defect(get_tol(), monkeypatch) == 0
    assert "ok   counting: reported  defect=1e-08" in capsys.readouterr().out


def test_verify_fails_a_nan_defect(capsys, monkeypatch):
    assert _verify_one_defect(float("nan"), monkeypatch) == 1
    out = capsys.readouterr().out
    assert "FAIL counting: reported  defect=nan" in out
    assert "1 failures" in out


def test_every_verify_line_carries_a_defect(capsys):
    assert cli.run(["verify", "--suite", "all", "--q", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    checks = [line for line in lines if line.startswith(("ok ", "FAIL "))]
    assert len(checks) == 67
    assert all(re.search(r"  defect=\S+$", line) for line in checks)


def test_verify_bruhat_counts_words_that_do_not_re_multiply(capsys,
                                                           monkeypatch):
    # the first big-cell word of each group loses its b1: the suite must
    # re-multiply the words itself and report one mismatch per group
    real = gl2.bruhat

    def corrupted(ctx, mats):
        big, b1, b2 = real(ctx, mats)
        first = np.flatnonzero(big & np.any(b1 != (1, 0, 0, 1), axis=-1))[0]
        b1[first] = (1, 0, 0, 1)
        return big, b1, b2

    monkeypatch.setattr(gl2, "bruhat", corrupted)
    assert cli.run(["verify", "--suite", "bruhat", "--q", "3", "--json"]) == 1
    obj = _json_out(capsys)
    assert len(obj["failures"]) == 2
    assert all("re-multiply" in f for f in obj["failures"])
    assert obj["max_defect"] == 1.0


def test_verify_chartable_reports_the_measured_table_defect(capsys,
                                                           monkeypatch):
    # a report over tolerance from a verify_table that raises nothing
    # (build_table and emit call the same stub): the suite's own table
    # check must fail on the reported defect
    monkeypatch.setattr(chartab, "verify_table",
                        lambda table: {"column_orthogonality": 1.0})
    assert cli.run(["verify", "--suite", "chartable", "--q", "3",
                    "--json"]) == 1
    obj = _json_out(capsys)
    assert len(obj["failures"]) == 2
    assert all("irreducibles verifies" in f for f in obj["failures"])
    assert obj["max_defect"] == 1.0


def test_tolerance_env_is_validated(capsys, monkeypatch):
    monkeypatch.setenv("QREP_TOL", "banana")
    assert cli.run(["verify", "--suite", "fields", "--q", "3"]) == 2
    monkeypatch.setenv("QREP_TOL", "1e-6")
    assert cli.run(["verify", "--suite", "fields", "--q", "3"]) == 0
    capsys.readouterr()


def test_main_entry_point_exists():
    assert callable(cli.main)
