"""Property tests of the CLI contract for `qrep simclass`, `qrep classes`,
`qrep chartable`, `qrep field`, `qrep cuspidal-count`, `qrep weil` and
`qrep verify`: any q, n and matrix string ends in exit 0 (ok), 1
(verification failure or size limit) or 2 (bad input), with no
traceback.  For field, cuspidal-count, weil and verify the test also
predicts which of the three codes it is."""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from qrep import cli, gl2
from qrep.ff import MAX_Q
from qrep.simclass import MAX_ENUM


def _matrix_text(rows):
    return ";".join(",".join(str(v) for v in row) for row in rows)


@st.composite
def _simclass_argv(draw):
    q = draw(st.integers(-5, 200))
    n = draw(st.integers(1, 4))
    # free text, or an n x n grid whose entries may leave [0, q)
    square = st.lists(st.lists(st.integers(-1, 200), min_size=n, max_size=n),
                      min_size=n, max_size=n).map(_matrix_text)
    matrix = draw(st.one_of(st.text(max_size=40), square))
    # --matrix=S, so a string that starts with "-" is not read as a flag
    return ["simclass", "--q", str(q), "--n", str(n), f"--matrix={matrix}"]


def _exits_zero_one_or_two_without_a_traceback(argv):
    """(exit code, stdout, stderr) of one run, which must end in 0, 1 or
    2 with no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


def _prime_of(q):
    """p if q = p^k for a prime p and some k >= 1, else None: q divided
    down by its smallest factor."""
    if q < 2:
        return None
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    while q % p == 0:
        q //= p
    return p if q == 1 else None


@settings(max_examples=40, deadline=None, database=None)
@given(_simclass_argv())
def test_simclass_exits_zero_one_or_two_without_a_traceback(argv):
    _exits_zero_one_or_two_without_a_traceback(argv)


# small sizes, which build, and sizes far past every enumeration bound
_TABLE_Q = st.one_of(st.integers(-5, 13), st.integers(100, 10 ** 6))


@settings(max_examples=30, deadline=None, database=None)
@given(st.sampled_from(["classes", "chartable"]),
       st.sampled_from(["gl2", "sl2"]), _TABLE_Q,
       st.sampled_from(["json", "csv"]))
def test_classes_and_chartable_exit_zero_one_or_two_without_a_traceback(
        command, group, q, fmt):
    _exits_zero_one_or_two_without_a_traceback(
        [command, "--group", group, "--q", str(q), "--format", fmt])


# small fields, which build, and characteristics or degrees past MAX_Q,
# which are refused before any table is built
_FIELD_PK = st.one_of(
    st.tuples(st.integers(-5, 50), st.integers(-2, 3)),
    st.tuples(st.integers(2, 50), st.integers(21, 40)),
    st.tuples(st.integers(MAX_Q + 1, 10 ** 8), st.integers(-2, 3)))


@settings(max_examples=40, deadline=None, database=None)
@given(_FIELD_PK)
def test_field_exits_by_the_contract(pk):
    # 2 unless p is prime and k positive; then 1 past MAX_Q, else 0 with
    # the tables of F_{p^k}
    p, k = pk
    code, out, _ = _exits_zero_one_or_two_without_a_traceback(
        ["field", "--p", str(p), "--k", str(k)])
    if _prime_of(p) != p or k < 1:
        assert code == 2
    elif p ** k > MAX_Q:
        assert code == 1
    else:
        assert code == 0
        obj = json.loads(out)
        assert (obj["p"], obj["k"], obj["q"]) == (p, k, p ** k)
        assert sorted(obj["exp"]) == list(range(1, p ** k))


# small q^n - 1, which enumerate, and q - 1 past the enumeration bound
_COUNT_QN = st.one_of(
    st.tuples(st.integers(-5, 40), st.integers(-2, 3)),
    st.tuples(st.integers(MAX_ENUM + 2, 10 ** 8), st.integers(1, 4)))


@settings(max_examples=40, deadline=None, database=None)
@given(_COUNT_QN)
def test_cuspidal_count_exits_by_the_contract(qn):
    # 2 unless q is a prime power and n positive; then 1 past MAX_ENUM,
    # else 0, with the two counts equal exactly when n >= 2 (at n = 1 they
    # are q - 1 characters against q monics)
    q, n = qn
    code, out, _ = _exits_zero_one_or_two_without_a_traceback(
        ["cuspidal-count", "--q", str(q), "--n", str(n)])
    if _prime_of(q) is None or n < 1:
        assert code == 2
    elif q ** n - 1 > MAX_ENUM:
        assert code == 1
    else:
        assert code == 0
        obj = json.loads(out)
        assert obj["equal"] == (n >= 2)
        if n == 1:
            assert (obj["orbit_count"], obj["monic_count"]) == (q - 1, q)


# weil holds an (n, Q, Q) stack of every image, so only q <= 9 is drawn
# among the sizes that build; q >= 100 is refused by the image stack
# bound, from q alone
_WEIL_Q = st.one_of(st.integers(-5, 9), st.integers(100, 10 ** 6))


@settings(max_examples=25, deadline=None, database=None)
@given(_WEIL_Q, st.sampled_from([None, "an existing file", "below a file"]))
def test_weil_exits_by_the_contract(q, dump):
    # 2 unless q is an odd prime power, 1 past the stack bound or with a
    # dump path that cannot be a directory, else 0
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["weil", "--q", str(q)]
        if dump is not None:
            taken = os.path.join(tmp, "taken")
            open(taken, "w").close()
            path = taken if dump == "an existing file" else os.path.join(taken, "x")
            argv += ["--dump-matrices", path]
        code, _, _ = _exits_zero_one_or_two_without_a_traceback(argv)
    if _prime_of(q) in (None, 2):
        assert code == 2
    elif q >= 100 or dump is not None:
        assert code == 1
    else:
        assert code == 0


# every cheap suite at small q; the group suites also past the order
# bound on GL2, the largest group bruhat and classes build and the bound
# parabolic takes, which they refuse before building F_q (fields and
# counting get slow there)
_GROUP_SUITES = ["bruhat", "classes"]
_VERIFY_SUITE_Q = st.one_of(
    st.tuples(st.sampled_from(["fields", "counting", *_GROUP_SUITES]),
              st.integers(-3, 16)),
    st.tuples(st.sampled_from([*_GROUP_SUITES, "parabolic"]),
              st.sampled_from([67, 101, 128, 243, 531441])))


@settings(max_examples=30, deadline=None, database=None)
@given(_VERIFY_SUITE_Q, st.integers(0, 2 ** 32))
def test_verify_exits_by_the_contract(suite_q, seed):
    # 2 on stderr unless q is a prime power, odd for an odd-q suite; then
    # 1 with a size limit on stderr past the order bound, else 0 with every
    # line on stdout
    suite, q = suite_q
    code, out, err = _exits_zero_one_or_two_without_a_traceback(
        ["verify", "--suite", suite, "--q", str(q), "--seed", str(seed)])
    if _prime_of(q) is None or q % 2 == 0 and suite in cli.ODD_SUITES:
        assert (code, err[:7]) == (2, "error: ")
    elif (q * q - 1) * (q * q - q) > gl2.MAX_ORDER:
        assert (code, err[:12]) == (1, "size limit: ")
        assert "FAIL" not in out
    else:
        assert (code, err) == (0, "")
        assert f"suite {suite}: " in out and "FAIL" not in out
