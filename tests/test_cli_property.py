"""Property tests of the CLI contract for `qrep simclass`, `qrep classes`
and `qrep chartable`: any q, n and matrix string ends in exit 0 (ok), 1
(verification failure) or 2 (bad input), with no traceback."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from qrep import cli


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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


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
