"""Assembled character tables, cross-checked row by row against the
class-algebra brute-force table."""

import csv
import dataclasses
import hashlib
import io
import itertools
import json

import numpy as np
import pytest

from qrep import (
    EvenQ,
    NotInGroup,
    SUPPORTED,
    SizeExceeded,
    VerificationFailed,
    build_table,
    character_table_bruteforce,
    emit,
    get_tol,
    verify_table,
)
from qrep import chartab, cli, weil
from qrep.chartab import expected_degrees, expected_family_counts
from qrep.config import SNAP
from qrep.errors import IoError


def _field(q):
    return {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2)}[q]


def test_supported_sizes():
    assert SUPPORTED == {"gl2": (3, 5, 7), "sl2": (3, 5, 7, 9)}


def test_build_and_verify_small_tables():
    for kind, q in (("gl2", 3), ("sl2", 3), ("sl2", 5)):
        t = build_table(kind, q)
        assert len(t.rows) == len(t.gctx.conj_classes)
        report = verify_table(t)
        assert report  # every named check ran
        assert max(report.values()) < 1e-8
        degs = sorted(r.degree for r in t.rows)
        assert degs == expected_degrees(kind, q)
        counts = {}
        for r in t.rows:
            counts[r.family] = counts.get(r.family, 0) + 1
        assert counts == expected_family_counts(kind, q)


def test_sl2_table_path_takes_no_svd(monkeypatch):
    # rho+- and omega0+- are split by explicit involutions; no commutant
    # is solved for on the way to a table
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called while building a table")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    t = build_table("sl2", 9)
    assert len(t.rows) == len(t.gctx.conj_classes)


def test_gl2_f3_degrees_frozen():
    t = build_table("gl2", 3)
    assert sorted(r.degree for r in t.rows) == [1, 1, 2, 2, 2, 3, 3, 4]


def test_sl2_f3_has_no_generic_principal_series():
    # q = 3: (q-3)/2 = 0 irreducible principal series
    t = build_table("sl2", 3)
    assert sorted(r.degree for r in t.rows) == [1, 1, 1, 2, 2, 2, 3]
    fams = {r.family for r in t.rows}
    assert "PrincipalSeries" not in fams
    assert {"SplitPrincipal", "SplitCuspidal", "Cuspidal"} <= fams


def test_every_constructed_row_is_a_bruteforce_row(monkeypatch):
    # the class-algebra method knows nothing about parabolic induction
    # or Weil operators; agreement pins the whole construction.  gl2
    # q = 9 lies beyond the cap: there 72 primitive characters share 9
    # restrictions
    monkeypatch.setitem(chartab.SUPPORTED, "gl2", (3, 5, 7, 9))
    tol = get_tol()
    for kind, q in (("gl2", 3), ("sl2", 3), ("sl2", 5), ("gl2", 9)):
        t = build_table(kind, q)
        brute = character_table_bruteforce(t.gctx.view)
        used = set()
        for r in t.rows:
            hits = [i for i in range(brute.shape[0])
                    if np.max(np.abs(brute[i] - r.values)) < tol]
            assert len(hits) == 1, (kind, q, r.family, r.params)
            used.add(hits[0])
        assert len(used) == len(t.rows) == brute.shape[0]


def test_split_principal_frozen_values_q3():
    t = build_table("sl2", 3)
    gctx = t.gctx
    u = gctx.class_index_of((1, 1, 0, 1))
    v = gctx.class_index_of((1, 2, 0, 1))
    root = 0.5 + np.sqrt(3) / 2 * 1j
    rows = [r for r in t.rows if r.family == "SplitPrincipal"]
    assert len(rows) == 2
    vals = sorted((round(r.values[u].imag, 6), r) for r in rows)
    lo, hi = vals[0][1], vals[1][1]
    assert abs(hi.values[u] - root) < 1e-8
    assert abs(hi.values[v] - np.conj(root)) < 1e-8
    assert abs(lo.values[u] - np.conj(root)) < 1e-8
    cusp = [r for r in t.rows if r.family == "Cuspidal"]
    assert len(cusp) == 1
    assert np.max(np.abs(cusp[0].values -
                         np.array([2, -2, -1, -1, 1, 1, 0]))) < 1e-8


def test_first_column_is_the_degree_and_orthogonality_holds():
    t = build_table("gl2", 5)
    v = t.gctx.view
    M = t.matrix
    assert np.max(np.abs(M[:, 0].imag)) < 1e-10
    G = (M * v.sizes) @ M.conj().T / v.n
    assert np.max(np.abs(G - np.eye(len(t.rows)))) < 1e-8
    # column orthogonality: sum_r |chi_r(g)|^2 = |centralizer(g)|
    cents = np.array([c.centralizer_order for c in t.gctx.conj_classes])
    col = np.sum(np.abs(M) ** 2, axis=0)
    assert np.max(np.abs(col - cents)) < 1e-8


def test_degree_squares_sum_to_group_order():
    for kind, q in (("gl2", 3), ("sl2", 9)):
        t = build_table(kind, q)
        assert sum(r.degree ** 2 for r in t.rows) == t.gctx.view.n


def test_unsupported_sizes_are_rejected():
    with pytest.raises(EvenQ):
        build_table("gl2", 4)
    with pytest.raises(SizeExceeded):
        build_table("gl2", 9)  # only sl2 is built at q = 9
    with pytest.raises(SizeExceeded):
        build_table("sl2", 11)


def test_unknown_kind_is_an_input_error():
    with pytest.raises(NotInGroup):
        build_table("foo", 3)


def test_emit_is_deterministic_and_parseable():
    t = build_table("sl2", 3)
    s1, s2 = io.StringIO(), io.StringIO()
    emit(t, "json", s1)
    emit(t, "json", s2)
    assert s1.getvalue() == s2.getvalue()
    obj = json.loads(s1.getvalue())
    assert obj["group"] == "sl2" and obj["q"] == 3
    assert len(obj["classes"]) == 7 and len(obj["irreducibles"]) == 7
    assert obj["irreducibles"][0]["degree"] == 1
    sizes = sum(c["size"] for c in obj["classes"])
    assert sizes == 24

    c1 = io.StringIO()
    emit(t, "csv", c1)
    rows = list(csv.reader(io.StringIO(c1.getvalue())))
    assert len(rows) == 8  # header + 7 rows
    assert all(len(row) == 8 for row in rows)
    assert rows[0][0] == "irreducible"
    assert complex(rows[1][1]) == 1 + 0j


def test_emit_rejects_unknown_format_and_bad_path(tmp_path):
    t = build_table("sl2", 3)
    with pytest.raises(IoError):
        emit(t, "xml", io.StringIO())
    with pytest.raises(IoError):
        emit(t, "csv", str(tmp_path / "no" / "such" / "dir" / "t.csv"))
    target = tmp_path / "table.json"
    emit(t, "json", str(target))
    assert json.loads(target.read_text())["q"] == 3


def test_emit_refuses_an_unknown_format_before_verifying(monkeypatch):
    t = build_table("sl2", 3)
    calls = []
    monkeypatch.setattr(chartab, "verify_table", calls.append)
    with pytest.raises(IoError, match="unknown format 'xml'"):
        emit(t, "xml", io.StringIO())
    assert calls == []
    emit(t, "json", io.StringIO())
    assert calls == [t]


def test_serialized_values_have_no_float_dust():
    # -1 must serialize as -1, not -1+1.2e-16j
    t = build_table("sl2", 3)
    buf = io.StringIO()
    emit(t, "csv", buf)
    assert "e-1" not in buf.getvalue()
    jbuf = io.StringIO()
    emit(t, "json", jbuf)
    assert "e-1" not in jbuf.getvalue()


def _per_value_text(table, fmt):
    """emit's text with every float formatted where it stands, one at a
    time: the reference for emit, which formats each distinct one once."""
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["irreducible"] +
                   [chartab._class_label(c) for c in table.gctx.conj_classes])
        for r in table.rows:
            w.writerow([chartab._row_label(r)] +
                       [f"{chartab._snap(z.real):.12g}"
                        f"{chartab._snap(z.imag):+.12g}j" for z in r.values])
        return buf.getvalue()
    classes = []
    for c in table.gctx.conj_classes:
        a, b, cc, d = c.rep
        classes.append({"tag": c.tag, "rep": [[a, b], [cc, d]],
                        "size": c.size, "centralizer": c.centralizer_order})
    irr = []
    for r in table.rows:
        irr.append({"family": r.family, "params": list(r.params),
                    "degree": r.degree,
                    "values": [[chartab._sig12(z.real), chartab._sig12(z.imag)]
                               for z in r.values]})
    obj = {"group": table.kind, "q": table.q,
           "classes": classes, "irreducibles": irr}
    return json.dumps(obj, indent=2) + "\n"


def _awkward_table():
    """The sl2 q = 3 table moved within tolerance so that it holds -0.0,
    values within SNAP of an integer and just outside it, distinct
    floats that agree to 12 significant digits, a pair (x, 0) next to
    its swap (0, x), and a pair that holds x in the other slot."""
    t = build_table("sl2", 3)
    vals = [r.values.copy() for r in t.rows]
    vals[1][2] = complex(-0.0, -0.0)
    vals[0][1] = 1 + SNAP / 2                 # written as 1
    vals[0][2] = 1 + 1.5 * SNAP               # written as 1.0000000015
    vals[2][2] += 3e-14                       # both written as 0.5
    vals[3][3] -= 2e-14
    a, b = vals[2][2].real, vals[3][3].real
    assert a != b and f"{a:.12g}" == f"{b:.12g}"
    x = 1.5 * SNAP                            # written as 1.5e-09
    vals[1][3] = complex(x, 0.0)
    vals[1][4] = complex(0.0, x)              # (x, 0) swapped
    vals[0][3] = complex(1.0, x)              # x in the imaginary slot
    return dataclasses.replace(t, rows=[dataclasses.replace(r, values=v)
                                        for r, v in zip(t.rows, vals)])


def test_emit_equals_the_per_value_renderer():
    tables = [build_table(kind, q) for kind in SUPPORTED
              for q in SUPPORTED[kind]] + [_awkward_table()]
    for t in tables:
        for fmt in ("json", "csv"):
            assert emit(t, fmt, io.StringIO()) == _per_value_text(t, fmt)
    awkward = emit(tables[-1], "csv", io.StringIO())
    assert "1.0000000015" in awkward
    assert "-0+" not in awkward and "-0j" not in awkward
    rows = list(csv.reader(io.StringIO(awkward)))
    assert rows[2][4:6] == ["1.5e-09+0j", "0+1.5e-09j"]
    assert rows[1][4] == "1+1.5e-09j"


def test_verify_table_reports_measured_defects():
    # nudge one degree by tol/100: every gate still passes, and the
    # degree-sum and root-of-unity entries measure the nudge
    t = build_table("gl2", 3)
    report = verify_table(t)
    assert set(report) == {"degree_sum", "row_orthogonality",
                           "column_orthogonality",
                           "column_orthogonality_scaled", "families",
                           "root_of_unity"}
    assert report["families"] == 0
    assert (report["column_orthogonality_scaled"]
            <= report["column_orthogonality"])
    delta = get_tol() / 100
    last = t.rows[-1]
    vals = last.values.copy()
    vals[0] += delta
    nudged = verify_table(dataclasses.replace(
        t, rows=t.rows[:-1] + [dataclasses.replace(last, values=vals)]))
    assert nudged["degree_sum"] == pytest.approx(2 * last.degree * delta,
                                                 rel=1e-3)
    assert delta / 2 < nudged["root_of_unity"] < 2 * delta
    assert report["degree_sum"] < delta and report["root_of_unity"] < delta


def _first_multiset_by_loop(z, d, order):
    """(index, residual) of the first multiset of d roots of unity, in
    combinations_with_replacement order, whose sum is within tolerance
    of z, or None: the reference for the summed search."""
    roots = np.exp(2j * np.pi * np.arange(order) / order)
    combos = itertools.combinations_with_replacement(range(order), d)
    for i, combo in enumerate(combos):
        residual = abs(roots[list(combo)].sum() - z)
        if residual < get_tol():
            return i, float(residual)
    return None


def test_multisets_follow_the_itertools_order():
    # _first_multiset returns the first hit, so the row order is part of
    # the contract
    for order in (1, 2, 5, 24):
        for d in range(5):
            want = list(itertools.combinations_with_replacement(
                range(order), d))
            got = chartab._multisets(d, order)
            assert got.shape == (len(want), d)
            assert [tuple(row) for row in got.tolist()] == want


@pytest.mark.parametrize("kind", ["gl2", "sl2"])
def test_root_of_unity_search_equals_the_multiset_loop(kind):
    t = build_table(kind, 3)
    order = 24  # lcm(3, 3^2 - 1)
    sums = {}
    for r in t.rows:
        d = r.degree
        sums.setdefault(d, chartab._multiset_sums(d, order))
        for z in r.values:
            i, residual = _first_multiset_by_loop(complex(z), d, order)
            assert chartab._first_multiset(complex(z), sums[d]) == i
            assert abs(abs(sums[d][i] - z) - residual) <= 1e-15
    # a value beyond the reach of any d roots of unity
    for d in sums:
        assert _first_multiset_by_loop(d + 1.0, d, order) is None
        assert chartab._first_multiset(d + 1.0, sums[d]) is None


def test_verify_table_root_of_unity_gate_fires(monkeypatch):
    t = build_table("sl2", 3)
    monkeypatch.setattr(chartab, "_first_multiset", lambda z, sums: None)
    with pytest.raises(VerificationFailed, match="is not a sum of"):
        verify_table(t)


def test_verify_table_family_and_degree_gates_fire(monkeypatch):
    t = build_table("gl2", 3)
    relabelled = [dataclasses.replace(t.rows[-1], family="Linear")]
    with pytest.raises(VerificationFailed, match="family counts"):
        verify_table(dataclasses.replace(t, rows=t.rows[:-1] + relabelled))
    # a census that expects one degree-2 row fewer and one degree-3 more
    want = expected_degrees("gl2", 3)
    want.remove(2)
    monkeypatch.setattr(chartab, "expected_degrees",
                        lambda kind, q: sorted(want + [3]))
    with pytest.raises(VerificationFailed, match="degree multiset"):
        verify_table(t)


def test_verify_table_gates_fire_on_broken_tables():
    t = build_table("gl2", 5)
    verify_table(t)
    rows = t.rows

    def broken(new_rows):
        return dataclasses.replace(t, rows=new_rows)

    # one entry off by 10 tol: its column is no longer orthogonal to the
    # degree column
    bumped = rows[-1].values.copy()
    bumped[1] += 10 * get_tol()
    off = rows[:-1] + [dataclasses.replace(rows[-1], values=bumped)]
    with pytest.raises(VerificationFailed, match="column orthogonality"):
        verify_table(broken(off))

    # two non-identity columns of different class sizes swapped: the
    # class-size weights no longer match, so the rows lose orthonormality
    sizes = t.gctx.view.sizes
    c1 = 1
    c2 = next(c for c in range(2, len(sizes)) if sizes[c] != sizes[c1])
    swap = np.arange(len(sizes))
    swap[[c1, c2]] = [c2, c1]
    swapped = [dataclasses.replace(r, values=r.values[swap]) for r in rows]
    with pytest.raises(VerificationFailed, match="row orthonormality"):
        verify_table(broken(swapped))

    # one row dropped
    with pytest.raises(VerificationFailed, match="rows for"):
        verify_table(broken(rows[:-1]))


def test_verify_table_refuses_a_nan_entry():
    t = build_table("sl2", 5)
    values = t.rows[-1].values.copy()
    values[1] = np.nan
    rows = t.rows[:-1] + [dataclasses.replace(t.rows[-1], values=values)]
    with pytest.raises(VerificationFailed, match="row orthonormality"):
        verify_table(dataclasses.replace(t, rows=rows))


def _nan_in_the_weyl_operator(monkeypatch):
    """Patch weil._restrict_weyl to put a NaN at an entry of R(w) on
    every module.  R(w) enters the N-fixed gate twice, so the NaN must
    reach it; the helper is called once per table."""
    real = weil._restrict_weyl
    calls = []

    def poisoned(ectx, values):
        calls.append(len(values))
        out = real(ectx, values)
        out[:, 0, 1] = np.nan
        return out

    monkeypatch.setattr(weil, "_restrict_weyl", poisoned)
    return calls


@pytest.mark.parametrize("kind", ["gl2", "sl2"])
def test_a_nan_in_the_weyl_operator_fails_the_build(monkeypatch, kind):
    calls = _nan_in_the_weyl_operator(monkeypatch)
    with pytest.raises(VerificationFailed, match="W_omega"):
        build_table(kind, 5)
    assert len(calls) == 1


def test_chartable_exits_1_on_a_nan_weyl_operator(monkeypatch, capsys):
    _nan_in_the_weyl_operator(monkeypatch)
    assert cli.run(["chartable", "--group", "gl2", "--q", "5"]) == 1
    got = capsys.readouterr()
    assert "W_omega" in got.err and got.out == ""


# SHA-256 of the emitted json and csv beyond the cap, where no reference
# file pins them: a rounding change in the cuspidal path moves these bytes
# (an einsum in place of the R(w) matmul flips 4 csv entries at gl2 q=23)
_BEYOND_CAP = {
    ("gl2", 23): (
        "6645cf153cff4264b3a2dafa09b6c76540bd4ba8222d18d4e53d9273bb03533e",
        "5baec74a71a5aff4766f95a76dc52afd4193df9a9648a8d62b87c9f554a23373"),
    ("sl2", 37): (
        "0682d30b83b45c171abc9c56f8cf2dbf2f17044ee59de0b749a97e6248b4b3bc",
        "a4618007518de33c4992375ad2cb2313ac4ca0612329bdec37bc99a826deb478"),
}


@pytest.mark.parametrize("kind,q", sorted(_BEYOND_CAP))
def test_emit_bytes_beyond_the_cap_are_pinned(monkeypatch, kind, q):
    monkeypatch.setattr(chartab, "SUPPORTED", {kind: (q,)})
    table = build_table(kind, q)
    got = tuple(hashlib.sha256(emit(table, fmt, io.StringIO()).encode())
                .hexdigest() for fmt in ("json", "csv"))
    assert got == _BEYOND_CAP[kind, q]
