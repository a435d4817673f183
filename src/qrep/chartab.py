"""Assembly, verification and serialization of complete character
tables of GL2(F_q) and SL2(F_q).

Row order: Linear, SteinbergTwist, PrincipalSeries (by exponent pair),
SplitPrincipal+/-, Cuspidal (by smallest orbit exponent),
SplitCuspidal+/-.  Columns follow the canonical conjugacy-class order
of the group context (central, non-semisimple, split regular,
anisotropic, each sorted by parameters).

Every table is verified before it can be emitted: row count, exact
degree bookkeeping, both orthogonality relations, family counts and
degree multisets, positive integer degrees, and (at q = 3) a
root-of-unity decomposition of every entry.  A table that fails any
check raises VerificationFailed and is never serialized.  emit lets
json.dumps(..., indent=2) lay out the json and csv.writer the csv, both
filled from one array of entry texts.
"""

import csv
import io
import itertools
import json
from collections import Counter
from dataclasses import dataclass, field as dc_field

import numpy as np

from .config import SNAP, gate, get_tol
from .errors import EvenQ, IoError, NotInGroup, SizeExceeded, VerificationFailed
from .ff import MultChar, make_ext, make_field, prime_power
from .gl2 import GroupCtx
from .parabolic import (BorelChar, decompose_gl2, induced_character,
                        split_rho_pm)
from .repcore import ClassFunction, hom_dim
from .weil import gl2_cuspidal_family, sl2_cuspidal_family

SUPPORTED = {"gl2": (3, 5, 7), "sl2": (3, 5, 7, 9)}


@dataclass
class TableRow:
    family: str
    params: tuple
    values: np.ndarray

    @property
    def degree(self):
        return int(round(self.values[0].real))


@dataclass
class CharacterTable:
    kind: str
    q: int
    gctx: object
    rows: list = dc_field(default_factory=list)

    @property
    def matrix(self):
        return np.array([r.values for r in self.rows])


def _identity_first_check(gctx):
    if gctx.conj_classes[0].tag != "central" or \
            gctx.conj_classes[0].rep != (1, 0, 0, 1):
        raise VerificationFailed("identity class is not first")


def _gl2_rows(gctx, ectx):
    q = gctx.q
    F = gctx.field
    rows = []
    dets = np.asarray(gctx.mat_det(gctx.elems[gctx.view.reps]))
    for j in range(q - 1):
        chi = MultChar(F, j)
        rows.append(TableRow("Linear", (j,), chi.values[dets]))
    for j in range(q - 1):
        chi = MultChar(F, j)
        _, st = decompose_gl2(gctx, BorelChar(gctx, (chi, chi)))
        rows.append(TableRow("SteinbergTwist", (j,), st.values))
    for j1, j2 in itertools.combinations(range(q - 1), 2):
        b = BorelChar(gctx, (MultChar(F, j1), MultChar(F, j2)))
        rows.append(TableRow("PrincipalSeries", (j1, j2),
                             induced_character(gctx, b).values))
    fam = gl2_cuspidal_family(ectx, gctx)
    for (j, partner), f in sorted(fam, key=lambda t: t[0][0]):
        rows.append(TableRow("Cuspidal", (j, partner), f.values))
    return rows


def _sl2_rows(gctx, ectx):
    q = gctx.q
    F = gctx.field
    k = len(gctx.view.reps)
    rows = [TableRow("Linear", (0,), np.ones(k, dtype=complex))]
    triv = BorelChar(gctx, (MultChar(F, 0),))
    ind1 = induced_character(gctx, triv)
    st = ind1 - ClassFunction(gctx.view, np.ones(k, dtype=complex))
    if hom_dim(st, st) != 1:
        raise VerificationFailed("Steinberg is not irreducible")
    rows.append(TableRow("SteinbergTwist", (0,), st.values))
    for j in range(1, (q - 1) // 2):
        b = BorelChar(gctx, (MultChar(F, j),))
        rows.append(TableRow("PrincipalSeries", (j,),
                             induced_character(gctx, b).values))
    jq = (q - 1) // 2
    plus, minus = split_rho_pm(gctx, BorelChar(gctx, (MultChar(F, jq),)))
    rows.append(TableRow("SplitPrincipal", (jq, 1), plus.values))
    rows.append(TableRow("SplitPrincipal", (jq, -1), minus.values))
    fam = sl2_cuspidal_family(ectx, gctx)
    for j, f in sorted(fam["cuspidal"], key=lambda t: t[0]):
        rows.append(TableRow("Cuspidal", (j,), f.values))
    j0 = (q + 1) // 2
    rows.append(TableRow("SplitCuspidal", (j0, 1), fam["omega0"]["plus"].values))
    rows.append(TableRow("SplitCuspidal", (j0, -1), fam["omega0"]["minus"].values))
    return rows


def expected_family_counts(kind, q):
    if kind == "gl2":
        out = {"Linear": q - 1, "SteinbergTwist": q - 1,
               "PrincipalSeries": (q - 1) * (q - 2) // 2,
               "Cuspidal": (q * q - q) // 2}
    else:
        out = {"Linear": 1, "SteinbergTwist": 1,
               "PrincipalSeries": (q - 3) // 2, "SplitPrincipal": 2,
               "Cuspidal": (q - 1) // 2, "SplitCuspidal": 2}
    return {k: v for k, v in out.items() if v}


def expected_degrees(kind, q):
    if kind == "gl2":
        out = [1] * (q - 1) + [q] * (q - 1)
        out += [q + 1] * ((q - 1) * (q - 2) // 2)
        out += [q - 1] * ((q * q - q) // 2)
    else:
        out = [1, q] + [q + 1] * ((q - 3) // 2) + [(q + 1) // 2] * 2
        out += [q - 1] * ((q - 1) // 2) + [(q - 1) // 2] * 2
    return sorted(out)


def _multiset_sums(d, order):
    """The sum of every multiset of exactly d roots of unity of the given
    order, in itertools.combinations_with_replacement order."""
    roots = np.exp(2j * np.pi * np.arange(order) / order)
    return roots[_multisets(d, order)].sum(axis=1)


def _multisets(d, order):
    """Every nondecreasing d-tuple over range(order) as the rows of an
    array, in lexicographic order: each row of d - 1 entries is followed
    by every value from its last entry up, which keeps the order."""
    combos = np.zeros((1, 0), dtype=np.int64)
    low = np.zeros(1, dtype=np.int64)
    for _ in range(d):
        counts = order - low
        starts = np.cumsum(counts) - counts
        rows = np.repeat(np.arange(len(combos)), counts)
        low = np.arange(counts.sum()) - np.repeat(starts - low, counts)
        combos = np.column_stack([combos[rows], low])
    return combos


def _first_multiset(z, sums):
    """Index of the first of the _multiset_sums within tolerance of z,
    or None when none is."""
    hit = np.flatnonzero(np.abs(sums - z) < get_tol())
    return int(hit[0]) if len(hit) else None


def _mismatches(got, want):
    """Number of keys whose counts differ between two Counters."""
    return sum(got[key] != want[key] for key in got | want)


def verify_table(table):
    """All structural checks; raises VerificationFailed on the first
    violation, returns a dict of check names -> max defect, with
    column_orthogonality_scaled, recorded but not gated, next to
    column_orthogonality."""
    gctx = table.gctx
    _identity_first_check(gctx)
    k = len(gctx.view.reps)
    n = gctx.n
    A = table.matrix
    out = {}

    if A.shape != (k, k):
        raise VerificationFailed(f"{A.shape[0]} rows for {k} classes")

    degs = A[:, 0]
    gate(np.max(np.maximum(np.abs(degs.imag),
                           np.abs(degs.real - np.round(degs.real)))),
         "degrees are not positive integers")
    if np.min(degs.real) < 0.5:
        raise VerificationFailed("degrees are not positive integers")
    degrees = [int(round(x)) for x in degs.real]
    if sum(d * d for d in degrees) != n:
        raise VerificationFailed(f"sum of squared degrees != {n}")
    out["degree_sum"] = float(abs(np.sum(np.abs(degs) ** 2) - n))

    sizes = gctx.view.sizes
    gram = (A * sizes) @ A.conj().T / n
    out["row_orthogonality"] = gate(np.max(np.abs(gram - np.eye(k))),
                                    "row orthonormality")

    col = A.T.conj() @ A  # col[c, c'] = sum_i conj(chi_i(c)) chi_i(c')
    cent = n / sizes
    err = np.abs(col - np.diag(cent))
    out["column_orthogonality"] = gate(np.max(err), "column orthogonality")
    # recorded, not gated: dividing by sqrt(|C(c)| |C(c')|) >= 1 takes
    # out the growth with the centralizer orders, so drift shows apart
    # from scale, but at the same tol it would be the weaker check
    out["column_orthogonality_scaled"] = float(
        np.max(err / np.sqrt(np.outer(cent, cent))))

    counts = Counter(r.family for r in table.rows)
    family_bad = _mismatches(
        counts, Counter(expected_family_counts(table.kind, table.q)))
    if family_bad:
        raise VerificationFailed(f"family counts {dict(counts)}")
    degree_bad = _mismatches(
        Counter(degrees), Counter(expected_degrees(table.kind, table.q)))
    if degree_bad:
        raise VerificationFailed(f"degree multiset {sorted(degrees)}")
    out["families"] = float(family_bad + degree_bad)

    if table.q == 3:
        order = int(np.lcm(gctx.field.p, table.q ** 2 - 1))
        sums = {d: _multiset_sums(d, order) for d in set(degrees)}
        worst = 0.0
        for r in table.rows:
            for z in r.values:
                i = _first_multiset(complex(z), sums[r.degree])
                if i is None:
                    raise VerificationFailed(
                        f"{z} is not a sum of {r.degree} roots of unity")
                worst = np.maximum(worst, abs(sums[r.degree][i] - z))
        out["root_of_unity"] = float(worst)
    return out


def build_table(kind, q):
    if kind not in SUPPORTED:
        raise NotInGroup(f"unknown kind {kind!r}")
    if q % 2 == 0:
        raise EvenQ("q must be odd")
    if q not in SUPPORTED[kind]:
        raise SizeExceeded(f"{kind} tables support q in {SUPPORTED[kind]}")
    p, kdeg = prime_power(q)
    F = make_field(p, kdeg)
    gctx = GroupCtx(kind, F)
    ectx = make_ext(F)
    rows = _gl2_rows(gctx, ectx) if kind == "gl2" else _sl2_rows(gctx, ectx)
    table = CharacterTable(kind=kind, q=q, gctx=gctx, rows=rows)
    verify_table(table)
    return table


# --- serialization ---

def _snap(x):
    # serialization only: suppress float dust on values that verification
    # has already pinned to within tolerance of exact integers
    r = round(x)
    return float(r) if abs(x - r) < SNAP else x


def _sig12(x):
    return float(f"{_snap(x):.12g}")


def _class_label(c):
    return f"{c.tag}({','.join(str(p) for p in c.params)})"


def _row_label(r):
    return f"{r.family}({','.join(str(p) for p in r.params)})"


def _entry_texts(table, pair, fmt, im_fmt=None):
    """The text of every entry of table.matrix as a (rows, classes)
    object array: pair.format(fmt(re), im_fmt(im)), im_fmt defaulting
    to fmt.  Each format runs once per distinct float, where -0.0 and
    0.0 share one, which _snap sends to 0.0 either way.  Each entry's
    pair is keyed by its two float indices as one integer,
    re_index * n_floats + im_index, so pair fills once per distinct
    (re, im), and (re, im) and (im, re) get keys of their own."""
    A = table.matrix
    distinct, inverse = np.unique(np.stack([A.real, A.imag]),
                                  return_inverse=True)
    floats = distinct.tolist()
    re_done = [fmt(x) for x in floats]
    im_done = re_done if im_fmt is None else [im_fmt(x) for x in floats]
    n = len(floats)
    re_at, im_at = inverse.reshape((2,) + A.shape)
    keys, where = np.unique(re_at * n + im_at, return_inverse=True)
    texts = np.array([pair.format(re_done[k // n], im_done[k % n])
                      for k in keys.tolist()], dtype=object)
    return texts[where.reshape(A.shape)]


# json.dumps(..., indent=2) lays out a row's values list, three levels
# deep (document, irreducibles, row), with its entries after eight spaces
# and its closing bracket after six; each entry, a pair four levels deep,
# has its two floats after ten spaces and its closing bracket after eight
_VALUE_PAD = "\n" + " " * 8
_JSON_PAIR = "[\n          {0},\n          {1}\n        ]"


def _json_text(table):
    """emit's json text.  One json.dumps(..., indent=2) lays out the
    whole table with "values": [] in every row, and each row's value
    pairs go in at its placeholder, laid out as json.dumps lays them
    out.  json.dumps escapes every '"' inside a string, so the literal
    '"values": []' occurs only at the placeholders."""
    classes = [{"tag": c.tag, "rep": [list(c.rep[:2]), list(c.rep[2:])],
                "size": c.size, "centralizer": c.centralizer_order}
               for c in table.gctx.conj_classes]
    irr = [{"family": r.family, "params": list(r.params),
            "degree": r.degree, "values": []} for r in table.rows]
    skeleton = json.dumps({"group": table.kind, "q": table.q,
                           "classes": classes, "irreducibles": irr},
                          indent=2)
    # json.dumps writes a finite float as float.__repr__, and
    # verify_table has refused every NaN and infinity
    texts = _entry_texts(table, _JSON_PAIR,
                         lambda x: float.__repr__(_sig12(x)))
    parts = skeleton.split('"values": []')
    out = [parts[0]]
    for row, rest in zip(texts.tolist(), parts[1:]):
        out += ['"values": [' + _VALUE_PAD, ("," + _VALUE_PAD).join(row),
                "\n      ]", rest]
    return "".join(out + ["\n"])


def _csv_text(table):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["irreducible"] +
               [_class_label(c) for c in table.gctx.conj_classes])
    texts = _entry_texts(table, "{0}{1}j", lambda x: f"{_snap(x):.12g}",
                         lambda x: f"{_snap(x):+.12g}")
    w.writerows([_row_label(r)] + row
                for r, row in zip(table.rows, texts.tolist()))
    return buf.getvalue()


def emit(table, fmt, sink):
    """Serialize a verified table as json or csv to a path or file
    object.  An unknown fmt is refused before any work; the table is
    then re-verified, so emitting an unverifiable table is
    impossible."""
    write = {"json": _json_text, "csv": _csv_text}.get(fmt)
    if write is None:
        raise IoError(f"unknown format {fmt!r}")
    verify_table(table)
    text = write(table)
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        try:
            with open(sink, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise IoError(str(e))
    return text
