"""Command line interface.

Construction commands (field, classes, chartable, weil, simclass,
cuspidal-count) emit tables and matrices; the verify command runs named
check suites and reports one line per check.  Exit codes: 0 success,
1 verification failure, an unusable output path or a size beyond a
supported bound (each with its own stderr message), 2 invalid input.
"""

import argparse
import functools
import io
import json
import os
import sys

import numpy as np

from . import chartab, ff, gl2, parabolic, poly, repcore, simclass, weil
from .config import SEED, get_tol, within_tol
from .errors import IoError, NonPrime, QrepError, SizeExceeded

ODD_SUITES = {"classes", "parabolic", "weil", "svn", "cuspidal", "chartable"}
SUITE_NAMES = ("fields", "classes", "bruhat", "parabolic", "weil", "svn",
               "cuspidal", "chartable", "simclass", "counting")


def _fmt(x):
    return f"{float(x):.12g}"


class InputError(Exception):
    pass


def _parse_q(q):
    try:
        return ff.prime_power(q)
    except NonPrime as e:
        raise InputError(str(e))


def _field_for(q):
    p, k = _parse_q(q)
    return ff.make_field(p, k)


def _group_field_for(q, kind):
    """_field_for where groups over F_q follow, kind the largest of them,
    refused first from q alone: F_q near ff.MAX_Q takes seconds."""
    p, k = _parse_q(q)
    gl2.check_order(kind, q)
    return ff.make_field(p, k)


# ---------------------------------------------------------------------------
# check recorder

class Recorder:
    """One line per check: it passes iff config.within_tol(defect), the
    rule config.gate applies, and exact checks pass a mismatch count."""

    def __init__(self, suite):
        self.suite = suite
        self.checks = 0
        self.failures = []
        self.max_defect = 0.0
        self.lines = []

    def check(self, label, defect, datum=None):
        self.checks += 1
        self.max_defect = float(np.maximum(self.max_defect, defect))
        tail = f"  defect={_fmt(defect)}"
        if within_tol(defect):
            self.lines.append(f"ok   {self.suite}: {label}{tail}")
        else:
            msg = f"{self.suite}: {label}" + (f" [{datum}]" if datum else "") + tail
            self.failures.append(msg)
            self.lines.append(f"FAIL {msg}")

    def error(self, exc):
        self.checks += 1
        msg = f"{self.suite}: {type(exc).__name__}: {exc}"
        self.failures.append(msg)
        self.lines.append(f"FAIL {msg}")

    def summary(self, q):
        return {"suite": self.suite, "q": q, "checks": self.checks,
                "failures": self.failures, "max_defect": self.max_defect}


# ---------------------------------------------------------------------------
# verify suites

def _suite_fields(rec, q, seed):
    F = _field_for(q)
    rng = np.random.default_rng(seed)
    units = np.arange(1, q)
    rec.check("exp/log round trip on units",
              np.count_nonzero(F.exp[F.log[units]] != units))
    rec.check("x * inv(x) = 1 on units",
              np.count_nonzero(F.mul(units, F.inv(units)) != 1))
    xs, ys, zs = (rng.integers(0, q, 256) for _ in range(3))
    rec.check("distributivity on 256 random triples",
              np.count_nonzero(F.mul(xs, F.add(ys, zs))
                               != F.add(F.mul(xs, ys), F.mul(xs, zs))))
    E = ff.make_ext(F)
    idx = np.arange(E.ext.q)
    rec.check("frobenius is an involution",
              np.count_nonzero(E.frob[E.frob] != idx))
    rec.check("frobenius fixes exactly the base subfield",
              np.count_nonzero((E.frob == idx) != (idx < q)))
    fiber = np.bincount(E.norm[1:], minlength=q)
    rec.check("norm fibers over base units have size q+1",
              int(fiber[0] != 0) + np.count_nonzero(fiber[1:] != q + 1))
    psi = ff.AddChar(F)
    rec.check("nontrivial additive character sums to zero",
              abs(psi.values.sum()))
    # mixed-radix Fourier transform against the direct double sum
    orders = (3, 4)
    n = 12
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ft = ff.fourier_transform(f, orders)
    direct = np.zeros(n, dtype=complex)
    for kk in range(n):
        k0, k1 = kk % 3, kk // 3
        for xx in range(n):
            x0, x1 = xx % 3, xx // 3
            direct[kk] += f[xx] * np.exp(-2j * np.pi * (k0 * x0 / 3 + k1 * x1 / 4))
    rec.check("fourier transform matches the direct sum on Z/3 x Z/4",
              np.max(np.abs(ft - direct)))


def _suite_classes(rec, q, seed):
    F = _group_field_for(q, "gl2")
    rng = np.random.default_rng(seed)
    S = gl2.make_group("sl2", F)
    for G in (S.gl2_ctx, S):
        kind = G.kind
        order = (q * q - 1) * (q * q - q) if kind == "gl2" else q ** 3 - q
        rec.check(f"{kind}: group order", abs(G.n - order), datum=str(G.n))
        want = q * q - 1 if kind == "gl2" else q + 4
        rec.check(f"{kind}: class count", abs(len(G.conj_classes) - want),
                  datum=str(len(G.conj_classes)))
        rec.check(f"{kind}: class sizes partition the group",
                  abs(sum(c.size for c in G.conj_classes) - G.n))
        rec.check(f"{kind}: size * centralizer = group order",
                  sum(c.size * c.centralizer_order != G.n
                      for c in G.conj_classes))
        gs = rng.integers(0, G.n, 200)
        shapes = [G.classify(G.mat_of(int(g))) for g in gs]
        rep_cis = G.view.class_of[G.ids_of([rep for _, _, rep in shapes])]
        bad = 0
        for ci, (tag, params, _), rep_ci in zip(
                G.view.class_of[gs].tolist(), shapes, rep_cis.tolist()):
            cl = G.conj_classes[ci]
            bad += (tag, params) != (cl.tag, cl.params) or rep_ci != ci
        rec.check(f"{kind}: classification agrees with orbit flooding "
                  "on 200 random elements", bad)
    split = sum(1 for c in S.conj_classes if c.tag == "nonsemisimple"
                and gl2.sl2_split_test(S, c.rep_id)[0])
    rec.check("sl2: every non-semisimple class splits from its gl2 class",
              abs(split - 4), datum=f"{split} of 4")


def _suite_bruhat(rec, q, seed):
    F = _group_field_for(q, "gl2")
    kinds = ("gl2", "sl2") if q % 2 else ("gl2",)
    one, w = (1, 0, 0, 1), (0, 1, int(F.neg(1)), 0)
    for kind in kinds:
        G = gl2.make_group(kind, F)
        big, b1, b2 = gl2.bruhat(G, G.elems)
        # every word as a triple product: b1 w b2, or g 1 1 for the B cell
        back = G.mat_mul(G.mat_mul(b1, np.where(big[:, None], w, one)), b2)
        rec.check(f"{kind}: bruhat words re-multiply exactly ({G.n} elements)",
                  np.count_nonzero(np.any(back != G.elems, axis=-1)))
        cell_b = int(np.count_nonzero(~big))
        nb = len(G.borel_ids())
        rec.check(f"{kind}: big cell has size |G| - |B|", abs(cell_b - nb),
                  datum=f"|B-cell| = {cell_b}, |B| = {nb}")


def _suite_parabolic(rec, q, seed):
    # gl2's bound, for split_rho_pm's |SL2| (q + 1) entries of 24 bytes
    F = _group_field_for(q, "gl2")
    S = gl2.make_group("sl2", F)
    chars = [ff.MultChar(F, j) for j in range(q - 1)]
    bad = parabolic.intertwiner_mismatches(
        S, [parabolic.BorelChar(S, (c,)) for c in chars])
    rec.check(f"intertwiner dimension matches e1 + ew on all {(q-1)**2} "
              "sl2 pairs", bad)
    bq = parabolic.BorelChar(S, (chars[(q - 1) // 2],))
    relation, _, _, kappa, idempotent = parabolic.hecke_relations(S, bq)
    rec.check("hecke kernel convolution relations at the quadratic "
              "character", relation)
    rec.check(f"idempotents of the rank-two hecke algebra (kappa={kappa})",
              idempotent)
    plus, minus = parabolic.split_rho_pm(S, bq)
    rec.check("split principal series halves have degree (q+1)/2",
              np.max([abs(f.values[0] - (q + 1) / 2) for f in (plus, minus)]))
    rec.check("conjugation by diag(eps, 1) swaps the halves",
              parabolic.epsilon_swap_defect(S, plus, minus))
    if q <= 5:
        G = gl2.make_group("gl2", F)
        bchars = [parabolic.BorelChar(G, (c1, c2))
                  for c1 in chars for c2 in chars]
        bad = parabolic.intertwiner_mismatches(G, bchars)
        rec.check(f"intertwiner dimension matches e1 + ew on all "
                  f"{len(bchars) ** 2} gl2 pairs", bad)


def _suite_weil(rec, q, seed):
    F = _group_field_for(q, "sl2")
    weil.check_stack(q)
    E = ff.make_ext(F)
    # H(F_{q^2}) refuses q >= 13 by its size; built first, it refuses
    # before verify_ordinary fills its image codes
    h = weil.heisenberg_from_ext(E)
    S = gl2.make_group("sl2", F)
    res = weil.verify_ordinary(E, S)
    rec.check(f"multiplicativity of the lifted action from {res['pairs']} "
              f"(element, generator) products, word length "
              f"{res['word_length']}", res["bound"])
    rec.check("generator word decomposition reproduces every image",
              res["word_defect"])
    rec.check("normalization at the Weyl element and the big cell",
              res["norm_defect"])
    bad, pairs = weil.symplectic_defect(h)
    rec.check(f"symplectic coordinates carry the group law on all {pairs} "
              f"pairs (defect counts failed relations)", bad)
    if q <= 5:
        avg = weil.averaging_check(E, S)
        rec.check("averaging operators specialize the Heisenberg action",
                  avg["nu_vs_rho"])
        rec.check("closed form is the normalized averaging operator",
                  avg["rho_vs_normalized"])


def _suite_svn(rec, q, seed):
    for orders in ((2,), (3,), (4,), (2, 2)):
        h = weil.heisenberg_group(orders)
        try:
            d = weil.svn_check(h)
        except QrepError as e:
            rec.error(e)
            continue
        rec.check(f"uniqueness of the central-character rep for G={orders}", d)
        rec.check(f"fourier transform swaps translation and modulation "
                  f"for G={orders}", weil.fourier_intertwines(h))
    E = ff.make_ext(_field_for(q))
    rec.check("fourier transform intertwines on the Heisenberg group of "
              f"F_{q * q}/F_{q}",
              weil.fourier_intertwines(weil.heisenberg_from_ext(E)))


def _suite_cuspidal(rec, q, seed):
    F = _group_field_for(q, "gl2")
    E = ff.make_ext(F)
    S = gl2.make_group("sl2", F)
    G = gl2.make_group("gl2", F)
    fam = weil.gl2_cuspidal_family(E, G)
    rec.check(f"gl2 cuspidal family has (q^2-q)/2 members",
              abs(len(fam) - (q * q - q) // 2), datum=str(len(fam)))
    worst = 0.0
    for (j, _), f in fam:
        omega = ff.MultChar(E.ext, j)
        for i, c in enumerate(G.conj_classes):
            if c.tag != "nonsemisimple":
                continue
            a = c.params[0]
            worst = np.maximum(worst, abs(f.values[i] + omega.values[a]))
    rec.check("gl2 trace at (a,1;0,a) equals -omega(a)", worst)
    sl = weil.sl2_cuspidal_family(E, S)
    rec.check("sl2 primitive cuspidal count is (q-1)/2",
              abs(len(sl["cuspidal"]) - (q - 1) // 2),
              datum=str(len(sl["cuspidal"])))
    worst = 0.0
    for j, f in sl["cuspidal"]:
        ip = repcore.inner_product(f, f)
        worst = np.maximum(worst, abs(ip - 1))
    rec.check("primitive sl2 cuspidal characters are irreducible", worst)
    om = sl["omega0"]
    ip = repcore.inner_product(om["character"], om["character"])
    rec.check("quadratic-character module splits in two", abs(ip - 2))
    rec.check("split cuspidal halves have degree (q-1)/2",
              np.max([abs(om[h].values[0] - (q - 1) / 2)
                      for h in ("plus", "minus")]))
    worst = 0.0
    for j, f in sl["cuspidal"]:
        for i, c in enumerate(S.conj_classes):
            if c.tag == "split_regular":
                worst = np.maximum(worst, abs(f.values[i]))
            elif c.tag == "nonsemisimple" and c.params[0] == 1:
                worst = np.maximum(worst, abs(f.values[i] + 1))
    rec.check("sl2 cuspidal values: 0 on split regular, -1 on unipotent",
              worst)


def _suite_chartable(rec, q, seed):
    for kind in ("gl2", "sl2"):
        if q not in chartab.SUPPORTED[kind]:
            continue
        t = chartab.build_table(kind, q)
        rec.check(f"{kind}: table of {len(t.rows)} irreducibles verifies "
                  "(orthogonality, degrees, families)",
                  np.max(list(chartab.verify_table(t).values())))
        text1 = chartab.emit(t, "json", sink=io.StringIO())
        text2 = chartab.emit(t, "json", sink=io.StringIO())
        rec.check(f"{kind}: serialization is deterministic",
                  int(text1 != text2))


def _suite_simclass(rec, q, seed):
    F = _field_for(q)
    rng = np.random.default_rng(seed)
    # conjugation invariance of the similarity type
    bad = 0
    for _ in range(100):
        A = simclass.random_matrix(F, 3, rng)
        while True:
            X = simclass.random_matrix(F, 3, rng)
            if simclass.mat_det(F, X) != 0:
                break
        B = simclass.mat_mul(F, simclass.mat_mul(F, X, A),
                             simclass.mat_inv(F, X))
        bad += simclass.similarity_type(F, A) != simclass.similarity_type(F, B)
    rec.check("similarity type is conjugation invariant (100 random 3x3)", bad)
    # jordan round trip (also checked inside jordan_form)
    bad = 0
    for _ in range(50):
        A = simclass.random_matrix(F, 4, rng)
        st = simclass.similarity_type(F, A)
        bad += simclass.similarity_type(F, simclass.jordan_form(F, st)) != st
    rec.check("jordan form round trip (50 random 4x4)", bad)
    if q <= 3:
        orbit_of = simclass.conjugation_orbits(F, 2)
        types = {simclass.similarity_type(
                     F, np.array(A, dtype=np.int64).reshape(2, 2)).entries
                 for A in orbit_of}
        orbits = len(set(orbit_of.values()))
        rec.check("similarity types = brute conjugation orbits on all of "
                  f"M2(F_{q})", abs(orbits - len(types)),
                  datum=f"{orbits} orbits, {len(types)} types")
        rec.check("class count formula matches the enumeration",
                  abs(simclass.count_similarity_classes(q, 2) - orbits),
                  datum=str(orbits))
    # centralizer units on canonical 2x2 representatives
    expected = [
        (np.array([[1, 0], [0, 1]]), (q * q - 1) * (q * q - q)),
        (np.array([[1, 1], [0, 1]]), q * (q - 1)),
    ]
    if q > 2:
        expected.append((np.array([[int(F.exp[1]), 0], [0, 1]]), (q - 1) ** 2))
    f2 = poly.smallest_irreducible(F, 2)
    expected.append((simclass.companion(F, f2), q * q - 1))
    rec.check("centralizer unit counts match the four 2x2 class shapes",
              sum(simclass.centralizer(F, A.astype(np.int64))[1] != want
                  for A, want in expected))
    # hensel lifting on the smallest irreducible quadratic: recompute
    # f(q_r) mod f^3 and (q_r - t) mod f; the defect counts their
    # nonzero coefficients
    root = simclass.hensel_lift(F, f2, 3)
    f3 = poly.mul(F, poly.mul(F, f2, f2), f2)
    residues = (poly.mod(F, poly.compose(F, f2, root), f3),
                poly.mod(F, poly.sub(F, root, (0, 1)), f2))
    rec.check("hensel lift of t against f^3 verifies",
              sum(1 for r in residues for c in r if c))


def _suite_counting(rec, q, seed):
    F = _field_for(q)
    for d in (1, 2, 3):
        if q ** d <= 4096:
            enum = len(poly.irreducibles(F, d))
            formula = simclass.count_irreducible_monics(q, d)
            rec.check(f"necklace count matches enumeration at degree {d}",
                      abs(enum - formula), datum=f"{enum} vs {formula}")
    rec.check("similarity class count at n = 2 is q^2 + q",
              abs(simclass.count_similarity_classes(q, 2) - (q * q + q)))
    for n in (2, 3):
        orb, mon, _ = simclass.cuspidal_count_identity(q, n)
        rec.check(f"primitive character orbits = irreducible monics at "
                  f"degree {n}", abs(orb - mon), datum=f"{orb} vs {mon}")


SUITES = {
    "fields": _suite_fields,
    "classes": _suite_classes,
    "bruhat": _suite_bruhat,
    "parabolic": _suite_parabolic,
    "weil": _suite_weil,
    "svn": _suite_svn,
    "cuspidal": _suite_cuspidal,
    "chartable": _suite_chartable,
    "simclass": _suite_simclass,
    "counting": _suite_counting,
}


# ---------------------------------------------------------------------------
# subcommands

def _cmd_field(args):
    try:
        prime = ff.prime_power(args.p)[1] == 1
    except NonPrime:
        prime = False
    if not prime:
        raise InputError(f"p = {args.p} is not prime")
    if args.k < 1:
        raise InputError("k must be positive")
    F = ff.make_field(args.p, args.k)
    obj = {
        "p": F.p, "k": F.k, "q": F.q,
        "modulus": list(F.modulus) if F.modulus is not None else None,
        "gen": int(F.gen),
        "exp": [int(x) for x in F.exp],
        "log": [int(x) for x in F.log],
        "trace_to_prime": [int(x) for x in F.trace_to_prime],
    }
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_classes(args):
    if args.q % 2 == 0:
        raise InputError("q must be odd")
    F = _group_field_for(args.q, args.group)
    G = gl2.make_group(args.group, F)
    rows = [{"tag": c.tag, "params": list(c.params),
             "rep": [[int(c.rep[0]), int(c.rep[1])],
                     [int(c.rep[2]), int(c.rep[3])]],
             "size": c.size, "centralizer_order": c.centralizer_order}
            for c in G.conj_classes]
    if args.format == "json":
        json.dump({"group": args.group, "q": args.q, "classes": rows},
                  sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        import csv
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(["tag", "params", "rep", "size", "centralizer_order"])
        for r in rows:
            w.writerow([r["tag"], ";".join(map(str, r["params"])),
                        f"{r['rep'][0][0]},{r['rep'][0][1]};"
                        f"{r['rep'][1][0]},{r['rep'][1][1]}",
                        r["size"], r["centralizer_order"]])
    return 0


def _cmd_chartable(args):
    if args.q % 2 == 0:
        raise InputError("q must be odd")
    if args.q not in chartab.SUPPORTED[args.group]:
        raise InputError(
            f"q = {args.q} unsupported for {args.group}; "
            f"supported: {list(chartab.SUPPORTED[args.group])}")
    table = chartab.build_table(args.group, args.q)
    sink = args.out if args.out else sys.stdout
    chartab.emit(table, args.format, sink)
    return 0


def _cmd_weil(args):
    if args.q % 2 == 0:
        raise InputError("q must be odd")
    F = _group_field_for(args.q, "sl2")
    weil.check_stack(args.q)
    E = ff.make_ext(F)
    dump = args.dump_matrices
    if dump:
        try:
            os.makedirs(dump, exist_ok=True)
        except OSError as e:
            raise IoError(str(e))
    S = gl2.make_group("sl2", F)
    res = weil.verify_ordinary(E, S)
    ok = all(within_tol(res[k]) for k in ("bound", "word_defect",
                                          "norm_defect"))
    print(f"q = {args.q}: certified {res['pairs']} (element, generator) "
          f"products, word length {res['word_length']}, "
          f"bound {_fmt(res['bound'])}, "
          f"word defect {_fmt(res['word_defect'])}, "
          f"normalization defect {_fmt(res['norm_defect'])}")
    if dump:
        for g in range(S.n):
            M = weil.weil_matrix(E, S.mat_of(g))
            flat = [[float(z.real), float(z.imag)] for z in M.ravel()]
            try:
                with open(os.path.join(dump, f"{g}.json"), "w") as fh:
                    json.dump(flat, fh)
            except OSError as e:
                raise IoError(str(e))
        print(f"wrote {S.n} matrices to {dump}")
    return 0 if ok else 1


def _parse_matrix(text, q, n):
    rows = text.split(";")
    if len(rows) != n:
        raise InputError(f"expected {n} rows in --matrix")
    out = []
    for r in rows:
        cells = [c.strip() for c in r.split(",")]
        if len(cells) != n:
            raise InputError(f"expected {n} entries per row in --matrix")
        row = []
        for c in cells:
            try:
                v = int(c)
            except ValueError:
                raise InputError(f"bad matrix entry {c!r}")
            if not 0 <= v < q:
                raise InputError(f"matrix entry {v} out of range [0, {q})")
            row.append(v)
        out.append(row)
    return np.array(out, dtype=np.int64)


def _positive_n(n):
    if n < 1:
        raise InputError("n must be positive")


def _cmd_simclass(args):
    _positive_n(args.n)
    if args.count:
        # the count is a formula in q alone: validate q, build no field
        _parse_q(args.q)
        if args.q > ff.MAX_Q:
            raise SizeExceeded(f"q = {args.q} exceeds {ff.MAX_Q}")
        json.dump({"q": args.q, "n": args.n,
                   "count": simclass.count_similarity_classes(args.q, args.n)},
                  sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    F = _field_for(args.q)
    if not args.matrix:
        raise InputError("either --matrix or --count is required")
    A = _parse_matrix(args.matrix, args.q, args.n)
    st = simclass.similarity_type(F, A)
    J = simclass.jordan_form(F, st)
    dim, units = simclass.centralizer(F, A)
    obj = {
        "q": args.q, "n": args.n,
        "type": [{"poly": list(f), "partition": list(part)}
                 for f, part in st.entries],
        "jordan": [[int(x) for x in row] for row in J],
        "centralizer_dim": dim,
        "centralizer_units": units,
    }
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_cuspidal_count(args):
    _parse_q(args.q)
    _positive_n(args.n)
    orb, mon, eq = simclass.cuspidal_count_identity(args.q, args.n)
    json.dump({"q": args.q, "n": args.n, "orbit_count": orb,
               "monic_count": mon, "equal": eq}, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_verify(args):
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    _parse_q(args.q)
    if args.q % 2 == 0 and any(n in ODD_SUITES for n in names):
        raise InputError("q must be odd")
    if "chartable" in names and not any(
            args.q in qs for qs in chartab.SUPPORTED.values()):
        raise InputError(f"no character table support at q = {args.q}; "
                         f"supported: {chartab.SUPPORTED}")
    out = sys.stderr if args.json else sys.stdout
    print(f"seed: {args.seed}  tol: {_fmt(get_tol())}", file=out)
    summaries = []
    worst_fail = 0
    for name in names:
        rec = Recorder(name)
        try:
            SUITES[name](rec, args.q, args.seed)
        except (InputError, SizeExceeded):
            raise
        except QrepError as e:
            rec.error(e)
        for line in rec.lines:
            print(line, file=out)
        s = rec.summary(args.q)
        summaries.append(s)
        print(f"suite {name}: {s['checks']} checks, "
              f"{len(s['failures'])} failures, "
              f"max defect {_fmt(s['max_defect'])}", file=out)
        if s["failures"]:
            worst_fail = 1
    if args.json:
        payload = summaries[0] if len(summaries) == 1 else summaries
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return worst_fail


# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The argument parser, built once per process: run calls it on
    every invocation, and parse_args leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="qrep",
        description="Character tables of GL2 and SL2 over small finite "
                    "fields, with every construction verified numerically.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="dump finite field tables as JSON")
    p.add_argument("--p", type=int, required=True, help="characteristic")
    p.add_argument("--k", type=int, default=1, help="extension degree")
    p.set_defaults(fn=_cmd_field)

    p = sub.add_parser("classes", help="conjugacy class table")
    p.add_argument("--group", choices=("gl2", "sl2"), required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_classes)

    p = sub.add_parser("chartable", help="full irreducible character table")
    p.add_argument("--group", choices=("gl2", "sl2"), required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(fn=_cmd_chartable)

    p = sub.add_parser("weil", help="check the lifted projective "
                                    "representation; optionally dump images")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--dump-matrices", metavar="DIR")
    p.set_defaults(fn=_cmd_weil)

    p = sub.add_parser("simclass", help="similarity type, Jordan form and "
                                        "centralizer of a matrix")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--matrix", help='entries "a,b;c,d" as field indices')
    p.add_argument("--count", action="store_true",
                   help="print the number of similarity classes instead")
    p.set_defaults(fn=_cmd_simclass)

    p = sub.add_parser("cuspidal-count", help="primitive character orbits "
                                              "vs irreducible monics")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_cuspidal_count)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--seed", type=int, default=SEED)
    p.add_argument("--json", action="store_true",
                   help="machine readable summary on stdout")
    p.set_defaults(fn=_cmd_verify)
    return ap


def run(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except IoError as e:
        print(f"i/o failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except SizeExceeded as e:
        print(f"size limit: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except QrepError as e:
        print(f"verification failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
