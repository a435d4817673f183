"""Per-layer tracing of qrep from outside the package.

``Tracer`` rebinds the public functions and methods listed in TARGETS,
in every ``qrep`` module namespace (and module-level dict) that holds a
reference, with wrappers that record one span per call: layer, parent
span, start and end.  Leaving the ``with`` block restores every original
object.  Spans are kept in flat arrays in memory and can be written out
with ``save``.

A span's self time is its duration minus the durations of its direct
children; spans of one thread never overlap, so the children's
durations are exactly the part of the interval they cover.
"""

import functools
import sys
import time
from array import array

import numpy as np


def _size(tracer, layer, out):
    tracer.add(layer + ".elements", int(np.size(out)))


def _matrices(tracer, layer, out):
    tracer.add(layer + ".elements", int(np.size(out)) // 4)


def _pairs(tracer, layer, out):
    tracer.add(layer + ".pairs", int(out["pairs"]))


def _defect(tracer, layer, out):
    tracer.maximum(layer + ".max_defect", max(out.values()))


def _bytes(tracer, layer, out):
    tracer.add(layer + ".bytes", len(out.encode("utf-8")))


_ARITH = ("add", "sub", "mul", "neg", "inv", "pow")
_SUITES = ("fields", "classes", "bruhat", "parabolic", "weil", "svn",
           "cuspidal", "chartable", "simclass", "counting")

# (module, attribute, layer, measure): the attribute is a function or a
# "Class.method".  A function is rebound wherever a qrep module holds it,
# as a global or as a value of a module-level dict (cli.SUITES).
TARGETS = (
    [("qrep.ff", f"FieldCtx.{m}", "ff.arith", _size) for m in _ARITH] + [
        ("qrep.ff", "make_field", "ff.make", None),
        ("qrep.ff", "make_ext", "ff.make", None),
        ("qrep.gl2", "GroupCtx.__init__", "gl2.GroupCtx", None),
        ("qrep.gl2", "GroupCtx.mat_mul", "gl2.mat_mul", _matrices),
        ("qrep.repcore", "induce", "repcore.induce", None),
        ("qrep.repcore", "hom_dim", "repcore.hom_dim", None),
        ("qrep.repcore", "character_table_bruteforce",
         "repcore.character_table_bruteforce", None),
        ("qrep.parabolic", "induced_character",
         "parabolic.induced_character", None),
        ("qrep.parabolic", "build_induced_rep",
         "parabolic.build_induced_rep", None),
        ("qrep.parabolic", "two_dim_commutant_projectors",
         "parabolic.two_dim_commutant_projectors", None),
        ("qrep.weil", "weil_matrix", "weil.weil_matrix", None),
        ("qrep.weil", "CuspidalModule.restrict",
         "weil.CuspidalModule.restrict", None),
        ("qrep.weil", "pi_omega_character", "weil.pi_omega_character", None),
        ("qrep.weil", "verify_ordinary", "weil.verify_ordinary", _pairs),
        ("qrep.weil", "svn_check", "weil.svn", None),
        ("qrep.weil", "fourier_intertwines", "weil.svn", None),
        ("qrep.chartab", "build_table", "chartab.build_table", None),
        ("qrep.chartab", "verify_table", "chartab.verify_table", _defect),
        ("qrep.chartab", "emit", "chartab.emit", _bytes),
        ("qrep.simclass", "similarity_type", "simclass.similarity_type",
         None),
        ("qrep.simclass", "jordan_form", "simclass.forms", None),
        ("qrep.simclass", "centralizer", "simclass.forms", None),
        ("qrep.simclass", "hensel_lift", "simclass.forms", None),
        ("qrep.poly", "irreducibles", "poly.irreducibles", None),
    ] + [("qrep.cli", f"_suite_{s}", f"cli.suite.{s}", None)
         for s in _SUITES])

# Per-layer metrics, in the order they are reported: (name, unit, better).
LAYER_METRICS = (
    [("ff.arith.calls", "count", "lower"),
     ("ff.arith.elements", "count", "lower"),
     ("ff.arith.self_s", "s", "lower"),
     ("ff.make.self_s", "s", "lower"),
     ("gl2.GroupCtx.calls", "count", "lower"),
     ("gl2.GroupCtx.self_s", "s", "lower"),
     ("gl2.mat_mul.calls", "count", "lower"),
     ("gl2.mat_mul.elements", "count", "lower"),
     ("gl2.mat_mul.self_s", "s", "lower"),
     ("repcore.induce.calls", "count", "lower"),
     ("repcore.induce.self_s", "s", "lower"),
     ("repcore.hom_dim.calls", "count", "lower"),
     ("repcore.hom_dim.self_s", "s", "lower"),
     ("repcore.character_table_bruteforce.self_s", "s", "lower"),
     ("parabolic.induced_character.calls", "count", "lower"),
     ("parabolic.induced_character.self_s", "s", "lower"),
     ("parabolic.build_induced_rep.self_s", "s", "lower"),
     ("parabolic.two_dim_commutant_projectors.calls", "count", "lower"),
     ("parabolic.two_dim_commutant_projectors.self_s", "s", "lower"),
     ("weil.weil_matrix.calls", "count", "lower"),
     ("weil.weil_matrix.self_s", "s", "lower"),
     ("weil.CuspidalModule.restrict.calls", "count", "lower"),
     ("weil.CuspidalModule.restrict.self_s", "s", "lower"),
     ("weil.pi_omega_character.calls", "count", "lower"),
     ("weil.pi_omega_character.self_s", "s", "lower"),
     ("weil.verify_ordinary.pairs", "count", "higher"),
     ("weil.verify_ordinary.self_s", "s", "lower"),
     ("weil.svn.self_s", "s", "lower"),
     ("chartab.build_table.self_s", "s", "lower"),
     ("chartab.verify_table.calls", "count", "lower"),
     ("chartab.verify_table.self_s", "s", "lower"),
     ("chartab.verify_table.max_defect", "1", "lower"),
     ("chartab.emit.self_s", "s", "lower"),
     ("chartab.emit.bytes", "bytes", "lower"),
     ("simclass.similarity_type.calls", "count", "lower"),
     ("simclass.similarity_type.self_s", "s", "lower"),
     ("simclass.forms.self_s", "s", "lower"),
     ("poly.irreducibles.self_s", "s", "lower")]
    + [(f"cli.suite.{s}.s", "s", "lower") for s in _SUITES]
    + [("cli.checks", "count", "higher"),
       ("cli.max_defect", "1", "lower"),
       ("trace.wall_s", "s", "lower"),
       ("trace.untraced_wall_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.spans", "count", "lower")])


def _qrep_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qrep" or name.startswith("qrep."))]


class Tracer:
    def __init__(self):
        self.layers = []
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = {}
        self._restore = []

    # --- counters ---

    def add(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    def maximum(self, key, x):
        self.counters[key] = max(self.counters.get(key, 0.0), float(x))

    # --- spans ---

    def _wrap(self, fn, layer, measure):
        if layer not in self.layers:
            self.layers.append(layer)
        lid = self.layers.index(layer)
        stack, clock = self._stack, time.perf_counter
        lay, par, start, end = self.layer, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            lay.append(lid)
            par.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if measure is not None:
                measure(self, layer, out)
            return out
        return traced

    # --- rebinding ---

    def _rebind(self, obj, key, new, is_dict):
        if is_dict:
            self._restore.append((obj, key, obj[key], True))
            obj[key] = new
        else:
            self._restore.append((obj, key, obj.__dict__[key], False))
            setattr(obj, key, new)

    def install(self):
        modules = _qrep_modules()
        for modname, attr, layer, measure in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:  # rebinding on the class reaches every instance
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._rebind(cls, meth, self._wrap(cls.__dict__[meth], layer,
                                                   measure), False)
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, layer, measure)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, name, wrapper, False)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._rebind(value, k, wrapper, True)

    def uninstall(self):
        while self._restore:
            obj, key, original, is_dict = self._restore.pop()
            if is_dict:
                obj[key] = original
            else:
                setattr(obj, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- results ---

    def spans(self):
        """(layer, parent, start, end) as numpy arrays."""
        return (np.frombuffer(self.layer, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def layer_totals(self):
        """{layer: (calls, self_s, total_s)}."""
        lay, par, start, end = self.spans()
        dur = end - start
        child = par >= 0
        covered = np.bincount(par[child], weights=dur[child],
                              minlength=len(dur))
        k = len(self.layers)
        calls = np.bincount(lay, minlength=k)
        own = np.bincount(lay, weights=dur - covered, minlength=k)
        total = np.bincount(lay, weights=dur, minlength=k)
        return {name: (int(calls[i]), float(own[i]), float(total[i]))
                for i, name in enumerate(self.layers)}

    def save(self, path):
        lay, par, start, end = self.spans()
        np.savez(path, layers=np.array(self.layers), layer=lay, parent=par,
                 start=start, end=end)


def layer_metrics(tracer, verify_suites=()):
    """Every LAYER_METRICS value except the trace.* ones.  verify_suites
    is the parsed summary of each verify run in the traced pass."""
    values = {name: 0 if unit in ("count", "bytes") else 0.0
              for name, unit, _ in LAYER_METRICS
              if not name.startswith("trace.")}
    for layer, (calls, own, total) in tracer.layer_totals().items():
        if layer.startswith("cli.suite."):
            values[layer + ".s"] = total
            continue
        for suffix, v in ((".calls", calls), (".self_s", own)):
            if layer + suffix in values:
                values[layer + suffix] = v
    for key, v in tracer.counters.items():
        values[key] = v
    values["cli.checks"] = sum(s[0] for run in verify_suites
                               for s in run.values())
    values["cli.max_defect"] = max(
        (s[2] for run in verify_suites for s in run.values()), default=0.0)
    return values
