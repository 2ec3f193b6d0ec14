"""Spans around calls into poisskit's public functions, recorded from outside.

``Tracer.install`` replaces each traced function in every ``poisskit`` module
namespace that binds it (``from .poisson import hamiltonian_vf`` makes a
second binding) and each traced method on its class.  Each call records a
span: name, start, end and the enclosing span.  The spans stay in memory and
are written out by ``dump`` at the end; every per-layer metric is derived
from them, plus a few counts taken from the arguments and outcome of a call.
Those counts are taken in spans of their own (``OBSERVER``), so the time
spent taking them is no layer's self time.

A span's self time is its duration minus the durations of its child spans.
Everything runs on one thread and nothing waits on I/O, so no layer has a
wait time to report.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array

# Span name -> (module, attribute path) of the traced callable.
TARGETS = {
    "expr.poly_mul": ("expr", "Poly.__mul__"),
    "expr.poly_gcd": ("expr", "poly_gcd"),
    "expr.poly_divexact": ("expr", "poly_divexact"),
    "expr.ratfunc_new": ("expr", "RatFunc.__init__"),
    "expr.ratfunc_diff": ("expr", "RatFunc.diff"),
    "expr.parse": ("expr", "parse_expr"),
    "multivec.schouten": ("multivec", "schouten"),
    "multivec.wedge": ("multivec", "wedge"),
    "multivec.exterior_derivative": ("multivec", "exterior_derivative"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.kernel_basis": ("linalg", "kernel_basis"),
    "linalg.canonical_span": ("linalg", "canonical_span"),
    "linalg.mat_inverse": ("linalg", "mat_inverse"),
    "linalg.det": ("linalg", "det"),
    "poisson.cohomology": ("poisson", "cohomology"),
    "poisson.d_pi": ("poisson", "d_pi"),
    "poisson.verify": ("poisson", "verify"),
    "poisson.gauge_transform": ("poisson", "gauge_transform"),
    "poisson.bracket": ("poisson", "bracket"),
    "poisson.hamiltonian_vf": ("poisson", "hamiltonian_vf"),
    "dirac.dirac_bracket": ("dirac", "dirac_bracket"),
    "dirac.classify_submanifold": ("dirac", "classify_submanifold"),
    "flow.rk4_step": ("flow", "rk4_step"),
    "flow.compile_ratfunc": ("flow", "compile_ratfunc"),
    "flow.integrate_hamiltonian": ("flow", "integrate_hamiltonian"),
    "flow.leaf_trace": ("flow", "leaf_trace"),
    "flow.moser_verify": ("flow", "moser_verify"),
    "flow.spray_realization": ("flow", "spray_realization"),
    "cli.load_manifest": ("cli", "load_manifest"),
    "cli.run_tasks": ("cli", "run_tasks"),
}

# Reserved span name for the benchmark's own argument scans; never reported.
OBSERVER = "trace.observer"

# The per-layer metrics, in BENCHMARK.json order: name -> unit.
CALLS_SELF = [
    "expr.poly_mul", "expr.poly_gcd", "expr.poly_divexact", "expr.ratfunc_new",
    "expr.ratfunc_diff", "expr.parse", "multivec.schouten", "multivec.wedge",
    "multivec.exterior_derivative", "linalg.rref", "linalg.canonical_span",
    "linalg.mat_inverse", "poisson.cohomology", "poisson.d_pi", "poisson.verify",
    "poisson.gauge_transform", "poisson.bracket", "poisson.hamiltonian_vf",
    "dirac.dirac_bracket", "dirac.classify_submanifold", "flow.rk4_step",
    "flow.compile_ratfunc",
]
SELF_ONLY = [
    "linalg.kernel_basis", "flow.integrate_hamiltonian", "flow.leaf_trace",
    "flow.moser_verify", "flow.spray_realization", "cli.load_manifest", "cli.run_tasks",
]


def metric_units():
    units = {}
    for name in CALLS_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    units.update({
        "expr.poly_gcd.aborted": "count",
        "expr.poly_gcd.useful_ratio": "ratio",
        "expr.poly_divexact.inexact_ratio": "ratio",
        "expr.ratfunc_new.unreduced_at_cap": "count",
        "linalg.rref.cells": "count",
        "linalg.rref.nnz_frac": "ratio",
        "linalg.rref.max_rows": "count",
        "linalg.rref.max_cols": "count",
        "linalg.det.calls": "count",
        "flow.rk4_steps_per_s": "1/s",
        "trace.overhead_frac": "ratio",
    })
    return units


def _resolve(root, path):
    owner = root
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def _is_zero(x):
    z = getattr(x, "is_zero", None)
    return z if z is not None else x == 0


class Tracer:
    def __init__(self):
        self.names = []                 # span-name table
        self.name_of = array("i")       # per span: index into names
        self.parent = array("i")        # per span: enclosing span or -1
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {
            "gcd_returned": 0, "gcd_useful": 0, "gcd_aborted": 0,
            "divexact_inexact": 0, "unreduced_at_cap": 0,
            "rref_cells": 0, "rref_nnz": 0, "rref_max_rows": 0, "rref_max_cols": 0,
        }
        self._restore = []

    # -- recording ----------------------------------------------------------

    def _open(self, name_id):
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, such as one per job."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name, fn):
        name_id = self._name_id(name)
        observer_id = self._name_id(OBSERVER)
        before = self._observers_before.get(name)
        after = self._observers_after.get(name)
        opened, closed = self._open, self._close

        # An observer runs in a span of its own, so its time is a child of
        # the caller's span and never counts as poisskit's self time.
        def traced(*args, **kwargs):
            if before is not None:
                obs = opened(observer_id)
                before(args)
                closed(obs)
            idx = opened(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                closed(idx)
                if after is not None:
                    obs = opened(observer_id)
                    after(None, err)
                    closed(obs)
                raise
            closed(idx)
            if after is not None:
                obs = opened(observer_id)
                after(result, None)
                closed(obs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counts observed from arguments and outcomes -------------------------

    def _install_observers(self, modules):
        expr = modules["expr"]
        c = self.counts

        def gcd_after(result, err):
            if err is not None:
                c["gcd_aborted"] += isinstance(err, expr._GcdTooExpensive)
            else:
                c["gcd_returned"] += 1
                c["gcd_useful"] += not result.is_constant

        def divexact_after(result, err):
            c["divexact_inexact"] += isinstance(err, expr.ExprError)

        def ratfunc_before(args):
            _self, num, den = args[:3]
            cap = expr.GCD_DEGREE_CAP
            if (not den.is_constant and num.total_degree() > cap
                    and den.total_degree() > cap):
                c["unreduced_at_cap"] += 1

        def rref_before(args):
            m = args[0]
            rows = len(m)
            cols = len(m[0]) if rows else 0
            c["rref_cells"] += rows * cols
            c["rref_nnz"] += sum(1 for row in m for x in row if not _is_zero(x))
            c["rref_max_rows"] = max(c["rref_max_rows"], rows)
            c["rref_max_cols"] = max(c["rref_max_cols"], cols)

        self._observers_before = {"expr.ratfunc_new": ratfunc_before,
                                  "linalg.rref": rref_before}
        self._observers_after = {"expr.poly_gcd": gcd_after,
                                 "expr.poly_divexact": divexact_after}

    # -- installing ----------------------------------------------------------

    def install(self):
        modules = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("poisskit.")
        }
        self._install_observers(modules)
        for name, (mod_name, path) in TARGETS.items():
            owner, attr = _resolve(modules[mod_name], path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if owner is modules[mod_name]:
                # every module namespace that binds this function
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
            else:
                # a method, plus its aliases on the class (Poly.__rmul__)
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._restore.append((owner, key, original))
                        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def per_name(self):
        """name -> (calls, inclusive seconds, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name_of[i]]]
            rec[0] += 1
            rec[1] += dur[i]
            rec[2] += dur[i] - child[i]
        return out

    def metrics(self):
        stats = self.per_name()

        def get(name):
            return stats.get(name, [0, 0.0, 0.0])

        c = self.counts
        values = {}
        for name in CALLS_SELF:
            values[f"{name}.calls"] = get(name)[0]
            values[f"{name}.self_s"] = get(name)[2]
        for name in SELF_ONLY:
            values[f"{name}.self_s"] = get(name)[2]
        div_calls = get("expr.poly_divexact")[0]
        rk4_calls, rk4_incl, _ = get("flow.rk4_step")
        values.update({
            "expr.poly_gcd.aborted": c["gcd_aborted"],
            "expr.poly_gcd.useful_ratio": c["gcd_useful"] / c["gcd_returned"] if c["gcd_returned"] else 0.0,
            "expr.poly_divexact.inexact_ratio": c["divexact_inexact"] / div_calls if div_calls else 0.0,
            "expr.ratfunc_new.unreduced_at_cap": c["unreduced_at_cap"],
            "linalg.rref.cells": c["rref_cells"],
            "linalg.rref.nnz_frac": c["rref_nnz"] / c["rref_cells"] if c["rref_cells"] else 0.0,
            "linalg.rref.max_rows": c["rref_max_rows"],
            "linalg.rref.max_cols": c["rref_max_cols"],
            "linalg.det.calls": get("linalg.det")[0],
            "flow.rk4_steps_per_s": rk4_calls / rk4_incl if rk4_incl else 0.0,
        })
        return values

    def dump(self, path):
        """Write every span as columns: name, start, end, parent."""
        doc = {
            "names": self.names,
            "name": list(self.name_of),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
