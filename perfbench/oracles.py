"""Value oracles for benchmark jobs.

Every check recomputes the expected value independently of poisskit: the
cohomology dimensions come from the Poincare-series formula in
``workloads.py``.  Symbolic results (gauge transforms, brackets, Hamiltonian
vector fields), whose printed values run to kilobytes and cost sympy seconds
to parse and cancel, are compared by exact value at seeded random rational
points, a Schwartz-Zippel identity test: pi_B through (I + P W) pi_B = P and
its Jacobiator (with exact first derivatives by dual numbers), brackets
against sympy's derivatives of the inputs.  Dirac brackets and flags are
recomputed with sympy at the constraint samples.  The numeric results are
held to stated accuracy bounds.  A change in how poisskit prints a value is
never a failure.

``check(job, value)`` returns None when the job's output is correct, else a
one-line reason.  sympy is imported here only, after the timed region.
"""

from __future__ import annotations

import ast
import operator
import random
from fractions import Fraction

import sympy as sp

IDENTITY_POINTS = 3


def _symbols(names):
    return {n: sp.Symbol(n) for n in names}


def to_sympy(text, syms):
    """Parse an expression in the poisskit grammar (as written in manifests
    or printed by poisskit) into sympy, exactly."""
    return sp.sympify(str(text).replace("^", "**"), locals=syms, rational=True)


def _split_top(text, sep=" + "):
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return parts


def parse_multivector(text, names):
    """{index tuple: coefficient text} from a printed MultiVec such as
    ``(x/(y + 1)) d/dx^d/dz + z d/dy^d/dz``."""
    out = {}
    if text.strip() == "0":
        return out
    index = {n: i for i, n in enumerate(names)}
    for part in _split_top(text):
        coeff, basis = part.rsplit(" ", 1)
        idx = tuple(index[b[len("d/d"):]] for b in basis.split("^"))
        out[idx] = f"({out[idx]}) + ({coeff})" if idx in out else coeff
    return out


_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}


class Dual:
    """An exact value with its gradient: first derivatives at a point."""

    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v, self.d = v, d

    def _lift(self, other):
        return other if isinstance(other, Dual) else Dual(other, [0] * len(self.d))

    def __add__(self, other):
        other = self._lift(other)
        return Dual(self.v + other.v, [x + y for x, y in zip(self.d, other.d)])

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.v, [-x for x in self.d])

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        return Dual(self.v * other.v,
                    [self.v * y + other.v * x for x, y in zip(self.d, other.d)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        q = self.v / other.v
        return Dual(q, [(x - q * y) / other.v for x, y in zip(self.d, other.d)])

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, n):
        p = self.v ** (n - 1)
        return Dual(p * self.v, [n * p * x for x in self.d])


def value_at(text, point):
    """Exact value of an expression in the poisskit grammar at a point
    {name: Fraction or Dual}; raises ZeroDivisionError at a pole."""
    def ev(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return Fraction(node.value)
        if isinstance(node, ast.Name):
            return point[node.id]
        raise ValueError(f"unexpected {ast.dump(node)[:60]}")
    return ev(ast.parse(str(text).replace("^", "**"), mode="eval").body)


def _q(v):
    return sp.Rational(v.numerator, v.denominator)


def _random_points(names, count, avoid):
    """Seeded random rational points where none of ``avoid`` has a pole."""
    rng = random.Random(0)
    points = []
    while len(points) < count:
        pt = {n: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3)) for n in names}
        try:
            for text in avoid:
                value_at(text, pt)
        except ZeroDivisionError:
            continue
        points.append(pt)
    return points


def _bivector_matrix(table, names, syms):
    """Antisymmetric matrix from a manifest table {"i,j": text}."""
    n = len(names)
    m = sp.zeros(n, n)
    for key, text in table.items():
        i, j = (int(p) for p in key.split(","))
        m[i, j] = to_sympy(text, syms)
        m[j, i] = -m[i, j]
    return m


def _task_data(value, task):
    for name, _passed, lines, data in value:
        if name == task:
            return lines, data
    raise KeyError(task)


def _check_cohomology(job, value):
    _, data = _task_data(value, "cohomology")
    if data["dim"] != job.oracle["dim"]:
        return f"dim {data['dim']} != {job.oracle['dim']}"
    return None


def _matrix_at(table, n, point, lift):
    """Antisymmetric matrix of {(i, j): text} evaluated at a point."""
    m = [[lift(Fraction(0))] * n for _ in range(n)]
    for (i, j), text in table.items():
        m[i][j] = lift(value_at(text, point))
        m[j][i] = -m[i][j]
    return m


def _keyed(table):
    return {tuple(int(p) for p in key.split(",")): text for key, text in table.items()}


def _check_gauge(job, value):
    doc = job.doc
    names = doc["chart"]
    n = len(names)
    p_text = _keyed(doc["bivectors"]["pi"])
    w_text = _keyed(doc["forms"]["B"])
    _, data = _task_data(value, "gauge")
    pb_text = parse_multivector(data["pi_B"], names)
    for pt in _random_points(names, IDENTITY_POINTS, pb_text.values()):
        p = _matrix_at(p_text, n, pt, Fraction)
        w = _matrix_at(w_text, n, pt, Fraction)
        dual = {name: Dual(v, [int(k == i) for k in range(n)])
                for i, (name, v) in enumerate(pt.items())}
        pb = _matrix_at(pb_text, n, dual,
                        lambda v: v if isinstance(v, Dual) else Dual(v, [0] * n))
        # pi_B = (I + P W)^-1 P  <=>  (I + P W) pi_B = P, with I + P W invertible
        for i in range(n):
            for j in range(n):
                lhs = pb[i][j].v + sum(p[i][k] * w[k][l] * pb[l][j].v
                                       for k in range(n) for l in range(n))
                if lhs != p[i][j]:
                    return "pi_B != (I + P W)^-1 P"
        # [pi_B, pi_B] = 0  <=>  sum_l P_il d_l P_jk + cyclic = 0 for i<j<k
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    if sum(pb[i][l].v * pb[j][k].d[l] + pb[j][l].v * pb[k][i].d[l]
                           + pb[k][l].v * pb[i][j].d[l] for l in range(n)) != 0:
                        return "[pi_B, pi_B] != 0"
    return None


def _bracket_value(p, f, g, xs):
    n = len(xs)
    return sum(p[i, j] * sp.diff(f, xs[i]) * sp.diff(g, xs[j])
               for i in range(n) for j in range(n))


def _check_bracket(job, value):
    doc = job.doc
    names = doc["chart"]
    syms = _symbols(names)
    xs = [syms[n] for n in names]
    n = len(xs)
    p = _bivector_matrix(doc["bivectors"]["pi"], names, syms)
    f_text, g_text = doc["expressions"]["f"], doc["expressions"]["g"]
    f, g = to_sympy(f_text, syms), to_sympy(g_text, syms)
    df = [sp.diff(f, x) for x in xs]
    dg = [sp.diff(g, x) for x in xs]
    lines, _ = _task_data(value, "bracket")
    bracket = lines[0].split(" = ", 1)[1]
    lines, _ = _task_data(value, "hamiltonian_vf")
    xf = parse_multivector(lines[0].split(" = ", 1)[1], names)
    for pt in _random_points(names, IDENTITY_POINTS, [f_text, g_text]):
        at = {syms[k]: _q(v) for k, v in pt.items()}
        pv = p.subs(at)
        dfv = [d.subs(at) for d in df]
        dgv = [d.subs(at) for d in dg]
        want = sum(pv[i, j] * dfv[i] * dgv[j] for i in range(n) for j in range(n))
        if _q(value_at(bracket, pt)) != want:
            return "{f,g} differs from sum P_ij f_i g_j"
        for j in range(n):
            want = sum(pv[i, j] * dfv[i] for i in range(n))
            if _q(value_at(xf.get((j,), "0"), pt)) != want:
                return f"X_f component {j} differs from sum_i P_ij f_i"
    return None


def _check_dirac(job, value):
    doc = job.doc
    names = doc["chart"]
    syms = _symbols(names)
    xs = [syms[n] for n in names]
    p = _bivector_matrix(doc["bivectors"]["pi"], names, syms)
    spec = doc["constraints"]["n"]
    psi = [to_sympy(t, syms) for t in spec["psi"]]
    samples = [[sp.Rational(v) for v in s] for s in spec["samples"]]
    c = sp.Matrix(len(psi), len(psi), lambda a, b: _bracket_value(p, psi[a], psi[b], xs))
    at = [dict(zip(xs, s)) for s in samples]
    # classify, from the flags' definitions at the sample points
    x_psi_zero = all(
        sum(p[i, j] * sp.diff(q, xs[i]) for i in range(len(xs))).subs(pt) == 0
        for q in psi for j in range(len(xs)) for pt in at
    )
    coiso = all(e.subs(pt) == 0 for e in c for pt in at)
    cosym = all(c.subs(pt).det() != 0 for pt in at)
    lines, data = _task_data(value, "classify")
    want = {"poisson": x_psi_zero, "coisotropic": coiso, "cosymplectic": cosym}
    got = {k: data[k] for k in want}
    if got != want:
        return f"classify {got} != {want}"
    # {f,g}_N = {f,g} - {f,psi_a} C^ab {psi_b,g}, evaluated at the samples
    task = next(t for t in doc["tasks"] if t["task"] == "dirac_bracket")
    f, g = to_sympy(task["f"], syms), to_sympy(task["g"], syms)
    _, data = _task_data(value, "dirac_bracket")
    got_vals = [Fraction(v) for v in ast.literal_eval(data["value"])]
    if len(got_vals) != len(at):
        return "dirac_bracket value count differs from sample count"
    for pt, got_v in zip(at, got_vals):
        cinv = c.subs(pt).inv()
        fpsi = [_bracket_value(p, f, q, xs).subs(pt) for q in psi]
        psig = [_bracket_value(p, q, g, xs).subs(pt) for q in psi]
        want_v = _bracket_value(p, f, g, xs).subs(pt) - sum(
            fpsi[a] * cinv[a, b] * psig[b]
            for a in range(len(psi)) for b in range(len(psi)))
        if _q(got_v) != want_v:
            return f"{{f,g}}_N = {got_v} != {want_v} at {pt}"
    return None


def _check_flow(job, value):
    tol = job.doc["flow"]["tol"]
    _, data = _task_data(value, "flow")
    drifts = [data["h_drift"]] + list(data["casimir_drifts"])
    if len(drifts) != 2 or not all(0 <= d < tol for d in drifts):
        return f"drifts {drifts} not below tol {tol}"
    return None


def _check_below(name, key, bound_of):
    def check(job, value):
        bound = bound_of(job)
        if not 0 <= value[key] < bound:
            return f"{name} {value[key]:.3e} not below {bound:.1e}"
        return None
    return check


def _check_leaf(job, value):
    tol = job.doc["flow"]["tol"]
    drifts = value["casimir_drifts"]
    if len(drifts) != len(job.doc["casimirs"]) or not all(0 <= d < tol for d in drifts):
        return f"casimir drifts {drifts} not below tol {tol}"
    return None


CHECKS = {
    "cohomology": _check_cohomology,
    "gauge": _check_gauge,
    "bracket": _check_bracket,
    "dirac": _check_dirac,
    "flow": _check_flow,
    "leaf": _check_leaf,
    "moser": _check_below("moser deviation", "max_deviation",
                          lambda job: job.doc["flow"]["tol"]),
    "spray": _check_below("realization deviation", "deviation",
                          lambda job: job.oracle["bound"]),
}


def check(job, value):
    if job.kind == "manifest":
        for name, passed, lines, _data in value:
            if passed is False:
                return f"FAIL line from {name}: {lines[-1]}"
    return CHECKS[job.oracle["check"]](job, value)
