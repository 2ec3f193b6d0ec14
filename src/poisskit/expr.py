"""Exact scalar algebra: rationals, sparse multivariate polynomials, rational
functions, and a small expression parser.

Representation choices:

* a coefficient is an exact rational under one rule: a Python ``int`` when
  it is integral, a ``fractions.Fraction`` (lowest terms, positive
  denominator, denominator > 1) otherwise.  ``Poly``'s constructor applies
  the rule, and every division of coefficients goes through ``_quotient``,
  so an ``int / int`` never yields a float.  Most coefficients are
  integral, and int arithmetic costs a small part of Fraction arithmetic;
  since ``1 == Fraction(1)`` and the two print and hash alike, the rule
  changes no value, printed text or hash;
* a polynomial is a dict mapping exponent tuples (one nonnegative int per
  chart variable) to nonzero coefficients -- the zero polynomial is the empty
  dict, so structural equality is canonical equality;
* a rational function stores a numerator/denominator pair of polynomials.
  A pair whose total degrees are both at most GCD_DEGREE_CAP is coprime
  (unless its gcd was abandoned as too expensive); a pair over the cap is
  kept unreduced, and equality is decided by cross-multiplication
  (a/b == c/d  iff  a*d - c*b == 0).  ``RatFunc(num, den)`` reduces a pair
  by one gcd of the whole; arithmetic and ``diff`` on coprime operands
  instead cancel at the parts, by gcds of the operands' numerators and
  denominators (Henrici, JACM 1956; Knuth, TAOCP vol. 2, 4.5.1) or of d and
  its derivative, and give the same pair.  A pair from which a factor was
  cancelled has its terms in descending graded-lex order, the order
  ``poly_divexact`` leaves them in.

The monomial order used for printing and sign normalization is graded
lexicographic by variable index.  No floating point is used anywhere in this
module; numeric evaluation for flows converts to floats at the boundary of
the ``flow`` module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
from operator import add
from typing import Sequence

Coefficient = int | Fraction  # under the coefficient rule above

#: Reduction of rational functions by a polynomial gcd is attempted only when
#: both numerator and denominator have total degree at most this cap.
GCD_DEGREE_CAP = 8

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ExprError(Exception):
    """Base class for all errors raised by the scalar-algebra layer."""


class ParseError(ExprError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class PoleError(ExprError):
    """Evaluation at a point where a denominator vanishes."""


class ChartMismatchError(ExprError):
    """Operands built over different charts."""


@dataclass(frozen=True)
class Chart:
    """An ordered coordinate chart: a tuple of distinct variable names."""

    var_names: tuple[str, ...]

    def __post_init__(self):
        if len(self.var_names) == 0:
            raise ExprError("chart needs at least one variable")
        if len(set(self.var_names)) != len(self.var_names):
            raise ExprError(f"chart variables not distinct: {self.var_names}")
        for name in self.var_names:
            if not _IDENT_RE.match(name):
                raise ExprError(f"invalid variable name {name!r}")

    @property
    def dim(self) -> int:
        return len(self.var_names)

    def index(self, name: str) -> int:
        try:
            return self.var_names.index(name)
        except ValueError:
            raise ExprError(f"unknown variable {name!r} in chart {self.var_names}")

    def __repr__(self):
        return f"Chart({', '.join(self.var_names)})"


def chart(*names: str) -> Chart:
    return Chart(tuple(names))


def _check_same_chart(a, b):
    if a.chart != b.chart:
        raise ChartMismatchError(f"chart mismatch: {a.chart} vs {b.chart}")


def _monomial_key(exps: tuple[int, ...]):
    # graded lexicographic by variable index
    return (sum(exps), exps)


def _coefficient(c):
    """c under the coefficient rule: an int when integral, else a Fraction."""
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _quotient(a, b):
    """The exact quotient a / b of two coefficients, under the coefficient rule."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _coefficient(a / b)


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples to nonzero coefficients, each an ``int``
    when integral and a non-integral ``Fraction`` otherwise; the constructor
    enforces this rule on whatever it is given.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: dict[tuple[int, ...], Coefficient]):
        self.chart = chart
        self.terms = {e: c if type(c) is int else _coefficient(c)
                      for e, c in terms.items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "Poly":
        return Poly(chart, {})

    @staticmethod
    def const(chart: Chart, value) -> "Poly":
        return Poly(chart, {(0,) * chart.dim: value if type(value) is int else Fraction(value)})

    @staticmethod
    def var(chart: Chart, index: int) -> "Poly":
        if not 0 <= index < chart.dim:
            raise ExprError(f"variable index {index} out of range")
        e = [0] * chart.dim
        e[index] = 1
        return Poly(chart, {tuple(e): 1})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        _check_same_chart(self, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.chart, out)

    def __neg__(self) -> "Poly":
        return Poly(self.chart, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        _check_same_chart(self, other)
        out: dict[tuple[int, ...], Coefficient] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(map(add, ea, eb))
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.chart, out)

    __rmul__ = __mul__

    def scale(self, c: Coefficient) -> "Poly":
        if c == 0:
            return Poly.zero(self.chart)
        return Poly(self.chart, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ExprError("negative exponent on a polynomial")
        out = Poly.const(self.chart, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.chart == other.chart
            and self.terms == other.terms
        )

    __hash__ = None  # mutable-dict-backed; not hashable

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ExprError("not a constant polynomial")
        return Fraction(next(iter(self.terms.values()), 0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, index: int) -> int:
        return max((e[index] for e in self.terms), default=-1)

    def leading(self) -> tuple[tuple[int, ...], Coefficient]:
        e = max(self.terms, key=_monomial_key)
        return e, self.terms[e]

    # -- calculus ----------------------------------------------------------

    def diff(self, index: int) -> "Poly":
        if not 0 <= index < self.chart.dim:
            raise ExprError(f"variable index {index} out of range")
        out: dict[tuple[int, ...], Coefficient] = {}
        for e, c in self.terms.items():
            k = e[index]
            if k == 0:
                continue
            e2 = list(e)
            e2[index] = k - 1
            e2 = tuple(e2)
            s = out.get(e2, 0) + c * k
            if s:
                out[e2] = s
            else:
                out.pop(e2, None)
        return Poly(self.chart, out)

    def eval(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.chart.dim:
            raise ExprError("point/chart dimension mismatch")
        pt = [Fraction(v) for v in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(pt, e):
                if k:
                    v *= x**k
            total += v
        return total

    def subst(self, values: Sequence["RatFunc"]) -> "RatFunc":
        """Substitute a rational function for each chart variable."""
        if len(values) != self.chart.dim:
            raise ExprError("substitution arity mismatch")
        target = values[0].chart if values else self.chart
        out = RatFunc.const(target, 0)
        for e, c in self.terms.items():
            term = RatFunc.const(target, c)
            for rf, k in zip(values, e):
                if k:
                    term = term * rf**k
            out = out + term
        return out

    # -- printing ----------------------------------------------------------

    def _monomial_str(self, e: tuple[int, ...]) -> str:
        parts = []
        for name, k in zip(self.chart.var_names, e):
            if k == 1:
                parts.append(name)
            elif k > 1:
                parts.append(f"{name}^{k}")
        return "*".join(parts)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        pieces = []
        for e in sorted(self.terms, key=_monomial_key, reverse=True):
            c = self.terms[e]
            mono = self._monomial_str(e)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        text = body if sign == "+" else f"-{body}"
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"Poly({self})"


# -- multivariate gcd -------------------------------------------------------
#
# Recursive primitive-PRS gcd over Q[x_1, ..., x_n].  Only called for total
# degree <= GCD_DEGREE_CAP, which keeps the pseudo-remainder growth harmless.


def _as_univariate(p: Poly, index: int) -> dict[int, Poly]:
    """View p as a univariate polynomial in x_index with Poly coefficients."""
    coeffs: dict[int, dict] = {}
    for e, c in p.terms.items():
        k = e[index]
        e2 = list(e)
        e2[index] = 0
        coeffs.setdefault(k, {})[tuple(e2)] = c
    return {k: Poly(p.chart, t) for k, t in coeffs.items()}


def _from_univariate(chart: Chart, index: int, coeffs: dict[int, Poly]) -> Poly:
    terms: dict[tuple[int, ...], Fraction] = {}
    for k, q in coeffs.items():
        for e, c in q.terms.items():
            e2 = list(e)
            e2[index] = k
            terms[tuple(e2)] = c
    return Poly(chart, terms)


def poly_divexact(a: Poly, b: Poly) -> Poly:
    """Exact division a / b; raises ExprError if b does not divide a.

    One remainder dict is reduced in place: each quotient term t*x^diff
    subtracts t*x^diff*b from it term by term.
    """
    if b.is_zero:
        raise ExprError("division by the zero polynomial")
    be, bc = b.leading()
    q = {}
    r = dict(a.terms)
    while r:
        re = max(r, key=_monomial_key)
        diff = tuple(x - y for x, y in zip(re, be))
        if any(d < 0 for d in diff):
            raise ExprError("inexact polynomial division")
        t = q[diff] = _quotient(r[re], bc)
        for e, c in b.terms.items():
            e = tuple(map(add, diff, e))
            s = r.get(e, 0) - t * c
            if s:
                r[e] = s
            else:
                r.pop(e, None)
    return Poly(a.chart, q)


def _try_divexact(a: Poly, b: Poly):
    try:
        return poly_divexact(a, b)
    except ExprError:
        return None


class _GcdTooExpensive(Exception):
    """Internal: abandon a gcd whose intermediates grow past the cheap range."""


def _pseudo_rem(a: dict[int, Poly], b: dict[int, Poly], chart: Chart, index: int):
    """Pseudo-remainder of a by b, both univariate views in x_index."""
    da, db = max(a), max(b)
    lc_b = b[db]
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lc_r = r[dr]
        # r <- lc_b * r - lc_r * x^(dr-db) * b
        new: dict[int, Poly] = {}
        for k, c in r.items():
            new[k] = lc_b * c
        for k, c in b.items():
            kk = k + dr - db
            new[kk] = new.get(kk, Poly.zero(chart)) - lc_r * c
        r = {k: c for k, c in new.items() if not c.is_zero}
    return r


def _content_and_primitive(u: dict[int, Poly], chart: Chart):
    cont = Poly.zero(chart)
    for c in u.values():
        cont = poly_gcd(cont, c)
    prim = {k: poly_divexact(c, cont) for k, c in u.items()}
    return cont, prim


def _normalize_gcd(g: Poly) -> Poly:
    if g.is_zero:
        return g
    # primitive with positive leading coefficient: divide by the content
    # gcd(numerators) / lcm(denominators), negated when the leading
    # coefficient is negative
    num, den = 0, 1
    for c in g.terms.values():
        num = _int_gcd(num, c.numerator)
        den = _int_lcm(den, c.denominator)
    _, lead = g.leading()
    if lead < 0:
        num = -num
    return Poly(g.chart, {e: _quotient(c * den, num) for e, c in g.terms.items()})


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Gcd in Q[x...], normalized primitive with positive leading coefficient.

    Raises _GcdTooExpensive when intermediates leave the cheap range; callers
    that merely want opportunistic reduction catch that and keep the operands
    unreduced.
    """
    if a.is_zero:
        return _normalize_gcd(b)
    if b.is_zero:
        return _normalize_gcd(a)
    if a.is_constant or b.is_constant:
        return Poly.const(a.chart, 1)
    if (
        a.total_degree() > 2 * GCD_DEGREE_CAP
        or b.total_degree() > 2 * GCD_DEGREE_CAP
        or len(a.terms) > 200
        or len(b.terms) > 200
    ):
        raise _GcdTooExpensive
    q = _try_divexact(a, b)
    if q is not None:
        return _normalize_gcd(b)
    q = _try_divexact(b, a)
    if q is not None:
        return _normalize_gcd(a)
    # main variable: last index where either has positive degree
    index = max(
        i
        for i in range(a.chart.dim)
        if a.degree_in(i) > 0 or b.degree_in(i) > 0
    )
    ua, ub = _as_univariate(a, index), _as_univariate(b, index)
    ca, pa = _content_and_primitive(ua, a.chart)
    cb, pb = _content_and_primitive(ub, a.chart)
    cont = poly_gcd(ca, cb)
    # primitive PRS in x_index
    f, g = (pa, pb) if max(pa) >= max(pb) else (pb, pa)
    while g:
        r = _pseudo_rem(f, g, a.chart, index)
        f, g = g, _content_and_primitive(r, a.chart)[1] if r else {}
    result = cont * _from_univariate(a.chart, index, f)
    return _normalize_gcd(result)


# -- rational functions ------------------------------------------------------


def _within_cap(*polys: Poly) -> bool:
    return all(p.total_degree() <= GCD_DEGREE_CAP for p in polys)


def _descending(p: Poly) -> Poly:
    """p with its terms in descending graded-lex order."""
    return Poly(p.chart, dict(sorted(p.terms.items(), key=lambda t: _monomial_key(t[0]),
                                     reverse=True)))


def _part_gcd(p: Poly, q: Poly) -> Poly | None:
    """gcd(p, q) for cancelling at the operands, or None when it is 1; a
    constant (or zero) operand needs no gcd.  May raise _GcdTooExpensive."""
    if p.is_constant or q.is_constant:
        return None
    g = poly_gcd(p, q)
    return g if g.total_degree() > 0 else None


def _normalized(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """A coprime pair with the zero numerator over 1, a constant denominator
    divided out, and a positive leading coefficient in the denominator."""
    if num.is_zero:
        return num, Poly.const(num.chart, 1)
    if den.is_constant:
        c = den.constant_value()
        if c == 1:  # Poly values are never modified, so num can be shared
            return num, den
        return num.scale(_quotient(1, c)), Poly.const(num.chart, 1)
    _, lead = den.leading()
    if lead < 0:
        return -num, -den
    return num, den


class RatFunc:
    """Quotient of two polynomials over the same chart.

    The denominator is never the zero polynomial and its leading coefficient
    is kept positive.  Within GCD_DEGREE_CAP the pair is coprime: the
    constructor reduces it by one gcd of the whole, and arithmetic cancels at
    the operands, so ``(a/b)*(c/d)`` divides out gcd(a, d) and gcd(c, b), and
    ``a/b + c/d`` cancels only gcd(t, g) from t = a*(d/g) + c*(b/g), with
    g = gcd(b, d); ``diff`` cancels with gcd(d, d') and a factor of it.
    Either way the pair is the one the constructor gives for the unreduced
    result, term order included: a pair from which a factor was cancelled
    has its terms in descending graded-lex order.  Equality is exact,
    decided by cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        _check_same_chart(num, den)
        if den.is_zero:
            raise ExprError("zero denominator")
        self.num, self.den = self._reduce(num, den)

    @staticmethod
    def _reduce(num: Poly, den: Poly) -> tuple[Poly, Poly]:
        if not num.is_zero and not den.is_constant:
            q = _try_divexact(num, den)
            if q is not None:
                return q, Poly.const(num.chart, 1)
            if _within_cap(num, den):
                try:
                    g = poly_gcd(num, den)
                except _GcdTooExpensive:
                    g = None
                if g is not None and g.total_degree() > 0:
                    num = poly_divexact(num, g)
                    den = poly_divexact(den, g)
        return _normalized(num, den)

    @staticmethod
    def _coprime(num: Poly, den: Poly) -> "RatFunc":
        """The RatFunc of a pair already known to be coprime."""
        out = RatFunc.__new__(RatFunc)
        out.num, out.den = _normalized(num, den)
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_poly(p: Poly) -> "RatFunc":
        return RatFunc(p, Poly.const(p.chart, 1))

    @staticmethod
    def const(chart: Chart, value) -> "RatFunc":
        return RatFunc.from_poly(Poly.const(chart, value))

    @staticmethod
    def var(chart: Chart, index: int) -> "RatFunc":
        return RatFunc.from_poly(Poly.var(chart, index))

    @staticmethod
    def zero(chart: Chart) -> "RatFunc":
        return RatFunc.from_poly(Poly.zero(chart))

    # -- field structure ---------------------------------------------------

    @property
    def chart(self) -> Chart:
        return self.num.chart

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other) -> "RatFunc":
        other = _coerce(other, self.chart)
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            return RatFunc(a + c, b)
        if b.total_degree() + d.total_degree() > GCD_DEGREE_CAP or not _within_cap(a, c):
            return RatFunc(a * d + c * b, b * d)
        try:
            g = _part_gcd(b, d)
            if g is None:
                # coprime denominators: the sum is already reduced
                num = a * d + c * b
                if not _within_cap(num):
                    return RatFunc(num, b * d)
                return RatFunc._coprime(num, b * d)
            b_g, d_g = poly_divexact(b, g), poly_divexact(d, g)
            t = a * d_g + c * b_g
            if t.total_degree() + g.total_degree() > GCD_DEGREE_CAP:
                return RatFunc(a * d + c * b, b * d)
            h = _part_gcd(t, g)
        except _GcdTooExpensive:
            return RatFunc(a * d + c * b, b * d)
        if h is not None:
            t, b = poly_divexact(t, h), poly_divexact(b, h)
        return RatFunc._coprime(_descending(t), _descending(b * d_g))

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc._coprime(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-_coerce(other, self.chart))

    def __rsub__(self, other) -> "RatFunc":
        return _coerce(other, self.chart) - self

    def __mul__(self, other) -> "RatFunc":
        other = _coerce(other, self.chart)
        return _product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = _coerce(other, self.chart)
        if other.is_zero:
            raise ExprError("division by zero rational function")
        return _product(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        return _coerce(other, self.chart) / self

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            if self.is_zero:
                raise ExprError("zero to a negative power")
            within = _within_cap(self.num, self.den)
            inverse = (RatFunc._coprime if within else RatFunc)(self.den, self.num)
            return inverse ** (-n)
        num, den = self.num**n, self.den**n
        return (RatFunc._coprime if _within_cap(num, den) else RatFunc)(num, den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(self.chart, other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.chart != other.chart:
            return False
        return (self.num * other.den - other.num * self.den).is_zero

    __hash__ = None

    # -- calculus ----------------------------------------------------------

    def diff(self, index: int) -> "RatFunc":
        """Exact partial derivative d/dx_k (quotient rule), cancelled at its
        parts.

        For coprime n/d within GCD_DEGREE_CAP with d' = d_k d != 0, let
        g = gcd(d, d'), h = d/g, e = d'/g and t = n'*h - n*e, so that
        n'd - nd' = g*t over d^2 = g*g*h*h.  An irreducible factor p of d
        that involves x_k divides d exactly p^a times and d' exactly p^(a-1)
        times, so p divides h once and not e; as p divides neither n nor e,
        it does not divide t.  An x_k-free factor of d divides d' at least
        as often as d, so it divides g and not h.  Hence t shares with g*h*h only
        factors of g, and with u = gcd(t, g) the whole gcd of the bracket and
        d^2 is exactly g*u (both sides primitive with a positive leading
        coefficient).  The result (t/u) / ((d/u)*h) is therefore the pair
        ``RatFunc(n'd - nd', d*d)`` gives, term order included: descending
        graded-lex when a factor was cancelled, the products' own order when
        g = 1.  A d free of x_k gives n'/d.  Over the cap (n, d^2 or the
        bracket), or when a gcd is abandoned, the bracket and d^2 go through
        the constructor, which leaves them unreduced."""
        if not 0 <= index < self.chart.dim:
            raise ExprError(f"variable index {index} out of range")
        n, d = self.num, self.den
        if d.is_constant:
            return RatFunc(n.diff(index), d)
        dn, dd = n.diff(index), d.diff(index)
        if dd.is_zero:
            return RatFunc(_descending(dn), d)
        if 2 * d.total_degree() > GCD_DEGREE_CAP or not _within_cap(n):
            return _quotient_rule(n, d, dn, dd)
        try:
            g = _part_gcd(d, dd)
            if g is None:  # gcd(d, d') = 1: the bracket over d^2 is reduced
                return RatFunc._coprime(dn * d - n * dd, d * d)
            h = poly_divexact(d, g)
            t = dn * h - n * poly_divexact(dd, g)
            if t.total_degree() + g.total_degree() > GCD_DEGREE_CAP:
                return _quotient_rule(n, d, dn, dd)
            u = _part_gcd(t, g)
        except _GcdTooExpensive:
            return _quotient_rule(n, d, dn, dd)
        if u is not None:
            t, d = poly_divexact(t, u), poly_divexact(d, u)
        return RatFunc._coprime(_descending(t), _descending(d * h))

    def eval(self, point: Sequence[Fraction]) -> Fraction:
        dv = self.den.eval(point)
        if dv == 0:
            raise PoleError(f"denominator vanishes at {tuple(point)}")
        return self.num.eval(point) / dv

    def subst(self, values: Sequence["RatFunc"]) -> "RatFunc":
        n = self.num.subst(values)
        d = self.den.subst(values)
        if d.is_zero:
            raise PoleError("substitution lands on a pole")
        return n / d

    def lift(self, chart: Chart) -> "RatFunc":
        """The same function on a chart whose leading variables are this
        function's chart: the exponents are padded with zeros, so the result
        stays reduced and keeps its term order."""
        if chart.var_names[: self.chart.dim] != self.chart.var_names:
            raise ChartMismatchError(f"{chart} does not extend {self.chart}")
        pad = (0,) * (chart.dim - self.chart.dim)
        out = RatFunc.__new__(RatFunc)
        out.num, out.den = (
            Poly(chart, {e + pad: c for e, c in p.terms.items()}) for p in (self.num, self.den)
        )
        return out

    @property
    def is_polynomial(self) -> bool:
        return self.den.is_constant

    def as_poly(self) -> Poly:
        if not self.is_polynomial:
            raise ExprError(f"not a polynomial: {self}")
        return self.num

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if self.den.is_constant:
            return str(self.num)
        ns = str(self.num)
        if " " in ns or ns.startswith("-"):
            ns = f"({ns})"
        return f"{ns}/({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


def _product(a: Poly, b: Poly, c: Poly, d: Poly) -> RatFunc:
    """(a/b) * (c/d) for coprime pairs: gcd(a, d) and gcd(c, b) are all
    there is to cancel."""
    if b.is_constant and d.is_constant:  # polynomials: nothing to cancel
        return RatFunc._coprime(a * c, b * d)
    if a.is_zero or c.is_zero:
        return RatFunc.zero(a.chart)
    if (a.total_degree() + c.total_degree() > GCD_DEGREE_CAP
            or b.total_degree() + d.total_degree() > GCD_DEGREE_CAP):
        return RatFunc(a * c, b * d)
    try:
        g1, g2 = _part_gcd(a, d), _part_gcd(c, b)
    except _GcdTooExpensive:
        return RatFunc(a * c, b * d)
    if g1 is None and g2 is None:
        return RatFunc._coprime(a * c, b * d)
    if g1 is not None:
        a, d = poly_divexact(a, g1), poly_divexact(d, g1)
    if g2 is not None:
        c, b = poly_divexact(c, g2), poly_divexact(b, g2)
    return RatFunc._coprime(_descending(a * c), _descending(b * d))


def _quotient_rule(n: Poly, d: Poly, dn: Poly, dd: Poly) -> RatFunc:
    """(n'd - nd') / d^2 through the constructor, with one factor d cancelled
    structurally when it divides the bracket (possible only for a pair that
    is not coprime)."""
    bracket = dn * d - n * dd
    q = _try_divexact(bracket, d)
    if q is not None:
        return RatFunc(q, d)
    return RatFunc(bracket, d * d)


def _coerce(value, chart: Chart) -> RatFunc:
    if isinstance(value, RatFunc):
        if value.chart != chart:
            raise ChartMismatchError(f"chart mismatch: {value.chart} vs {chart}")
        return value
    if isinstance(value, Poly):
        return RatFunc.from_poly(value)
    if isinstance(value, (int, Fraction)):
        return RatFunc.const(chart, value)
    raise ExprError(f"cannot coerce {value!r} to a rational function")


# -- parser ------------------------------------------------------------------
#
# Grammar (exact):
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := '-' factor | atom ('^' uint)?
#   atom   := rational | ident | '(' expr ')'


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.i = 0

    def _scan(self):
        text, n = self.text, len(self.text)
        pos = 0
        while pos < n:
            ch = text[pos]
            if ch.isspace():
                pos += 1
                continue
            if ch.isdigit():
                start = pos
                while pos < n and text[pos].isdigit():
                    pos += 1
                self.tokens.append(("num", text[start:pos], start))
                continue
            if ch.isalpha() or ch == "_":
                start = pos
                while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                    pos += 1
                self.tokens.append(("ident", text[start:pos], start))
                continue
            if ch in "+-*/^()":
                self.tokens.append(("op", ch, pos))
                pos += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", pos)

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok


class _Parser:
    def __init__(self, text: str, chart: Chart):
        self.toks = _Tokenizer(text)
        self.chart = chart

    def parse(self) -> RatFunc:
        value = self._expr()
        kind, text, pos = self.toks.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return value

    def _expr(self) -> RatFunc:
        value = self._term()
        while True:
            kind, text, _ = self.toks.peek()
            if kind == "op" and text in "+-":
                self.toks.next()
                rhs = self._term()
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def _term(self) -> RatFunc:
        value = self._factor()
        while True:
            kind, text, pos = self.toks.peek()
            if kind == "op" and text in "*/":
                self.toks.next()
                rhs = self._factor()
                if text == "*":
                    value = value * rhs
                else:
                    if rhs.is_zero:
                        raise ParseError("division by zero", pos)
                    value = value / rhs
            else:
                return value

    def _factor(self) -> RatFunc:
        kind, text, pos = self.toks.peek()
        if kind == "op" and text == "-":
            self.toks.next()
            return -self._factor()
        value = self._atom()
        kind, text, pos = self.toks.peek()
        if kind == "op" and text == "^":
            self.toks.next()
            kind, text, pos = self.toks.next()
            if kind != "num":
                raise ParseError("exponent must be a nonnegative integer", pos)
            value = value ** int(text)
        return value

    def _atom(self) -> RatFunc:
        kind, text, pos = self.toks.next()
        if kind == "num":
            return RatFunc.const(self.chart, int(text))
        if kind == "ident":
            if text not in self.chart.var_names:
                raise ParseError(f"unknown identifier {text!r}", pos)
            return RatFunc.var(self.chart, self.chart.index(text))
        if kind == "op" and text == "(":
            value = self._expr()
            kind, text, pos = self.toks.next()
            if not (kind == "op" and text == ")"):
                raise ParseError("expected ')'", pos)
            return value
        raise ParseError(f"unexpected token {text!r}", pos)


def parse_expr(text: str, chart: Chart) -> RatFunc:
    """Parse an expression in the chart's variables into a canonical RatFunc."""
    return _Parser(text, chart).parse()
