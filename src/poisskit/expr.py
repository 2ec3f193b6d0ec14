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
  dict, so structural equality is canonical equality, and a constant has at
  most one term, so ``is_constant`` looks at one exponent at most;
* exact division takes each leading remainder term from a heap of the
  remainder's exponents in graded-lex order (Monagan and Pearce, JSC 2011)
  instead of scanning the remainder for it.  A step only adds terms below the
  one it cancels, so the quotient has the terms, in the order, that the scan
  would give;
* a rational function stores a numerator/denominator pair of polynomials,
  and every result is reduced: the pair is coprime unless a gcd on the way
  was abandoned, either by ``poly_gcd``'s size guard or by the heuristic
  gcd giving up, in which case it stays exact but may keep a common factor.
  Equality is decided by cross-multiplication (a/b == c/d  iff
  a*d - c*b == 0).  ``RatFunc(num, den)`` reduces a pair by one exact
  division of num by den, or else by one gcd of the whole; arithmetic and
  ``diff`` on coprime operands instead cancel at the parts, by gcds of the
  operands' numerators and denominators (Henrici, JACM 1956; Knuth, TAOCP
  vol. 2, 4.5.1) or of d and its derivative, and give the same pair.  A
  pair from which a factor was cancelled has its terms in descending
  graded-lex order, the order ``poly_divexact`` leaves them in;
* ``poly_gcd`` is one algorithm behind one bound: after the trivial cases
  and the size guard, a heuristic integer gcd (GCDHEU) whose candidate is
  accepted only when it divides both operands exactly.  An operand over the
  guard, or a heuristic that gives up, abandons the gcd.  The result is
  normalized primitive with a positive leading coefficient.

The monomial order used for printing and sign normalization is graded
lexicographic by variable index.  No floating point is used anywhere in this
module; numeric evaluation for flows converts to floats at the boundary of
the ``flow`` module.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd as _int_gcd, isqrt, lcm as _int_lcm
from operator import add, neg, sub
from typing import Sequence

Coefficient = int | Fraction  # under the coefficient rule above

#: poly_gcd abandons a gcd when an operand has total degree above twice this
#: value (or more than 200 terms).
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


class Chart:
    """An ordered coordinate chart: a tuple of distinct variable names.
    Charts with the same names are equal and hash alike, so separately built
    charts key the same cache entries."""

    __slots__ = ("var_names",)

    def __init__(self, var_names: tuple[str, ...]):
        if len(var_names) == 0:
            raise ExprError("chart needs at least one variable")
        if len(set(var_names)) != len(var_names):
            raise ExprError(f"chart variables not distinct: {var_names}")
        for name in var_names:
            if not _IDENT_RE.match(name):
                raise ExprError(f"invalid variable name {name!r}")
        self.var_names = var_names

    def __eq__(self, other):
        if type(other) is not Chart:
            return NotImplemented
        return self.var_names == other.var_names

    def __hash__(self):
        return hash(self.var_names)

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


def fields_repr(obj, names) -> str:
    """``Name(field=value, ...)`` over the attributes ``names`` of obj: the
    repr of poisskit's validated classes."""
    return f"{type(obj).__name__}({', '.join(f'{n}={getattr(obj, n)!r}' for n in names)})"


def format_point(point) -> str:
    """A point as error texts print it: (0, 1/2, -3)."""
    return "(" + ", ".join(map(str, point)) + ")"


def _check_same_chart(a, b):
    if a.chart is not b.chart and a.chart != b.chart:
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
        _check_same_chart(self, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.chart, out)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        _check_same_chart(self, other)
        out: dict[tuple[int, ...], Coefficient] = {}
        get, other_items = out.get, other.terms.items()
        for ea, ca in self.terms.items():
            for eb, cb in other_items:
                e = tuple(map(add, ea, eb))
                s = get(e, 0) + ca * cb
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
        # no terms, or one term: a constant when its exponent is all zeros
        terms = self.terms
        return len(terms) <= 1 and not any(next(iter(terms), ()))

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
# poly_gcd is one algorithm, the heuristic integer gcd, behind one bound.  The
# size guard (total degree above twice GCD_DEGREE_CAP, or more than 200
# terms) bounds what each call is handed, and HEU_GCD_TRIES bounds the
# evaluation points it tries.  A gcd is abandoned, and its RatFunc left
# exact but unreduced, in just two ways: an operand is over the size guard,
# or the heuristic gives up.

#: Evaluation points the heuristic gcd tries before it gives up.
HEU_GCD_TRIES = 6


def poly_divexact(a: Poly, b: Poly) -> Poly:
    """Exact division a / b; raises ExprError if b does not divide a."""
    if b.is_zero:
        raise ExprError("division by the zero polynomial")
    return Poly(a.chart, _divide(a.terms, b.terms, _quotient))


def _heap_key(e: tuple[int, ...]):
    # the smallest key is the largest exponent in graded-lex order
    return -sum(e), tuple(map(neg, e)), e


def _divide(a: dict, b: dict, quotient) -> dict:
    """The terms of a / b, coefficients divided by ``quotient``; raises
    ExprError if b does not divide a.

    One remainder dict is reduced in place: each quotient term t*x^diff
    subtracts t*x^diff*b from it term by term.  The leading remainder term
    comes from a heap of the remainder's exponents in graded-lex order
    (Monagan and Pearce, JSC 2011), with lazy deletion: an exponent whose
    term has cancelled is skipped when it comes off the heap.  The order is a
    monomial order, so every term a step adds lies below the leading term it
    cancels, and the quotient gets the terms, in the order, that a scan of
    the remainder for its largest exponent would give.
    """
    be = max(b, key=_monomial_key)
    bc = b[be]
    q = {}
    r = dict(a)
    heap = list(map(_heap_key, r))
    heapify(heap)
    while r:  # every exponent in r is on the heap
        re = heappop(heap)[2]
        lead = r.get(re)
        if lead is None:
            continue
        diff = tuple(map(sub, re, be))
        if min(diff) < 0:
            raise ExprError("inexact polynomial division")
        t = q[diff] = quotient(lead, bc)
        for e, c in b.items():
            e = tuple(map(add, diff, e))
            s = r.get(e)
            if s is None:
                r[e] = -t * c
                heappush(heap, _heap_key(e))
                continue
            s -= t * c
            if s:
                r[e] = s
            else:
                del r[e]
    return q


class _GcdTooExpensive(Exception):
    """Internal: a gcd abandoned, either because an operand is over the size
    guard or because the heuristic gcd gave up."""


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


def _integral(p: Poly) -> dict:
    """The terms of p times the lcm of its denominators."""
    den = _int_lcm(*(c.denominator for c in p.terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}


def _int_quotient(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ExprError("inexact polynomial division")
    return q


def _int_divide(a: dict, b: dict) -> dict | None:
    """a / b for integer polynomials when b divides a over Z, else None."""
    try:
        return _divide(a, b, _int_quotient)
    except ExprError:
        return None


def _evaluate(f: dict, i: int, xi: int) -> dict:
    """f with x_i set to xi."""
    out = {}
    for e, c in f.items():
        if e[i]:
            c *= xi ** e[i]
            e = e[:i] + (0,) + e[i + 1:]
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _interpolate(h: dict, i: int, xi: int) -> dict:
    """The polynomial in x_i whose coefficients of x_i^k are the k-th
    symmetric xi-adic digits of h's coefficients."""
    out, k, half = {}, 0, xi // 2
    while h:
        rest = {}
        for e, c in h.items():
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[e[:i] + (k,) + e[i + 1:]] = d
            if c != d:
                rest[e] = (c - d) // xi
        h, k = rest, k + 1
    return out


def _heu_gcd(f: dict, g: dict) -> dict | None:
    """gcd of two nonzero integer polynomials (exponent tuple -> int), up to
    sign, or None when the heuristic gives up (GCDHEU: Char, Geddes and
    Gonnet, JSC 1989; Liao and Fateman, 1995).

    The last live variable x_i is set to an integer xi, the gcd of the
    images is taken recursively down to an integer gcd, and a candidate is
    read off its symmetric xi-adic digits.  A candidate is accepted only if
    it divides both inputs exactly; a constant image gcd c with 2|c| <= xi
    gives the unit candidate, which does.  Otherwise the cofactors' images
    are interpolated the same way, and xi grows for the next try."""
    cf, cg = _int_gcd(*f.values()), _int_gcd(*g.values())
    cont = _int_gcd(cf, cg)
    zero = (0,) * len(next(iter(f)))
    i = max((j for e in (*f, *g) for j, k in enumerate(e) if k), default=None)
    if i is None:
        return {zero: cont}
    f = {e: c // cf for e, c in f.items()}
    g = {e: c // cg for e, c in g.items()}
    fn, gn = max(map(abs, f.values())), max(map(abs, g.values()))
    # |leading coefficient| with x_i, then the variables below it, most significant
    lf, lg = (abs(p[max(p, key=lambda e: e[::-1])]) for p in (f, g))
    bound = 2 * min(fn, gn) + 29
    xi = max(min(bound, 99 * isqrt(bound)), 2 * min(fn // lf, gn // lg) + 4)
    for _ in range(HEU_GCD_TRIES):
        ff, gg = _evaluate(f, i, xi), _evaluate(g, i, xi)
        if ff and gg:
            h = _heu_gcd(ff, gg)
            if h is None:
                return None
            if h.keys() == {zero} and 2 * abs(h[zero]) <= xi:
                return {zero: cont}
            h_i = _interpolate(h, i, xi)
            content = _int_gcd(*h_i.values())
            by_cofactor = (_int_divide(p, _interpolate(_int_divide(image, h), i, xi))
                           for p, image in ((f, ff), (g, gg)))
            for candidate in chain([{e: c // content for e, c in h_i.items()}], by_cofactor):
                if (candidate is not None and _int_divide(f, candidate) is not None
                        and _int_divide(g, candidate) is not None):
                    return {e: c * cont for e, c in candidate.items()}
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Gcd in Q[x...], normalized primitive with positive leading coefficient.

    A zero or constant operand is answered directly; any other pair goes to
    the heuristic integer gcd ``_heu_gcd``, whose result is checked by exact
    division of both operands.  Raises _GcdTooExpensive, abandoning the gcd,
    in two ways: an operand is over the size guard, or the heuristic gives
    up; ``_part_gcd`` catches it and leaves its operands uncancelled.
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
    h = _heu_gcd(_integral(a), _integral(b))
    if h is None:
        raise _GcdTooExpensive
    return _normalize_gcd(Poly(a.chart, h))


# -- rational functions ------------------------------------------------------


def _descending(p: Poly) -> Poly:
    """p with its terms in descending graded-lex order."""
    return Poly(p.chart, dict(sorted(p.terms.items(), key=lambda t: _monomial_key(t[0]),
                                     reverse=True)))


def _part_gcd(p: Poly, q: Poly) -> Poly | None:
    """gcd(p, q) for cancelling, or None when there is nothing to cancel: the
    gcd is 1, an operand is constant (or zero, which needs no gcd), or the
    gcd was abandoned, by the size guard or by the heuristic giving up, which
    leaves p and q exact but uncancelled."""
    if p.is_constant or q.is_constant:
        return None
    try:
        g = poly_gcd(p, q)
    except _GcdTooExpensive:
        return None
    return g if g.total_degree() > 0 else None


def _normalized(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """A coprime pair with the zero numerator over 1, a constant denominator
    divided out, and a positive leading coefficient in the denominator."""
    if num.is_zero:
        return num, Poly.const(num.chart, 1)
    if den.is_constant:
        c = next(iter(den.terms.values()))
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
    is kept positive.  The pair is coprime unless a gcd was abandoned, by
    ``poly_gcd``'s size guard or by the heuristic gcd giving up.  The
    constructor reduces it by one exact division of num by den, which also
    works above the size guard, or else by one gcd of the whole, and
    arithmetic cancels at the operands, so ``(a/b)*(c/d)`` divides out
    gcd(a, d) and gcd(c, b), and ``a/b + c/d`` cancels only gcd(t, g) from
    t = a*(d/g) + c*(b/g), with g = gcd(b, d); ``diff`` cancels with
    gcd(d, d') and a factor of it.
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
        if den.is_constant and 1 in den.terms.values():  # a polynomial: nothing to reduce
            self.num, self.den = num, den
        else:
            self.num, self.den = self._reduce(num, den)

    @staticmethod
    def _reduce(num: Poly, den: Poly) -> tuple[Poly, Poly]:
        if not num.is_zero and not den.is_constant:
            # den | num needs no gcd, and is found above the size guard too
            try:
                return poly_divexact(num, den), Poly.const(num.chart, 1)
            except ExprError:
                pass
            g = _part_gcd(num, den)
            if g is not None:
                num, den = poly_divexact(num, g), poly_divexact(den, g)
        return _normalized(num, den)

    @staticmethod
    def _coprime(num: Poly, den: Poly) -> "RatFunc":
        """The RatFunc of a pair already cancelled as far as ``poly_gcd``
        allows: coprime unless a gcd on the way was abandoned."""
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
        g = _part_gcd(b, d)
        if g is None:  # coprime denominators: the sum is already reduced
            return RatFunc._coprime(a * d + c * b, b * d)
        b_g, d_g = poly_divexact(b, g), poly_divexact(d, g)
        t = a * d_g + c * b_g
        h = _part_gcd(t, g)
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
            return RatFunc._coprime(self.den, self.num) ** (-n)
        return RatFunc._coprime(self.num**n, self.den**n)

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

        For coprime n/d with d' = d_k d != 0, let
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
        g = 1.  A d free of x_k gives n'/d.  When gcd(d, d') is abandoned,
        the bracket over d^2 is kept as it is; when gcd(t, g) is, nothing is
        cancelled from t/(d*h).  Either way the value is exact."""
        if not 0 <= index < self.chart.dim:
            raise ExprError(f"variable index {index} out of range")
        n, d = self.num, self.den
        if d.is_constant:
            return RatFunc(n.diff(index), d)
        dn, dd = n.diff(index), d.diff(index)
        if dd.is_zero:
            return RatFunc(_descending(dn), d)
        g = _part_gcd(d, dd)
        if g is None:  # gcd(d, d') = 1: the bracket over d^2 is reduced
            return RatFunc._coprime(dn * d - n * dd, d * d)
        h = poly_divexact(d, g)
        t = dn * h - n * poly_divexact(dd, g)
        u = _part_gcd(t, g)
        if u is not None:
            t, d = poly_divexact(t, u), poly_divexact(d, u)
        return RatFunc._coprime(_descending(t), _descending(d * h))

    def eval(self, point: Sequence[Fraction]) -> Fraction:
        dv = self.den.eval(point)
        if dv == 0:
            raise PoleError(f"denominator vanishes at {format_point(point)}")
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
    g1, g2 = _part_gcd(a, d), _part_gcd(c, b)
    if g1 is None and g2 is None:
        return RatFunc._coprime(a * c, b * d)
    if g1 is not None:
        a, d = poly_divexact(a, g1), poly_divexact(d, g1)
    if g2 is not None:
        c, b = poly_divexact(c, g2), poly_divexact(b, g2)
    return RatFunc._coprime(_descending(a * c), _descending(b * d))


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
            if ch.isdecimal():
                start = pos
                while pos < n and text[pos].isdecimal():
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
        try:
            value = self._expr()
        except RecursionError:  # the descent takes a few frames per '(' or '-'
            raise ParseError("expression nested too deeply", self.toks.peek()[2]) from None
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
