"""Alternating tensor calculus: one core for multivector fields and forms on
a chart.

The core (``_Alternating``) stores a degree-k object sparsely: a map from
strictly increasing index tuples (i1 < ... < ik) to nonzero RatFunc
coefficients on the chart.  Degree 0 is a single coefficient keyed by the
empty tuple.  ``MultiVec`` and ``DiffForm`` differ only in their printed
basis symbol.

Sign conventions (fixed once, all tests written against them):

* {f,g} = pi(df,dg),  X_f = pi#(df)  with  beta(pi#(alpha)) = pi(alpha,beta);
* the Schouten bracket is taken with a bivector pi only: [pi, .] is the
  graded derivation of the wedge product fixed by its 2n generator images,
  for P the matrix of pi (P[i][j] = {x_i, x_j}),

      [pi, x_j] = sum_a P[a][j] d/dx_a,    [pi, d/dx_j] = -d(pi)/dx_j,

  so [pi, f] = -X_f for a function f, and [pi, pi] = 0 exactly when pi is
  Poisson.  The bracket needs polynomial coefficients: it works on exact
  coefficients and on int keys, one per term x^m d/dx_I (``_key``).

A wedge whose degree exceeds the dimension of the space is the canonical zero
object rather than an error.

A ``PolyMap`` between charts gives its values and its Jacobian; there is no
pushforward of bivectors, since whether phi carries pi_1 to pi_2 is the
exact check ``poisson.is_poisson_map``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .expr import Chart, ChartMismatchError, ExprError, Poly, RatFunc

Index = tuple[int, ...]


def _shuffle_sign(a: Index, b: Index) -> int:
    """The sign of the shuffle that sorts a + b, for strictly increasing a
    and b: (-1) to the number of pairs x > y with x in a and y in b; 0 when
    an index repeats."""
    inversions = 0
    for x in a:
        for y in b:
            if x == y:
                return 0
            inversions += x > y
    return -1 if inversions % 2 else 1


def _merge_indices(a: Index, b: Index):
    """Concatenate and sort strictly increasing tuples; sign of the shuffle.

    Returns (sign, sorted tuple) or None when an index repeats.
    """
    sign = _shuffle_sign(a, b)
    return (sign, tuple(sorted(a + b))) if sign else None


def _accumulate(out: dict, key, term) -> None:
    """out[key] += term, storing the term itself when the key is new."""
    old = out.get(key)
    out[key] = term if old is None else old + term


class _Alternating:
    """Sparse alternating object of one degree on a chart, with RatFunc
    coefficients; a number given as a coefficient becomes a constant."""

    __slots__ = ("chart", "degree", "coeffs")

    def __init__(self, chart, degree: int, coeffs: dict):
        if degree < 0:
            raise ExprError("negative degree")
        self.chart = chart
        self.degree = degree
        clean = {}
        for idx, c in coeffs.items():
            if len(idx) != degree or any(
                idx[i] >= idx[i + 1] for i in range(len(idx) - 1)
            ):
                raise ExprError(f"index tuple {idx} not strictly increasing of length {degree}")
            if any(i < 0 or i >= chart.dim for i in idx):
                raise ExprError(f"index tuple {idx} out of range for dimension {chart.dim}")
            if not isinstance(c, RatFunc):
                c = RatFunc.const(chart, c)
            if not c.is_zero:
                clean[idx] = c
        self.coeffs = clean

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, chart, degree: int):
        return cls(chart, degree, {})

    @classmethod
    def from_scalar(cls, f: RatFunc):
        return cls(f.chart, 0, {(): f})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, idx: Index):
        c = self.coeffs.get(tuple(idx))
        return RatFunc.zero(self.chart) if c is None else c

    def scalar(self):
        if self.degree != 0:
            raise ExprError("not a degree-0 object")
        return self.coeff(())

    # -- linear structure ------------------------------------------------

    def _check_compat(self, other, same_degree=True):
        if type(self) is not type(other):
            raise ChartMismatchError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.chart != other.chart:
            raise ChartMismatchError(f"chart mismatch: {self.chart} vs {other.chart}")
        if same_degree and self.degree != other.degree:
            raise ExprError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __add__(self, other):
        self._check_compat(other, same_degree=False)
        if self.degree != other.degree:
            # the zero object is canonical at every degree
            if self.is_zero:
                return other
            if other.is_zero:
                return self
            raise ExprError(f"degree mismatch: {self.degree} vs {other.degree}")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            _accumulate(out, idx, c)
        return type(self)(self.chart, self.degree, out)

    def __neg__(self):
        return type(self)(
            self.chart, self.degree, {i: -c for i, c in self.coeffs.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f) -> "_Alternating":
        if not isinstance(f, RatFunc):
            f = RatFunc.const(self.chart, f)
        return type(self)(
            self.chart, self.degree, {i: f * c for i, c in self.coeffs.items()}
        )

    def __eq__(self, other) -> bool:
        if type(self) is not type(other) or self.chart != other.chart:
            return False
        if self.degree != other.degree:
            return self.is_zero and other.is_zero
        # zero coefficients are never stored, so equal objects share keys
        return self.coeffs.keys() == other.coeffs.keys() and all(
            c == other.coeffs[k] for k, c in self.coeffs.items()
        )

    __hash__ = None

    # -- rendering ---------------------------------------------------------

    _symbol_fmt = "e_{}"

    def _term(self, c, idx: Index) -> str:
        """One printed term: the coefficient, then the wedge of basis symbols."""
        text = str(c)
        if " " in text or text.startswith("-") or "/" in text:
            text = f"({text})"
        basis = "^".join(self._symbol_fmt.format(self.chart.var_names[i]) for i in idx)
        return f"{text} {basis}"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if self.degree == 0:
            return str(self.scalar())
        return " + ".join(self._term(self.coeffs[idx], idx) for idx in sorted(self.coeffs))

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class MultiVec(_Alternating):
    """Alternating k-vector field on a chart."""

    _symbol_fmt = "d/d{}"

    @staticmethod
    def basis_vector(chart: Chart, i: int) -> "MultiVec":
        return MultiVec(chart, 1, {(i,): RatFunc.const(chart, 1)})

    def components(self) -> list[RatFunc]:
        """Degree-1 only: coefficient list in chart order."""
        if self.degree != 1:
            raise ExprError("components() needs a vector field")
        return [self.coeff((i,)) for i in range(self.chart.dim)]


class DiffForm(_Alternating):
    """Differential k-form on a chart."""

    _symbol_fmt = "d{}"

    @staticmethod
    def basis_form(chart: Chart, i: int) -> "DiffForm":
        return DiffForm(chart, 1, {(i,): RatFunc.const(chart, 1)})


# -- wedge --------------------------------------------------------------------


def wedge(a, b):
    """Graded-commutative product; zero object when the degree exceeds dim."""
    a._check_compat(b, same_degree=False)
    cls = type(a)
    degree = a.degree + b.degree
    if degree > a.chart.dim:
        return cls.zero(a.chart, degree)
    out = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            merged = _merge_indices(ia, ib)
            if merged is None:
                continue
            sign, idx = merged
            term = ca * cb if sign > 0 else -(ca * cb)
            _accumulate(out, idx, term)
    return cls(a.chart, degree, out)


# -- exterior derivative -------------------------------------------------------


def exterior_derivative(form: DiffForm) -> DiffForm:
    if not isinstance(form, DiffForm):
        raise ExprError("exterior_derivative expects a DiffForm")
    chart = form.chart
    degree = form.degree + 1
    if degree > chart.dim:
        return DiffForm.zero(chart, degree)
    out: dict[Index, RatFunc] = {}
    for idx, c in form.coeffs.items():
        for i in range(chart.dim):
            dc = c.diff(i)
            if dc.is_zero:
                continue
            merged = _merge_indices((i,), idx)
            if merged is None:
                continue
            sign, nidx = merged
            term = dc if sign > 0 else -dc
            _accumulate(out, nidx, term)
    return DiffForm(chart, degree, out)


# -- Schouten bracket with a bivector -------------------------------------------


def generator_images(pi: MultiVec):
    """(of_x, of_d): [pi, x_j] and [pi, d/dx_j] for each coordinate j as lists
    of (index tuple, exponent tuple, coefficient) terms, read off pi's
    polynomial terms: for P the matrix of pi,

        [pi, x_j] = sum_a P[a][j] d/dx_a,    [pi, d/dx_j] = -d(pi)/dx_j,

    the derivative taken coefficient by coefficient."""
    n = pi.chart.dim
    of_x, of_d = [[] for _ in range(n)], [[] for _ in range(n)]
    for idx, f in pi.coeffs.items():
        a, b = idx
        (to_a, as_a), (to_b, as_b) = (of_x[a].append, (a,)), (of_x[b].append, (b,))
        for e, c in f.as_poly().terms.items():
            to_b((as_a, e, c))
            to_a((as_b, e, -c))
            for j, ej in enumerate(e):
                if ej:
                    of_d[j].append((idx, e[:j] + (ej - 1,) + e[j + 1 :], -ej * c))
    return of_x, of_d


def _radix(top: int) -> int:
    """The radix R of the coded keys for exponents up to ``top``: the least
    power of two above it, and at least 8, so that a linear pi at degrees up
    to 7 keeps one R."""
    return max(8, 1 << top.bit_length())


def _key(idx: Index, mono, radix: int) -> int:
    """The int key of the term x^mono d/dx_idx at the radix R:
    rank(idx) R^n + code(mono), with rank(idx) = sum_(i in idx) 2^i and
    code(m) = sum_i m_i R^i."""
    key = 0
    for i in idx:
        key += 1 << i
    for m in reversed(mono):
        key = key * radix + m
    return key


def _decoded(key: int, n: int, radix: int):
    """(index tuple, exponent tuple) of a ``_key``."""
    bits = radix.bit_length() - 1
    rank = key >> (bits * n)
    return (tuple(i for i in range(n) if rank >> i & 1),
            tuple(key >> (bits * i) & (radix - 1) for i in range(n)))


class _WedgePlans(dict):
    """The wedge plans of pi's generator images at the radix R, by index
    tuple I, each made on first use and kept: plans[I] is (via_x, via_d), with
    via_x[j] the terms of [pi, x_j] ^ d/dx_I, made when a monomial first
    holds x_j (None before), and via_d those of
    sum_r (-1)^r [pi, d/dx_(i_r)] ^ d/dx_(I without i_r), as (offset,
    coefficient) pairs.  An offset added to the ``_key`` of x^m d/dx_I is
    the key of the term of x^(m - e_j) [pi, x_j] ^ d/dx_I (via_x[j]) or of
    x^m [pi, d/dx_(i_r)] ^ ... (via_d): ranks and codes add, and no digit
    reaches R when R is above every exponent of the result."""

    def __init__(self, images, radix: int):
        super().__init__()
        self.of_x, self.of_d = images
        self.radix = radix

    def __missing__(self, idx: Index):
        place = self.radix ** len(self.of_x)  # R^n, the place of the rank
        via_d = [t for r, i in enumerate(idx)
                 for t in self.wedged(self.of_d[i], idx[:r] + idx[r + 1 :],
                                      -1 if r % 2 else 1, -(place << i))]
        plan = self[idx] = ([None] * len(self.of_x), via_d)
        return plan

    def fill_via_x(self, idx: Index, j: int):
        """The via_x[j] of plans[idx], made and kept."""
        terms = self[idx][0][j] = self.wedged(self.of_x[j], idx, 1, -self.radix ** j)
        return terms

    def wedged(self, terms, rest, sign, shift):
        """The terms (index, e, c) of a generator image wedged with d/dx_rest
        and scaled by sign, as (offset, c), the offset their ``_key`` plus
        shift; terms whose indices repeat drop."""
        out = []
        for gen_idx, e, c in terms:
            shuffle = _shuffle_sign(gen_idx, rest)
            if shuffle:
                out.append((_key(gen_idx, e, self.radix) + shift, c if shuffle == sign else -c))
        return out


def _d_pi_images(basis, plans):
    """Yields [pi, x^m d/dx_I] for each element (key, I, m) of ``basis``, key
    the ``_key`` of x^m d/dx_I at the radix of ``plans``, as
    {key: coefficient}, terms that cancel kept with coefficient 0, by the
    derivation rule (see ``schouten``) on pi's ``_WedgePlans``: the plan of I
    is looked up once per run of equal I, and each term of the image is one
    int addition to the element's key."""
    plan_idx = None
    for key, idx, mono in basis:
        if idx is not plan_idx:
            plan_idx = idx
            via_x, via_d = plans[idx]
        out = {}
        for j, mj in enumerate(mono):
            if not mj:
                continue
            terms = via_x[j]
            if terms is None:
                terms = plans.fill_via_x(idx, j)
            for offset, c in terms:
                k = key + offset
                out[k] = out.get(k, 0) + mj * c
        for offset, c in via_d:
            k = key + offset
            out[k] = out.get(k, 0) + c
        yield out


def _top_exponent(polys) -> int:
    """The largest exponent in the terms of some polynomials, given as their
    term dicts; 0 when there are none."""
    return max(itertools.chain.from_iterable(itertools.chain.from_iterable(polys)), default=0)


def schouten(pi: MultiVec, y: MultiVec) -> MultiVec:
    """[pi, y] for a bivector pi and a multivector y, both with polynomial
    coefficients.  [pi, .] is a graded derivation of the wedge product, so on
    a term, with e_j the j-th unit exponent,

        [pi, x^m d_I] = sum_j m_j x^(m - e_j) [pi, x_j] ^ d_I
                        + x^m sum_r (-1)^r [pi, d_{i_r}] ^ d_{I without i_r}

    (r counted from 0), built from pi's ``generator_images`` with exact (int
    or Fraction) coefficients by ``_d_pi_images``, the one implementation of
    the rule, on int keys: y's terms are coded (``_key``) at the radix R of
    the largest exponent of y plus that of pi, which bounds every exponent of
    the result, and each distinct key of the result is decoded once.  The
    ``_WedgePlans`` of one call are dropped with it; ``poisson.cohomology``
    keeps them on the PoissonStructure.  Any other input raises ExprError."""
    if not isinstance(pi, MultiVec) or not isinstance(y, MultiVec) or pi.degree != 2:
        raise ExprError("schouten expects a bivector and a multivector field")
    if pi.chart != y.chart:
        raise ChartMismatchError("chart mismatch in schouten")
    chart, n = pi.chart, pi.chart.dim
    polys = [(idx, f.as_poly().terms) for idx, f in y.coeffs.items()]
    top_y = _top_exponent(p for _, p in polys)
    top_pi = top_y if y is pi else _top_exponent(f.num.terms for f in pi.coeffs.values())
    radix = _radix(top_pi + top_y)
    coefficients = [c for _, p in polys for c in p.values()]
    images = _d_pi_images([(_key(idx, e, radix), idx, e) for idx, p in polys for e in p],
                          _WedgePlans(generator_images(pi), radix))
    out = {}
    for c, image in zip(coefficients, images):
        for key, v in image.items():
            out[key] = out.get(key, 0) + c * v
    bracket: dict[Index, dict] = {}
    for key, v in out.items():
        if v:
            idx, e = _decoded(key, n, radix)
            bracket.setdefault(idx, {})[e] = v
    return MultiVec(chart, y.degree + 1,
                    {idx: RatFunc.from_poly(Poly(chart, p)) for idx, p in bracket.items()})


# -- polynomial maps between charts -------------------------------------------


@dataclass(frozen=True)
class PolyMap:
    """Map between charts given by one RatFunc per target coordinate."""

    source: Chart
    target: Chart
    components: tuple[RatFunc, ...]

    def __post_init__(self):
        if len(self.components) != self.target.dim:
            raise ExprError("component count must equal target dimension")
        for c in self.components:
            if c.chart != self.source:
                raise ChartMismatchError("components must live on the source chart")

    @staticmethod
    def identity(chart: Chart) -> "PolyMap":
        return PolyMap(
            chart, chart, tuple(RatFunc.var(chart, i) for i in range(chart.dim))
        )

    @staticmethod
    def linear(source: Chart, target: Chart, matrix) -> "PolyMap":
        """Components (matrix @ source coordinates)."""
        comps = []
        for row in matrix:
            acc = RatFunc.zero(source)
            for j, a in enumerate(row):
                acc = acc + RatFunc.const(source, a) * RatFunc.var(source, j)
            comps.append(acc)
        return PolyMap(source, target, tuple(comps))

    def __call__(self, point):
        return [c.eval(point) for c in self.components]

    def jacobian(self) -> list[list[RatFunc]]:
        return [
            [c.diff(j) for j in range(self.source.dim)] for c in self.components
        ]

    def jacobian_at(self, point) -> list[list[Fraction]]:
        return [[e.eval(point) for e in row] for row in self.jacobian()]
