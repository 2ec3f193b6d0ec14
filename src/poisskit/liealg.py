"""Finite-dimensional Lie algebras by structure constants, Lie-Poisson
structures on the dual chart, 2-cocycles, Lie bialgebras, r-matrices, and
Lie-algebroid dual charts.

All algebras carry an explicit ordered basis e_0, ..., e_{m-1} with
[e_i, e_j] = sum_k c[i][j][k] e_k.  Antisymmetry holds by construction, and
the Jacobi identity is checked as [pi_g, pi_g] = 0 for the Lie-Poisson
bivector pi_g (``lie_poisson``), once, by ``lie_from_constants``; the
other uses of pi_g skip it.  T: g -> h is a morphism exactly when
``poisson.is_poisson_map`` holds for ``dual_map`` of T.

The other Lie-theoretic checks are Jacobi identities in disguise, and each is
one ``poisson.verify``, or none:

* a 2-cochain lam, a {(i, j): value} table, is a 2-cocycle exactly when the
  affine bivector pi_g + lam is Poisson (``affine_poisson``);
* (g, delta) is a Lie bialgebra exactly when the bracket of its Drinfeld
  double g + g* is a Lie bracket (Drinfeld, Soviet Math. Dokl. 27, 1983).
  ``bialgebra_check`` squares the double's Lie-Poisson bivector once and
  reads the Jacobi identity of g* and the cocycle condition on delta off
  where the square has terms;
* r in wedge^2 g, a {(a, b): value} table, gives the r-bracket
  [xi, eta]_r = ad*_{r#xi} eta - ad*_{r#eta} xi on g*, the transpose of
  delta_r = ad r.  [r, r] = 0 exactly when r#: g* -> g maps the r-bracket
  onto g's bracket, and delta_r is a Lie bialgebra exactly when [r, r] is
  ad-invariant (Chari-Pressley, A Guide to Quantum Groups, Prop. 2.1.2):
  ``cyb_check`` decides the first by rational arithmetic and the second by
  ``bialgebra_check``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .expr import Chart, ExprError, RatFunc, chart as make_chart
from .multivec import MultiVec, PolyMap, _accumulate
from .poisson import PoissonStructure, verify


class LieAlgebraError(ExprError):
    def __init__(self, message, indices=None):
        super().__init__(message)
        self.indices = indices


class LieAlgebra(NamedTuple):
    dim: int
    constants: tuple  # constants[i][j][k] = coefficient of e_k in [e_i, e_j]

    def c(self, i: int, j: int, k: int) -> Fraction:
        return self.constants[i][j][k]


def _table(dim: int, triples) -> LieAlgebra:
    """The algebra of the sparse triples (i, j, k, value), completed by
    c_jik = -c_ijk, with its Jacobi identity unchecked.  Raises
    LieAlgebraError on a negative dimension, and with the violating indices
    on an index out of range or a nonzero [e_i, e_i]."""
    if dim < 0:
        raise LieAlgebraError(f"Lie algebra dimension {dim} is negative")
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, val in triples:
        if not all(0 <= t < dim for t in (i, j, k)):
            raise LieAlgebraError(f"index (i,j,k)=({i},{j},{k}) out of range for "
                                  f"dimension {dim}", indices=(i, j, k))
        if i == j and Fraction(val) != 0:
            raise LieAlgebraError(
                f"antisymmetry fails at (i,j,k)=({i},{j},{k}): [e_i,e_i] != 0",
                indices=(i, j, k),
            )
        c[i][j][k] += Fraction(val)
        c[j][i][k] -= Fraction(val)
    return LieAlgebra(dim, tuple(tuple(tuple(row) for row in plane) for plane in c))


def lie_from_constants(dim: int, triples) -> LieAlgebra:
    """Build and verify a Lie algebra from sparse triples (i, j, k, value).

    Omitted entries are zero; the antisymmetric completion c_jik = -c_ijk is
    applied automatically.  Raises LieAlgebraError on the input errors of
    ``_table``, and with the violating indices on a Jacobi failure, which
    ``lie_poisson`` finds.
    """
    g = _table(dim, triples)
    if dim:
        lie_poisson(g)
    return g


def _pairs(g: LieAlgebra, table) -> dict:
    """A {(a, b): value} table on g's basis, values as Fractions; raises
    LieAlgebraError naming a key that is not a pair a < b in range."""
    for key in table:
        if not (isinstance(key, tuple) and len(key) == 2 and 0 <= key[0] < key[1] < g.dim):
            raise LieAlgebraError(f"key {key!r} is not a basis pair (a, b) with "
                                  f"0 <= a < b < {g.dim}", indices=key)
    return {key: Fraction(value) for key, value in table.items()}


# -- Lie-Poisson and affine structures ---------------------------------------------


def dual_chart(g: LieAlgebra) -> Chart:
    return make_chart(*(f"x{i + 1}" for i in range(g.dim)))


def lie_poisson(g: LieAlgebra, chart: Chart | None = None) -> PoissonStructure:
    """Linear Poisson structure sum_{i<j} (sum_k c_ijk x_k) d/dx_i ^ d/dx_j.

    Its ``verify`` is the Jacobi check: [pi,pi] has (i,j,k) coefficient
    -2 sum_m J_ijk^m x_m for J the Jacobiator, read at its least (i,j,k,m).
    """
    ps = verify(_lie_bivector(g, chart))
    if not ps.verified:
        square = ps.schouten_square.coeffs
        i, j, k = min(square)
        m = _least_variable(square[i, j, k])
        raise LieAlgebraError(f"Jacobi identity fails at (i,j,k,m)=({i},{j},{k},{m})",
                              indices=(i, j, k, m))
    return ps


def _least_variable(linear: RatFunc) -> int:
    """The least index of a variable in a linear function."""
    return min(e.index(1) for e in linear.as_poly().terms)


def _lie_bivector(g: LieAlgebra, chart: Chart | None = None) -> MultiVec:
    """The bivector of ``lie_poisson``, not verified."""
    ch = chart if chart is not None else dual_chart(g)
    if ch.dim != g.dim:
        raise LieAlgebraError("chart dimension must match the algebra")
    coeffs = {}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            acc = RatFunc.zero(ch)
            for k in range(g.dim):
                cijk = g.c(i, j, k)
                if cijk:
                    acc = acc + RatFunc.const(ch, cijk) * RatFunc.var(ch, k)
            if not acc.is_zero:
                coeffs[(i, j)] = acc
    return MultiVec(ch, 2, coeffs)


def affine_poisson(g: LieAlgebra, lam, chart: Chart | None = None) -> PoissonStructure:
    """lie_poisson(g) plus the constant bivector lam, a {(i, j): value} table
    with i < j; raises LieAlgebraError unless lam is a 2-cocycle.

    [pi_g + lam, pi_g + lam] = 2 [pi_g, lam], and [pi_g, lam] is, up to sign,
    the Chevalley-Eilenberg differential of lam."""
    pi = _lie_bivector(g, chart)
    ps = verify(pi + MultiVec(pi.chart, 2, {idx: RatFunc.const(pi.chart, c)
                                            for idx, c in _pairs(g, lam).items()}))
    if not ps.verified:
        raise LieAlgebraError("not a 2-cocycle; affine structure would fail Jacobi")
    return ps


# -- Lie bialgebras and the classical Yang-Baxter equation ---------------------------


class BialgebraReport(NamedTuple):
    dual_jacobi: bool
    compat: bool
    failure: str = ""

    @property
    def ok(self) -> bool:
        return self.dual_jacobi and self.compat


def bialgebra_check(g: LieAlgebra, triples) -> BialgebraReport:
    """Is (g, delta) a Lie bialgebra?  delta: g -> wedge^2 g is given by the
    triples (a, b, c, value) of its transpose, f^ab_c = value the eps^c
    coefficient of [eps^a, eps^b] on g*, in the format of ``lie_from_constants``.

    The double g + g* has the basis e_0, ..., e_{m-1}, eps^0, ..., eps^{m-1}
    (indices m, ..., 2m - 1), the brackets of g and of g*, and
    [e_i, eps^a] = -sum_k c_ik^a eps^k + sum_b f^ab_i e_b.  The square of its
    Lie-Poisson bivector has an (i, j, k) term exactly where the Jacobiator
    of the basis triple is nonzero.  At triples inside g* that Jacobiator is
    g*'s, and at triples with two indices in g it is the failure of
    delta([u, v]) = u.delta(v) - v.delta(u).  The triples with one index in g
    are not read: they fail also when only g*'s Jacobi identity does.
    """
    m = g.dim
    f = _table(m, triples).constants
    pairs = list(combinations(range(m), 2))
    rows = [(i, j, k, g.c(i, j, k)) for i, j in pairs for k in range(m)]
    rows += [(m + a, m + b, m + c, f[a][b][c]) for a, b in pairs for c in range(m)]
    for i in range(m):
        for a in range(m):
            rows += [(i, m + a, m + k, -g.c(i, k, a)) for k in range(m)]
            rows += [(i, m + a, b, f[a][b][i]) for b in range(m)]
    square = verify(_lie_bivector(_table(2 * m, rows))).schouten_square if m else None
    terms = sorted(square.coeffs) if square is not None else []
    dual = [t for t in terms if t[0] >= m]
    compat = [t for t in terms if t[1] < m <= t[2]]
    failure = ""
    if dual:
        a, b, c = (t - m for t in dual[0])
        failure = (f"Jacobi identity fails at (i,j,k,m)=({a},{b},{c},"
                   f"{_least_variable(square.coeffs[dual[0]]) - m})")
    elif compat:
        failure = f"compatibility fails on basis pair ({compat[0][0]},{compat[0][1]})"
    return BialgebraReport(not dual, not compat, failure)


def cyb_check(g: LieAlgebra, r) -> str:
    """Classify r = sum_{a<b} R^ab e_a ^ e_b, a {(a, b): value} table:
    'triangular' when [r, r] = 0, 'coboundary' when [r, r] is ad-invariant,
    else 'neither'.

    The r-bracket [eps^a, eps^b]_r = sum_i f^ab_i eps^i has
    f^ab_i = sum_k c_ik^a R^kb + c_ik^b R^ak; [r, r] = 0 exactly when
    r#(eps^a) = sum_b R^ab e_b maps it onto g's bracket.
    """
    m = g.dim
    R = [[Fraction(0)] * m for _ in range(m)]
    for (a, b), value in _pairs(g, r).items():
        R[a][b], R[b][a] = value, -value
    f = {(a, b): [sum(g.c(i, k, a) * R[k][b] + g.c(i, k, b) * R[a][k] for k in range(m))
                  for i in range(m)]
         for a, b in combinations(range(m), 2)}
    if all([sum(f[a, b][i] * R[i][n] for i in range(m)) for n in range(m)]
           == [sum(R[a][k] * R[b][l] * g.c(k, l, n) for k in range(m) for l in range(m))
               for n in range(m)]
           for a, b in f):
        return "triangular"
    delta = [(a, b, i, value) for (a, b), row in f.items() for i, value in enumerate(row)]
    return "coboundary" if bialgebra_check(g, delta).ok else "neither"


# -- modular character ----------------------------------------------------------------


def modular_character(g: LieAlgebra) -> list[Fraction]:
    """chi_i = Tr(ad_{e_i})."""
    return [
        sum((g.c(i, k, k) for k in range(g.dim)), Fraction(0)) for i in range(g.dim)
    ]




# -- Lie algebroid dual chart ----------------------------------------------------------


def algebroid_dual_poisson(base: Chart, fiber_names, rho, c_table) -> MultiVec:
    """Candidate linear bivector on the chart (x_1..x_n, xi_1..xi_r):

        pi = sum_{i<j} (sum_k c_ijk(x) xi_k) d/dxi_i ^ d/dxi_j
             - sum_{i,j} rho_ij(x) d/dx_i ^ d/dxi_j

    rho is an n x r matrix of RatFuncs on the base chart; c_table maps
    (i, j, k) to RatFuncs on the base chart with antisymmetric completion.
    Running poisson.verify on the result is the executable test of the
    Lie-algebroid axioms for (rho, c).
    """
    n = base.dim
    r = len(fiber_names)
    if len(rho) != n or any(len(row) != r for row in rho):
        raise LieAlgebraError("rho must be an n x r matrix over the base chart")
    total = make_chart(*(base.var_names + tuple(fiber_names)))
    c_full = {}
    for (i, j, k), f in c_table.items():
        if i == j:
            raise LieAlgebraError("c_iik must vanish")
        _accumulate(c_full, (i, j, k), f)
        _accumulate(c_full, (j, i, k), -f)
    # fiber-fiber block
    coeffs = {}
    for i in range(r):
        for j in range(i + 1, r):
            acc = RatFunc.zero(total)
            for k in range(r):
                f = c_full.get((i, j, k))
                if f is not None and not f.is_zero:
                    acc = acc + f.lift(total) * RatFunc.var(total, n + k)
            if not acc.is_zero:
                coeffs[(n + i, n + j)] = acc
    # base-fiber block: -rho_ij d/dx_i ^ d/dxi_j
    for i in range(n):
        for j in range(r):
            f = rho[i][j]
            if not f.is_zero:
                coeffs[(i, n + j)] = -f.lift(total)
    return MultiVec(total, 2, coeffs)


# -- dual maps and basis spans ----------------------------------------------------------


def dual_map(t, h_chart: Chart, g_chart: Chart) -> PolyMap:
    """Transpose of a linear map T: g -> h (h.dim x g.dim) as a linear
    PolyMap h* -> g*."""
    matrix = [[t[a][i] for a in range(len(t))] for i in range(len(t[0]) if t else 0)]
    return PolyMap.linear(h_chart, g_chart, matrix)


def _closed(g: LieAlgebra, left, indices) -> bool:
    """Is [e_i, e_j] in span(e_k : k in indices) for i in left, j in indices?
    Raises LieAlgebraError on an index outside 0 ... dim - 1."""
    for i in indices:
        if not 0 <= i < g.dim:
            raise LieAlgebraError(f"basis index {i} out of range for dimension {g.dim}",
                                  indices=(i,))
    inside = set(indices)
    return not any(c for i in left for j in indices
                   for k, c in enumerate(g.constants[i][j]) if k not in inside)


def is_basis_span_ideal(g: LieAlgebra, indices) -> bool:
    """Is span(e_i : i in indices) an ideal?  Exact, basis subsets only."""
    return _closed(g, range(g.dim), indices)


def is_basis_span_subalgebra(g: LieAlgebra, indices) -> bool:
    return _closed(g, indices, indices)
