"""Finite-dimensional Lie algebras by structure constants, the algebraic
Schouten calculus on the exterior algebra, Lie-Poisson structures on the
dual chart, r-matrices, cobrackets, and Lie-algebroid dual charts.

Exterior-algebra elements (``AlgMultiVec``) are the alternating core of
``multivec`` over Fraction coefficients, with its ``wedge`` and index merge.

All algebras carry an explicit ordered basis e_0, ..., e_{m-1} with
[e_i, e_j] = sum_k c[i][j][k] e_k.  Antisymmetry holds by construction, and
the Jacobi identity is checked as [pi_g, pi_g] = 0 for the Lie-Poisson
bivector pi_g (``lie_poisson``), once, by ``lie_from_constants``; the
other uses of pi_g skip it.  T: g -> h is a morphism exactly when
``poisson.is_poisson_map`` holds for ``dual_map`` of T.

Every element passed with an algebra g must have ``parent`` g.  A 2-cochain
lam is a 2-cocycle exactly when the affine bivector lie_poisson(g) + lam
passes ``poisson.verify``; ``is_2cocycle`` and ``affine_poisson`` both build
that bivector and verify it once, and nothing else checks the cocycle
condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import poisson
from .expr import Chart, ExprError, RatFunc, chart as make_chart
from .multivec import MultiVec, PolyMap, _accumulate, _Alternating, _merge_indices
from .poisson import PoissonStructure, verify


class LieAlgebraError(ExprError):
    def __init__(self, message, indices=None):
        super().__init__(message)
        self.indices = indices


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    constants: tuple  # constants[i][j][k] = coefficient of e_k in [e_i, e_j]

    def c(self, i: int, j: int, k: int) -> Fraction:
        return self.constants[i][j][k]

    def bracket_basis(self, i: int, j: int) -> list[Fraction]:
        return list(self.constants[i][j])


def lie_from_constants(dim: int, triples) -> LieAlgebra:
    """Build and verify a Lie algebra from sparse triples (i, j, k, value).

    Omitted entries are zero; the antisymmetric completion c_jik = -c_ijk is
    applied automatically.  Raises LieAlgebraError with the violating indices
    on an index out of range, a nonzero [e_i, e_i], or a Jacobi failure, which
    ``lie_poisson`` finds.
    """
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
    g = LieAlgebra(dim, tuple(tuple(tuple(row) for row in plane) for plane in c))
    if dim:
        lie_poisson(g)
    return g


# -- constant multivectors on the algebra ---------------------------------------


class AlgMultiVec(_Alternating):
    """Element of the exterior algebra of ``parent`` in its fixed basis: the
    alternating core of ``multivec`` with Fraction coefficients."""

    __slots__ = ()

    @property
    def parent(self) -> LieAlgebra:
        return self.chart

    def _coerce(self, value) -> Fraction:
        return Fraction(value)

    @staticmethod
    def _is_zero(c) -> bool:
        return not c

    def _term(self, c, idx) -> str:
        basis = "^".join(f"e{i + 1}" for i in idx)
        return basis if c == 1 else f"{c}*{basis}"

    @staticmethod
    def basis(parent: LieAlgebra, i: int) -> "AlgMultiVec":
        return AlgMultiVec(parent, 1, {(i,): Fraction(1)})


def alg_schouten(g: LieAlgebra, a: AlgMultiVec, b: AlgMultiVec) -> AlgMultiVec:
    """Algebraic Schouten bracket on the exterior algebra:

        [a_1^...^a_k, b_1^...^b_l] =
            sum_{p,q} (-1)^{p+q} [a_p, b_q] ^ a_{\\p} ^ b_{\\q}
    """
    a._check_compat(b, same_degree=False)
    if a.parent != g:
        raise LieAlgebraError("bracket arguments belong to another Lie algebra")
    k, l = a.degree, b.degree
    degree = k + l - 1
    if k == 0 or l == 0:
        return AlgMultiVec.zero(g, max(degree, 0))
    out = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            for p, i in enumerate(ia):
                for q, j in enumerate(ib):
                    rest = _merge_indices(ia[:p] + ia[p + 1 :], ib[:q] + ib[q + 1 :])
                    if rest is None:
                        continue
                    sign, rest_idx = rest
                    if (p + q) % 2:  # (-1)^{(p+1)+(q+1)}
                        sign = -sign
                    for k_idx, coef in enumerate(g.constants[i][j]):
                        if not coef:
                            continue
                        merged = _merge_indices((k_idx,), rest_idx)
                        if merged is not None:
                            _accumulate(out, merged[1], sign * merged[0] * ca * cb * coef)
    return AlgMultiVec(g, degree, out)


# -- Lie-Poisson and coadjoint structures -----------------------------------------


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
        m = min(e.index(1) for e in square[i, j, k].as_poly().terms)
        raise LieAlgebraError(f"Jacobi identity fails at (i,j,k,m)=({i},{j},{k},{m})",
                              indices=(i, j, k, m))
    return ps


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


def coadjoint_vf(g: LieAlgebra, u, chart: Chart | None = None) -> MultiVec:
    """Linear coadjoint field of u in g: the Hamiltonian field of the linear
    function u on the dual chart."""
    pi = _lie_bivector(g, chart)
    ch = pi.chart
    f = RatFunc.zero(ch)
    for i, ui in enumerate(u):
        if ui:
            f = f + RatFunc.const(ch, ui) * RatFunc.var(ch, i)
    return poisson.hamiltonian_vf(pi, f)


# -- cocycles and affine structures ------------------------------------------------


def _affine_bivector(g: LieAlgebra, lam: AlgMultiVec, chart: Chart | None = None) -> MultiVec:
    """lie_poisson(g).pi plus lam as a constant bivector on the dual chart."""
    if lam.degree != 2:
        raise LieAlgebraError("cocycle check needs a degree-2 element")
    if lam.parent != g:
        raise LieAlgebraError("the 2-cochain belongs to another Lie algebra")
    pi = _lie_bivector(g, chart)
    return pi + MultiVec(pi.chart, 2, {idx: RatFunc.const(pi.chart, c)
                                       for idx, c in lam.coeffs.items()})


def is_2cocycle(g: LieAlgebra, lam: AlgMultiVec) -> bool:
    """lam in wedge^2 g* is a 2-cocycle exactly when the affine bivector
    lie_poisson(g) + lam is Poisson: [pi_g + lam, pi_g + lam] = 2 [pi_g, lam],
    and [pi_g, lam] is, up to sign, the Chevalley-Eilenberg differential of
    lam."""
    return verify(_affine_bivector(g, lam)).verified


def affine_poisson(g: LieAlgebra, lam: AlgMultiVec, chart: Chart | None = None) -> PoissonStructure:
    """lie_poisson(g) plus the constant bivector lam; needs lam a 2-cocycle."""
    ps = verify(_affine_bivector(g, lam, chart))
    if not ps.verified:
        raise LieAlgebraError("not a 2-cocycle; affine structure would fail Jacobi")
    return ps


# -- classical Yang-Baxter ----------------------------------------------------------


def cyb_check(g: LieAlgebra, r: AlgMultiVec) -> str:
    """Classify r in wedge^2 g: 'triangular' ([r,r]=0), 'coboundary'
    ([r,r] ad-invariant), else 'neither'."""
    rr = alg_schouten(g, r, r)
    if rr.is_zero:
        return "triangular"
    for i in range(g.dim):
        if not alg_schouten(g, AlgMultiVec.basis(g, i), rr).is_zero:
            return "neither"
    return "coboundary"


# -- cobrackets and Lie bialgebras ---------------------------------------------------


@dataclass
class Cobracket:
    """Linear map g -> wedge^2 g, stored as the image of each basis vector."""

    parent: LieAlgebra
    images: tuple

    def __post_init__(self):
        if len(self.images) != self.parent.dim:
            raise LieAlgebraError("cobracket needs one image per basis vector")
        for img in self.images:
            if img.degree != 2:
                raise LieAlgebraError("cobracket images must have degree 2")

    @staticmethod
    def zero(g: LieAlgebra) -> "Cobracket":
        return Cobracket(g, tuple(AlgMultiVec.zero(g, 2) for _ in range(g.dim)))

    @staticmethod
    def from_dual_algebra(g: LieAlgebra, g_star: LieAlgebra) -> "Cobracket":
        """delta(e_c) = sum_{a<b} c*_abc e_a ^ e_b for the bracket on g*."""
        if g_star.dim != g.dim:
            raise LieAlgebraError("dual algebra dimension mismatch")
        images = []
        for c in range(g.dim):
            coeffs = {}
            for a in range(g.dim):
                for b in range(a + 1, g.dim):
                    val = g_star.c(a, b, c)
                    if val:
                        coeffs[(a, b)] = val
            images.append(AlgMultiVec(g, 2, coeffs))
        return Cobracket(g, tuple(images))

    def of(self, u) -> AlgMultiVec:
        out = AlgMultiVec.zero(self.parent, 2)
        for i, ui in enumerate(u):
            if ui:
                out = out + self.images[i].scale(ui)
        return out

    def dual_constants(self):
        """Structure-constant triples of the would-be bracket on g*."""
        triples = []
        for c in range(self.parent.dim):
            for (a, b), val in self.images[c].coeffs.items():
                triples.append((a, b, c, val))
        return triples


@dataclass
class BialgebraReport:
    dual_jacobi: bool
    compat: bool
    failure: str = ""

    @property
    def ok(self) -> bool:
        return self.dual_jacobi and self.compat


def bialgebra_check(g: LieAlgebra, delta: Cobracket) -> BialgebraReport:
    """Check that (g, delta) is a Lie bialgebra: the transpose of delta is a
    Lie bracket on g*, and delta([u,v]) = ad_u(delta v) - ad_v(delta u)."""
    failure = ""
    try:
        lie_from_constants(g.dim, delta.dual_constants())
        dual_jacobi = True
    except LieAlgebraError as err:
        dual_jacobi = False
        failure = str(err)
    compat = True
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = delta.of(g.bracket_basis(i, j))
            rhs = alg_schouten(g, AlgMultiVec.basis(g, i), delta.images[j]) - \
                alg_schouten(g, AlgMultiVec.basis(g, j), delta.images[i])
            if not (lhs - rhs).is_zero:
                compat = False
                failure = failure or f"compatibility fails on basis pair ({i},{j})"
    return BialgebraReport(dual_jacobi, compat, failure)


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
