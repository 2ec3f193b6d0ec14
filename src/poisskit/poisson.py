"""Poisson-structure analysis on a chart.

Matrix convention: the matrix of a bivector pi has entry (i,j) equal to
{x_i, x_j}, so pi = sum_{i<j} P[i][j] d/dx_i ^ d/dx_j and

    {f,g} = sum_{i,j} P[i][j] df/dx_i dg/dx_j,
    X_f   = pi#(df),   (pi# alpha)_j = sum_i alpha_i P[i][j].

With these choices {f,g} = dg(X_f) and [pi, f] = -X_f for the Schouten
bracket of ``multivec``, the one implementation of [pi, .]: ``verify``,
``d_pi`` and ``cohomology`` all apply its derivation rule to pi's generator
images.  ``bracket`` is the one bracket of functions and takes each partial
of f and g once: the Dirac bracket of a constraint system is ``bracket`` of
the bivector pi_D of ``dirac.dirac_bracket``, and the transverse Lie bracket
of ``isotropy_bracket_at`` is d{alpha.x, beta.x} at the point.

One check per fact: ``verify`` is the [pi,pi] = 0 test and the one report of
a failed square (the Jacobiator of the bracket is (1/2)[pi,pi] on
differentials).  It squares pi = X / delta over a common denominator on
polynomials (``_cleared_square``), as ``gauge_transform`` squares its result
as the pair (X, delta) of ``_gauge_pair``, read off Pfaffians of pi and B by
minor summation for bivectors of any rank; both report a nonzero square
divided by delta^3, so a rational failure prints that value with a
constant factor that depends on delta.  ``is_poisson_map`` is the only
Poisson-map test.  They are also the Lie-algebra checks: a bracket table satisfies Jacobi exactly
when its Lie-Poisson bivector passes ``verify``, and a linear map of Lie
algebras is a morphism exactly when its transpose passes ``is_poisson_map``.
So are the checks of a Lie bialgebra, one ``verify`` of the Lie-Poisson
bivector of its Drinfeld double, and of the classical Yang-Baxter equation,
which needs that ``verify`` only when [r, r] != 0 (see ``liealg``).
``is_poisson_map`` is exact on rational data too, as ``RatFunc.subst`` and
``is_zero`` are.  Pointwise checks (rank, Darboux basis, isotropy) read
``matrix_at``, whose row alpha P is pi#(alpha); the characteristic data at a
point, the range of pi# with its induced form, is read off the graph of pi#
by ``dirac.kernel_and_range``.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .expr import Chart, ChartMismatchError, ExprError, Poly, RatFunc, fields_repr, format_point
from .multivec import (
    DiffForm,
    MultiVec,
    PolyMap,
    _accumulate,
    _d_pi_images,
    _key,
    _radix,
    _WedgePlans,
    exterior_derivative,
    generator_images,
    schouten,
    wedge,
)


class PoissonError(ExprError):
    pass


class NotClosedError(PoissonError):
    """Gauge transformation attempted with a non-closed 2-form."""


class NotCosymplecticError(PoissonError):
    """Constraint-bracket matrix is singular."""


class PoissonStructure:
    """A bivector field together with a [pi,pi] = 0 certificate.  Equality
    and repr read the three fields pi, verified and schouten_square only."""

    def __init__(self, pi: MultiVec, verified: bool, schouten_square: MultiVec = None):
        if pi.degree != 2:
            raise PoissonError("a Poisson structure needs a degree-2 multivector")
        self.pi, self.verified, self.schouten_square = pi, verified, schouten_square

    @property
    def chart(self) -> Chart:
        return self.pi.chart

    def __eq__(self, other):
        if type(other) is not PoissonStructure:
            return NotImplemented
        return ((self.pi, self.verified, self.schouten_square)
                == (other.pi, other.verified, other.schouten_square))

    def __repr__(self):
        return fields_repr(self, ("pi", "verified", "schouten_square"))

    @cached_property
    def generator_images(self):
        """``multivec.generator_images`` of pi, which ``cohomology`` builds
        d_pi from; kept on the instance apart from the three fields, so
        equality and repr ignore it, as they ignore what follows."""
        return generator_images(self.pi)

    @cached_property
    def coefficient_degree(self) -> int:
        """``_coefficient_degree`` of pi, taken once."""
        return _coefficient_degree(self.pi)

    @cached_property
    def _plans(self) -> dict:
        return {}

    def wedge_plans(self, radix: int):
        """The ``multivec._WedgePlans`` of the generator images at the radix
        R: made once per R, and kept, with the plan of every index tuple it
        was asked for, as long as the structure lives."""
        plans = self._plans.get(radix)
        if plans is None:
            plans = self._plans[radix] = _WedgePlans(self.generator_images, radix)
        return plans


def bivector_matrix(pi) -> list[list[RatFunc]]:
    """Full antisymmetric coefficient matrix of a degree-2 multivector or
    form: P[i][j] = {x_i, x_j} for a bivector, W[i][j] = B(d/dx_i, d/dx_j)
    for a 2-form."""
    n = pi.chart.dim
    zero = RatFunc.zero(pi.chart)
    m = [[zero for _ in range(n)] for _ in range(n)]
    for (i, j), c in pi.coeffs.items():
        m[i][j] = c
        m[j][i] = -c
    return m


def matrix_at(pi, point) -> list[list[Fraction]]:
    """``bivector_matrix`` evaluated at a point."""
    return [[e.eval(point) for e in row] for row in bivector_matrix(pi)]


def _pi_of(obj) -> MultiVec:
    if isinstance(obj, PoissonStructure):
        return obj.pi
    if isinstance(obj, MultiVec) and obj.degree == 2:
        return obj
    raise PoissonError("expected a PoissonStructure or a degree-2 MultiVec")


# -- verification --------------------------------------------------------------


def verify(bivector: MultiVec) -> PoissonStructure:
    """The [pi,pi] = 0 check: ``verified`` is True when the Schouten square
    vanishes exactly; otherwise ``schouten_square`` holds that trivector.
    pi is written X / delta over the lcm delta of its denominators
    (``linalg._cleared``; delta is a constant for polynomial pi) and squared
    by ``_cleared_square``, so the bracket only meets polynomials."""
    if bivector.degree != 2:
        raise PoissonError("a Poisson structure needs a degree-2 multivector")
    if bivector.is_zero:
        return PoissonStructure(bivector, True, None)
    row, delta = linalg._cleared(list(bivector.coeffs.values()))
    x = MultiVec(bivector.chart, 2, dict(zip(bivector.coeffs, map(RatFunc.from_poly, row))))
    return _certified(bivector, x, delta)


def require_poisson(bivector: MultiVec) -> PoissonStructure:
    return require_verified(verify(bivector))


def require_verified(ps: PoissonStructure) -> PoissonStructure:
    """ps itself when it is verified; otherwise the PoissonError that names
    its square."""
    if not ps.verified:
        raise PoissonError(
            f"not a Poisson bivector; [pi,pi] = {ps.schouten_square}"
        )
    return ps


# -- brackets and Hamiltonian fields -------------------------------------------


def _partials(pi: MultiVec, f: RatFunc) -> dict:
    """{k: df/dx_k} for each coordinate k that a term of pi names."""
    return {k: f.diff(k) for k in sorted({k for idx in pi.coeffs for k in idx})}


def bracket(structure, f: RatFunc, g: RatFunc) -> RatFunc:
    """{f,g} = pi(df, dg)."""
    pi = _pi_of(structure)
    if f.chart != pi.chart or g.chart != pi.chart:
        raise ChartMismatchError("bracket arguments live on another chart")
    df, dg = _partials(pi, f), _partials(pi, g)
    out = RatFunc.zero(pi.chart)
    for (i, j), c in pi.coeffs.items():
        out = out + c * (df[i] * dg[j] - df[j] * dg[i])
    return out


def hamiltonian_vf(structure, f: RatFunc) -> MultiVec:
    """X_f = pi#(df)."""
    pi = _pi_of(structure)
    if f.chart != pi.chart:
        raise ChartMismatchError("function lives on another chart")
    df = _partials(pi, f)
    comps = {}
    for (i, j), c in pi.coeffs.items():
        # contribution of the term c d/dx_i ^ d/dx_j
        _accumulate(comps, j, c * df[i])
        _accumulate(comps, i, -(c * df[j]))
    return MultiVec(pi.chart, 1, {(k,): v for k, v in comps.items()})


def casimir_check(structure, f: RatFunc) -> bool:
    return hamiltonian_vf(structure, f).is_zero


# -- pointwise rank and symplectic data ----------------------------------------


def rank_at(structure, point) -> int:
    return linalg.rank(matrix_at(_pi_of(structure), point))


def darboux_basis_at(structure, point):
    """Tangent basis in which the evaluated matrix is a standard symplectic
    block plus a zero block.

    Returns (symplectic_pairs_basis, complement_basis); the first list holds
    2k vectors ordered in pairs (a_1, b_1, ..., a_k, b_k) with pi(a_r, b_r)=1
    read through the dual covectors.
    """
    pi = _pi_of(structure)
    p = matrix_at(pi, point)
    n = pi.chart.dim

    def omega(u, v):
        return sum(
            (u[i] * p[i][j] * v[j] for i in range(n) for j in range(n)),
            Fraction(0),
        )

    # skew Gram-Schmidt in covector space
    pending = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    pairs = []
    comp = []
    while pending:
        u = pending.pop(0)
        partner = next((w for w in pending if omega(u, w) != 0), None)
        if partner is None:
            comp.append(u)
            continue
        pending.remove(partner)
        c = omega(u, partner)
        v = [x / c for x in partner]
        pairs.append((u, v))
        reduced = []
        for w in pending + comp:
            w2 = [
                wi - omega(u, w) * vi + omega(v, w) * ui
                for wi, ui, vi in zip(w, u, v)
            ]
            reduced.append(w2)
        k = len(pending)
        pending, comp = reduced[:k], reduced[k:]
    covectors = [c for pair in pairs for c in pair] + comp
    basis_matrix = linalg.mat_inverse(covectors)  # columns are the dual vectors
    cols = linalg.transpose(basis_matrix)
    split = 2 * len(pairs)
    return cols[:split], cols[split:]


# -- modular vector field -------------------------------------------------------


def modular_vf(structure, volume: DiffForm) -> MultiVec:
    """The vector field X with L_X f = div_volume(X_f) for all f."""
    pi = _pi_of(structure)
    chart = pi.chart
    n = chart.dim
    if volume.degree != n:
        raise PoissonError("volume form must have top degree")
    rho = volume.coeff(tuple(range(n)))
    if rho.is_zero:
        raise PoissonError("volume coefficient vanishes identically")
    p = bivector_matrix(pi)
    comps = {}
    for j in range(n):
        acc = RatFunc.zero(chart)
        for i in range(n):
            acc = acc + p[j][i].diff(i) + p[j][i] * rho.diff(i) / rho
        comps[(j,)] = acc
    return MultiVec(chart, 1, comps)


# -- Poisson cohomology (polynomial truncation) ---------------------------------


class CohomologyReport(NamedTuple):
    degree: int
    poly_degree: int
    dim_kernel: int
    dim_image: int
    dim_h: int
    representatives: list[MultiVec]

    def serialize(self) -> str:
        lines = [
            f"k={self.degree} d={self.poly_degree} "
            f"dim_ker={self.dim_kernel} dim_im={self.dim_image} dim_H={self.dim_h}"
        ]
        for rep in self.representatives:
            lines.append(f"  rep: {rep}")
        return "\n".join(lines)


def d_pi(structure: PoissonStructure, x: MultiVec) -> MultiVec:
    """Lichnerowicz differential [pi, .] by ``multivec.schouten``; requires a
    verified structure and polynomial coefficients."""
    if not isinstance(structure, PoissonStructure) or not structure.verified:
        raise PoissonError("d_pi requires a verified Poisson structure")
    if not all(c.is_polynomial for m in (structure.pi, x) for c in m.coeffs.values()):
        raise PoissonError("d_pi needs polynomial coefficients")
    return schouten(structure.pi, x)


def _coefficient_degree(pi: MultiVec) -> int:
    degs = set()
    for c in pi.coeffs.values():
        if not c.is_polynomial:
            raise PoissonError("cohomology needs polynomial coefficients")
        poly = c.as_poly()
        degs.update(sum(e) for e in poly.terms)
    if len(degs) > 1:
        raise PoissonError(
            f"unsupported: coefficients not degree-homogeneous (degrees {sorted(degs)})"
        )
    return degs.pop() if degs else 0


#: The entries each of the caches ``_monomials``, ``_coded_basis`` and
#: ``_basis_index`` keeps, the least recently used dropped first: more than
#: twice the 52 coded bases of the benchmark's cohomology ladder, and a
#: bound on what a process that sweeps many charts or degrees holds.
BASIS_CACHE_SIZE = 128


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def _monomials(chart: Chart, degree: int):
    """The exponent tuples of degree ``degree``, sorted.  Cached, as cohomology
    takes the same few (chart, degree) pairs on every call; the tuple keeps
    the shared result unchanged."""
    if degree < 0:
        return ()
    out = []
    for combo in itertools.combinations_with_replacement(range(chart.dim), degree):
        e = [0] * chart.dim
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return tuple(sorted(out))


def _kvector_basis(chart: Chart, k: int, degree: int):
    idxs = list(itertools.combinations(range(chart.dim), k))
    monos = _monomials(chart, degree)
    return [(idx, m) for idx in idxs for m in monos]


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def _coded_basis(chart: Chart, k: int, degree: int, radix: int):
    """``_kvector_basis`` as (key, idx, mono), key the ``multivec._key`` at
    the radix R, in its order.  Cached, as ``_monomials`` is: it depends on
    the chart, not on pi."""
    return tuple((_key(idx, m, radix), idx, m) for idx, m in _kvector_basis(chart, k, degree))


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def _basis_index(chart: Chart, k: int, degree: int, radix: int):
    """{key: position} of ``_coded_basis``, cached with it; never modified."""
    return {key: i for i, (key, _, _) in enumerate(_coded_basis(chart, k, degree, radix))}


def cohomology(structure: PoissonStructure, k: int, d: int) -> CohomologyReport:
    """Exact H^k of d_pi on k-vectors with degree-d polynomial coefficients.

    Requires pi's coefficients homogeneous of a single polynomial degree so
    d_pi is degree-homogeneous; with delta that degree, the incoming image is
    taken from (k-1)-vectors of degree d - delta + 1.

    Each column is d_pi = [pi, .] of one basis element by the derivation
    rule of ``multivec.schouten`` (``_d_pi_images``) on int keys, one per
    basis element x^m d/dx_I (``multivec._key``).  Their radix R is the
    least power of two, and at least 8, above d + |delta - 1|, the largest
    total degree among the domain, the codomain and the incoming image, so
    no exponent reaches it.  What the rule reads is kept:
      - on the structure, for its lifetime: the generator images, delta
        (``coefficient_degree``) and the ``_WedgePlans`` of each R
        (``wedge_plans``), so a loop over d builds them once per R;
      - by (chart, k, degree, R), in the module's caches of
        ``BASIS_CACHE_SIZE`` entries, as ``_monomials`` is: the coded bases
        (``_coded_basis``) and their index dicts (``_basis_index``), which
        do not depend on pi.

    The kernel takes one ``linalg.echelon`` of the rows of d_pi on the domain,
    empty rows dropped and sorted so that the latest leading column comes
    first, the order that keeps the fill-in small.  Only its pivot set is
    read: the free columns are the rest, and a kernel vector is fixed by its
    free coordinates, so keeping only those is injective on the kernel, which
    holds the image (d_pi d_pi = 0).  The image rows so restricted, in the
    same order, take one more ``echelon``, and the image's dimension is their
    pivot count; with the columns negated, each pivot is the last free column
    of an image vector.  The representatives are the kernel vectors that are
    1 at a free column that is the last free column of no image vector, and
    0 at the other free columns: the kernel vectors that are independent of
    the image and of the kernel vectors before them.  Only these are built,
    by ``linalg.kernel_vector``.
    """
    pi = _pi_of(structure)
    chart = pi.chart
    if not isinstance(structure, PoissonStructure) or not structure.verified:
        raise PoissonError("cohomology requires a verified Poisson structure")
    if k > chart.dim or k < 0 or d < 0:
        raise PoissonError("invalid (k, d)")
    delta = structure.coefficient_degree
    radix = _radix(d + abs(delta - 1))
    plans = structure.wedge_plans(radix)

    dom = _coded_basis(chart, k, d, radix)
    cod_index = _basis_index(chart, k + 1, d + delta - 1, radix)
    # outgoing differential as sparse rows, one column per domain basis element
    out_rows = [{} for _ in range(len(cod_index))]
    for col, column in enumerate(_d_pi_images(dom, plans)):
        for key, c in column.items():
            if c:
                out_rows[cod_index[key]][col] = c
    pivots = linalg.echelon(_latest_first(out_rows))[0]
    free = [col for col in range(len(dom)) if col not in pivots]
    negated = {dom[col][0]: -col for col in free}
    # incoming image, as sparse rows over the negated free columns
    images = []
    if k >= 1 and d - delta + 1 >= 0:
        images = _d_pi_images(_coded_basis(chart, k - 1, d - delta + 1, radix), plans)
    last_free = linalg.echelon(_latest_first(
        [{negated[key]: c for key, c in row.items() if c and key in negated} for row in images]))[0]
    dim_image = len(last_free)
    reps = []
    for first in free:
        if -first in last_free:
            continue
        coeffs = {}
        for col, coef in linalg.kernel_vector(pivots, first).items():
            _, idx, mono = dom[col]
            coeffs.setdefault(idx, {})[mono] = coef
        reps.append(MultiVec(chart, k, {idx: RatFunc.from_poly(Poly(chart, terms))
                                        for idx, terms in coeffs.items()}))
    return CohomologyReport(k, d, len(free), dim_image, len(free) - dim_image, reps)


def _latest_first(rows):
    """The nonempty sparse rows, sorted so that the latest leading column comes
    first."""
    return sorted(filter(None, rows), key=min, reverse=True)


# -- gauge transformations -------------------------------------------------------


def _gauge_pair(p, w):
    """(x, delta) with (I + P W)^-1 P = x / delta, x the {(i, j): x_ij} above
    the diagonal, or None when I + P W is singular as a RatFunc matrix.

    With P = X / a and W = Y / b cleared, m = n // 2, and S running over the
    sorted index tuples of size 2t, the Pfaffian minor summation (Ishikawa
    and Wakayama, Linear Multilinear Algebra 39, 1995) for
    M = [[W, -I], [I, P]], whose inverse has P_B as its top left block, gives

        delta = sum_S (-1)^t Pf(X_S) Pf(Y_S) (ab)^(m - t) = Pf(M) (ab)^m,
        x_ij  = sum_(S > {i, j}) (-1)^(t + u + v) Pf(X_S) Pf(Y_(S - {i, j})) (ab)^(m - t) b,

    for i, j at the places u < v of S, with Pf(M)^2 = det(I + P W).  For
    pi ^ pi = 0 every Pf(X_S) with |S| >= 4 vanishes, so the pair is
    P / (1 - beta), beta = sum_(i<j) W_ij P_ij.  ``linalg._primitive_pair``
    normalizes it."""
    n = len(p)
    (xp, a), (yw, b) = linalg._cleared_matrix(p), linalg._cleared_matrix(w)
    pf_p, pf_w = linalg.pfaffians(xp), linalg.pfaffians(yw)
    one, delta = Poly.const(a.chart, 1), Poly.zero(a.chart)

    def times(f, g):  # skips the factors 1: Pf(()), and (ab)^k for P and W over Z[x]
        return g if f.terms == one.terms else f if g.terms == one.terms else f * g

    x, weight = {pair: delta for pair in itertools.combinations(range(n), 2)}, one
    for t in reversed(range(n // 2 + 1)):  # weight = (ab)^(n // 2 - t)
        for s in itertools.combinations(range(n), 2 * t):
            ps = pf_p(s)
            if ps.is_zero:
                continue
            ps = times(ps, weight)
            term = times(ps, pf_w(s))
            delta = delta - term if t % 2 else delta + term
            ps = times(ps, b)
            for (u, i), (v, j) in itertools.combinations(enumerate(s), 2):
                rest = pf_w(s[:u] + s[u + 1:v] + s[v + 1:])
                if not rest.is_zero:
                    term = times(ps, rest)
                    x[i, j] = x[i, j] - term if (t + u + v) % 2 else x[i, j] + term
        weight = times(weight, a * b)
    return None if delta.is_zero else linalg._primitive_pair(x, delta)


def gauge_matrix(p, w):
    """(I + P W)^-1 P as the full matrix of RatFuncs that ``flow.moser_verify``
    reads, or None when I + P W is singular as a RatFunc matrix: each entry
    above the diagonal is RatFunc(x_ij, delta) of ``_gauge_pair``, reduced by
    at most one gcd, and each one below it the negative of one above."""
    pair = _gauge_pair(p, w)
    if pair is None:
        return None
    x, delta = pair
    upper, n, zero = {k: RatFunc(e, delta) for k, e in x.items()}, len(p), RatFunc.zero(delta.chart)
    return [[upper[i, j] if i < j else -upper[j, i] if j < i else zero for j in range(n)]
            for i in range(n)]


def gauge_transform(structure, b_form: DiffForm) -> PoissonStructure:
    """Gauge transformation by a closed 2-form: pi_B# = pi# (Id + B_flat pi#)^-1.

    In matrices (P the pi matrix, W the form matrix), P_B = (I + P W)^-1 P,
    which ``_gauge_pair`` gives as X / delta by Pfaffians, for pi of any rank
    and rational entries alike, with delta != 0.  pi_B takes the entries
    above the diagonal, RatFunc(x_ij, delta).  The square is
    ``_cleared_square(X, delta)``, the one ``verify`` takes, and a nonzero
    one is reported as ``verify`` reports it.
    """
    pi = _pi_of(structure)
    chart = pi.chart
    if b_form.degree != 2 or b_form.chart != chart:
        raise PoissonError("gauge needs a 2-form on the same chart")
    db = exterior_derivative(b_form)
    if not db.is_zero:
        raise NotClosedError(f"2-form is not closed; dB = {db}")
    pair = _gauge_pair(bivector_matrix(pi), bivector_matrix(b_form))
    if pair is None:
        raise PoissonError("Id + B_flat pi# singular as a rational-function matrix")
    x, delta = pair
    pi_b = MultiVec(chart, 2, {k: RatFunc(e, delta) for k, e in x.items()})
    x_mv = MultiVec(chart, 2, {idx: RatFunc.from_poly(x[idx]) for idx in pi_b.coeffs})
    return _certified(pi_b, x_mv, delta)


def _cleared_square(x, delta):
    """delta^3 [x/delta, x/delta] for a bivector x with polynomial coefficients
    and a polynomial delta != 0, on polynomials with no gcd, by the Leibniz
    rule

        delta^3 [x/delta, x/delta] = delta [x, x] + 2 V ^ x,   V = x#(d delta),

    exact because polynomials have no zero divisors.  V ^ x is skipped for a
    constant delta, where V = 0, and in dimension 3, where it vanishes
    identically, as x_i0 x_12 - x_i1 x_02 + x_i2 x_01 = 0 for each i."""
    d = RatFunc.from_poly(delta)
    square = schouten(x, x).scale(d)
    if x.chart.dim > 3 and not delta.is_constant:
        square = square + wedge(hamiltonian_vf(x, d), x).scale(2)
    return square


def _certified(pi, x, delta):
    """The PoissonStructure of pi = x / delta: verified when
    ``_cleared_square(x, delta)`` is zero, else holding it divided by
    delta^3, which is [pi, pi]."""
    square = _cleared_square(x, delta)
    if square.is_zero:
        return PoissonStructure(pi, True, None)
    return PoissonStructure(pi, False, square.scale(1 / RatFunc.from_poly(delta ** 3)))


# -- Poisson map check -----------------------------------------------------------


def is_poisson_map(phi: PolyMap, source_structure, target_structure) -> bool:
    """pi2 = dphi pi1 (dphi)* along phi: with J the Jacobian of phi, the
    entries of pi2's matrix with phi substituted equal those of J P1 J^T.
    Exact on rational data: ``RatFunc.subst`` and ``is_zero`` are."""
    pi1 = _pi_of(source_structure)
    pi2 = _pi_of(target_structure)
    if pi1.chart != phi.source or pi2.chart != phi.target:
        raise ChartMismatchError("charts do not match the map")
    jac = phi.jacobian()
    push = linalg.matmul(linalg.matmul(jac, bivector_matrix(pi1)), linalg.transpose(jac))
    p2 = bivector_matrix(pi2)
    comps = list(phi.components)
    n = phi.target.dim
    return all((p2[i][j].subst(comps) - push[i][j]).is_zero for i in range(n) for j in range(n))


# -- top power / log degeneracy ---------------------------------------------------


def top_power(structure) -> MultiVec:
    """Raw n-fold wedge pi^n on a 2n-dimensional chart (no 1/n!)."""
    pi = _pi_of(structure)
    n2 = pi.chart.dim
    if n2 % 2:
        raise PoissonError("top_power needs an even-dimensional chart")
    out = MultiVec.from_scalar(RatFunc.const(pi.chart, 1))
    for _ in range(n2 // 2):
        out = wedge(out, pi)
    return out


class LogDegeneracyReport(NamedTuple):
    top_coefficient: RatFunc
    transversal_points: list
    violating_points: list

    @property
    def all_transversal(self) -> bool:
        return not self.violating_points


def log_degeneracy_check(structure, samples) -> LogDegeneracyReport:
    """Check transversality of the vanishing of the top coefficient at the
    given zero-locus samples (gradient nonzero there)."""
    pi = _pi_of(structure)
    n = pi.chart.dim
    top = top_power(structure)
    f = top.coeff(tuple(range(n)))
    good, bad = [], []
    for point in samples:
        if f.eval(point) != 0:
            raise PoissonError(f"sample {format_point(point)} is not on the zero locus")
        grad = [f.diff(i).eval(point) for i in range(n)]
        (good if any(g != 0 for g in grad) else bad).append(list(point))
    return LogDegeneracyReport(f, good, bad)


# -- isotropy (transverse) Lie algebra --------------------------------------------


def isotropy_bracket_at(structure, point):
    """Transverse Lie algebra at a point, on ker(pi#)*: [alpha, beta] is
    d{alpha.x, beta.x} there, c_ijk = d(pi_ij)/dx_k contracted with them.

    Jacobi failure signals an implementation bug (ruled out by theory), so
    the returned algebra is constructed through the verifying constructor.
    """
    from .liealg import lie_from_constants

    pi = _pi_of(structure)
    chart = pi.chart
    n = chart.dim
    p = matrix_at(pi, point)
    # kernel of pi#: covectors alpha with alpha . P = 0
    kernel = linalg.kernel_basis(linalg.transpose(p), ncols=n)
    m = len(kernel)
    if m == 0:
        return lie_from_constants(0, [])
    kernel_rows, pivots = linalg.rref(kernel)
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    linear = [RatFunc.from_poly(Poly(chart, dict(zip(units, row)))) for row in kernel_rows]
    triples = []
    for a in range(m):
        for b in range(a + 1, m):
            brk = bracket(pi, linear[a], linear[b])
            comps = [brk.diff(k).eval(point) for k in range(n)]
            coords = [comps[pc] for pc in pivots]
            if linalg.matvec(linalg.transpose(kernel_rows), coords) != comps:
                raise PoissonError(
                    "transverse bracket left the conormal space (implementation bug)"
                )
            for k, c in enumerate(coords):
                if c:
                    triples.append((a, b, k, c))
    return lie_from_constants(m, triples)
