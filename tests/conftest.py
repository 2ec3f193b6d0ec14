import itertools
import math
import random
from fractions import Fraction
from operator import add

import pytest

from poisskit import linalg, poisson
from poisskit.dirac import constraint_bracket_matrix
from poisskit.expr import (
    ChartMismatchError,
    ExprError,
    Poly,
    RatFunc,
    chart,
    parse_expr,
    poly_divexact,
)
from poisskit.multivec import DiffForm, Index, MultiVec, _accumulate, wedge


@pytest.fixture
def ch2():
    return chart("x", "y")


@pytest.fixture
def ch3():
    return chart("x", "y", "z")


@pytest.fixture
def chqp():
    return chart("q", "p")


@pytest.fixture
def ch4():
    return chart("q1", "p1", "q2", "p2")


@pytest.fixture
def so3_structure(ch3):
    pi = MultiVec(ch3, 2, {
        (0, 1): parse_expr("z", ch3),
        (1, 2): parse_expr("x", ch3),
        (0, 2): parse_expr("-y", ch3),
    })
    return poisson.require_poisson(pi)


@pytest.fixture
def sl2r_structure(ch3):
    pi = MultiVec(ch3, 2, {
        (0, 1): parse_expr("-z", ch3),
        (1, 2): parse_expr("x", ch3),
        (0, 2): parse_expr("-y", ch3),
    })
    return poisson.require_poisson(pi)


@pytest.fixture
def book_structure(ch3):
    pi = MultiVec(ch3, 2, {
        (0, 2): parse_expr("x", ch3),
        (1, 2): parse_expr("y", ch3),
    })
    return poisson.require_poisson(pi)


@pytest.fixture
def pican_structure(chqp):
    # pi = d/dp ^ d/dq, i.e. {q,p} = -1
    return poisson.require_poisson(
        MultiVec(chqp, 2, {(0, 1): RatFunc.const(chqp, -1)})
    )


@pytest.fixture
def pican4_structure(ch4):
    return poisson.require_poisson(MultiVec(ch4, 2, {
        (0, 1): RatFunc.const(ch4, -1),
        (2, 3): RatFunc.const(ch4, -1),
    }))


@pytest.fixture
def xdxdy_structure(ch2):
    return poisson.require_poisson(
        MultiVec(ch2, 2, {(0, 1): parse_expr("x", ch2)})
    )


def random_poly(rng, ch, max_degree=2, terms=3):
    out = {}
    for _ in range(terms):
        e = [0] * ch.dim
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(ch.dim)] += 1
        out[tuple(e)] = Fraction(rng.randint(-3, 3))
    return RatFunc.from_poly(Poly(ch, out))


def random_multivec(rng, ch, degree, max_degree=2):
    coeffs = {}
    for idx in itertools.combinations(range(ch.dim), degree):
        if rng.random() < 0.8:
            coeffs[idx] = random_poly(rng, ch, max_degree)
    return MultiVec(ch, degree, coeffs)


def random_form(rng, ch, degree, max_degree=2):
    coeffs = {}
    for idx in itertools.combinations(range(ch.dim), degree):
        if rng.random() < 0.8:
            coeffs[idx] = random_poly(rng, ch, max_degree)
    return DiffForm(ch, degree, coeffs)


def rng_for(name):
    return random.Random(name)


# -- the scan-based exact division, an oracle for expr._divide --------------------


def scan_divide(a, b, quotient):
    """The terms of a / b, coefficients divided by ``quotient``, each
    quotient term read off the largest remainder term in graded-lex order
    found by a scan of the whole remainder; raises ExprError if b does not
    divide a."""
    def key(e):
        return sum(e), e
    be = max(b, key=key)
    bc = b[be]
    q = {}
    r = dict(a)
    while r:
        re = max(r, key=key)
        diff = tuple(x - y for x, y in zip(re, be))
        if any(d < 0 for d in diff):
            raise ExprError("inexact polynomial division")
        t = q[diff] = quotient(r[re], bc)
        for e, c in b.items():
            e = tuple(map(add, diff, e))
            s = r.get(e, 0) - t * c
            if s:
                r[e] = s
            else:
                r.pop(e, None)
    return q


# -- the superalgebra Schouten bracket, an oracle for multivec.schouten ----------
#
# Multivectors of any degrees with rational coefficients: each is a function of
# the chart variables x_i and odd generators xi_i = d/dx_i, with the
# xi-derivative taken from the right.


def _xi_derivative_right(x: MultiVec, i: int) -> MultiVec:
    """Right derivative with respect to the odd generator xi_i."""
    k = x.degree
    if k == 0:
        return MultiVec.zero(x.chart, 0)
    out: dict[Index, RatFunc] = {}
    for idx, c in x.coeffs.items():
        if i not in idx:
            continue
        pos = idx.index(i)
        rest = idx[:pos] + idx[pos + 1 :]
        term = c if (k - 1 - pos) % 2 == 0 else -c
        _accumulate(out, rest, term)
    return MultiVec(x.chart, k - 1, out)


def _x_derivative(x: MultiVec, i: int) -> MultiVec:
    return MultiVec(
        x.chart, x.degree, {idx: c.diff(i) for idx, c in x.coeffs.items()}
    )


def schouten_oracle(x: MultiVec, y: MultiVec) -> MultiVec:
    """Schouten bracket via the local superalgebra formula

        [x, y] = sum_i d_xi_i x ^ d_i y  -  sign * d_xi_i y ^ d_i x,

    with sign = (-1)^((k-1)(l-1)) for degrees k and l.  For ``x is y`` the
    two sums are equal, so [x, x] = (1 - sign) * sum_i d_xi_i x ^ d_i x,
    zero for odd degree: each derivative and wedge is taken once."""
    if not isinstance(x, MultiVec) or not isinstance(y, MultiVec):
        raise ExprError("schouten expects multivector fields")
    if x.chart != y.chart:
        raise ChartMismatchError("chart mismatch in schouten")
    chart = x.chart
    k, l = x.degree, y.degree
    degree = k + l - 1
    if degree < 0:
        # two degree-0 objects commute
        return MultiVec.zero(chart, 0)
    result = MultiVec.zero(chart, degree)
    sign = -1 if ((k - 1) * (l - 1)) % 2 else 1
    if x is y:
        if sign == 1:
            return result
        for i in range(chart.dim):
            dx_xi = _xi_derivative_right(x, i)
            if not dx_xi.is_zero:
                result = result + wedge(dx_xi, _x_derivative(x, i))
        return result.scale(2)
    for i in range(chart.dim):
        dx_xi = _xi_derivative_right(x, i)
        if not dx_xi.is_zero:
            result = result + wedge(dx_xi, _x_derivative(y, i))
        dy_xi = _xi_derivative_right(y, i)
        if not dy_xi.is_zero:
            result = result + wedge(dy_xi, _x_derivative(x, i)).scale(-sign)
    return result


def gl_triples(n):
    """The structure constants of gl(n) in the format of ``lie_from_constants``:
    [E_ab, E_cd] = d_bc E_ad - d_da E_cb with E_ab = e_{n a + b}."""
    triples = []
    for (a, b), (c, d) in itertools.combinations(itertools.product(range(n), repeat=2), 2):
        i, j = n * a + b, n * c + d
        triples += [(i, j, n * a + d, 1)] * (b == c) + [(i, j, n * c + b, -1)] * (d == a)
    return triples


# -- the joint elimination, an oracle for the cohomology's image test -----------


def basis_element(chart, idx, mono):
    """The k-vector x^mono d/dx_idx of the cohomology's domain basis."""
    return MultiVec(chart, len(idx), {idx: RatFunc.from_poly(Poly(chart, {mono: 1}))})


def cohomology_oracle(structure, k, d):
    """``poisson.cohomology`` by one elimination of the image rows, over all
    domain columns, followed by the kernel rows.  A row's independence depends
    only on the rows before it, so the independent image rows count the
    image, and the independent kernel rows after them are the
    representatives: they extend the image to a kernel basis.  Each
    representative is a sum of scaled basis elements.  Every column and image
    row is the superalgebra bracket of ``schouten_oracle`` on one basis
    element, so no part of the production derivation rule is used."""
    chart = structure.chart
    delta = poisson._coefficient_degree(structure.pi)

    def d_pi_terms(basis):
        return [multivec_terms(schouten_oracle(structure.pi, basis_element(chart, *b)))
                for b in basis]

    dom = poisson._kvector_basis(chart, k, d)
    cod = poisson._kvector_basis(chart, k + 1, d + delta - 1)
    cod_index = {b: i for i, b in enumerate(cod)}
    out_rows = [{} for _ in cod]
    for col, column in enumerate(d_pi_terms(dom)):
        for key, c in column.items():
            out_rows[cod_index[key]][col] = c
    kernel = linalg.null_space(linalg.eliminate(out_rows)[0], len(dom))
    image = []
    if k >= 1 and d - delta + 1 >= 0:
        dom_index = {b: i for i, b in enumerate(dom)}
        image = [{dom_index[key]: c for key, c in row.items()}
                 for row in d_pi_terms(poisson._kvector_basis(chart, k - 1, d - delta + 1))]
    independent = linalg.eliminate(image + kernel)[1]
    dim_image = sum(i < len(image) for i in independent)
    reps = []
    for i in independent[dim_image:]:
        mv = MultiVec.zero(chart, k)
        for col, coef in sorted(kernel[i - len(image)].items()):
            mv = mv + basis_element(chart, *dom[col]).scale(coef)
        reps.append(mv)
    return poisson.CohomologyReport(k, d, len(kernel), dim_image,
                                    len(kernel) - dim_image, reps)


# -- the Jacobiator, an oracle for the Schouten bracket --------------------------


def multivec_terms(mv):
    """{(index tuple, exponent tuple): coefficient} of a multivector with
    polynomial coefficients."""
    return {(idx, e): c for idx, f in mv.coeffs.items() for e, c in f.as_poly().terms.items()}


def jacobiator(bivector, f, g, h):
    """Cyclic sum {f,{g,h}} + {h,{f,g}} + {g,{h,f}}."""
    bracket = poisson.bracket
    return (
        bracket(bivector, f, bracket(bivector, g, h))
        + bracket(bivector, h, bracket(bivector, f, g))
        + bracket(bivector, g, bracket(bivector, h, f))
    )


def jacobiator_trivector(bivector):
    """(1/2) [pi, pi]; contracts against (df,dg,dh) to the scalar jacobiator."""
    return schouten_oracle(bivector, bivector).scale(Fraction(1, 2))


def trivector_on_differentials(t, f, g, h):
    """Evaluate a trivector on (df, dg, dh)."""
    chart = t.chart
    dfs = [[w.diff(i) for i in range(chart.dim)] for w in (f, g, h)]
    out = RatFunc.zero(chart)
    for (i, j, k), c in t.coeffs.items():
        det = RatFunc.zero(chart)
        for perm, sign in (
            ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
            ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1),
        ):
            a, b, c_ = perm
            term = dfs[a][i] * dfs[b][j] * dfs[c_][k]
            det = det + term if sign > 0 else det - term
        out = out + c * det
    return out


# -- the Bareiss solve over RatFunc, an oracle for linalg.pfaffians and the --------
# -- gauge and Dirac pairs built from it ------------------------------------------
#
# The solve the Pfaffians replaced: Bareiss's elimination in Gauss-Jordan form
# on the rows of [m | r] of RatFuncs cleared of denominators (Bareiss, Math.
# Comp. 1968), over Poly.


def bareiss_fraction_free(m, r):
    """(delta, delta m^-1 r, scale) with det m = delta / scale, or None when m
    is singular.  Step k takes row_i <- (p_k row_i - a_ik row_k) / p_(k-1),
    an exact division, and drops the pivot column from the rows."""
    cleared = [linalg._cleared(list(a) + list(b)) for a, b in zip(m, r)]
    rows = [row for row, _ in cleared]
    scale = math.prod(s for _, s in cleared)
    prev = 1
    for k in range(len(rows)):
        i = next((i for i in range(k, len(rows)) if not rows[i][0].is_zero), None)
        if i is None:
            return None
        if i != k:
            rows[k], rows[i] = rows[i], rows[k]
            scale = -scale
        top = rows[k]
        for i, row in enumerate(rows):
            if i != k:
                row = [top[0] * x - row[0] * y for x, y in zip(row[1:], top[1:])]
                rows[i] = [poly_divexact(v, prev) for v in row] if k else row
        prev, rows[k] = top[0], top[1:]
    return prev, rows, scale


def bareiss_solve_pair(m, r):
    """(x, delta) with m^-1 r = x / delta, scaled by the one constant that
    makes delta primitive, or None when m is singular."""
    out = bareiss_fraction_free(m, r)
    if out is None:
        return None
    delta, right, _ = out
    c = Fraction(1, math.gcd(*delta.terms.values()))
    return [[x * c for x in row] for row in right], delta * c


def bareiss_solve(m, r):
    """X with m @ X = r, as RatFuncs."""
    pair = bareiss_solve_pair(m, r)
    if pair is None:
        return None
    right, delta = pair
    return [[RatFunc(x, delta) for x in row] for row in right]


def bareiss_inverse(m):
    zero = m[0][0] * 0
    return bareiss_solve(m, [[zero + int(i == j) for j in range(len(m))] for i in range(len(m))])


def bareiss_det(m):
    """det m as a RatFunc; m's zero when m is singular."""
    out = bareiss_fraction_free(m, [[] for _ in m])
    if out is None:
        return m[0][0] * 0
    delta, _, scale = out
    return RatFunc(delta, scale)


def bareiss_gauge_pair(p, w):
    """(x, delta) with (I + P W)^-1 P = x / delta, x the full matrix, by the
    solve of the RatFunc product I + P W; None when it is singular."""
    id_plus = [[e + 1 if i == j else e for j, e in enumerate(row)]
               for i, row in enumerate(linalg.matmul(p, w))]
    return bareiss_solve_pair(id_plus, p)


# -- the Dirac bracket by its formula, an oracle for dirac.dirac_bracket ---------


def dirac_bracket_oracle(cs, f, g):
    """The unrestricted combination {f,g} - {f,psi_i} c_ij {psi_j,g}, with c
    the inverse of the constraint matrix {psi_i, psi_j}."""
    out = poisson.bracket(cs.structure, f, g)
    k = len(cs.constraints)
    if k:
        c_lower = bareiss_inverse(constraint_bracket_matrix(cs))
        fpsi = [poisson.bracket(cs.structure, f, cs.constraints[i]) for i in range(k)]
        psig = [poisson.bracket(cs.structure, cs.constraints[j], g) for j in range(k)]
        for i in range(k):
            for j in range(k):
                out = out - fpsi[i] * c_lower[i][j] * psig[j]
    return out


def dirac_bivector_oracle(cs):
    """pi + sum_(i<j) c_ij X_psi_i ^ X_psi_j with c the Bareiss inverse of the
    constraint matrix, or None when it is singular."""
    c_lower = bareiss_inverse(constraint_bracket_matrix(cs))
    if c_lower is None:
        return None
    fields = [poisson.hamiltonian_vf(cs.structure, psi) for psi in cs.constraints]
    pi_d = cs.structure.pi
    for i, j in itertools.combinations(range(len(fields)), 2):
        pi_d = pi_d + wedge(fields[i], fields[j]).scale(c_lower[i][j])
    return pi_d


# -- the Dorfman bracket in components, an oracle for dirac.courant_tensor -------
#
# A vector field or a 1-form is the list of its RatFunc components.


def _sum(terms, chart):
    return sum(terms, RatFunc.zero(chart))


def vector_on(x, f):
    """X(f) = sum_j X^j d_j f."""
    return _sum((c * f.diff(j) for j, c in enumerate(x)), f.chart)


def commutator(x, y):
    """[X, Y]^k = X(Y^k) - Y(X^k)."""
    return [vector_on(x, b) - vector_on(y, a) for a, b in zip(x, y)]


def lie_derivative_of_1form(x, beta):
    """(L_X beta)_k = sum_j X^j d_j beta_k + beta_j d_k X^j."""
    return [_sum((x[j] * beta[k].diff(j) + beta[j] * x[j].diff(k) for j in range(len(x))),
                 beta[k].chart) for k in range(len(x))]


def contract_d(y, alpha):
    """(i_Y d alpha)_k = sum_j Y^j (d_j alpha_k - d_k alpha_j)."""
    return [_sum((y[j] * (alpha[k].diff(j) - alpha[j].diff(k)) for j in range(len(y))),
                 alpha[k].chart) for k in range(len(y))]


def courant_oracle(rows):
    """{(a, b, c): <[[e_a, e_b]], e_c>} for a < b < c, from the definition:
    e_a = (X_a | alpha_a) is a row of 2n components, the Dorfman bracket is
    [[(X, alpha), (Y, beta)]] = ([X, Y], L_X beta - i_Y d alpha), and the
    pairing is <(V, phi), (Y, beta)> = beta(V) + phi(Y)."""
    n = len(rows)
    vecs, forms = [row[:n] for row in rows], [row[n:] for row in rows]
    chart = rows[0][0].chart
    out = {}
    for a, b, c in itertools.combinations(range(n), 3):
        vec = commutator(vecs[a], vecs[b])
        form = [l - i for l, i in zip(lie_derivative_of_1form(vecs[a], forms[b]),
                                      contract_d(vecs[b], forms[a]))]
        out[a, b, c] = _sum((forms[c][k] * vec[k] + form[k] * vecs[c][k] for k in range(n)),
                            chart)
    return out


# -- the Jacobiator of a structure-constant table, an oracle for lie_from_constants --


def jacobi_failure(dim, triples):
    """The first (i, j, k, m), in ``itertools.product`` order, at which the
    table completed by c_jik = -c_ijk has
    sum_l c_ijl c_lkm + c_kil c_ljm + c_jkl c_lim != 0, or None."""
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, val in triples:
        c[i][j][k] += Fraction(val)
        c[j][i][k] -= Fraction(val)
    for i, j, k, m in itertools.product(range(dim), repeat=4):
        if sum(c[i][j][l] * c[l][k][m] + c[k][i][l] * c[l][j][m] + c[j][k][l] * c[l][i][m]
               for l in range(dim)):
            return i, j, k, m
    return None


# -- the algebraic Schouten calculus, an oracle for liealg's bialgebra and -------
# -- classical Yang-Baxter checks --------------------------------------------------
#
# An element of the exterior algebra of a Lie algebra is a {index tuple:
# Fraction} dict with strictly increasing keys and no zero values; a Lie
# algebra is its ``constants`` table, c[i][j][k] the e_k coefficient of
# [e_i, e_j].


def sorted_sign(indices):
    """(sign, sorted indices) of e_{i_1} ^ ... ^ e_{i_k}, or None on a repeat."""
    if len(set(indices)) < len(indices):
        return None
    inversions = sum(a > b for a, b in itertools.combinations(indices, 2))
    return (-1) ** inversions, tuple(sorted(indices))


def _add(out, idx, value):
    out[idx] = out.get(idx, 0) + value
    if not out[idx]:
        del out[idx]


def ext_wedge(x, y):
    out = {}
    for ia, ca in x.items():
        for ib, cb in y.items():
            merged = sorted_sign(ia + ib)
            if merged is not None:
                _add(out, merged[1], merged[0] * ca * cb)
    return out


def alg_schouten(c, x, y):
    """[a_1^...^a_k, b_1^...^b_l] = sum_{p,q} (-1)^{p+q} [a_p, b_q] ^ a_{\\p} ^ b_{\\q}."""
    out = {}
    for ia, ca in x.items():
        for ib, cb in y.items():
            for p, i in enumerate(ia):
                for q, j in enumerate(ib):
                    rest = ia[:p] + ia[p + 1:] + ib[:q] + ib[q + 1:]
                    for k, coef in enumerate(c[i][j]):
                        merged = sorted_sign((k,) + rest) if coef else None
                        if merged is not None:
                            _add(out, merged[1], (-1) ** (p + q) * merged[0] * ca * cb * coef)
    return out


def bialgebra_oracle(c, triples):
    """(dual_jacobi, compat, failure) for the cobracket delta(e_k) =
    sum_{a<b} f^ab_k e_a ^ e_b given by the triples (a, b, k, f^ab_k):
    ``jacobi_failure`` on the triples, and delta([e_i, e_j]) =
    [e_i, delta(e_j)] - [e_j, delta(e_i)] on each basis pair i < j."""
    dim = len(c)
    delta = [{} for _ in range(dim)]
    for a, b, k, value in triples:
        sign, pair = sorted_sign((a, b))
        _add(delta[k], pair, sign * Fraction(value))
    broken = []
    for i, j in itertools.combinations(range(dim), 2):
        lhs = {}
        for k, ck in enumerate(c[i][j]):
            for idx, value in delta[k].items():
                _add(lhs, idx, ck * value)
        rhs = alg_schouten(c, {(i,): 1}, delta[j])
        for idx, value in alg_schouten(c, {(j,): 1}, delta[i]).items():
            _add(rhs, idx, -value)
        if lhs != rhs:
            broken.append((i, j))
    dual = jacobi_failure(dim, triples)
    failure = ("Jacobi identity fails at (i,j,k,m)=({},{},{},{})".format(*dual) if dual
               else "compatibility fails on basis pair ({},{})".format(*broken[0]) if broken
               else "")
    return dual is None, not broken, failure


def cyb_oracle(c, r):
    """'triangular' when [r, r] = 0, 'coboundary' when [r, r] is ad-invariant,
    else 'neither', for r a {(a, b): value} table."""
    rr = alg_schouten(c, r, r)
    if not rr:
        return "triangular"
    if all(not alg_schouten(c, {(i,): 1}, rr) for i in range(len(c))):
        return "coboundary"
    return "neither"
