import itertools
import random
from fractions import Fraction

import pytest

from poisskit import poisson
from poisskit.expr import Poly, RatFunc, chart, parse_expr
from poisskit.multivec import DiffForm, MultiVec, schouten


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
    return schouten(bivector, bivector).scale(Fraction(1, 2))


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
