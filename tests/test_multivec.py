import itertools
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from poisskit import liealg
from poisskit.expr import ChartMismatchError, ExprError, Poly, RatFunc, chart, parse_expr
from poisskit.liealg import bialgebra_check, lie_from_constants, lie_poisson
from poisskit.multivec import DiffForm, MultiVec, PolyMap, exterior_derivative, schouten, wedge
from poisskit.poisson import bivector_matrix

from conftest import (
    commutator,
    contract_d,
    gl_triples,
    lie_derivative_of_1form,
    random_form,
    random_multivec,
    random_poly,
    rng_for,
    schouten_oracle,
    vector_on,
)


def dx(ch, i):
    return MultiVec.basis_vector(ch, i)


def d_form(ch, i):
    return DiffForm.basis_form(ch, i)


# -- wedge ------------------------------------------------------------------------


def test_wedge_basis(ch2):
    w = wedge(dx(ch2, 0), dx(ch2, 1))
    assert w.coeff((0, 1)) == RatFunc.const(ch2, 1)


def test_wedge_alternation(ch2):
    assert wedge(dx(ch2, 0), dx(ch2, 0)).is_zero


def test_wedge_bilinearity(ch2):
    x, y = parse_expr("x", ch2), parse_expr("y", ch2)
    a = MultiVec(ch2, 1, {(0,): x})
    b = MultiVec(ch2, 1, {(1,): y})
    assert wedge(a, b) == MultiVec(ch2, 2, {(0, 1): x * y})


def test_wedge_graded_commutative(ch3):
    rng = rng_for("wedge")
    for _ in range(20):
        k, l = rng.choice([0, 1, 2]), rng.choice([1, 2])
        a = random_multivec(rng, ch3, k)
        b = random_multivec(rng, ch3, l)
        sign = -1 if (k * l) % 2 else 1
        assert wedge(a, b) == wedge(b, a).scale(sign)


def test_wedge_degree_overflow_is_zero(ch2):
    big = wedge(wedge(dx(ch2, 0), dx(ch2, 1)), dx(ch2, 0))
    assert big.is_zero and big.degree == 3


def test_wedge_chart_mismatch(ch2, ch3):
    with pytest.raises(ChartMismatchError):
        wedge(dx(ch2, 0), dx(ch3, 0))


# -- exterior derivative -----------------------------------------------------------------


def test_d_of_function(ch2):
    assert exterior_derivative(DiffForm.from_scalar(parse_expr("x", ch2))) == d_form(ch2, 0)


def test_d_of_x_dy(ch2):
    form = DiffForm(ch2, 1, {(1,): parse_expr("x", ch2)})
    assert exterior_derivative(form) == wedge(d_form(ch2, 0), d_form(ch2, 1))


def test_d_squared_zero(ch3):
    rng = rng_for("dd")
    for k in (0, 1, 2):
        for _ in range(10):
            w = random_form(rng, ch3, k)
            assert exterior_derivative(exterior_derivative(w)).is_zero


# -- the component oracles of the Courant tests -------------------------------------------
#
# conftest's L_X beta and i_Y d alpha on 1-forms, checked by the Cartan formula
# L_X beta = i_X d beta + d(beta(X)) and by L_X(beta(Y)) - (L_X beta)(Y) = beta([X, Y]),
# against ``exterior_derivative`` and the Schouten oracle.


def _components(form):
    return [form.coeff((k,)) for k in range(form.chart.dim)]


def _pair(u, v):
    return sum((a * b for a, b in zip(u, v)), RatFunc.zero(u[0].chart))


def test_cartan_formula(ch3):
    rng = rng_for("cartan")
    for _ in range(15):
        x = random_multivec(rng, ch3, 1).components()
        beta = random_form(rng, ch3, 1)
        d_beta = bivector_matrix(exterior_derivative(beta))
        i_x_d_beta = contract_d(x, _components(beta))
        assert i_x_d_beta == [_pair(x, column) for column in zip(*d_beta)]
        d_pairing = _components(exterior_derivative(DiffForm.from_scalar(
            _pair(_components(beta), x))))
        assert lie_derivative_of_1form(x, _components(beta)) == \
            [a + b for a, b in zip(i_x_d_beta, d_pairing)]


def test_lie_contract_commutator(ch3):
    rng = rng_for("LiY")
    for _ in range(15):
        x, y = random_multivec(rng, ch3, 1), random_multivec(rng, ch3, 1)
        beta = _components(random_form(rng, ch3, 1))
        xs, ys, bracket = x.components(), y.components(), schouten_oracle(x, y).components()
        assert bracket == commutator(xs, ys)
        lie_beta = lie_derivative_of_1form(xs, beta)
        assert vector_on(xs, _pair(beta, ys)) - _pair(lie_beta, ys) == _pair(beta, bracket)


# -- Schouten bracket -------------------------------------------------------------------------


def test_schouten_reduces_to_commutator(ch2):
    v = MultiVec(ch2, 1, {(1,): parse_expr("x", ch2)})
    assert schouten_oracle(dx(ch2, 0), v) == dx(ch2, 1)


def test_schouten_pi_f_is_minus_hamiltonian(ch2):
    # [pi, f] = -X_f with X_f = pi#(df): the sign convention every other
    # module is written against
    from poisskit.poisson import hamiltonian_vf

    pi = wedge(dx(ch2, 0), dx(ch2, 1))
    f = parse_expr("x", ch2)
    assert schouten(pi, MultiVec.from_scalar(f)) == -hamiltonian_vf(pi, f)


def test_schouten_decomposable_2d(ch2):
    # pi = X ^ Y with X = d/dx, Y = x d/dy: dependent triple in 2 dims
    pi = wedge(dx(ch2, 0), MultiVec(ch2, 1, {(1,): parse_expr("x", ch2)}))
    assert schouten(pi, pi).is_zero


def _rational_coefficients(rng, mv):
    """mv with each polynomial coefficient scaled by its own random Fraction."""
    return type(mv)(mv.chart, mv.degree, {
        idx: c * F(rng.choice([1, -1, 2, 3]), rng.choice([1, 2, 3, 5, 7]))
        for idx, c in mv.coeffs.items()})


def _assert_matches_the_oracle(pi, y):
    bracket, expected = schouten(pi, y), schouten_oracle(pi, y)
    assert bracket == expected and str(bracket) == str(expected)
    return bracket


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_schouten_matches_the_superalgebra_oracle(n):
    # random polynomial bivectors with int and Fraction coefficients, against
    # multivectors y of every degree; from dimension 3 on also f * pi_so3 on
    # (x, y, z), which is Poisson for every f (X_f is tangent to the spheres),
    # so squares of both kinds are seen
    rng = rng_for(f"schouten battery {n}")
    ch = chart(*"xyzuv"[:n])
    so3 = MultiVec(ch, 2, {(0, 1): parse_expr("z", ch), (1, 2): parse_expr("x", ch),
                           (0, 2): parse_expr("-y", ch)}) if n >= 3 else None
    squares = set()
    for case in range(8):
        pi = random_multivec(rng, ch, 2)
        if so3 is not None and case % 2:
            pi = so3.scale(random_poly(rng, ch))
        if case >= 4:
            pi = _rational_coefficients(rng, pi)
        squares.add(_assert_matches_the_oracle(pi, pi).is_zero)
        for k in range(n + 1):
            y = random_multivec(rng, ch, k)
            _assert_matches_the_oracle(pi, _rational_coefficients(rng, y) if case % 3 else y)
    assert squares == ({True} if n == 2 else {True, False})


def test_schouten_matches_the_oracle_on_gl3_and_its_double():
    # gl3's Lie-Poisson bivector, and the 18-variable one of its Drinfeld
    # double with the zero cobracket, the one bialgebra_check squares
    g = lie_from_constants(9, gl_triples(3))
    pi_g = lie_poisson(g).pi
    rng = rng_for("schouten gl3")
    for k in range(3):
        _assert_matches_the_oracle(pi_g, random_multivec(rng, pi_g.chart, k, max_degree=1))
    with mock.patch.object(liealg, "verify", side_effect=liealg.verify) as verified:
        assert bialgebra_check(g, []).ok
    [(double,)] = [call.args for call in verified.call_args_list]
    assert double.chart.dim == 18
    for pi in (pi_g, double):
        assert _assert_matches_the_oracle(pi, pi).is_zero


_HIGH = chart("x", "y", "z")
_coefficients = st.sampled_from([1, -2, 3, F(1, 2), F(-5, 3)])


def _terms(k, low, high):
    return st.tuples(st.sampled_from(list(itertools.combinations(range(3), k))),
                     st.tuples(*[st.integers(low, high)] * 3), _coefficients)


def _multivec(k, terms):
    coeffs = {}
    for idx, e, c in terms:
        coeffs[idx] = coeffs.get(idx, RatFunc.zero(_HIGH)) + RatFunc.from_poly(Poly(_HIGH, {e: c}))
    return MultiVec(_HIGH, k, coeffs)


@settings(max_examples=40, deadline=None)
@given(st.lists(_terms(2, 0, 9), min_size=1, max_size=4),
       st.integers(0, 3).flatmap(lambda k: st.tuples(
           st.just(k), st.lists(_terms(k, 0, 9), max_size=3), _terms(k, 8, 20))))
def test_schouten_matches_the_oracle_at_exponents_from_8(pi_terms, y_draw):
    # each y draws a term with every exponent at least 8, so the coded keys
    # of its bracket take a radix of 16 or 32
    k, y_terms, high = y_draw
    pi, y = _multivec(2, pi_terms), _multivec(k, y_terms + [high])
    _assert_matches_the_oracle(pi, y)


def test_schouten_takes_a_bivector_with_polynomial_coefficients(ch3):
    pi = MultiVec(ch3, 2, {(0, 1): parse_expr("z", ch3)})
    rational = MultiVec(ch3, 2, {(0, 1): parse_expr("1/(1 + x^2)", ch3)})
    vector = dx(ch3, 0)
    for first, second in ((vector, pi), (wedge(pi, dx(ch3, 2)), vector), (rational, pi),
                          (pi, rational), (d_form(ch3, 0), pi), (pi, d_form(ch3, 0))):
        with pytest.raises(ExprError):
            schouten(first, second)


def test_schouten_graded_antisymmetry(ch3):
    rng = rng_for("anti")
    for _ in range(25):
        k, l = rng.choice([0, 1, 2]), rng.choice([1, 2])
        x = random_multivec(rng, ch3, k)
        y = random_multivec(rng, ch3, l)
        sign = -1 if ((k - 1) * (l - 1)) % 2 else 1
        assert schouten_oracle(x, y) == schouten_oracle(y, x).scale(-sign)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_schouten_square_of_itself_matches_an_equal_copy(ch3, degree):
    # schouten_oracle(x, x) takes each derivative once; an equal copy that is not
    # the same object goes through the two sums of the general formula
    # (odd degree: [x, x] = 0 by graded antisymmetry)
    rng = rng_for(f"square {degree}")
    nonzero = 0
    for _ in range(6):
        x = random_multivec(rng, ch3, degree)
        den = random_poly(rng, ch3, 1)
        if not den.is_zero:
            x = x.scale(1 / den)
        copy = MultiVec(ch3, degree, dict(x.coeffs))
        assert copy is not x and copy == x
        square = schouten_oracle(x, x)
        assert square == schouten_oracle(x, copy)
        nonzero += not square.is_zero
    assert nonzero == 0 if degree % 2 else nonzero > 0


def test_schouten_graded_jacobi(ch3):
    rng = rng_for("jacobi")
    for _ in range(25):
        k, l, m = (rng.choice([0, 1, 2]) for _ in range(3))
        x = random_multivec(rng, ch3, k)
        y = random_multivec(rng, ch3, l)
        z = random_multivec(rng, ch3, m)
        t1 = schouten_oracle(x, schouten_oracle(y, z)).scale(-1 if ((k - 1) * (m - 1)) % 2 else 1)
        t2 = schouten_oracle(z, schouten_oracle(x, y)).scale(-1 if ((m - 1) * (l - 1)) % 2 else 1)
        t3 = schouten_oracle(y, schouten_oracle(z, x)).scale(-1 if ((l - 1) * (k - 1)) % 2 else 1)
        assert (t1 + t2 + t3).is_zero


def test_schouten_leibniz(ch3):
    rng = rng_for("leibniz")
    for _ in range(25):
        k, l = rng.choice([0, 1, 2]), rng.choice([0, 1])
        x = random_multivec(rng, ch3, k)
        y = random_multivec(rng, ch3, l)
        z = random_multivec(rng, ch3, rng.choice([0, 1]))
        sign = -1 if ((k - 1) * l) % 2 else 1
        lhs = schouten_oracle(x, wedge(y, z))
        rhs = wedge(schouten_oracle(x, y), z) + wedge(y, schouten_oracle(x, z)).scale(sign)
        assert lhs == rhs


# -- pushforward ---------------------------------------------------------------------------------


def test_pushforward_addition_map_lie_poisson(ch3, so3_structure):
    # the addition map g* x g* -> g* pushes the product of Lie-Poisson
    # structures forward onto g*, and so does the projection onto a factor
    from poisskit.poisson import is_poisson_map, verify

    big = chart("x1", "y1", "z1", "x2", "y2", "z2")
    first = [RatFunc.var(big, i) for i in range(3)]
    second = [RatFunc.var(big, 3 + i) for i in range(3)]
    coeffs = so3_structure.pi.coeffs.items()
    product = verify(MultiVec(big, 2, {
        **{(i, j): c.subst(first) for (i, j), c in coeffs},
        **{(3 + i, 3 + j): c.subst(second) for (i, j), c in coeffs},
    }))
    assert product.verified
    add = PolyMap(big, ch3, tuple(a + b for a, b in zip(first, second)))
    assert is_poisson_map(add, product, so3_structure)
    assert is_poisson_map(PolyMap(big, ch3, tuple(second)), product, so3_structure)
    difference = PolyMap(big, ch3, tuple(a - b for a, b in zip(first, second)))
    assert not is_poisson_map(difference, product, so3_structure)


# -- canonical rendering ----------------------------------------------------------------------------


def test_multivector_rendering(ch3):
    pi = MultiVec(ch3, 2, {
        (0, 1): parse_expr("z", ch3),
        (1, 2): parse_expr("x", ch3),
        (0, 2): parse_expr("-y", ch3),
    })
    assert str(pi) == "z d/dx^d/dy + (-y) d/dx^d/dz + x d/dy^d/dz"


def test_form_rendering(ch2):
    w = DiffForm(ch2, 2, {(0, 1): parse_expr("x+1", ch2)})
    assert str(w) == "(x + 1) dx^dy"


def test_zero_rendering(ch2):
    assert str(MultiVec.zero(ch2, 2)) == "0"
