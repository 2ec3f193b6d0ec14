from fractions import Fraction as F

import pytest

from poisskit.expr import ChartMismatchError, ExprError, RatFunc, chart, parse_expr
from poisskit.multivec import (
    DiffForm,
    MultiVec,
    PolyMap,
    contract,
    exterior_derivative,
    lie_derivative,
    pullback_form,
    pushforward_bivector_at,
    schouten,
    wedge,
)

from conftest import random_form, random_multivec, random_poly, rng_for


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


# -- contraction ---------------------------------------------------------------------


def test_contract_basis(ch2):
    w = wedge(d_form(ch2, 0), d_form(ch2, 1))
    assert contract(w, dx(ch2, 0)) == d_form(ch2, 1)


def test_contract_missing_index(ch3):
    w = wedge(d_form(ch3, 0), d_form(ch3, 1))
    assert contract(w, dx(ch3, 2)).is_zero


def test_contract_scalar_result(ch2):
    x = parse_expr("x", ch2)
    form = DiffForm(ch2, 1, {(0,): x})
    assert contract(form, dx(ch2, 0)).scalar() == x


def test_contract_degree_zero_rejected(ch2):
    with pytest.raises(ExprError):
        contract(DiffForm.from_scalar(parse_expr("x", ch2)), dx(ch2, 0))


def test_contract_antiderivation(ch3):
    # i_X(a ^ b) = (i_X a) ^ b + (-1)^deg(a) a ^ (i_X b), here deg(a) = 1
    rng = rng_for("contract")
    for _ in range(15):
        a = random_form(rng, ch3, 1)
        b = random_form(rng, ch3, rng.choice([1, 2]))
        v = random_multivec(rng, ch3, 1)
        lhs = contract(wedge(a, b), v)
        rhs = wedge(DiffForm.from_scalar(contract(a, v).scalar()), b) - \
            wedge(a, contract(b, v))
        assert lhs == rhs


# -- exterior derivative -----------------------------------------------------------------


def test_d_of_function(ch2):
    assert DiffForm.d_of(parse_expr("x", ch2)) == d_form(ch2, 0)


def test_d_of_x_dy(ch2):
    form = DiffForm(ch2, 1, {(1,): parse_expr("x", ch2)})
    assert exterior_derivative(form) == wedge(d_form(ch2, 0), d_form(ch2, 1))


def test_d_squared_zero(ch3):
    rng = rng_for("dd")
    for k in (0, 1, 2):
        for _ in range(10):
            w = random_form(rng, ch3, k)
            assert exterior_derivative(exterior_derivative(w)).is_zero


# -- Lie derivative -------------------------------------------------------------------------


def test_lie_derivative_coefficient(ch2):
    v = MultiVec(ch2, 1, {(1,): parse_expr("x", ch2)})
    assert lie_derivative(dx(ch2, 0), v) == dx(ch2, 1)


def test_lie_derivative_function(ch2):
    x_dy = MultiVec(ch2, 1, {(1,): parse_expr("x", ch2)})
    assert lie_derivative(x_dy, parse_expr("y", ch2)) == parse_expr("x", ch2)


def test_lie_derivative_constant_form(ch2):
    assert lie_derivative(dx(ch2, 0), d_form(ch2, 0)).is_zero


def test_cartan_formula(ch3):
    rng = rng_for("cartan")
    for _ in range(15):
        x = random_multivec(rng, ch3, 1)
        w = random_form(rng, ch3, rng.choice([1, 2]))
        lhs = lie_derivative(x, w)
        rhs = contract(exterior_derivative(w), x) + exterior_derivative(contract(w, x))
        assert lhs == rhs


def test_lie_contract_commutator(ch3):
    rng = rng_for("LiY")
    for _ in range(15):
        x = random_multivec(rng, ch3, 1)
        y = random_multivec(rng, ch3, 1)
        w = random_form(rng, ch3, 2)
        lhs = lie_derivative(x, contract(w, y)) - contract(lie_derivative(x, w), y)
        assert lhs == contract(w, schouten(x, y))


# -- Schouten bracket -------------------------------------------------------------------------


def test_schouten_reduces_to_commutator(ch2):
    v = MultiVec(ch2, 1, {(1,): parse_expr("x", ch2)})
    assert schouten(dx(ch2, 0), v) == dx(ch2, 1)


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


def test_schouten_graded_antisymmetry(ch3):
    rng = rng_for("anti")
    for _ in range(25):
        k, l = rng.choice([0, 1, 2]), rng.choice([1, 2])
        x = random_multivec(rng, ch3, k)
        y = random_multivec(rng, ch3, l)
        sign = -1 if ((k - 1) * (l - 1)) % 2 else 1
        assert schouten(x, y) == schouten(y, x).scale(-sign)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_schouten_square_of_itself_matches_an_equal_copy(ch3, degree):
    # schouten(x, x) takes each derivative once; an equal copy that is not
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
        square = schouten(x, x)
        assert square == schouten(x, copy)
        nonzero += not square.is_zero
    assert nonzero == 0 if degree % 2 else nonzero > 0


def test_schouten_graded_jacobi(ch3):
    rng = rng_for("jacobi")
    for _ in range(25):
        k, l, m = (rng.choice([0, 1, 2]) for _ in range(3))
        x = random_multivec(rng, ch3, k)
        y = random_multivec(rng, ch3, l)
        z = random_multivec(rng, ch3, m)
        t1 = schouten(x, schouten(y, z)).scale(-1 if ((k - 1) * (m - 1)) % 2 else 1)
        t2 = schouten(z, schouten(x, y)).scale(-1 if ((m - 1) * (l - 1)) % 2 else 1)
        t3 = schouten(y, schouten(z, x)).scale(-1 if ((l - 1) * (k - 1)) % 2 else 1)
        assert (t1 + t2 + t3).is_zero


def test_schouten_leibniz(ch3):
    rng = rng_for("leibniz")
    for _ in range(25):
        k, l = rng.choice([0, 1, 2]), rng.choice([0, 1])
        x = random_multivec(rng, ch3, k)
        y = random_multivec(rng, ch3, l)
        z = random_multivec(rng, ch3, rng.choice([0, 1]))
        sign = -1 if ((k - 1) * l) % 2 else 1
        lhs = schouten(x, wedge(y, z))
        rhs = wedge(schouten(x, y), z) + wedge(y, schouten(x, z)).scale(sign)
        assert lhs == rhs


# -- pullback and pushforward ---------------------------------------------------------------------


def test_pullback_chain_rule():
    line = chart("t")
    plane = chart("x", "y")
    phi = PolyMap(line, plane, (parse_expr("t", line), parse_expr("t^2", line)))
    pulled = pullback_form(phi, DiffForm.basis_form(plane, 1))
    assert pulled == DiffForm(line, 1, {(0,): parse_expr("2*t", line)})


def test_pullback_identity(ch2):
    phi = PolyMap.identity(ch2)
    rng = rng_for("pbid")
    for k in (1, 2):
        w = random_form(rng, ch2, k)
        assert pullback_form(phi, w) == w


def test_pullback_degree_exceeds_source():
    line = chart("t")
    plane = chart("x", "y")
    phi = PolyMap(line, plane, (parse_expr("t", line), parse_expr("t^2", line)))
    top = wedge(DiffForm.basis_form(plane, 0), DiffForm.basis_form(plane, 1))
    assert pullback_form(phi, top).is_zero


def test_pullback_functorial():
    a, b, c = chart("s"), chart("u", "v"), chart("x", "y")
    psi = PolyMap(a, b, (parse_expr("s", a), parse_expr("s^2", a)))
    phi = PolyMap(b, c, (parse_expr("u+v", b), parse_expr("u*v", b)))
    rng = rng_for("functorial")
    for _ in range(10):
        w = random_form(rng, c, 1)
        assert pullback_form(psi, pullback_form(phi, w)) == \
            pullback_form(phi.compose(psi), w)


def test_pushforward_identity(ch2):
    phi = PolyMap.identity(ch2)
    m = [[F(0), F(2)], [F(-2), F(0)]]
    assert pushforward_bivector_at(phi, m, [F(1), F(3)]) == m


def test_pushforward_linear():
    src = chart("x", "y")
    tgt = chart("u", "v")
    a = [[F(1), F(2)], [F(0), F(1)]]
    phi = PolyMap.linear(src, tgt, a)
    m = [[F(0), F(1)], [F(-1), F(0)]]
    out = pushforward_bivector_at(phi, m, [F(0), F(0)])
    from poisskit import linalg
    assert out == linalg.matmul(linalg.matmul(a, m), linalg.transpose(a))


def test_pushforward_addition_map_lie_poisson(ch3, so3_structure):
    # the addition map g* x g* -> g* is Poisson for linear structures: the
    # pushforward at (xi, eta) equals the structure matrix at xi + eta
    from poisskit.poisson import matrix_at

    big = chart("x1", "y1", "z1", "x2", "y2", "z2")
    comps = tuple(
        parse_expr(f"{a}1+{a}2", big) for a in ("x", "y", "z")
    )
    add = PolyMap(big, ch3, comps)
    rng = rng_for("addition")
    for _ in range(5):
        xi = [F(rng.randint(-3, 3)) for _ in range(3)]
        eta = [F(rng.randint(-3, 3)) for _ in range(3)]
        # product structure matrix at (xi, eta) is block diagonal
        p1 = matrix_at(so3_structure.pi, xi)
        p2 = matrix_at(so3_structure.pi, eta)
        block = [[F(0)] * 6 for _ in range(6)]
        for i in range(3):
            for j in range(3):
                block[i][j] = p1[i][j]
                block[3 + i][3 + j] = p2[i][j]
        pushed = pushforward_bivector_at(add, block, xi + eta)
        target = matrix_at(so3_structure.pi, [a + b for a, b in zip(xi, eta)])
        assert pushed == target


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
