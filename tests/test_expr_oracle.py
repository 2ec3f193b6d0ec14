"""The exact scalar layer against sympy, and the coefficient rule.

sympy is used only here, as an independent oracle: every comparison with it
is by value (``sympy.cancel`` of a difference, or cross-multiplication in
sympy's polynomial ring), so it does not depend on how either side chooses to
write a rational function.  The structural checks compare ``RatFunc``
arithmetic and ``diff`` with ``RatFunc``'s own full-reduction constructor.  After every
operation, each ``Poly`` coefficient must be an ``int`` or a non-integral
``Fraction``.
"""

from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from poisskit import expr
from poisskit.expr import (
    ExprError,
    Poly,
    RatFunc,
    chart,
    parse_expr,
    poly_divexact,
    poly_gcd,
)

sympy = pytest.importorskip("sympy")

CH = chart("x", "y", "z")
SYMS = sympy.symbols("x y z")

coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)


def poly_strategy(max_exponent, max_terms):
    exponents = st.tuples(*[st.integers(0, max_exponent)] * 3)
    return st.dictionaries(exponents, coefficients, max_size=max_terms).map(
        lambda t: Poly(CH, t))


polys = poly_strategy(2, 4)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
# small enough that sympy.cancel stays quick and a gcd never leaves its cheap range
small_polys = poly_strategy(1, 3)
small_factors = small_polys.filter(lambda p: not p.is_zero)
ratfuncs = st.builds(RatFunc, small_polys, small_factors)
nonzero_coefficients = coefficients.filter(bool)
linear_factors = st.tuples(*[coefficients] * 4).map(
    lambda c: Poly(CH, {(1, 0, 0): c[0], (0, 1, 0): c[1], (0, 0, 1): c[2], (0, 0, 0): c[3]})
).filter(lambda p: p.total_degree() == 1)
ORACLE = settings(max_examples=30, deadline=None)


def to_sympy(value):
    if isinstance(value, RatFunc):
        return to_sympy(value.num) / to_sympy(value.den)
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**k for s, k in zip(SYMS, e)))
        for e, c in value.terms.items()
    ))


def same_value(ours, theirs):
    return sympy.cancel(to_sympy(ours) - theirs) == 0


def obeys_rule(value):
    polys = (value.num, value.den) if isinstance(value, RatFunc) else (value,)
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for p in polys
        for c in p.terms.values()
    )


@ORACLE
@given(ratfuncs, ratfuncs)
def test_field_operations_match_sympy(a, b):
    sa, sb = to_sympy(a), to_sympy(b)
    for ours, theirs in ((a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb)):
        assert same_value(ours, theirs)
        assert obeys_rule(ours)
    if not b.is_zero:
        quotient = a / b
        assert same_value(quotient, sa / sb)
        assert obeys_rule(quotient)


def layout(value):
    """The stored pair: every term in order, with its coefficient's type."""
    return [[(e, c, type(c)) for e, c in p.terms.items()] for p in (value.num, value.den)]


def sympy_pair(value):
    return tuple(sympy.Poly(to_sympy(p), *SYMS, domain="QQ") for p in (value.num, value.den))


def sum_pair(a, b, c, d):
    """The unreduced pair of a/b + c/d."""
    return (a + c, b) if b == d else (a * d + c * b, b * d)


@contextmanager
def counting_aborts():
    """Count the gcds abandoned as too expensive inside the block."""
    count = []
    gcd = expr.poly_gcd

    def counted(a, b):
        try:
            return gcd(a, b)
        except expr._GcdTooExpensive:
            count.append((a, b))
            raise

    with mock.patch.object(expr, "poly_gcd", counted):
        yield count


@ORACLE
@given(nonzero_coefficients, nonzero_coefficients, linear_factors, linear_factors,
       linear_factors, st.integers(-2, 3))
def test_arithmetic_gives_the_constructors_pair(k, m, f, g, h, n):
    # f, g and h are shared, so that every gcd of the operands' parts (a
    # numerator with the other denominator, the two denominators) has a factor
    # to cancel.  A result must equal sympy's by value (cross-multiplied in
    # sympy's QQ[x, y, z]), and be the pair RatFunc(num, den) makes of the
    # unreduced numerator and denominator, term order included.  The operands
    # stay small because the reference reduces each whole result by one gcd,
    # whose cost grows quickly with the degree.
    with counting_aborts() as aborts:
        a, b = RatFunc(f.scale(k), g * h), RatFunc(g.scale(m), f * h)
        assume(not a.den.is_constant and not b.den.is_constant)
        (A, B), (C, D) = sympy_pair(a), sympy_pair(b)
        inverse = RatFunc(a.den, a.num)
        cases = [
            (a + b, (A * D + C * B, B * D), sum_pair(a.num, a.den, b.num, b.den)),
            (a - b, (A * D - C * B, B * D), sum_pair(a.num, a.den, -b.num, b.den)),
            (a * b, (A * C, B * D), (a.num * b.num, a.den * b.den)),
            (a / b, (A * D, B * C), (a.num * b.den, a.den * b.num)),
            (-a, (-A, B), (-a.num, a.den)),
            (a**n, (A**n, B**n) if n >= 0 else (B**-n, A**-n),
             (inverse.num**-n, inverse.den**-n) if n < 0 else (a.num**n, a.den**n)),
        ]
        cases = [(ours, theirs, RatFunc(*unreduced)) for ours, theirs, unreduced in cases]
    for ours, (num, den), reference in cases:
        our_num, our_den = sympy_pair(ours)
        assert (our_num * den - num * our_den).is_zero
        assert obeys_rule(ours)
        # an abandoned gcd leaves a pair unreduced, and the two ways may then
        # cancel different factors; both stay exact
        if not aborts:
            assert layout(ours) == layout(reference)


@ORACLE
@given(ratfuncs, st.integers(0, 2))
def test_diff_matches_sympy(a, index):
    derivative = a.diff(index)
    assert same_value(derivative, sympy.diff(to_sympy(a), SYMS[index]))
    assert obeys_rule(derivative)


def quotient_rule_pair(a, index):
    """RatFunc of the unreduced quotient rule (n'd - nd') / d^2."""
    n, d = a.num, a.den
    return RatFunc(n.diff(index) * d - n * d.diff(index), d * d)


@ORACLE
@given(nonzero_coefficients, linear_factors, linear_factors, linear_factors,
       st.integers(0, 2), st.integers(0, 3), st.booleans())
def test_diff_gives_the_constructors_pair(c, f, g, h, index, monomial, split):
    # The denominator has a factor g that involves x_index, squared or times
    # a variable x_monomial, and an x_index-free factor (h without its
    # x_index term).  Split into a sum, the free factor drops out of the
    # derivative's denominator, so diff cancels gcd(t, g) as well.  The
    # derivative must equal sympy's (A'B - AB')/B^2 by cross-multiplication,
    # and be the pair the constructor makes of the unreduced quotient rule.
    free = Poly(CH, {e: v for e, v in h.terms.items() if not e[index]})
    assume(g.degree_in(index) > 0 and free.total_degree() > 0)
    base = g**2 if monomial == 3 else g * Poly.var(CH, monomial)
    with counting_aborts() as aborts:
        if split:
            a = RatFunc(f, base) + RatFunc(Poly.const(CH, c), free)
        else:
            a = RatFunc(f.scale(c), base * free)
        ours, reference = a.diff(index), quotient_rule_pair(a, index)
    (A, B), (num, den) = sympy_pair(a), sympy_pair(ours)
    x = SYMS[index]
    assert (num * B**2 - (A.diff(x) * B - A * B.diff(x)) * den).is_zero
    assert obeys_rule(ours)
    if not aborts:
        assert layout(ours) == layout(reference)


@pytest.mark.parametrize("text,index", [
    # d = x*z, d' = z: g = z, h = x, t = 1*x - (x + z)*1 = -z and u = z, so
    # the result is (t/u) / ((d/u)*h), with d and not h divided by u
    ("(x + z)/(x*z)", 0),
    # g = 1: the bracket keeps the products' own term order
    ("(x + y)/(x^2 + z)", 0),
    # a bracket of degree 9, over the cap: left unreduced by the constructor
    ("x^5*y/((x + y)^2*z^2)", 0),
    # d free of x: n'/d, with n' in the descending order the constructor
    # leaves after cancelling d from n'd/d^2
    ("(x*z + x^2 + x*y)/(y + z)", 0),
])
def test_diff_pins_the_constructors_pair(text, index):
    a = parse_expr(text, CH)
    assert layout(a.diff(index)) == layout(quotient_rule_pair(a, index))


def test_diff_divides_d_by_the_cancelled_factor():
    assert str(parse_expr("(x + z)/(x*z)", CH).diff(0)) == "(-1)/(x^2)"


@ORACLE
@given(small_factors, small_factors, small_factors)
def test_gcd_matches_sympy(f, g, h):
    # a common factor f makes most gcds nontrivial
    a, b = f * g, f * h
    ours = poly_gcd(a, b)
    theirs = sympy.gcd(to_sympy(a), to_sympy(b))
    ratio = sympy.cancel(to_sympy(ours) / theirs)
    assert ratio.is_number and ratio != 0
    assert obeys_rule(ours)
    # normalized: primitive integer coefficients, positive leading coefficient
    assert all(type(c) is int for c in ours.terms.values())
    assert ours.leading()[1] > 0


@ORACLE
@given(nonzero_polys, nonzero_polys)
def test_divexact_matches_sympy(f, g):
    quotient = poly_divexact(f * g, g)
    assert quotient == f
    assert obeys_rule(quotient)
    theirs, rem = sympy.div(to_sympy(f * g), to_sympy(g), *SYMS, domain="QQ")
    assert rem == 0 and same_value(quotient, theirs)


@ORACLE
@given(nonzero_polys, nonzero_polys)
def test_divexact_raises_when_sympy_leaves_a_remainder(a, b):
    _, rem = sympy.div(to_sympy(a), to_sympy(b), *SYMS, domain="QQ")
    assume(rem != 0)
    with pytest.raises(ExprError, match="inexact polynomial division"):
        poly_divexact(a, b)


def test_constructor_applies_the_rule():
    p = Poly(CH, {(1, 0, 0): Fraction(4, 2), (0, 1, 0): Fraction(1, 3), (0, 0, 1): 0.5,
                  (0, 0, 0): Fraction(0)})
    assert p.terms == {(1, 0, 0): 2, (0, 1, 0): Fraction(1, 3), (0, 0, 1): Fraction(1, 2)}
    assert obeys_rule(p)
    assert type(p.terms[(1, 0, 0)]) is int
    assert type(Poly.const(CH, Fraction(3)).terms[(0, 0, 0)]) is int
    assert Poly.const(CH, "0").is_zero


def test_one_and_fraction_one_print_and_compare_alike():
    one, fraction_one = Poly(CH, {(1, 0, 0): 1}), Poly(CH, {(1, 0, 0): Fraction(1)})
    assert one == fraction_one and str(one) == str(fraction_one) == "x"
    assert RatFunc.from_poly(one) == RatFunc.from_poly(fraction_one)
    assert hash(1) == hash(Fraction(1))


def test_public_values_are_fractions():
    p = Poly(CH, {(0, 0, 0): 3})
    assert type(p.constant_value()) is Fraction and p.constant_value() == 3
    assert type(Poly.zero(CH).constant_value()) is Fraction
    assert type(p.eval([1, 2, 3])) is Fraction
    assert type(Poly(CH, {(1, 0, 0): 2}).eval([1, 2, 3])) is Fraction
    rf = RatFunc(Poly(CH, {(1, 0, 0): 2}), Poly(CH, {(0, 1, 0): 1}))
    assert type(rf.eval([4, 2, 1])) is Fraction and rf.eval([4, 2, 1]) == 4
