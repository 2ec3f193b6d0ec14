"""The exact scalar layer against sympy, and the coefficient rule.

sympy is used only here, as an independent oracle: every comparison is by
value (``sympy.cancel`` of a difference), so it does not depend on how either
side chooses to write a rational function.  After every operation, each
``Poly`` coefficient must be an ``int`` or a non-integral ``Fraction``.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from poisskit.expr import ExprError, Poly, RatFunc, chart, poly_divexact, poly_gcd

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


@ORACLE
@given(ratfuncs, st.integers(0, 2))
def test_diff_matches_sympy(a, index):
    derivative = a.diff(index)
    assert same_value(derivative, sympy.diff(to_sympy(a), SYMS[index]))
    assert obeys_rule(derivative)


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
