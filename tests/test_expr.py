from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from poisskit import expr
from poisskit.expr import (
    Chart,
    ExprError,
    ParseError,
    PoleError,
    Poly,
    RatFunc,
    chart,
    parse_expr,
    poly_divexact,
    poly_gcd,
)

from conftest import random_poly, rng_for


# -- chart ----------------------------------------------------------------------


def test_chart_rejects_duplicates_and_bad_names():
    with pytest.raises(ExprError):
        chart("x", "x")
    with pytest.raises(ExprError):
        chart("2x")
    with pytest.raises(ExprError):
        chart("")


# -- parser: spec examples --------------------------------------------------------


def test_parse_polynomial(ch2):
    e = parse_expr("x^2 + y", ch2)
    assert e.is_polynomial
    assert e.as_poly().terms == {(2, 0): Fraction(1), (0, 1): Fraction(1)}


def test_parse_ring_identity(ch2):
    assert parse_expr("(x+y)*(x-y)", ch2) == parse_expr("x^2 - y^2", ch2)


def test_parse_rational_function(ch2):
    e = parse_expr("1/(1 - x)", ch2)
    assert not e.is_polynomial
    # sign normalization flips both parts so den's leading coefficient is
    # positive: -1/(x - 1)
    assert e.num == Poly.const(ch2, -1)
    assert e.den == Poly(ch2, {(1, 0): Fraction(1), (0, 0): Fraction(-1)})
    _, lead = e.den.leading()
    assert lead > 0
    assert e * parse_expr("1 - x", ch2) == RatFunc.const(ch2, 1)


def test_parse_errors_carry_position(ch2):
    with pytest.raises(ParseError) as err:
        parse_expr("x + ", ch2)
    assert err.value.pos == 4
    with pytest.raises(ParseError):
        parse_expr("x + w", ch2)  # unknown identifier
    with pytest.raises(ParseError):
        parse_expr("x^(2)", ch2)  # exponent must be a literal uint
    with pytest.raises(ParseError):
        parse_expr("1/(x - x)", ch2)  # division by (syntactic) zero
    with pytest.raises(ParseError):
        parse_expr("x $ y", ch2)


def test_unary_minus_and_precedence(ch2):
    assert parse_expr("-x^2", ch2) == -parse_expr("x^2", ch2)
    assert parse_expr("2*x+3*y", ch2) == parse_expr("3*y+2*x", ch2)
    assert parse_expr("1/2*x", ch2) == parse_expr("x/2", ch2)


# -- diff: spec examples ------------------------------------------------------------


def test_diff_power_rule(ch2):
    assert parse_expr("x^2*y", ch2).diff(0) == parse_expr("2*x*y", ch2)


def test_diff_constant_in_y(ch2):
    assert parse_expr("x", ch2).diff(1).is_zero


def test_diff_quotient_rule(ch2):
    assert parse_expr("1/x", ch2).diff(0) == parse_expr("-1/x^2", ch2)


def test_diff_index_range(ch2):
    with pytest.raises(ExprError):
        parse_expr("x", ch2).diff(2)


# -- eval: spec examples --------------------------------------------------------------


def test_eval_substitution(ch2):
    assert parse_expr("x^2+y", ch2).eval([Fraction(2), Fraction(1)]) == 5


def test_eval_pole(ch2):
    with pytest.raises(PoleError):
        parse_expr("x/y", ch2).eval([Fraction(1), Fraction(0)])


def test_eval_zero(ch2):
    assert RatFunc.zero(ch2).eval([Fraction(7), Fraction(-2)]) == 0


# -- is_zero: spec examples -------------------------------------------------------------


def test_is_zero_commutativity(ch2):
    assert (parse_expr("x+y", ch2) - parse_expr("y+x", ch2)).is_zero


def test_is_zero_negative(ch2):
    assert not (parse_expr("x", ch2) - parse_expr("y", ch2)).is_zero


def test_is_zero_factorization(ch2):
    e = parse_expr("(x^2-y^2)/(x-y) - (x+y)", ch2)
    assert e.is_zero


# -- ring laws and properties -------------------------------------------------------------


def test_ring_laws_random():
    ch = chart("x", "y", "z")
    rng = rng_for("ring laws")
    for _ in range(60):
        a = random_poly(rng, ch, max_degree=4)
        b = random_poly(rng, ch, max_degree=4)
        c = random_poly(rng, ch, max_degree=4)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_diff_commutes_random():
    ch = chart("x", "y", "z")
    rng = rng_for("diff commutes")
    for _ in range(40):
        e = random_poly(rng, ch) / (random_poly(rng, ch) + RatFunc.const(ch, 7))
        for i in range(3):
            for j in range(i + 1, 3):
                assert e.diff(i).diff(j) == e.diff(j).diff(i)


def test_eval_is_ring_hom():
    ch = chart("x", "y")
    rng = rng_for("eval hom")
    for _ in range(40):
        a = random_poly(rng, ch)
        b = random_poly(rng, ch)
        p = [Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))]
        assert (a * b).eval(p) == a.eval(p) * b.eval(p)
        assert (a + b).eval(p) == a.eval(p) + b.eval(p)


@settings(max_examples=60, deadline=None)
@given(st.integers(-40, 40), st.integers(1, 9), st.integers(0, 4), st.integers(0, 3))
def test_print_parse_round_trip(num, den, ex, ey):
    ch = chart("x", "y")
    coeff = Fraction(num, den)
    p = Poly(ch, {(ex, ey): coeff, (0, 0): Fraction(1)})
    rf = RatFunc.from_poly(p) / parse_expr("1+x^2", ch)
    assert parse_expr(str(rf), ch) == rf


def test_round_trip_random_ratfuncs():
    ch = chart("x", "y", "z")
    rng = rng_for("round trip")
    for _ in range(40):
        num = random_poly(rng, ch)
        den = random_poly(rng, ch) * random_poly(rng, ch) + RatFunc.const(ch, 1)
        rf = num / den
        assert parse_expr(str(rf), ch) == rf


# -- gcd machinery ---------------------------------------------------------------------------


def test_gcd_cancels_common_factor():
    ch = chart("x", "y")
    x_plus_y = parse_expr("x+y", ch).as_poly()
    a = parse_expr("(x+y)*(x-y)", ch).as_poly()
    b = parse_expr("(x+y)*(x+2*y)", ch).as_poly()
    g = poly_gcd(a, b)
    assert g == x_plus_y or g == x_plus_y.scale(Fraction(-1))
    assert poly_divexact(a, g) * g == a


def test_ratfunc_reduction_and_cross_multiplication():
    ch = chart("x", "y")
    e = parse_expr("(x^2*y + x*y^2)/(x*y)", ch)
    assert e == parse_expr("x + y", ch)
    assert e.is_polynomial  # gcd reduction fired
    # equality via cross-multiplication regardless of representation
    a = parse_expr("x/(x*y)", ch)
    b = parse_expr("1/y", ch)
    assert a == b


def test_degree_cap_leaves_unreduced_but_equal():
    ch = chart("x", "y")
    big = parse_expr("(x+y)^5", ch)
    e = (big * big) / big  # degree 10 > cap: stored unreduced
    assert e == big


# -- operand-level cancellation --------------------------------------------------------------


def _top_level_gcds(monkeypatch):
    """Record the poly_gcd calls not made from inside poly_gcd."""
    calls, depth = [], [0]
    gcd = expr.poly_gcd

    def counted(a, b):
        if not depth[0]:
            calls.append((a, b))
        depth[0] += 1
        try:
            return gcd(a, b)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(expr, "poly_gcd", counted)
    return calls


def test_arithmetic_needs_no_gcd_of_the_whole_result(ch3, monkeypatch):
    f = parse_expr("(x + y)/(x*z + y + 1)", ch3)
    p = parse_expr("x^2 + z", ch3)  # shares no factor with f's denominator
    expected = [parse_expr(text, ch3) for text in (
        "(-x - y)/(x*z + y + 1)", "(x + y)^2/(x*z + y + 1)^2",
        "((x^2 + z)*(x*z + y + 1) + x + y)/(x*z + y + 1)", "(x^2 + z)*(x + y)/(x*z + y + 1)")]
    calls = _top_level_gcds(monkeypatch)
    results = [-f, f**2]
    assert calls == []
    results.append(p + f)
    assert calls == []
    results.append(p * f)
    assert len(calls) <= 1
    assert results == expected


def test_sum_cancels_a_factor_of_the_common_denominator(ch3):
    # g = gcd(x*y, x*(x + y)) = x, and t = 1*(x + y) - 1*y = x shares it
    a, b = parse_expr("1/(x*y)", ch3), parse_expr("1/(x*(x + y))", ch3)
    difference = a - b
    assert str(difference) == "1/(x*y + y^2)"
    raw = RatFunc(a.num * b.den - b.num * a.den, a.den * b.den)
    assert list(difference.num.terms.items()) == list(raw.num.terms.items())
    assert list(difference.den.terms.items()) == list(raw.den.terms.items())


@pytest.mark.parametrize("text", [
    "(x + z)/(x*z)", "(x + y)/((x + z)^2*y)", "x^2/((x + y)*(y - z)^2)", "1/(x*y*z)"])
def test_diff_never_takes_the_gcd_of_the_whole_result(ch3, monkeypatch, text):
    # within the cap, diff cancels with gcd(d, d') and gcd(t, g) only: no gcd
    # is taken with d^2, the denominator of the unreduced quotient rule
    f = parse_expr(text, ch3)
    square = f.den * f.den
    expected = [RatFunc(f.num.diff(i) * f.den - f.num * f.den.diff(i), square) for i in range(3)]
    calls = _top_level_gcds(monkeypatch)
    assert [f.diff(i) for i in range(3)] == expected
    assert calls and not any(square in pair for pair in calls)
    assert len(calls) <= 6
