from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from poisskit import expr
from poisskit.expr import (
    ChartMismatchError,
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

from conftest import random_poly, rng_for, scan_divide


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
    with pytest.raises(ParseError) as err:
        parse_expr("x^²", ch2)  # a digit that int() does not read
    assert err.value.pos == 2


@pytest.mark.parametrize("text", ["(" * 5000 + "x" + ")" * 5000, "-" * 5000 + "x"])
def test_deep_nesting_is_a_parse_error(ch2, text):
    with pytest.raises(ParseError, match="expression nested too deeply"):
        parse_expr(text, ch2)


def test_moderate_nesting_still_parses(ch2):
    assert parse_expr("(" * 200 + "x" + ")" * 200, ch2) == parse_expr("x", ch2)
    assert parse_expr("-" * 200 + "x", ch2) == parse_expr("x", ch2)


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


# -- exact division and the constant fast paths -----------------------------------------


def _random_terms(rng, nvars, nterms, fractions):
    """nterms terms in nvars variables, with int or Fraction coefficients."""
    top = 30 // nvars + 1  # room for 30 distinct exponents
    out = {}
    while len(out) < nterms:
        c = rng.choice([-3, -2, -1, 1, 2, 5])
        out[tuple(rng.randint(0, top) for _ in range(nvars))] = (
            Fraction(c, rng.randint(1, 4)) if fractions else c)
    return out


def _layout(p):
    """The terms of p in dict order, each with its coefficient's type."""
    return [(e, type(c), c) for e, c in p.items()]


def test_heap_division_matches_the_scan():
    rng = rng_for("heap-division")
    for case in range(80):
        nvars, fractions = rng.randint(1, 5), case % 2 == 1
        ch = chart(*"xyzuv"[:nvars])
        a, b = (Poly(ch, _random_terms(rng, nvars, rng.randint(1, 30), fractions))
                for _ in range(2))
        ab = a * b
        got = poly_divexact(ab, b)
        assert _layout(got.terms) == _layout(scan_divide(ab.terms, b.terms, expr._quotient))
        assert got == a
        if not fractions:
            assert _layout(expr._int_divide(ab.terms, b.terms)) == _layout(
                scan_divide(ab.terms, b.terms, expr._int_quotient))


@pytest.mark.parametrize("a,b", [
    ("x^2*y + x + 1", "x*y + 1"),  # a remainder of 1 is left
    ("x*y", "y^2"),                # the first exponent of the quotient goes negative
], ids=["remainder", "negative-exponent"])
def test_inexact_division_raises(ch2, a, b):
    a, b = (parse_expr(text, ch2).as_poly() for text in (a, b))
    for divide in (poly_divexact, lambda a, b: scan_divide(a.terms, b.terms, expr._quotient)):
        with pytest.raises(ExprError, match="inexact"):
            divide(a, b)
    assert expr._int_divide(a.terms, b.terms) is None


@pytest.mark.parametrize("terms,constant", [
    ({}, True),
    ({(0, 0): Fraction(-3, 2)}, True),
    ({(0, 0): 1, (1, 0): 2}, False),  # a constant term first
    ({(0, 1): 5}, False),
], ids=["zero", "constant", "with-constant-term", "monomial"])
def test_is_constant(ch2, terms, constant):
    assert Poly(ch2, terms).is_constant is constant


def test_equal_charts_combine_and_different_charts_raise():
    x, y = Poly.var(chart("x", "y"), 0), Poly.var(chart("x", "y"), 1)
    assert x.chart is not y.chart and x.chart == y.chart
    assert [str(v) for v in (x + y, x - y, x * y, RatFunc(x, y))] == [
        "x + y", "x - y", "x*y", "x/(y)"]
    z = Poly.var(chart("x", "z"), 1)
    for combine in (lambda: x + z, lambda: x - z, lambda: x * z, lambda: RatFunc(x, z)):
        with pytest.raises(ChartMismatchError):
            combine()


def test_ratfunc_over_one_keeps_the_pair(ch2):
    # terms out of graded-lex order, and the zero polynomial
    for terms in ({(0, 0): 3, (2, 0): 1, (1, 1): Fraction(1, 2)}, {}):
        p = Poly(ch2, terms)
        r = RatFunc(p, Poly.const(ch2, 1))
        assert _layout(r.num.terms) == _layout(p.terms)
        assert _layout(r.den.terms) == [((0, 0), int, 1)]
    # any other constant is divided out
    r = RatFunc(Poly.var(ch2, 0), Poly.const(ch2, -2))
    assert _layout(r.num.terms) == [((1, 0), Fraction, Fraction(-1, 2))]
    assert _layout(r.den.terms) == [((0, 0), int, 1)]


# -- gcd machinery ---------------------------------------------------------------------------


def test_gcd_cancels_common_factor():
    ch = chart("x", "y")
    x_plus_y = parse_expr("x+y", ch).as_poly()
    a = parse_expr("(x+y)*(x-y)", ch).as_poly()
    b = parse_expr("(x+y)*(x+2*y)", ch).as_poly()
    g = poly_gcd(a, b)
    assert g == x_plus_y or g == x_plus_y.scale(Fraction(-1))
    assert poly_divexact(a, g) * g == a


def test_gcd_where_the_prs_gives_up(ch3):
    # a primitive PRS abandons this gcd: a content gcd inside it reaches
    # degree 17, past the size guard.  The heuristic reduces the pair
    a = parse_expr("(y^2*z + 1)*(y^2*z^2 + 1)", ch3).as_poly()
    b = parse_expr("(y^2*z + 1)*(x^2*y^2*z + x*z^2 + 1)", ch3).as_poly()
    assert str(poly_gcd(a, b)) == "y^2*z + 1"
    assert str(RatFunc(a, b)) == "(y^2*z^2 + 1)/(x^2*y^2*z + x*z^2 + 1)"


def test_gcd_of_an_unreduced_sum(ch3):
    # numerator and denominator of 30 and 35 terms: a primitive PRS runs for
    # minutes on this pair
    a = parse_expr("(48*x^2 + 24*x*y - 240*x*z - 96*x)/(60*x^2 + 27*x*y + 75/2*x*z - 60*y^2"
                   " + 93*y*z - 45/2*z^2 + 189*x + 144*y - 9*z + 108)", ch3)
    b = parse_expr("(-55/2*x*z + 22*y*z - 55/2*z^2 - 66*z)/(24*x^2 + 42*x*y - 129*x*z"
                   " + 15*y^2 - 309/2*y*z + 45*z^2 - 30*x - 51*y - 72*z - 36)", ch3)
    num, den = a.num * b.den + b.num * a.den, a.den * b.den
    assert (len(num.terms), len(den.terms)) == (30, 35)
    assert str(poly_gcd(num, den)) == "8*x + 10*y - 3*z + 6"
    whole = RatFunc(num, den)
    assert whole == a + b and str(whole) == str(a + b)


def test_heuristic_reads_the_gcd_off_a_cofactor(ch3, monkeypatch):
    # at the first evaluation point, the innermost candidate read off the
    # image gcd fails the division check, and the one read off the first
    # input's cofactor passes it, so one point is enough
    monkeypatch.setattr(expr, "HEU_GCD_TRIES", 1)
    a = parse_expr("-36*x*y^4*z - 48*x^2*y^2", ch3).as_poly()
    b = parse_expr("24*x*y^4*z^3 + 32*x^2*y^2*z^2", ch3).as_poly()
    h = expr._heu_gcd(expr._integral(a), expr._integral(b))
    assert h is not None
    assert str(expr._normalize_gcd(Poly(ch3, h))) == "3*x*y^4*z + 4*x^2*y^2"


def test_ratfunc_reduction_and_cross_multiplication():
    ch = chart("x", "y")
    e = parse_expr("(x^2*y + x*y^2)/(x*y)", ch)
    assert e == parse_expr("x + y", ch)
    assert e.is_polynomial  # gcd reduction fired
    # equality via cross-multiplication regardless of representation
    a = parse_expr("x/(x*y)", ch)
    b = parse_expr("1/y", ch)
    assert a == b


def test_high_degree_results_are_reduced():
    ch = chart("x", "y")
    big = parse_expr("(x+y)^5", ch)
    e = (big * big) / big  # degree 10 over degree 5
    assert (e.num, e.den) == (big.num, big.den)
    assert str(parse_expr("x^9/(x^9*y)", ch)) == "1/(y)"


def test_exact_division_reduces_above_the_size_guard():
    ch = chart("x", "y")
    p, q = (parse_expr(text, ch).as_poly() for text in ("(x + y + 1)^9", "(x - 2*y + 3)^9"))
    assert (p * q).total_degree() == 18 > 2 * expr.GCD_DEGREE_CAP
    with pytest.raises(expr._GcdTooExpensive):
        poly_gcd(p * q, q)
    e = RatFunc(p * q, q)
    assert e.num == p and e.den == Poly.const(ch, 1)


# -- operand-level cancellation --------------------------------------------------------------


def _recorded_gcds(monkeypatch):
    """Record the poly_gcd calls; poly_gcd does not call itself."""
    calls = []
    gcd = expr.poly_gcd

    def counted(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(expr, "poly_gcd", counted)
    return calls


def test_arithmetic_needs_no_gcd_of_the_whole_result(ch3, monkeypatch):
    f = parse_expr("(x + y)/(x*z + y + 1)", ch3)
    p = parse_expr("x^2 + z", ch3)  # shares no factor with f's denominator
    expected = [parse_expr(text, ch3) for text in (
        "(-x - y)/(x*z + y + 1)", "(x + y)^2/(x*z + y + 1)^2",
        "((x^2 + z)*(x*z + y + 1) + x + y)/(x*z + y + 1)", "(x^2 + z)*(x + y)/(x*z + y + 1)")]
    calls = _recorded_gcds(monkeypatch)
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
    calls = _recorded_gcds(monkeypatch)
    assert [f.diff(i) for i in range(3)] == expected
    assert calls and not any(square in pair for pair in calls)
    assert len(calls) <= 6
