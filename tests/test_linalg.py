import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from poisskit import linalg, poisson
from poisskit.expr import Poly, RatFunc, chart, parse_expr

from conftest import bareiss_det, bareiss_inverse, bareiss_solve, random_poly, rng_for


def test_rref_and_rank():
    m = [[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]]
    rows, pivots = linalg.rref(m)
    assert pivots == [0, 1]
    assert linalg.rank(m) == 2


def test_rank_matches_sympy():
    # seeded int and Fraction matrices of up to 8 x 8, some with zero rows or
    # repeated ones; the matrix with no rows has rank 0
    sympy = pytest.importorskip("sympy")
    rng = rng_for("rank against sympy")
    assert linalg.rank([]) == 0 and linalg.rank([[0, 0], [F(0), 0]]) == 0
    for _ in range(200):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        ints = [[rng.choice([0, 0, 0, rng.randint(-5, 5)]) for _ in range(cols)]
                for _ in range(rows)]
        if rng.random() < 0.3:
            ints.insert(rng.randrange(rows), [0] * cols)
        if rng.random() < 0.3:
            ints.append(list(ints[rng.randrange(rows)]))
        fractions = [[F(x, rng.randint(1, 7)) for x in row] for row in ints]
        for matrix in (ints, fractions):
            want = sympy.Matrix([[sympy.Rational(x) for x in row] for row in matrix]).rank()
            assert linalg.rank(matrix) == want == len(linalg.rref(matrix)[1])


def _no_floats(matrix):
    return not any(isinstance(x, float) for row in matrix for x in row)


def test_int_entries_stay_exact():
    rows, pivots = linalg.rref([[2, 1], [4, 3]])
    assert rows == [[1, 0], [0, 1]] and pivots == [0, 1] and _no_floats(rows)
    ker = linalg.kernel_basis([[2, 1]])
    assert ker == [[F(-1, 2), 1]] and _no_floats(ker)
    inv = linalg.mat_inverse([[2, 1], [4, 3]])
    assert inv == [[F(3, 2), F(-1, 2)], [-2, 1]] and _no_floats(inv)
    assert linalg.det([[2, 1], [1, 2]]) == 3
    assert linalg.det([[3, 1], [1, 1]]) == 2


def test_kernel_basis():
    m = [[F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    ker = linalg.kernel_basis(m)
    assert len(ker) == 1
    assert linalg.matvec(m, ker[0]) == [F(0), F(0)]


def test_kernel_of_a_matrix_with_no_rows_is_everything():
    assert linalg.kernel_basis([], ncols=3) == linalg.identity(3)


def test_inverse_and_det():
    m = [[F(2), F(1)], [F(1), F(1)]]
    inv = linalg.mat_inverse(m)
    assert linalg.matmul(m, inv) == linalg.identity(2)
    assert linalg.det(m) == 1
    assert linalg.mat_inverse([[F(1), F(2)], [F(2), F(4)]]) is None


def test_ratfunc_matrix_inverse():
    # the Bareiss oracle's RatFunc inverse
    ch = chart("x")
    x = parse_expr("x", ch)
    one = RatFunc.const(ch, 1)
    m = [[one + x, one], [RatFunc.zero(ch), one]]
    inv = bareiss_inverse(m)
    prod = linalg.matmul(m, inv)
    assert prod[0][0] == one and prod[1][1] == one
    assert prod[0][1].is_zero and prod[1][0].is_zero


def test_span_operations():
    a = [[F(1), F(0), F(0)], [F(0), F(1), F(0)]]
    b = [[F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    # span(a) meets span(b) in the line through (0, 1, 0): the line lies in
    # both, and dim(a + b) = 3 leaves it one dimension
    line = [F(0), F(1), F(0)]
    assert linalg.canonical_span(a + [line]) == linalg.canonical_span(a)
    assert linalg.canonical_span(b + [line]) == linalg.canonical_span(b)
    assert linalg.rank(a + b) == 3
    other_basis = [[F(1), F(1), F(0)], [F(1), F(-1), F(0)]]
    assert linalg.canonical_span(a) == linalg.canonical_span(other_basis)


def test_preimage_span():
    # map (x,y,z) -> (x+y, z); preimage of span{(1,0)} is {z = 0}
    m = [[F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    pre = linalg.preimage_span(m, [[F(1), F(0)]])
    assert len(pre) == 2
    for v in pre:
        assert v[2] == 0


def test_inverse_and_det_keep_the_entry_type():
    # 0 and 1 come from the matrix: the oracle's RatFunc matrices and the
    # Pfaffians of RatFunc matrices give entries of their own type, Fraction
    # matrices too, and int matrices exact Fractions from divisions
    ch = chart("x")
    x, one, zero = parse_expr("x", ch), RatFunc.const(ch, 1), RatFunc.zero(ch)
    inv = bareiss_inverse([[x, one], [zero, one]])
    assert inv == [[one / x, -one / x], [zero, one]]
    assert all(isinstance(e, RatFunc) for row in inv for e in row)
    d = bareiss_det([[x, one], [one, x]])
    assert isinstance(d, RatFunc) and d == x * x - 1
    # a singular RatFunc matrix has a RatFunc zero determinant and Pfaffian
    d = bareiss_det([[x, one], [x * x, x]])
    assert isinstance(d, RatFunc) and d.is_zero
    assert bareiss_inverse([[x, one], [x * x, x]]) is None
    pf = linalg.pfaffians([[zero, x, one], [-x, zero, x], [-one, -x, zero]])
    assert [type(pf(s)) for s in ((), (0, 2), (0, 1, 2))] == [RatFunc] * 3
    assert pf(()) == one and pf((0, 2)) == one and pf((0, 1, 2)).is_zero
    for entry in (F, int):
        m = [[entry(2), entry(1)], [entry(4), entry(3)]]
        inv = linalg.mat_inverse(m)
        assert inv == [[F(3, 2), F(-1, 2)], [-2, 1]]
        assert all(type(e) is F for row in inv for e in row)
        assert linalg.det(m) == 2 and type(linalg.det(m)) in (entry, F)
        singular = [[entry(1), entry(2)], [entry(2), entry(4)]]
        assert linalg.det(singular) == 0 and type(linalg.det(singular)) is entry


def test_cancel_removes_the_content():
    # cancelling column 0 of (1, 1, 1) against the pivot row (1, 3, 5) leaves
    # (0, -2, -4), whose content 2 is divided out
    row = {0: 1, 1: 1, 2: 1}
    linalg._cancel(row, 0, {0: 1, 1: 3, 2: 5})
    assert row == {1: -1, 2: -2}
    # the same rows scaled by fractions: the same primitive rows on entry,
    # and one division by each pivot at the end
    for matrix in ([[1, 3, 5], [1, 1, 1]], [[F(1, 2), F(3, 2), F(5, 2)], [F(-1, 3)] * 3]):
        reduced, independent = linalg.eliminate(
            [{c: x for c, x in enumerate(row)} for row in matrix])
        assert independent == [0, 1]
        assert reduced == {0: {0: 1, 2: -1}, 1: {1: 1, 2: 2}}
        assert all(type(x) is F for row in reduced.values() for x in row.values())


def _int_rows(rng, cols):
    """Sparse int rows with a zero row, a repeated row, negative entries and
    rows of content > 1 among them."""
    rows = [{}]
    for _ in range(rng.randint(2, 8)):
        content = rng.choice([1, 2, 3, 6])
        row = {c: content * rng.randint(-4, 4) for c in range(cols) if rng.random() < 0.6}
        rows.append({c: x for c, x in row.items() if x})
    rows.append(dict(rng.choice(rows[1:])))
    rng.shuffle(rows)
    return rows


def test_int_rows_eliminate_as_their_fractions():
    # all-int rows take the integer-only path on entry, their Fraction copies
    # the rational one; both give the same exact result
    rng = rng_for("int rows")
    for _ in range(60):
        rows = _int_rows(rng, rng.randint(1, 7))
        assert any(math.gcd(*r.values()) > 1 for r in rows if r)
        snapshot = [dict(r) for r in rows]
        reduced, independent = linalg.eliminate(rows)
        assert rows == snapshot
        assert all(type(x) is int for r in rows for x in r.values())
        fractions = [{c: F(x) for c, x in r.items()} for r in rows]
        assert (reduced, independent) == linalg.eliminate(fractions)
        assert linalg.echelon(rows) == linalg.echelon(fractions)
        assert rows == snapshot
        assert all(type(x) is F for row in reduced.values() for x in row.values())

def test_null_space_vectors_come_in_free_column_order_keyed_first_by_it():
    # the vectors come in ascending free-column order, each keyed first by
    # its free column, 1 there, and with its other keys at pivots, so 0 at
    # the other free columns; columns no row touches are free too.
    # linalg.kernel_vector builds the same vector for one free column
    # (test_rref_matches_sympy)
    rng = rng_for("null space contract")
    for _ in range(60):
        cols = rng.randint(1, 7)
        reduced = linalg.eliminate(_int_rows(rng, cols))[0]
        basis = linalg.null_space(reduced, cols + 2)
        free = [c for c in range(cols + 2) if c not in reduced]
        assert [next(iter(v)) for v in basis] == free
        for c, v in zip(free, basis):
            assert v[c] == 1 and type(v[c]) is F
            assert set(v) - {c} <= reduced.keys()


# three entries in four are zero, like the cohomology matrices' sparse rows
_sparse_fraction = st.one_of(
    st.just(F(0)), st.just(F(0)), st.just(F(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)
# larger numerators and denominators, so that the integer rows carry a
# nontrivial content and the final division by each pivot reduces
_wide_fraction = st.one_of(
    st.just(F(0)), st.just(F(0)),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=50),
)


def _matrices(entries):
    return st.integers(1, 7).flatmap(lambda cols: st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=1, max_size=8))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_matrices(_sparse_fraction), _matrices(_wide_fraction)))
def test_rref_matches_sympy(matrix):
    sympy = pytest.importorskip("sympy")
    sym = sympy.Matrix(
        [[sympy.Rational(e.numerator, e.denominator) for e in row] for row in matrix])
    expected, expected_pivots = sym.rref()
    rows, pivots = linalg.rref(matrix)
    assert pivots == list(expected_pivots)
    assert rows == [[F(int(e.p), int(e.q)) for e in expected.row(i)]
                    for i in range(expected.rows)]
    # the sparse core: independent rows are the pivot columns of the
    # transpose, and the sparse kernel is sympy's null space
    cols = len(matrix[0])
    sparse = [{c: x for c, x in enumerate(row) if x} for row in matrix]
    reduced, independent = linalg.eliminate(sparse)
    assert sparse == [{c: x for c, x in enumerate(row) if x} for row in matrix]
    assert independent == linalg.rref(linalg.transpose(matrix))[1]
    assert sorted(reduced) == pivots
    assert all(type(x) is F for row in reduced.values() for x in row.values())
    kernel = [[v.get(c, F(0)) for c in range(cols)] for v in linalg.null_space(reduced, cols)]
    assert kernel == linalg.kernel_basis(matrix)
    assert kernel == [[F(int(e.p), int(e.q)) for e in v] for v in sym.nullspace()]
    # the forward core alone: eliminate's pivots and independent rows, as
    # primitive integer rows keyed by their leading columns, and for each free
    # column null_space's vector by back-substitution
    pivots, forward_independent = linalg.echelon(sparse)
    assert sparse == [{c: x for c, x in enumerate(row) if x} for row in matrix]
    assert sorted(pivots) == sorted(reduced) and forward_independent == independent
    for pc, row in pivots.items():
        assert min(row) == pc and all(type(x) is int for x in row.values())
        assert math.gcd(*row.values()) == 1
    free = [c for c in range(cols) if c not in pivots]
    assert [linalg.kernel_vector(pivots, c) for c in free] == linalg.null_space(reduced, cols)
    # each row scaled to integers: same pivots, same kernel, no floats
    ints = [[int(x * math.lcm(*(e.denominator for e in row))) for x in row]
            for row in matrix]
    int_rows = [{c: x for c, x in enumerate(row) if x} for row in ints]
    reduced, independent = linalg.eliminate(int_rows)
    assert independent == linalg.eliminate(sparse)[1]
    assert all(type(x) is F for row in reduced.values() for x in row.values())
    assert linalg.kernel_basis(ints) == kernel and _no_floats(linalg.rref(ints)[0])
    assert linalg.echelon(int_rows) == (pivots, forward_independent)
    assert int_rows == [{c: x for c, x in enumerate(row) if x} for row in ints]


# -- mat_solve, mat_inverse and det against sympy -------------------------------------
#
# Square matrices of sizes 1-4, over the rationals and over QQ(x, y, z), half of
# them singular (the last row a combination of the others), and RatFunc
# entries with polynomial denominators, so that rows are cleared before the
# elimination.  sympy is an oracle only: every comparison is by value, in
# sympy's field QQ(x, y, z), and a RatFunc solve X of m X = r is checked as
# m X = r there, which fixes X when sympy's det m is nonzero.

XYZ = chart("x", "y", "z")
_rationals = st.one_of(st.integers(-5, 5),
                       st.fractions(min_value=-5, max_value=5, max_denominator=4))
_polys = st.dictionaries(st.tuples(*[st.integers(0, 1)] * 3), _rationals.filter(bool),
                         max_size=2).map(lambda t: Poly(XYZ, t))
_ratfuncs = st.one_of(_polys.map(RatFunc.from_poly), _polys.map(RatFunc.from_poly),
                      st.builds(RatFunc, _polys, _polys.filter(lambda p: not p.is_zero)))


@st.composite
def _square(draw, entries, zero):
    n = draw(st.integers(1, 4))
    m = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        weights = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
        m[-1] = [sum((w * row[j] for w, row in zip(weights, m)), zero) for j in range(n)]
    return m


def _sympy_matrix(m):
    """m as a sympy DomainMatrix over QQ(x, y, z), whose elements compare by value."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    field = sympy.QQ.frac_field(*sympy.symbols("x y z"))
    ring = field.field.ring

    def convert(e):
        if isinstance(e, RatFunc):
            return convert(e.num) / convert(e.den)
        if isinstance(e, Poly):
            return field.field(ring.from_dict(
                {exps: sympy.QQ(c.numerator, c.denominator) for exps, c in e.terms.items()}))
        return field.field(sympy.QQ(e.numerator, e.denominator))

    return DomainMatrix([[convert(e) for e in row] for row in m], (len(m), len(m)), field)


@settings(max_examples=60, deadline=None)
@given(_square(_rationals, 0))
def test_rational_inverse_and_det_match_sympy(m):
    sympy = pytest.importorskip("sympy")
    sym = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row] for row in m])
    d = linalg.det(m)
    assert d == sym.det() and type(d) in (int, F)
    inv = linalg.mat_inverse(m)
    if d == 0:
        assert inv is None
    else:
        assert inv == [[F(int(e.p), int(e.q)) for e in sym.inv().row(i)] for i in range(len(m))]
        assert all(type(e) is F for row in inv for e in row)


@settings(max_examples=30, deadline=None)
@given(_square(_ratfuncs, RatFunc.zero(XYZ)))
def test_ratfunc_inverse_and_det_match_sympy(m):
    # the Bareiss oracle, which the Pfaffian tests compare against
    sym = _sympy_matrix(m)
    d = bareiss_det(m)
    assert isinstance(d, RatFunc) and _sympy_matrix([[d]]).det() == sym.det()
    inv = bareiss_inverse(m)
    if not sym.det():
        assert inv is None
        return
    assert all(isinstance(e, RatFunc) for row in inv for e in row)
    # sym is invertible, so this pins inv down to sympy's inverse
    assert sym * _sympy_matrix(inv) == _sympy_matrix(linalg.identity(len(m)))


@st.composite
def _gauge_pair(draw):
    """Antisymmetric P over QQ(x, y, z) and W over QQ[x, y, z], as after a
    first gauge by a polynomial form; for n = 2 and one draw in two,
    W = -P^-1, which makes I + P W zero."""
    n = draw(st.integers(2, 4))
    zero = RatFunc.zero(XYZ)
    p, w = ([[zero] * n for _ in range(n)] for _ in range(2))
    for i in range(n):
        for j in range(i + 1, n):
            for matrix, entries in ((p, _ratfuncs), (w, _polys.map(RatFunc.from_poly))):
                e = draw(entries)
                matrix[i][j], matrix[j][i] = e, -e
    if n == 2 and not p[0][1].is_zero and draw(st.booleans()):
        w[0][1], w[1][0] = 1 / p[0][1], -1 / p[0][1]
    return p, w


@settings(max_examples=25, deadline=None)
@given(_gauge_pair())
def test_gauge_matrix_matches_sympy(pw):
    p, w = pw
    sym_p = _sympy_matrix(p)
    m = _sympy_matrix(linalg.identity(len(p))) + sym_p * _sympy_matrix(w)
    ours = poisson.gauge_matrix(p, w)
    if not m.det():
        assert ours is None
        return
    assert m * _sympy_matrix(ours) == sym_p


def test_mat_solve_clears_polynomial_denominators():
    # outputs recorded from the RatFunc Gauss-Jordan the Bareiss oracle replaced
    x, y = parse_expr("x", XYZ), parse_expr("y", XYZ)
    m = [[1 / (1 + x), y], [x, 1 / (y - 1)]]
    den = "(x^2*y^2 - x^2*y + x*y^2 - x*y - 1)"
    assert [[str(e) for e in row] for row in bareiss_inverse(m)] == [
        [f"(-x - 1)/{den}", f"(x*y^2 - x*y + y^2 - y)/{den}"],
        [f"(x^2*y - x^2 + x*y - x)/{den}", f"(-y + 1)/{den}"]]
    assert str(bareiss_det(m)) == "(-x^2*y^2 + x^2*y - x*y^2 + x*y + 1)/(x*y - x + y - 1)"
    assert bareiss_solve(m, [[x], [y]]) == [[e] for e in linalg.matvec(
        bareiss_inverse(m), [x, y])]


# -- pfaffians against the rational det and inverse -------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_pfaffian_squared_is_the_determinant(n):
    # seeded antisymmetric matrices of polynomials, and of RatFuncs with
    # first rows over 1 + h^2, at seeded rational points: Pf(A)^2 = det(A)
    # by the rational det, and (A^-1)_ij = (-1)^(i+j) Pf(A_(i^ j^)) / Pf(A)
    # for i < j by the rational inverse.  Cleared to X / a, Pf(X) = Pf(A)
    # a^(n/2) over Poly
    rng = rng_for(f"pfaffian/{n}")
    zero, full = RatFunc.zero(XYZ), tuple(range(n))
    for rational in (False, True) * 2:
        a = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                e = random_poly(rng, XYZ, 2)
                if rational and i == 0:
                    e = e / (random_poly(rng, XYZ, 1, 2) ** 2 + 1)
                a[i][j], a[j][i] = e, -e
        pf = linalg.pfaffians(a)
        x, scale = linalg._cleared_matrix(a)
        assert RatFunc.from_poly(linalg.pfaffians(x)(full)) == \
            pf(full) * RatFunc.from_poly(scale ** (n // 2))
        for _ in range(3):
            point = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
            at = [[e.eval(point) for e in row] for row in a]
            value = pf(full).eval(point)
            assert value ** 2 == linalg.det(at)
            if value:
                inverse = linalg.mat_inverse(at)
                assert all(inverse[i][j] == (-1) ** (i + j) * pf(
                    full[:i] + full[i + 1:j] + full[j + 1:]).eval(point) / value
                    for i in range(n) for j in range(i + 1, n))
