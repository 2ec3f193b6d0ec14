import itertools
from fractions import Fraction as F

import pytest

from poisskit import liealg, poisson
from poisskit.expr import RatFunc, chart, parse_expr
from poisskit.liealg import (
    LieAlgebraError,
    affine_poisson,
    algebroid_dual_poisson,
    bialgebra_check,
    cyb_check,
    dual_chart,
    dual_map,
    is_basis_span_ideal,
    is_basis_span_subalgebra,
    lie_from_constants,
    lie_poisson,
    modular_character,
)
from poisskit.multivec import DiffForm, MultiVec
from poisskit.poisson import hamiltonian_vf, is_poisson_map, modular_vf

from conftest import (
    alg_schouten,
    bialgebra_oracle,
    cyb_oracle,
    ext_wedge,
    gl_triples,
    jacobi_failure,
    rng_for,
)

SO3 = [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1)]
# susb presentation: [e1,e2] = e2, [e1,e3] = e3
BOOK = [(0, 1, 1, 1), (0, 2, 2, 1)]


def so3():
    return lie_from_constants(3, SO3)


def book():
    return lie_from_constants(3, BOOK)


def heisenberg():
    return lie_from_constants(3, [(0, 1, 2, 1)])


def sl2r_variant():
    return lie_from_constants(3, [(0, 1, 2, -1), (1, 2, 0, 1), (2, 0, 1, 1)])


def abelian(n):
    return lie_from_constants(n, [])


ZOO = [so3, book, heisenberg, sl2r_variant, lambda: abelian(3)]


# -- construction -----------------------------------------------------------------


def test_so3_valid():
    g = so3()
    assert g.constants[0][1] == (F(0), F(0), F(1))
    assert g.constants[1][2] == (F(1), F(0), F(0))


def test_book_valid():
    g = book()
    assert g.constants[0][1] == (F(0), F(1), F(0))
    assert g.constants[1][2] == (F(0), F(0), F(0))


def test_jacobi_violation_reported():
    # [e1,e2]=e3, [e1,e3]=e3, [e2,e3]=e1 fails Jacobi: the cyclic sum on
    # (e1,e2,e3) is -[e2,e3] = -e1
    with pytest.raises(LieAlgebraError) as err:
        lie_from_constants(3, [(0, 1, 2, 1), (0, 2, 2, 1), (1, 2, 0, 1)])
    assert "Jacobi" in str(err.value)
    assert err.value.indices is not None


def test_jacobi_check_agrees_with_the_jacobiator_oracle():
    # lie_from_constants raises exactly when the quadruple loop over the
    # Jacobiator finds a failure, at the same (i,j,k,m)
    rng = rng_for("jacobi-oracle")
    outcomes = []
    for _ in range(300):
        dim = rng.randint(2, 5)
        triples = [(i, j, k, rng.choice([1, -1, 2, -2, F(1, 2)]))
                   for i, j in itertools.combinations(range(dim), 2)
                   for k in range(dim) if rng.random() < 0.25]
        expected = jacobi_failure(dim, triples)
        outcomes.append(expected is None)
        if expected is None:
            assert lie_from_constants(dim, triples).dim == dim
            continue
        with pytest.raises(LieAlgebraError) as err:
            lie_from_constants(dim, triples)
        assert str(err.value) == "Jacobi identity fails at (i,j,k,m)=({},{},{},{})".format(*expected)
        assert err.value.indices == expected
    assert outcomes.count(True) > 50 and outcomes.count(False) > 50


def test_a_lie_algebra_is_checked_with_one_verify(monkeypatch):
    # gl(3): the Jacobi identity is one [pi_g, pi_g] = 0 check
    calls, original = [], poisson.verify
    for module in (poisson, liealg):
        monkeypatch.setattr(module, "verify", lambda pi: calls.append(pi) or original(pi))
    g = lie_from_constants(9, gl_triples(3))
    [pi] = calls
    assert pi == lie_poisson(g).pi and lie_poisson(g).verified


def test_antisymmetry_violation_reported():
    # a nonzero [e_i, e_i] can never be antisymmetric
    with pytest.raises(LieAlgebraError) as err:
        lie_from_constants(2, [(0, 0, 1, 1)])
    assert "antisymmetry" in str(err.value)
    assert err.value.indices == (0, 0, 1)


# -- Lie-Poisson structures ----------------------------------------------------------


def test_lie_poisson_so3_bivector():
    ch = chart("x", "y", "z")
    ps = lie_poisson(so3(), ch)
    assert ps.verified
    assert str(ps.pi) == "z d/dx^d/dy + (-y) d/dx^d/dz + x d/dy^d/dz"


def test_lie_poisson_abelian_zero():
    ps = lie_poisson(abelian(3))
    assert ps.pi.is_zero


def test_lie_poisson_book_relabeled():
    # [e1,e3]=e1, [e2,e3]=e2 gives x dx^dz + y dy^dz on the dual chart
    g = lie_from_constants(3, [(0, 2, 0, 1), (1, 2, 1, 1)])
    ch = chart("x", "y", "z")
    ps = lie_poisson(g, ch)
    assert ps.pi == MultiVec(ch, 2, {
        (0, 2): parse_expr("x", ch),
        (1, 2): parse_expr("y", ch),
    })


def test_lie_poisson_zoo_verified():
    for make in ZOO:
        assert lie_poisson(make()).verified


# -- coadjoint fields: Hamiltonian fields of linear functions ------------------------


def test_coadjoint_so3_e3():
    ch = chart("x", "y", "z")
    field = hamiltonian_vf(lie_poisson(so3(), ch), parse_expr("z", ch))
    assert field == MultiVec(ch, 1, {
        (0,): parse_expr("y", ch),
        (1,): parse_expr("-x", ch),
    })


def test_coadjoint_abelian_zero():
    ps = lie_poisson(abelian(3))
    assert hamiltonian_vf(ps, parse_expr("x1+2*x2+3*x3", ps.chart)).is_zero


def test_coadjoint_zero_element():
    ps = lie_poisson(so3())
    assert hamiltonian_vf(ps, RatFunc.zero(ps.chart)).is_zero


def test_coadjoint_matches_hamiltonian_on_basis():
    # the field of x_i has d/dx_j component {x_i, x_j} = sum_k c_ijk x_k
    for make in ZOO:
        g = make()
        ps = lie_poisson(g)
        ch = ps.chart
        for i in range(g.dim):
            expected = MultiVec(ch, 1, {(j,): sum((RatFunc.const(ch, g.c(i, j, k)) * RatFunc.var(ch, k)
                                                   for k in range(g.dim)), RatFunc.zero(ch))
                                        for j in range(g.dim)})
            assert hamiltonian_vf(ps, RatFunc.var(ch, i)) == expected


# -- cocycles and affine structures ------------------------------------------------------


def is_cocycle(g, lam):
    try:
        return affine_poisson(g, lam).verified
    except LieAlgebraError as err:
        assert str(err) == "not a 2-cocycle; affine structure would fail Jacobi"
        return False


def test_cocycle_abelian_anything():
    assert is_cocycle(abelian(3), {(0, 1): F(2), (1, 2): F(-1)})


def test_cocycle_so3_e1e2():
    # cyclic sum on (e1,e2,e3) is lam(e1,e1)+lam(e3,e3)+lam(e2,e2) = 0, so
    # this IS a cocycle (it is the coboundary of -e3*)
    assert is_cocycle(so3(), {(0, 1): F(1)})


def test_cocycle_book_negative():
    # book bracket: the cyclic sum on (e1,e2,e3) evaluates to -2
    assert not is_cocycle(book(), {(1, 2): F(1)})


def test_cocycle_zero():
    assert is_cocycle(so3(), {})


def aff1():
    return lie_from_constants(2, [(0, 1, 1, 1)])


def gl2():
    # basis E11, E12, E21, E22 of 2x2 matrices, [A, B] = AB - BA
    return lie_from_constants(4, [(0, 1, 1, 1), (0, 2, 2, -1), (1, 2, 0, 1),
                                  (1, 2, 3, -1), (1, 3, 1, 1), (2, 3, 2, -1)])


def _cyclic_sum_vanishes(g, lam):
    """lam(u1,[u2,u3]) + lam(u3,[u1,u2]) + lam(u2,[u3,u1]) = 0 on all basis
    triples, with lam evaluated as a 2-form on coefficient vectors."""
    def value(i, v):
        # lam(e_i, v)
        return sum((c * ((a == i) * v[b] - (b == i) * v[a])
                    for (a, b), c in lam.items()), F(0))

    c = g.constants
    return all(
        value(i, c[j][k]) + value(k, c[i][j]) + value(j, c[k][i]) == 0
        for i, j, k in itertools.combinations(range(g.dim), 3)
    )


def test_cocycle_agrees_with_cyclic_sum_on_random_cochains():
    rng = rng_for("cocycle")
    verdicts = []
    for make in (so3, book, aff1, heisenberg, gl2):
        g = make()
        for _ in range(40):
            lam = {idx: F(rng.randint(-2, 2)) for idx in itertools.combinations(range(g.dim), 2)
                   if rng.random() < 0.5}
            verdict = is_cocycle(g, lam)
            assert verdict == _cyclic_sum_vanishes(g, lam)
            verdicts.append(verdict)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 20


def test_elements_of_another_algebra_are_rejected():
    # r and lam are {(a, b): value} tables on the basis pairs a < b of the
    # algebra; any other key, such as the (2, 3) of a 4-dimensional algebra,
    # is named, and a cobracket triple goes through lie_from_constants' checks
    g = so3()
    for key in [(2, 3), (1, 0), (1, 1), (-1, 2), (0, 1, 2), (0,), 5]:
        for check in (cyb_check, affine_poisson):
            with pytest.raises(LieAlgebraError, match="is not a basis pair") as err:
                check(g, {(0, 1): F(1), key: F(1)})
            assert repr(key) in str(err.value) and err.value.indices == key
    with pytest.raises(LieAlgebraError, match="out of range for dimension 3"):
        bialgebra_check(g, [(0, 1, 3, 1)])
    with pytest.raises(LieAlgebraError, match="antisymmetry fails"):
        bialgebra_check(g, [(1, 1, 0, 1)])


def test_affine_trivial_cocycle():
    g = so3()
    assert affine_poisson(g, {}).pi == lie_poisson(g).pi


def test_affine_abelian_constant():
    ps = affine_poisson(abelian(2), {(0, 1): F(1)})
    assert ps.verified
    assert ps.pi.coeff((0, 1)) == RatFunc.const(ps.chart, 1)


def test_affine_so3_shift():
    ps = affine_poisson(so3(), {(0, 1): F(1)})
    assert ps.verified
    assert ps.pi.coeff((0, 1)) == parse_expr("x3+1", ps.chart)


def test_affine_rejects_non_cocycle():
    with pytest.raises(LieAlgebraError):
        affine_poisson(book(), {(1, 2): F(1)})


def test_an_algebra_is_squared_once(monkeypatch):
    # lie_from_constants checks Jacobi; the calls on the algebra it returns
    # square only the bivector they are about, or nothing: affine_poisson
    # pi_g + lam, bialgebra_check the double's, and cyb_check the double's of
    # delta_r unless r# already shows [r, r] = 0
    g, b = so3(), book()
    squares = []
    real = poisson.schouten
    monkeypatch.setattr(poisson, "schouten", lambda a, b: squares.append(a) or real(a, b))
    affine_poisson(g, {(0, 1): F(1)})
    assert len(squares) == 1
    for triples in ([], SO3, BOOK):
        bialgebra_check(g, triples)
        assert len(squares) == 2
        assert squares.pop().chart.dim == 6
    assert cyb_check(g, {(1, 2): F(2)}) == "coboundary" and len(squares) == 2
    assert cyb_check(b, {(1, 2): F(1)}) == "triangular" and len(squares) == 2


# -- the oracle's exterior algebra ------------------------------------------------------------


def test_alg_multivec_wedge():
    e1, e2, e3 = ({(i,): F(1)} for i in range(3))
    assert ext_wedge(ext_wedge(e1, e2), e3) == {(0, 1, 2): F(1)}
    assert ext_wedge(e3, ext_wedge(e1, e2)) == {(0, 1, 2): F(1)}
    # graded commutativity: a ^ b = (-1)^(deg a deg b) b ^ a
    a = {(0, 1): F(2), (0, 2): F(1, 3), (1, 2): F(-1)}
    assert ext_wedge(a, e1) == ext_wedge(e1, a)
    assert ext_wedge(e1, e2) == {idx: -c for idx, c in ext_wedge(e2, e1).items()}
    assert ext_wedge(e3, a) == {(0, 1, 2): F(2)}
    # zero above the dimension, and on a repeated index
    assert ext_wedge(a, a) == {} and ext_wedge(e2, e2) == {}


# -- the oracle's algebraic Schouten bracket ----------------------------------------------------


def test_alg_schouten_is_lie_bracket_degree_one():
    assert alg_schouten(so3().constants, {(0,): F(1)}, {(1,): F(1)}) == {(2,): F(1)}


def test_alg_schouten_abelian_zero():
    a = {(0, 1): F(2), (2, 3): F(1)}
    assert alg_schouten(abelian(4).constants, a, a) == {}


def test_alg_schouten_su2_r_matrix():
    # r = 2 e2^e3: expanding the Leibniz rule over basis terms by hand gives
    # [e2^e3, e2^e3] = 2 e1^e2^e3, so [r,r] = 8 e1^e2^e3
    r = {(1, 2): F(2)}
    assert alg_schouten(so3().constants, r, r) == {(0, 1, 2): F(8)}


def test_alg_schouten_graded_jacobi_random():
    rng = rng_for("alg jacobi")
    c = lie_from_constants(4, [(0, 1, 2, 1)]).constants  # heisenberg + center

    def scaled(x, sign):
        return {idx: sign * v for idx, v in x.items()}

    def plus(*xs):
        out = {}
        for x in xs:
            for idx, v in x.items():
                out[idx] = out.get(idx, 0) + v
        return {idx: v for idx, v in out.items() if v}

    for _ in range(30):
        def rand(k):
            return {idx: F(rng.randint(-2, 2)) for idx in itertools.combinations(range(4), k)
                    if rng.random() < 0.7}
        k, l, m = (rng.choice([1, 2]) for _ in range(3))
        x, y, z = plus(rand(k)), plus(rand(l)), plus(rand(m))
        sign = -1 if ((k - 1) * (l - 1)) % 2 else 1
        assert alg_schouten(c, x, y) == scaled(alg_schouten(c, y, x), -sign)
        t1 = scaled(alg_schouten(c, x, alg_schouten(c, y, z)), -1 if ((k - 1) * (m - 1)) % 2 else 1)
        t2 = scaled(alg_schouten(c, z, alg_schouten(c, x, y)), -1 if ((m - 1) * (l - 1)) % 2 else 1)
        t3 = scaled(alg_schouten(c, y, alg_schouten(c, z, x)), -1 if ((l - 1) * (k - 1)) % 2 else 1)
        assert plus(t1, t2, t3) == {}
        # Leibniz against the wedge
        w = plus(rand(1))
        sign2 = -1 if ((k - 1) * l) % 2 else 1
        assert alg_schouten(c, x, ext_wedge(y, w)) == plus(
            ext_wedge(alg_schouten(c, x, y), w), scaled(ext_wedge(y, alg_schouten(c, x, w)), sign2))


# -- classical Yang-Baxter -----------------------------------------------------------------------


def test_cyb_zero_triangular():
    assert cyb_check(so3(), {}) == "triangular"


def test_cyb_su2_coboundary():
    assert cyb_check(so3(), {(1, 2): F(2)}) == "coboundary"


def test_cyb_book_triangular():
    # e2, e3 span an abelian ideal, so [r,r] = 0 exactly
    assert cyb_check(book(), {(1, 2): F(1)}) == "triangular"


def test_cyb_neither():
    # in an unimodular 3-dim algebra every trivector is ad-invariant, so a
    # "neither" needs a nonzero modular character: take [e3,e1] = e1,
    # [e3,e2] = 2 e2.  Hand expansion gives [r,r] = 2 e1^e2^e3 for
    # r = e1^e2 + e1^e3 + e2^e3, and ad_{e3} scales e1^e2^e3 by tr(ad_{e3}) = 3.
    g = lie_from_constants(3, [(2, 0, 0, 1), (2, 1, 1, 2)])
    r = {(0, 1): F(1), (0, 2): F(1), (1, 2): F(1)}
    assert alg_schouten(g.constants, r, r) == {(0, 1, 2): F(2)}
    assert cyb_check(g, r) == "neither"


# -- bialgebras ---------------------------------------------------------------------------------


def test_bialgebra_zero_cobracket():
    for make in ZOO:
        rep = bialgebra_check(make(), [])
        assert rep.dual_jacobi and rep.compat and rep.ok


def test_bialgebra_abelian_any_dual_bracket():
    rep = bialgebra_check(abelian(3), SO3)
    assert rep.dual_jacobi and rep.compat


def test_bialgebra_su2_book():
    rep = bialgebra_check(so3(), BOOK)
    assert rep.dual_jacobi and rep.compat


def test_bialgebra_failure_modes():
    # delta dual to so3 itself: dual_jacobi holds but compatibility fails
    rep = bialgebra_check(so3(), SO3)
    assert rep.dual_jacobi
    assert not rep.compat and not rep.ok
    assert rep.failure == "compatibility fails on basis pair (0,1)"
    # a dual bracket that fails Jacobi is named as lie_from_constants names it
    broken = [(0, 1, 2, 1), (0, 2, 2, 1), (1, 2, 0, 1)]
    rep = bialgebra_check(abelian(3), broken)
    assert not rep.dual_jacobi and rep.compat
    with pytest.raises(LieAlgebraError) as err:
        lie_from_constants(3, broken)
    assert rep.failure == str(err.value)


# -- the checks against the algebraic Schouten oracle, on random cases ------------------------------


@pytest.fixture(scope="module")
def algebras():
    """The zoo, aff1, gl2, abelian(2) and abelian(4), the "neither" algebra of
    ``test_cyb_neither``, and random sparse tables of dimension 2 to 4 that
    pass ``jacobi_failure``."""
    rng = rng_for("algebra pool")
    pool = [make() for make in ZOO] + [aff1(), gl2(), abelian(2), abelian(4),
                                       lie_from_constants(3, [(2, 0, 0, 1), (2, 1, 1, 2)])]
    while len(pool) < 30:
        dim = rng.randint(2, 4)
        triples = random_triples(rng, dim, 0.25)
        if jacobi_failure(dim, triples) is None:
            pool.append(lie_from_constants(dim, triples))
    return pool


def random_triples(rng, dim, density):
    return [(i, j, k, rng.choice([1, -1, 2, F(1, 2)]))
            for i, j in itertools.combinations(range(dim), 2)
            for k in range(dim) if rng.random() < density]


def test_bialgebra_check_agrees_with_the_schouten_oracle(algebras):
    # the cobracket is zero, dual to an algebra of the pool, the coboundary
    # e_i -> [e_i, r] of a random r, or random triples: every pair
    # (dual_jacobi, compat) comes up, and the failure text is the old one
    rng = rng_for("bialgebra oracle")
    verdicts = []
    for _ in range(400):
        g = rng.choice(algebras)
        kind = rng.randrange(4)
        if kind == 0:
            triples = []
        elif kind == 1:
            h = rng.choice([h for h in algebras if h.dim == g.dim])
            triples = [(a, b, k, h.c(a, b, k))
                       for a, b in itertools.combinations(range(g.dim), 2) for k in range(g.dim)]
        elif kind == 2:
            r = {pair: F(rng.randint(-2, 2)) for pair in itertools.combinations(range(g.dim), 2)}
            triples = [(a, b, i, v) for i in range(g.dim)
                       for (a, b), v in alg_schouten(g.constants, {(i,): 1}, r).items()]
        else:
            triples = random_triples(rng, g.dim, 0.3)
        rep = bialgebra_check(g, triples)
        assert (rep.dual_jacobi, rep.compat, rep.failure) == bialgebra_oracle(g.constants, triples)
        verdicts.append((rep.dual_jacobi, rep.compat))
    assert all(verdicts.count(pair) >= 10 for pair in itertools.product((True, False), repeat=2))


def test_cyb_check_agrees_with_the_schouten_oracle(algebras):
    rng = rng_for("cyb oracle")
    verdicts = []
    for _ in range(400):
        g = rng.choice(algebras)
        r = {pair: F(value) for pair in itertools.combinations(range(g.dim), 2)
             if (value := rng.choice([0, 0, 1, -1, 2]))}
        verdict = cyb_check(g, r)
        assert verdict == cyb_oracle(g.constants, r)
        verdicts.append(verdict)
    assert all(verdicts.count(v) >= 20 for v in ("triangular", "coboundary", "neither"))


# -- modular character ---------------------------------------------------------------------------


def test_modular_character_so3():
    assert modular_character(so3()) == [F(0), F(0), F(0)]


def test_modular_character_book():
    assert modular_character(book()) == [F(2), F(0), F(0)]


def test_modular_character_abelian():
    assert modular_character(abelian(4)) == [F(0)] * 4


def test_modular_field_equals_character():
    for make in ZOO:
        g = make()
        ps = lie_poisson(g)
        ch = ps.chart
        volume = DiffForm(ch, g.dim, {tuple(range(g.dim)): RatFunc.const(ch, 1)})
        chi = modular_character(g)
        expected = MultiVec(ch, 1, {
            (i,): RatFunc.const(ch, chi[i]) for i in range(g.dim) if chi[i]
        })
        assert modular_vf(ps, volume) == expected


# -- Lie algebroid dual charts ----------------------------------------------------------------------


def test_algebroid_identity_anchor_canonical():
    base = chart("x1", "x2")
    rho = [[RatFunc.const(base, 1), RatFunc.zero(base)],
           [RatFunc.zero(base), RatFunc.const(base, 1)]]
    pi = algebroid_dual_poisson(base, ["xi1", "xi2"], rho, {})
    assert poisson.verify(pi).verified
    assert poisson.rank_at(pi, [F(0)] * 4) == 4  # nondegenerate


def test_algebroid_point_base_recovers_lie_poisson():
    base = chart("s")
    zero = RatFunc.zero(base)
    rho = [[zero, zero, zero]]
    c = {
        (0, 1, 2): RatFunc.const(base, 1),
        (1, 2, 0): RatFunc.const(base, 1),
        (2, 0, 1): RatFunc.const(base, 1),
    }
    pi = algebroid_dual_poisson(base, ["a", "b", "c"], rho, c)
    assert poisson.verify(pi).verified
    # fiber-fiber coefficients are the so(3) linear structure in (a, b, c)
    assert pi.coeff((1, 2)) == RatFunc.var(pi.chart, 3)


def test_algebroid_scaled_so3_is_still_poisson():
    # c_123 -> x1 with zero anchor: pointwise a rescaled so(3), hence a bundle
    # of Lie algebras; the jacobiator expansion on coordinate triples is zero
    base = chart("x1")
    zero = RatFunc.zero(base)
    rho = [[zero, zero, zero]]
    c = {
        (0, 1, 2): parse_expr("x1", base),
        (1, 2, 0): RatFunc.const(base, 1),
        (2, 0, 1): RatFunc.const(base, 1),
    }
    pi = algebroid_dual_poisson(base, ["a", "b", "c"], rho, c)
    assert poisson.verify(pi).verified


def test_algebroid_detects_jacobi_failure():
    # genuinely broken fiber bracket: [e1,e2]=e3, [e1,e3]=e3, [e2,e3]=e1
    base = chart("x1")
    zero = RatFunc.zero(base)
    rho = [[zero, zero, zero]]
    c = {
        (0, 1, 2): RatFunc.const(base, 1),
        (0, 2, 2): RatFunc.const(base, 1),
        (1, 2, 0): RatFunc.const(base, 1),
    }
    pi = algebroid_dual_poisson(base, ["a", "b", "c"], rho, c)
    ps = poisson.verify(pi)
    assert not ps.verified and ps.schouten_square is not None


def test_algebroid_anchor_compatibility_failure():
    # nonzero anchor with x-dependent constants that violate the Leibniz
    # compatibility: rho = d/dx1 for xi1, c_121 = 1
    base = chart("x1")
    one = RatFunc.const(base, 1)
    zero = RatFunc.zero(base)
    rho = [[one, zero]]
    c = {(0, 1, 0): parse_expr("x1", base)}
    pi = algebroid_dual_poisson(base, ["a", "b"], rho, c)
    assert not poisson.verify(pi).verified


# -- Lie homomorphisms and dual maps ---------------------------------------------------------------------


def test_identity_hom_and_dual_poisson_map():
    g = so3()
    t = [[F(1 if i == j else 0) for j in range(3)] for i in range(3)]
    ch_g = chart("x", "y", "z")
    phi = dual_map(t, ch_g, ch_g)
    assert is_poisson_map(phi, lie_poisson(g, ch_g), lie_poisson(g, ch_g))


def test_zero_map_is_hom():
    g, h = so3(), abelian(2)
    t = [[F(0)] * 3 for _ in range(2)]
    phi = dual_map(t, dual_chart(h), dual_chart(g))
    assert is_poisson_map(phi, lie_poisson(h), lie_poisson(g))


def test_book_quotient_by_ideal():
    g = book()
    assert is_basis_span_ideal(g, [1, 2])
    assert is_basis_span_subalgebra(g, [1, 2])
    assert not is_basis_span_ideal(g, [0])
    assert is_basis_span_subalgebra(g, [0])
    # an index outside 0 ... dim - 1 is an error, not a Python list index:
    # -1 would otherwise read as e3, whose span is an ideal
    assert is_basis_span_ideal(g, [2])
    for check in (is_basis_span_ideal, is_basis_span_subalgebra):
        for bad in (-1, 3):
            with pytest.raises(LieAlgebraError, match=f"basis index {bad} out of range") as err:
                check(g, [1, bad])
            assert err.value.indices == (bad,)
    # projection onto g/span(e2,e3) = R is a Lie hom
    r1 = abelian(1)
    t = [[F(1), F(0), F(0)]]
    # the dual inclusion R* -> g* is then a Poisson map
    phi = dual_map(t, dual_chart(r1), dual_chart(g))
    assert is_poisson_map(phi, lie_poisson(r1), lie_poisson(g))


def test_non_hom_rejected():
    g = so3()
    t = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(0)]]
    phi = dual_map(t, dual_chart(g), dual_chart(g))
    assert is_poisson_map(phi, lie_poisson(g), lie_poisson(g)) is False


def test_heisenberg_quotient_hom():
    g = heisenberg()
    h = abelian(2)
    t = [[F(1), F(0), F(0)], [F(0), F(1), F(0)]]
    phi = dual_map(t, dual_chart(h), dual_chart(g))
    assert is_poisson_map(phi, lie_poisson(h), lie_poisson(g))
