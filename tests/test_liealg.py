import itertools
from fractions import Fraction as F

import pytest

from poisskit import liealg, poisson
from poisskit.expr import ExprError, RatFunc, chart, parse_expr
from poisskit.liealg import (
    AlgMultiVec,
    Cobracket,
    LieAlgebra,
    LieAlgebraError,
    affine_poisson,
    alg_schouten,
    algebroid_dual_poisson,
    bialgebra_check,
    coadjoint_vf,
    cyb_check,
    dual_chart,
    dual_map,
    is_2cocycle,
    is_basis_span_ideal,
    is_basis_span_subalgebra,
    lie_from_constants,
    lie_poisson,
    modular_character,
)
from poisskit.multivec import DiffForm, MultiVec, wedge
from poisskit.poisson import hamiltonian_vf, is_poisson_map, modular_vf

from conftest import jacobi_failure, rng_for


def so3():
    return lie_from_constants(3, [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1)])


def book():
    # susb presentation: [e1,e2] = e2, [e1,e3] = e3
    return lie_from_constants(3, [(0, 1, 1, 1), (0, 2, 2, 1)])


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
    assert g.bracket_basis(0, 1) == [F(0), F(0), F(1)]
    assert g.bracket_basis(1, 2) == [F(1), F(0), F(0)]


def test_book_valid():
    g = book()
    assert g.bracket_basis(0, 1) == [F(0), F(1), F(0)]
    assert g.bracket_basis(1, 2) == [F(0), F(0), F(0)]


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
    # gl(3), [E_ab, E_cd] = d_bc E_ad - d_da E_cb with E_ab = e_{3a+b}: the
    # Jacobi identity is one [pi_g, pi_g] = 0 check
    triples = []
    for (a, b), (c, d) in itertools.combinations(itertools.product(range(3), repeat=2), 2):
        i, j = 3 * a + b, 3 * c + d
        triples += [(i, j, 3 * a + d, 1)] * (b == c) + [(i, j, 3 * c + b, -1)] * (d == a)
    calls, original = [], poisson.verify
    for module in (poisson, liealg):
        monkeypatch.setattr(module, "verify", lambda pi: calls.append(pi) or original(pi))
    g = lie_from_constants(9, triples)
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


# -- coadjoint fields ------------------------------------------------------------------


def test_coadjoint_so3_e3():
    ch = chart("x", "y", "z")
    field = coadjoint_vf(so3(), [F(0), F(0), F(1)], ch)
    assert field == MultiVec(ch, 1, {
        (0,): parse_expr("y", ch),
        (1,): parse_expr("-x", ch),
    })


def test_coadjoint_abelian_zero():
    assert coadjoint_vf(abelian(3), [F(1), F(2), F(3)]).is_zero


def test_coadjoint_zero_element():
    assert coadjoint_vf(so3(), [F(0)] * 3).is_zero


def test_coadjoint_matches_hamiltonian_on_basis():
    for make in ZOO:
        g = make()
        ps = lie_poisson(g)
        ch = ps.chart
        for i in range(g.dim):
            u = [F(1 if j == i else 0) for j in range(g.dim)]
            assert coadjoint_vf(g, u) == hamiltonian_vf(ps, RatFunc.var(ch, i))


# -- cocycles and affine structures ------------------------------------------------------


def test_cocycle_abelian_anything():
    g = abelian(3)
    lam = AlgMultiVec(g, 2, {(0, 1): F(2), (1, 2): F(-1)})
    assert is_2cocycle(g, lam)


def test_cocycle_so3_e1e2():
    # cyclic sum on (e1,e2,e3) is lam(e1,e1)+lam(e3,e3)+lam(e2,e2) = 0, so
    # this IS a cocycle (it is the coboundary of -e3*)
    assert is_2cocycle(so3(), AlgMultiVec(so3(), 2, {(0, 1): F(1)}))


def test_cocycle_book_negative():
    # book bracket: the cyclic sum on (e1,e2,e3) evaluates to -2
    g = book()
    assert not is_2cocycle(g, AlgMultiVec(g, 2, {(1, 2): F(1)}))


def test_cocycle_zero():
    assert is_2cocycle(so3(), AlgMultiVec.zero(so3(), 2))


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
                    for (a, b), c in lam.coeffs.items()), F(0))

    return all(
        value(i, g.bracket_basis(j, k)) + value(k, g.bracket_basis(i, j))
        + value(j, g.bracket_basis(k, i)) == 0
        for i, j, k in itertools.combinations(range(g.dim), 3)
    )


def test_cocycle_agrees_with_cyclic_sum_on_random_cochains():
    rng = rng_for("cocycle")
    verdicts = []
    for make in (so3, book, aff1, heisenberg, gl2):
        g = make()
        for _ in range(40):
            lam = AlgMultiVec(g, 2, {idx: F(rng.randint(-2, 2))
                                     for idx in itertools.combinations(range(g.dim), 2)
                                     if rng.random() < 0.5})
            verdict = is_2cocycle(g, lam)
            assert verdict == _cyclic_sum_vanishes(g, lam)
            verdicts.append(verdict)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 20


def test_elements_of_another_algebra_are_rejected():
    r = AlgMultiVec(abelian(3), 2, {(0, 1): F(1)})
    with pytest.raises(LieAlgebraError, match="another Lie algebra"):
        cyb_check(so3(), r)
    with pytest.raises(LieAlgebraError, match="another Lie algebra"):
        alg_schouten(so3(), r, r)
    lam = AlgMultiVec(abelian(4), 2, {(2, 3): F(1)})
    for check in (is_2cocycle, affine_poisson):
        with pytest.raises(LieAlgebraError, match="another Lie algebra"):
            check(so3(), lam)


def test_affine_trivial_cocycle():
    g = so3()
    assert affine_poisson(g, AlgMultiVec.zero(g, 2)).pi == lie_poisson(g).pi


def test_affine_abelian_constant():
    g = abelian(2)
    lam = AlgMultiVec(g, 2, {(0, 1): F(1)})
    ps = affine_poisson(g, lam)
    assert ps.verified
    assert ps.pi.coeff((0, 1)) == RatFunc.const(ps.chart, 1)


def test_affine_so3_shift():
    g = so3()
    ps = affine_poisson(g, AlgMultiVec(g, 2, {(0, 1): F(1)}))
    assert ps.verified
    assert ps.pi.coeff((0, 1)) == parse_expr("x3+1", ps.chart)


def test_affine_rejects_non_cocycle():
    g = book()
    with pytest.raises(LieAlgebraError):
        affine_poisson(g, AlgMultiVec(g, 2, {(1, 2): F(1)}))


def test_an_algebra_is_squared_once(monkeypatch):
    # lie_from_constants checks Jacobi; the calls on the algebra it returns
    # square only the bivector they are about, or nothing
    g = so3()
    squares = []
    real = poisson.schouten
    monkeypatch.setattr(poisson, "schouten", lambda a, b: squares.append(a) or real(a, b))
    assert is_2cocycle(g, AlgMultiVec(g, 2, {(0, 1): F(1)}))
    assert len(squares) == 1
    affine_poisson(g, AlgMultiVec(g, 2, {(0, 1): F(1)}))
    assert len(squares) == 2
    coadjoint_vf(g, [F(0), F(0), F(1)])
    assert len(squares) == 2


# -- exterior algebra elements ------------------------------------------------------------


def test_alg_multivec_printed_form():
    g = so3()
    a = AlgMultiVec(g, 2, {(0, 1): 2, (0, 2): F(1, 3), (1, 2): -1})
    assert str(a) == "2*e1^e2 + 1/3*e1^e3 + -1*e2^e3"
    assert str(AlgMultiVec.zero(g, 2)) == "0"
    assert str(AlgMultiVec(g, 0, {(): F(-5, 2)})) == "-5/2"
    assert str(AlgMultiVec.basis(g, 1)) == "e2"


def test_alg_multivec_wedge():
    g = so3()
    e1, e2, e3 = (AlgMultiVec.basis(g, i) for i in range(3))
    assert wedge(wedge(e1, e2), e3) == AlgMultiVec(g, 3, {(0, 1, 2): F(1)})
    assert str(wedge(e3, wedge(e1, e2))) == "e1^e2^e3"
    # graded commutativity: a ^ b = (-1)^(deg a deg b) b ^ a
    a = AlgMultiVec(g, 2, {(0, 1): 2, (0, 2): F(1, 3), (1, 2): -1})
    assert wedge(a, e1) == wedge(e1, a)
    assert wedge(e1, e2) == wedge(e2, e1).scale(-1)
    assert str(wedge(e3, a)) == "2*e1^e2^e3"
    # zero above the dimension, and on a repeated index
    assert wedge(a, a).is_zero and wedge(a, a).degree == 4
    assert wedge(e2, e2).is_zero


def test_alg_multivec_index_out_of_range():
    with pytest.raises(ExprError):
        AlgMultiVec(so3(), 1, {(3,): 1})


def test_alg_multivec_parent_algebra():
    g = so3()
    assert AlgMultiVec.basis(g, 0).parent is g
    with pytest.raises(ExprError):
        wedge(AlgMultiVec.basis(g, 0), AlgMultiVec.basis(book(), 1))


# -- algebraic Schouten bracket -------------------------------------------------------------


def test_alg_schouten_is_lie_bracket_degree_one():
    g = so3()
    out = alg_schouten(g, AlgMultiVec.basis(g, 0), AlgMultiVec.basis(g, 1))
    assert out == AlgMultiVec.basis(g, 2)


def test_alg_schouten_abelian_zero():
    g = abelian(4)
    a = AlgMultiVec(g, 2, {(0, 1): F(2), (2, 3): F(1)})
    assert alg_schouten(g, a, a).is_zero


def test_alg_schouten_su2_r_matrix():
    # r = 2 e2^e3: expanding the Leibniz rule over basis terms by hand gives
    # [e2^e3, e2^e3] = 2 e1^e2^e3, so [r,r] = 8 e1^e2^e3
    g = so3()
    r = AlgMultiVec(g, 2, {(1, 2): F(2)})
    rr = alg_schouten(g, r, r)
    assert rr == AlgMultiVec(g, 3, {(0, 1, 2): F(8)})


def test_alg_schouten_graded_jacobi_random():
    import random

    rng = random.Random("alg jacobi")
    g4 = lie_from_constants(4, [(0, 1, 2, 1)])  # heisenberg + center
    for _ in range(30):
        def rand(k):
            coeffs = {}
            for idx in itertools.combinations(range(4), k):
                if rng.random() < 0.7:
                    coeffs[idx] = F(rng.randint(-2, 2))
            return AlgMultiVec(g4, k, coeffs)
        k, l, m = (rng.choice([1, 2]) for _ in range(3))
        x, y, z = rand(k), rand(l), rand(m)
        sign = -1 if ((k - 1) * (l - 1)) % 2 else 1
        assert alg_schouten(g4, x, y) == alg_schouten(g4, y, x).scale(-sign)
        t1 = alg_schouten(g4, x, alg_schouten(g4, y, z)).scale(
            -1 if ((k - 1) * (m - 1)) % 2 else 1)
        t2 = alg_schouten(g4, z, alg_schouten(g4, x, y)).scale(
            -1 if ((m - 1) * (l - 1)) % 2 else 1)
        t3 = alg_schouten(g4, y, alg_schouten(g4, z, x)).scale(
            -1 if ((l - 1) * (k - 1)) % 2 else 1)
        assert (t1 + t2 + t3).is_zero
        # Leibniz against the wedge
        w = rand(1)
        sign2 = -1 if ((k - 1) * l) % 2 else 1
        lhs = alg_schouten(g4, x, wedge(y, w))
        rhs = wedge(alg_schouten(g4, x, y), w) + \
            wedge(y, alg_schouten(g4, x, w)).scale(sign2)
        assert lhs == rhs


# -- classical Yang-Baxter -----------------------------------------------------------------------


def test_cyb_zero_triangular():
    assert cyb_check(so3(), AlgMultiVec.zero(so3(), 2)) == "triangular"


def test_cyb_su2_coboundary():
    g = so3()
    assert cyb_check(g, AlgMultiVec(g, 2, {(1, 2): F(2)})) == "coboundary"


def test_cyb_book_triangular():
    # e2, e3 span an abelian ideal, so [r,r] = 0 exactly
    g = book()
    assert cyb_check(g, AlgMultiVec(g, 2, {(1, 2): F(1)})) == "triangular"


def test_cyb_neither():
    # in an unimodular 3-dim algebra every trivector is ad-invariant, so a
    # "neither" needs a nonzero modular character: take [e3,e1] = e1,
    # [e3,e2] = 2 e2.  Hand expansion gives [r,r] = 2 e1^e2^e3 for
    # r = e1^e2 + e1^e3 + e2^e3, and ad_{e3} scales e1^e2^e3 by tr(ad_{e3}) = 3.
    g = lie_from_constants(3, [(2, 0, 0, 1), (2, 1, 1, 2)])
    r = AlgMultiVec(g, 2, {(0, 1): F(1), (0, 2): F(1), (1, 2): F(1)})
    rr = alg_schouten(g, r, r)
    assert rr == AlgMultiVec(g, 3, {(0, 1, 2): F(2)})
    assert cyb_check(g, r) == "neither"


# -- bialgebras ---------------------------------------------------------------------------------


def test_bialgebra_zero_cobracket():
    for make in ZOO:
        g = make()
        rep = bialgebra_check(g, Cobracket.zero(g))
        assert rep.dual_jacobi and rep.compat


def test_bialgebra_abelian_any_dual_bracket():
    g = abelian(3)
    rep = bialgebra_check(g, Cobracket.from_dual_algebra(g, so3()))
    assert rep.dual_jacobi and rep.compat


def test_bialgebra_su2_book():
    rep = bialgebra_check(so3(), Cobracket.from_dual_algebra(so3(), book()))
    assert rep.dual_jacobi and rep.compat


def test_bialgebra_failure_modes():
    g = so3()
    # delta dual to so3 itself: dual_jacobi holds but compatibility fails
    rep = bialgebra_check(g, Cobracket.from_dual_algebra(g, so3()))
    assert rep.dual_jacobi
    assert not rep.compat


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
    ok, mode = is_poisson_map(phi, lie_poisson(g, ch_g), lie_poisson(g, ch_g))
    assert ok and mode == "symbolic"


def test_zero_map_is_hom():
    g, h = so3(), abelian(2)
    t = [[F(0)] * 3 for _ in range(2)]
    phi = dual_map(t, dual_chart(h), dual_chart(g))
    ok, _ = is_poisson_map(phi, lie_poisson(h), lie_poisson(g))
    assert ok


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
    ok, mode = is_poisson_map(phi, lie_poisson(r1), lie_poisson(g))
    assert ok and mode == "symbolic"


def test_non_hom_rejected():
    g = so3()
    t = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(0)]]
    phi = dual_map(t, dual_chart(g), dual_chart(g))
    assert is_poisson_map(phi, lie_poisson(g), lie_poisson(g)) == (False, "symbolic")


def test_heisenberg_quotient_hom():
    g = heisenberg()
    h = abelian(2)
    t = [[F(1), F(0), F(0)], [F(0), F(1), F(0)]]
    phi = dual_map(t, dual_chart(h), dual_chart(g))
    ok, _ = is_poisson_map(phi, lie_poisson(h), lie_poisson(g))
    assert ok
