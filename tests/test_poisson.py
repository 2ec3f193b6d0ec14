import gc
import hashlib
import itertools
import re
import weakref
from fractions import Fraction as F
from functools import cached_property
from unittest import mock

import pytest

from poisskit import cli, expr, fixtures, linalg, multivec, poisson
from poisskit.dirac import DiracSectionFamily, kernel_and_range, reconstruct_from_range
from poisskit.expr import RatFunc, chart, parse_expr
from poisskit.liealg import lie_from_constants, lie_poisson
from poisskit.multivec import DiffForm, MultiVec, PolyMap, wedge
from poisskit.poisson import (
    NotClosedError,
    PoissonError,
    bracket,
    casimir_check,
    cohomology,
    d_pi,
    darboux_basis_at,
    gauge_transform,
    hamiltonian_vf,
    is_poisson_map,
    isotropy_bracket_at,
    log_degeneracy_check,
    matrix_at,
    modular_vf,
    rank_at,
    require_poisson,
    top_power,
    verify,
)

from conftest import (
    bareiss_gauge_pair,
    basis_element,
    cohomology_oracle,
    gl_triples,
    jacobiator,
    jacobiator_trivector,
    multivec_terms,
    random_form,
    random_multivec,
    random_poly,
    rng_for,
    schouten_oracle,
    trivector_on_differentials,
)


def coordinate_volume(ch):
    return DiffForm(ch, ch.dim, {tuple(range(ch.dim)): RatFunc.const(ch, 1)})


# -- bracket -----------------------------------------------------------------------


def test_bracket_canonical(chqp, pican_structure):
    p_, q_ = parse_expr("p", chqp), parse_expr("q", chqp)
    assert bracket(pican_structure, p_, q_) == RatFunc.const(chqp, 1)


def test_bracket_antisymmetry_diagonal(ch3, so3_structure):
    f = parse_expr("x*y + z^2", ch3)
    assert bracket(so3_structure, f, f).is_zero


def test_bracket_so3(ch3, so3_structure):
    x, y, z = (parse_expr(v, ch3) for v in "xyz")
    assert bracket(so3_structure, x, y) == z


def test_bracket_equals_dg_of_hamiltonian(ch3, so3_structure):
    rng = rng_for("dgxf")
    for _ in range(10):
        f = random_poly(rng, ch3)
        g = random_poly(rng, ch3)
        xf = hamiltonian_vf(so3_structure, f)
        x_f_of_g = sum((c * g.diff(k) for k, c in enumerate(xf.components())),
                       RatFunc.zero(ch3))
        assert bracket(so3_structure, f, g) == x_f_of_g


# -- hamiltonian_vf -----------------------------------------------------------------


def test_hamiltonian_canonical(chqp, pican_structure):
    assert hamiltonian_vf(pican_structure, parse_expr("p", chqp)) == \
        MultiVec.basis_vector(chqp, 0)


def test_hamiltonian_constant(ch3, so3_structure):
    assert hamiltonian_vf(so3_structure, RatFunc.const(ch3, 5)).is_zero


def test_hamiltonian_casimir_so3(ch3, so3_structure):
    f = parse_expr("(x^2+y^2+z^2)/2", ch3)
    assert hamiltonian_vf(so3_structure, f).is_zero


# -- pi# at a point -------------------------------------------------------------------


def test_sharp_consistent_with_hamiltonian(ch3, so3_structure):
    # the row alpha P of the evaluated matrix is pi#(alpha): with alpha = df
    # at a point it is X_f there, the orientation the pointwise checks use
    rng = rng_for("sharp")
    for _ in range(10):
        f = random_poly(rng, ch3)
        pt = [F(rng.randint(-3, 3)) for _ in range(3)]
        df = [f.diff(i).eval(pt) for i in range(3)]
        xf = hamiltonian_vf(so3_structure, f)
        assert linalg.matmul([df], matrix_at(so3_structure.pi, pt)) == \
            [[c.eval(pt) for c in xf.components()]]


# -- verify -----------------------------------------------------------------------------


def test_constant_bivector_poisson():
    ch = chart("a", "b", "c", "d")
    pi = MultiVec(ch, 2, {(0, 1): RatFunc.const(ch, 3), (1, 3): RatFunc.const(ch, -2)})
    ps = verify(pi)
    assert ps.verified and ps.schouten_square is None


def test_any_2d_bivector_poisson(ch2):
    rng = rng_for("2d")
    for _ in range(10):
        pi = MultiVec(ch2, 2, {(0, 1): random_poly(rng, ch2, max_degree=3)})
        assert verify(pi).verified


def test_s3_bracket_relations_poisson():
    ch = chart("x", "y", "z", "w")
    pi = MultiVec(ch, 2, {
        (0, 1): parse_expr("z^2+w^2", ch),
        (0, 2): parse_expr("-y*z", ch),
        (0, 3): parse_expr("-y*w", ch),
        (1, 2): parse_expr("x*z", ch),
        (1, 3): parse_expr("x*w", ch),
    })
    assert verify(pi).verified


def test_non_poisson_certificate(ch3):
    bad = MultiVec(ch3, 2, {
        (0, 1): parse_expr("x", ch3),
        (1, 2): parse_expr("y", ch3),
        (0, 2): parse_expr("z", ch3),
    })
    ps = verify(bad)
    assert not ps.verified
    assert ps.schouten_square.degree == 3 and not ps.schouten_square.is_zero


# -- jacobiator ----------------------------------------------------------------------------


def test_jacobiator_vanishes_for_poisson(ch3, so3_structure):
    rng = rng_for("jac0")
    for _ in range(8):
        f, g, h = (random_poly(rng, ch3) for _ in range(3))
        assert jacobiator(so3_structure, f, g, h).is_zero


def test_jacobiator_book_fixture(ch3):
    # b = x dx^dy + y dy^dz + z dz^dx; hand expansion of the cyclic sum on
    # (x,y,z) gives {x,{y,z}} + {z,{x,y}} + {y,{z,x}} = x + z + y
    b = MultiVec(ch3, 2, {
        (0, 1): parse_expr("x", ch3),
        (1, 2): parse_expr("y", ch3),
        (0, 2): parse_expr("-z", ch3),
    })
    x, y, z = (parse_expr(v, ch3) for v in "xyz")
    assert jacobiator(b, x, y, z) == parse_expr("x+y+z", ch3)
    tri = jacobiator_trivector(b)
    assert tri.coeff((0, 1, 2)) == parse_expr("x+y+z", ch3)
    assert trivector_on_differentials(tri, x, y, z) == jacobiator(b, x, y, z)


def test_jacobiator_constant_slot(ch3):
    b = MultiVec(ch3, 2, {(0, 1): parse_expr("x*y", ch3), (1, 2): parse_expr("z", ch3)})
    f, g = parse_expr("x", ch3), parse_expr("y", ch3)
    assert jacobiator(b, f, g, RatFunc.const(ch3, 7)).is_zero


def test_trivector_contraction_random(ch3):
    rng = rng_for("tri")
    b = MultiVec(ch3, 2, {
        (0, 1): random_poly(rng, ch3),
        (1, 2): random_poly(rng, ch3),
        (0, 2): random_poly(rng, ch3),
    })
    tri = jacobiator_trivector(b)
    for _ in range(8):
        f, g, h = (random_poly(rng, ch3) for _ in range(3))
        assert trivector_on_differentials(tri, f, g, h) == jacobiator(b, f, g, h)


# -- rank and fibers ------------------------------------------------------------------------


def test_rank_canonical(ch4, pican4_structure):
    assert rank_at(pican4_structure, [F(0)] * 4) == 4


def test_rank_so3(so3_structure):
    assert rank_at(so3_structure, [F(0), F(0), F(0)]) == 0
    assert rank_at(so3_structure, [F(1), F(0), F(0)]) == 2


def test_rank_book_z_axis(book_structure):
    assert rank_at(book_structure, [F(0), F(0), F(5)]) == 0
    assert rank_at(book_structure, [F(1), F(0), F(0)]) == 2


# the characteristic data at a point: the range of pi# with its induced form
# Omega(pi# a, pi# b) = pi(b, a), read off the graph of pi# at that point


def _characteristic_data(structure, point):
    lag = DiracSectionFamily.graph_of_bivector(structure).evaluate_at(point)
    return lag, kernel_and_range(lag)


def test_char_fiber_zero(ch2):
    _, data = _characteristic_data(MultiVec.zero(ch2, 2), [F(0), F(0)])
    assert data.range_basis == [] and data.omega == []


def test_char_fiber_canonical(chqp, pican_structure):
    lag, data = _characteristic_data(pican_structure, [F(0), F(0)])
    assert len(data.range_basis) == 2
    assert reconstruct_from_range(data, 2) == lag
    # Omega is the inverse canonical form: nondegenerate 2x2 antisymmetric
    assert data.omega[0][1] == -data.omega[1][0] != 0


def test_char_fiber_so3(so3_structure):
    pt = [F(0), F(0), F(1)]
    lag, data = _characteristic_data(so3_structure, pt)
    assert data.range_basis == [[F(1), F(0), F(0)], [F(0), F(1), F(0)]]
    # Omega(pi# dx, pi# dy) = pi(dy, dx) = -1 at this point (3x3 by hand)
    assert data.omega == [[F(0), F(-1)], [F(1), F(0)]]
    assert reconstruct_from_range(data, 3) == lag


def test_char_fiber_reconstruction_random(ch3):
    rng = rng_for("fiber")
    for _ in range(10):
        pi = MultiVec(ch3, 2, {
            (0, 1): random_poly(rng, ch3, max_degree=1),
            (1, 2): random_poly(rng, ch3, max_degree=1),
        })
        pt = [F(rng.randint(-2, 2)) for _ in range(3)]
        lag, data = _characteristic_data(pi, pt)
        assert reconstruct_from_range(data, 3) == lag


# -- darboux -------------------------------------------------------------------------------------


def _standard_blocks(k, l):
    n = 2 * k + l
    m = [[F(0)] * n for _ in range(n)]
    for r in range(k):
        m[2 * r][2 * r + 1] = F(1)
        m[2 * r + 1][2 * r] = F(-1)
    return m


def _in_new_basis(p, vectors):
    basis = [list(v) for v in vectors]
    c = linalg.mat_inverse(linalg.transpose(basis))
    return linalg.matmul(linalg.matmul(c, p), linalg.transpose(c))


def test_darboux_canonical(chqp, pican_structure):
    pairs, comp = darboux_basis_at(pican_structure, [F(0), F(0)])
    assert len(pairs) == 2 and comp == []
    p = matrix_at(pican_structure.pi, [F(0), F(0)])
    assert _in_new_basis(p, pairs) == _standard_blocks(1, 0)


def test_darboux_zero(ch3):
    pairs, comp = darboux_basis_at(MultiVec.zero(ch3, 2), [F(0)] * 3)
    assert pairs == [] and len(comp) == 3


def test_darboux_so3(so3_structure):
    pt = [F(0), F(0), F(1)]
    pairs, comp = darboux_basis_at(so3_structure, pt)
    assert len(pairs) == 2 and len(comp) == 1
    p = matrix_at(so3_structure.pi, pt)
    assert _in_new_basis(p, pairs + comp) == _standard_blocks(1, 1)


def test_darboux_random_matrices(ch4):
    rng = rng_for("darboux")
    for _ in range(10):
        coeffs = {}
        for i in range(4):
            for j in range(i + 1, 4):
                coeffs[(i, j)] = RatFunc.const(ch4, rng.randint(-3, 3))
        pi = MultiVec(ch4, 2, coeffs)
        pt = [F(0)] * 4
        pairs, comp = darboux_basis_at(pi, pt)
        p = matrix_at(pi, pt)
        assert rank_at(pi, pt) == len(pairs)  # pairs holds 2k vectors
        assert _in_new_basis(p, pairs + comp) == \
            _standard_blocks(len(pairs) // 2, len(comp))


# -- casimirs --------------------------------------------------------------------------------------


def test_casimir_sl2r(ch3, sl2r_structure):
    assert casimir_check(sl2r_structure, parse_expr("x^2+y^2-z^2", ch3))


def test_casimir_negative(chqp, pican_structure):
    assert not casimir_check(pican_structure, parse_expr("q", chqp))


def test_casimir_zero_structure(ch3):
    zero = verify(MultiVec.zero(ch3, 2))
    rng = rng_for("cas0")
    assert casimir_check(zero, random_poly(rng, ch3))


# -- modular vector field ----------------------------------------------------------------------------


def test_modular_x_structure(ch2, xdxdy_structure):
    assert modular_vf(xdxdy_structure, coordinate_volume(ch2)) == \
        -MultiVec.basis_vector(ch2, 1)


def test_modular_symplectic_unimodular(ch4, pican4_structure):
    assert modular_vf(pican4_structure, coordinate_volume(ch4)).is_zero


def test_modular_volume_change(ch2, xdxdy_structure):
    # eta' = f eta with positive f: X_eta - X_eta' = (1/f) pi#(df)
    f = parse_expr("1 + x^2", ch2)
    eta = coordinate_volume(ch2)
    eta2 = DiffForm(ch2, 2, {(0, 1): f})
    lhs = modular_vf(xdxdy_structure, eta) - modular_vf(xdxdy_structure, eta2)
    expected = hamiltonian_vf(xdxdy_structure, f).scale(RatFunc.const(ch2, 1) / f)
    assert lhs == expected


def test_modular_is_poisson_field(ch2, xdxdy_structure):
    mv = modular_vf(xdxdy_structure, coordinate_volume(ch2))
    assert d_pi(xdxdy_structure, mv).is_zero


def test_modular_rejects_vanishing_volume(ch2, xdxdy_structure):
    with pytest.raises(PoissonError):
        modular_vf(xdxdy_structure, DiffForm.zero(ch2, 2))


# -- d_pi and cohomology -----------------------------------------------------------------------------


def test_d_pi_of_function(ch2, xdxdy_structure):
    f = parse_expr("x*y", ch2)
    assert d_pi(xdxdy_structure, MultiVec.from_scalar(f)) == \
        -hamiltonian_vf(xdxdy_structure, f)


def test_d_pi_of_pi(xdxdy_structure):
    assert d_pi(xdxdy_structure, xdxdy_structure.pi).is_zero


def test_d_pi_poisson_field(ch2, xdxdy_structure):
    assert d_pi(xdxdy_structure, MultiVec.basis_vector(ch2, 1)).is_zero


def test_d_pi_refuses_unverified(ch3):
    bad = MultiVec(ch3, 2, {
        (0, 1): parse_expr("x", ch3),
        (1, 2): parse_expr("y", ch3),
        (0, 2): parse_expr("z", ch3),
    })
    ps = verify(bad)
    assert not ps.verified
    with pytest.raises(PoissonError):
        d_pi(ps, MultiVec.basis_vector(ch3, 0))


def test_d_pi_squared_zero(ch2, xdxdy_structure):
    rng = rng_for("dpisq")
    for _ in range(10):
        x = MultiVec(ch2, 1, {(0,): random_poly(rng, ch2), (1,): random_poly(rng, ch2)})
        assert d_pi(xdxdy_structure, d_pi(xdxdy_structure, x)).is_zero


def test_d_pi_and_cohomology_take_polynomial_data(ch3, so3_structure):
    # f pi_so3 is Poisson for a rational f too, but d_pi and cohomology work
    # on polynomials; cohomology keeps its own text
    rational = verify(so3_structure.pi.scale(parse_expr("1/(1 + x^2)", ch3)))
    assert rational.verified
    for structure, x in ((rational, MultiVec.basis_vector(ch3, 0)),
                         (so3_structure, MultiVec.from_scalar(parse_expr("1/(1 + y)", ch3)))):
        with pytest.raises(PoissonError, match="^d_pi needs polynomial coefficients$"):
            d_pi(structure, x)
    with pytest.raises(PoissonError, match="^cohomology needs polynomial coefficients$"):
        cohomology(rational, 1, 1)


def test_cohomology_x_structure(xdxdy_structure):
    sums = {0: 0, 1: 0, 2: 0}
    reps = []
    for d in range(7):
        for k in range(3):
            rep = cohomology(xdxdy_structure, k, d)
            assert rep.dim_h == rep.dim_kernel - rep.dim_image
            sums[k] += rep.dim_h
            if k == 1:
                reps.extend(rep.representatives)
    assert sums == {0: 1, 1: 1, 2: 0}
    assert len(reps) == 1
    assert reps[0] == MultiVec.basis_vector(xdxdy_structure.chart, 1)


def test_cohomology_zero_structure(ch2):
    zero = verify(MultiVec.zero(ch2, 2))
    # zero differential: H^k at degree d is the whole space of k-vectors
    rep = cohomology(zero, 1, 2)
    assert rep.dim_h == rep.dim_kernel == 6  # 2 components x 3 monomials
    assert rep.dim_image == 0


def test_cohomology_canonical_no_casimirs(chqp, pican_structure):
    for d in range(1, 5):
        assert cohomology(pican_structure, 0, d).dim_h == 0
    assert cohomology(pican_structure, 0, 0).dim_h == 1


def test_cohomology_h0_matches_casimir_solve(xdxdy_structure):
    # dim H^0 at degree d equals the dimension of degree-d Casimirs
    for d in range(4):
        rep = cohomology(xdxdy_structure, 0, d)
        for r in rep.representatives:
            assert casimir_check(xdxdy_structure, r.scalar())


def test_cohomology_rejects_inhomogeneous(ch2):
    pi = MultiVec(ch2, 2, {(0, 1): parse_expr("1 + x", ch2)})
    with pytest.raises(PoissonError):
        cohomology(verify(pi), 0, 1)


def test_cohomology_report_serializes(xdxdy_structure):
    rep = cohomology(xdxdy_structure, 1, 0)
    text = rep.serialize()
    assert "dim_H=1" in text and "rep: 1 d/dy" in text


def _gl_lie_poisson(n):
    """Lie-Poisson structure of gl(n): [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    triples = []
    for a in range(n * n):
        for b in range(a + 1, n * n):
            (i, j), (k, l) = divmod(a, n), divmod(b, n)
            terms = {}
            if j == k:
                terms[i * n + l] = terms.get(i * n + l, 0) + 1
            if l == i:
                terms[k * n + j] = terms.get(k * n + j, 0) - 1
            triples += [(a, b, c, v) for c, v in terms.items() if v]
    return lie_poisson(lie_from_constants(n * n, triples))


def _check_lie_poisson_report(structure, k, rep):
    # representatives are cocycles, independent modulo the image, which is
    # spanned by direct Schouten brackets of (k-1)-vectors of the same degree
    # (sparse rows, so that the gl3 rungs stay small)
    chart, d = structure.chart, rep.poly_degree
    index = {b: i for i, b in enumerate(poisson._kvector_basis(chart, k, d))}

    def vector(mv):
        return {index[b]: c for b, c in multivec_terms(mv).items()}

    def rank(rows):
        return len(linalg.echelon(rows)[0])

    image = [vector(d_pi(structure, basis_element(chart, idx, mono)))
             for idx, mono in (poisson._kvector_basis(chart, k - 1, d) if k else [])]
    reps = rep.representatives
    assert all(d_pi(structure, r).is_zero for r in reps)
    assert rank(image) == rep.dim_image
    assert rank(image + [vector(r) for r in reps]) == rep.dim_image + rep.dim_h


# serialize() of gl2 H^0..H^4 at d <= 2, representatives included, one
# report after another; it pins the printed output of the cohomology path
GL2_COHOMOLOGY = """\
k=0 d=0 dim_ker=1 dim_im=0 dim_H=1
  rep: 1
k=0 d=1 dim_ker=1 dim_im=0 dim_H=1
  rep: x1 + x4
k=0 d=2 dim_ker=2 dim_im=0 dim_H=2
  rep: x1*x4 - x2*x3
  rep: x1^2 + 2*x2*x3 + x4^2
k=1 d=0 dim_ker=1 dim_im=0 dim_H=1
  rep: 1 d/dx1 + 1 d/dx4
k=1 d=1 dim_ker=4 dim_im=3 dim_H=1
  rep: (x1 + x4) d/dx1 + (x1 + x4) d/dx4
k=1 d=2 dim_ker=10 dim_im=8 dim_H=2
  rep: (x1*x4 - x2*x3) d/dx1 + (x1*x4 - x2*x3) d/dx4
  rep: (x1^2 + 2*x2*x3 + x4^2) d/dx1 + (x1^2 + 2*x2*x3 + x4^2) d/dx4
k=2 d=0 dim_ker=3 dim_im=3 dim_H=0
k=2 d=1 dim_ker=12 dim_im=12 dim_H=0
k=2 d=2 dim_ker=30 dim_im=30 dim_H=0
k=3 d=0 dim_ker=4 dim_im=3 dim_H=1
  rep: 1 d/dx1^d/dx2^d/dx3
k=3 d=1 dim_ker=13 dim_im=12 dim_H=1
  rep: x4 d/dx1^d/dx2^d/dx3
k=3 d=2 dim_ker=32 dim_im=30 dim_H=2
  rep: x4^2 d/dx1^d/dx2^d/dx3
  rep: x2*x3 d/dx1^d/dx2^d/dx3
k=4 d=0 dim_ker=1 dim_im=0 dim_H=1
  rep: 1 d/dx1^d/dx2^d/dx3^d/dx4
k=4 d=1 dim_ker=4 dim_im=3 dim_H=1
  rep: x4 d/dx1^d/dx2^d/dx3^d/dx4
k=4 d=2 dim_ker=10 dim_im=8 dim_H=2
  rep: x4^2 d/dx1^d/dx2^d/dx3^d/dx4
  rep: x2*x3 d/dx1^d/dx2^d/dx3^d/dx4
"""


def test_gl2_cohomology_text_is_pinned():
    structure = _gl_lie_poisson(2)
    text = "".join(cohomology(structure, k, d).serialize() + "\n"
                   for k in range(5) for d in range(3))
    assert len(text.encode()) == 1053
    assert text == GL2_COHOMOLOGY


# dim H^k(g; S^d g) = dim H^k(g) * dim (S^d g)^g for reductive g (Whitehead):
# H(so3) has Poincare polynomial 1 + t^3 and S(so3)^so3 one generator of
# degree 2; H(gl2) = (1 + t)(1 + t^3), invariants of degrees 1, 2;
# H(gl3) = (1 + t)(1 + t^3)(1 + t^5), invariants of degrees 1, 2, 3.
@pytest.mark.parametrize("algebra,k,dims", [
    ("so3", 0, [1, 0, 1, 0]),
    ("so3", 3, [1, 0, 1, 0]),
    ("gl2", 0, [1, 1, 2, 2]),
    ("gl2", 1, [1, 1, 2, 2]),
    ("gl2", 2, [0, 0, 0, 0]),
    ("gl3", 1, [1, 1, 2, 3]),
    ("gl3", 3, [1, 1, 2]),
    ("gl3", 2, [0, 0, 0, 0]),
    ("gl3", 4, [1, 1, 2]),
])
def test_lie_poisson_cohomology_whitehead(so3_structure, algebra, k, dims):
    structure = so3_structure if algebra == "so3" else _gl_lie_poisson(int(algebra[2]))
    reports = [cohomology(structure, k, d) for d in range(len(dims))]
    assert [rep.dim_h for rep in reports] == dims
    for rep in reports:
        _check_lie_poisson_report(structure, k, rep)


@pytest.mark.parametrize("algebra,k,d,dim_h", [
    ("gl2", 2, 1, 0),
    ("gl2", 1, 1, 1),
    ("so3", 0, 2, 1),
])
def test_cohomology_is_sparse_elimination_only(so3_structure, monkeypatch,
                                               algebra, k, d, dim_h):
    # the kernel takes one forward elimination, and the image rows, restricted
    # to the kernel's free columns, one more (with no rows when k = 0); the
    # representatives are read off its pivots; no back-substituted RREF, full
    # kernel basis or dense matrix is built
    structure = so3_structure if algebra == "so3" else _gl_lie_poisson(2)
    for name in ("eliminate", "null_space", "rref", "kernel_basis", "canonical_span",
                 "transpose"):
        monkeypatch.setattr(linalg, name, lambda *a, name=name: pytest.fail(name))
    calls = []
    echelon = linalg.echelon
    monkeypatch.setattr(linalg, "echelon", lambda rows: calls.append(rows) or echelon(rows))
    assert cohomology(structure, k, d).dim_h == dim_h
    assert len(calls) == 2


@pytest.mark.parametrize("name", ["so3", "gl2", "s3_standard"])
def test_kernel_of_d_pi_is_the_same_in_every_row_order(monkeypatch, name):
    # cohomology echelons d_pi's rows keyed by codomain term, the latest
    # leading column first and, among rows that lead at the same column, the
    # larger key first.  For a fixed column order the pivot set is the same in
    # any row order, and so is the kernel vector of each free column: here in
    # the order of a coded codomain basis, sorted by leading column alone, and
    # in a seeded shuffle
    structure = _gl_lie_poisson(2) if name == "gl2" else _fixture_structure(name)
    chart, delta = structure.chart, structure.coefficient_degree
    rng = rng_for(f"d_pi row orders {name}")
    calls = []
    echelon = linalg.echelon
    monkeypatch.setattr(linalg, "echelon", lambda rows: calls.append(rows) or echelon(rows))
    differs = 0
    for k in range(chart.dim + 1):
        for d in range(3):
            radix = multivec._radix(d + abs(delta - 1))
            dom = poisson._coded_basis(chart, k, d, radix)
            rows = {}
            for col, image in enumerate(poisson._d_pi_images(dom, structure.wedge_plans(radix))):
                for key, c in image.items():
                    if c:
                        rows.setdefault(key, {})[col] = c
            codomain = [multivec._key(idx, mono, radix)
                        for idx, mono in poisson._kvector_basis(chart, k + 1, d + delta - 1)]
            assert rows.keys() <= set(codomain)
            descending = [rows[key] for key in sorted(
                rows, key=lambda key: (min(rows[key]), key), reverse=True)]
            calls.clear()
            cohomology(structure, k, d)
            assert calls[0] == descending
            shuffled = list(rows.values())
            rng.shuffle(shuffled)
            by_basis = sorted(filter(None, map(rows.get, codomain)), key=min, reverse=True)
            differs += by_basis != descending
            pivot_sets = [echelon(order)[0] for order in (descending, by_basis, shuffled)]
            free = [col for col in range(len(dom)) if col not in pivot_sets[0]]
            for pivots in pivot_sets[1:]:
                assert pivots.keys() == pivot_sets[0].keys()
                assert ([linalg.kernel_vector(pivots, col) for col in free]
                        == [linalg.kernel_vector(pivot_sets[0], col) for col in free])
    assert differs  # the tie rule reorders the rows of the basis order


@pytest.mark.parametrize("name", ["so3", "s3_standard"])
def test_cohomology_codes_no_basis_of_the_codomain(monkeypatch, name):
    # d_pi's rows are keyed by their codomain terms, so cohomology codes the
    # bases of its domain, (k, d), and of the incoming image,
    # (k - 1, d - delta + 1), only.  The chart's names are fresh, so that no
    # cache holds a basis of it yet
    doc = fixtures.fixture_manifest(name)
    fresh = {"chart": [f"{v}_coded" for v in doc["chart"]],
             "bivectors": {"pi": {idx: re.sub("([xyzw])", r"\1_coded", text)
                                  for idx, text in doc["bivectors"]["pi"].items()}}}
    structure = require_poisson(cli.load_manifest(fresh).bivectors["pi"])
    delta = structure.coefficient_degree
    calls = []
    coded = poisson._coded_basis
    monkeypatch.setattr(poisson, "_coded_basis",
                        lambda *args: calls.append(args[1:3]) or coded(*args))
    for k in range(structure.chart.dim + 1):
        for d in range(3):
            calls.clear()
            cohomology(structure, k, d)
            incoming = [(k - 1, d - delta + 1)] if k >= 1 and d - delta + 1 >= 0 else []
            assert calls == [(k, d), *incoming]


def _fixture_structure(name):
    manifest = cli.load_manifest(fixtures.fixture_manifest(name))
    return require_poisson(manifest.bivectors["pi"])


def _fraction_gl2():
    # gl2 in the basis s_a e_a: [s_a e_a, s_b e_b] = sum_c (s_a s_b / s_c) c_ab^c s_c e_c
    s = [F(1), F(1, 2), F(3), F(-2, 3)]
    return lie_poisson(lie_from_constants(
        4, [(a, b, c, v * s[a] * s[b] / s[c]) for a, b, c, v in gl_triples(2)]))


@pytest.mark.parametrize("name,dims", [
    ("so3", range(5)),
    ("sl2r", range(5)),
    ("book", range(4)),
    ("gl2", range(3)),
    ("gl2_fractions", range(3)),
    ("s3_standard", range(4)),
])
def test_cohomology_matches_the_joint_elimination(request, name, dims):
    # the image test in the kernel's free coordinates gives the image's
    # dimension and the representatives of one elimination of the image
    # rows followed by the kernel rows, by value and by printed text
    structure = {"gl2": lambda: _gl_lie_poisson(2), "gl2_fractions": _fraction_gl2,
                 "s3_standard": lambda: _fixture_structure("s3_standard")}.get(
        name, lambda: request.getfixturevalue(f"{name}_structure"))()
    seen = set()
    for k in range(structure.chart.dim + 1):
        for d in dims:
            got, want = cohomology(structure, k, d), cohomology_oracle(structure, k, d)
            assert got == want and got.serialize() == want.serialize()
            seen.add((got.dim_image > 0, got.dim_h > 0))
    assert (True, True) in seen  # some report has both an image and representatives
    if name == "gl2_fractions":
        assert any(type(c) is F for row in structure.generator_images[1] for _, _, c in row)


# SHA-256 of serialize() for rungs beyond GL2_COHOMOLOGY, taken before the
# image was tested in the kernel's free coordinates; those of gl3 were taken
# before the forward-only elimination (``linalg.echelon``)
@pytest.mark.parametrize("name,k,d,digest", [
    ("gl2", 0, 3, "1f4ff5947ae35dbd396de41eb52afe5d1769958be863863e32a42b12f642ca60"),
    ("gl2", 1, 3, "ca8f4e765136ea58cd2431ca1c9d5e3e188880888940e800b1ba44598a737b6b"),
    ("gl2", 3, 3, "6ebc4051b608a6899fe1abc3e51fb6742e811f2e1f22c3d13403eac2dbebdf45"),
    ("gl2", 4, 3, "ac7e3fa3cb5e1dfa8f348df79dae276f0713fdeba9cb9cd4702b7b914606af4c"),
    ("so3", 0, 4, "2bff75edefeeafaeaf2c74fb9470ba6378f3542d386571f71d1deec8c361a7b2"),
    ("so3", 3, 4, "1ddd66845fac1b8cdb54ba61d34e6ea954537a3173cc226a8e20a2730bfab525"),
    ("book", 1, 1, "7e3cb61a124657949ea557a59ed26a3f6dd115232f6e458408f0731e17cccc58"),
    ("book", 2, 1, "dc34dced56862b1c213220b5367f7adebd770995a690e9b628104ce289390bdf"),
    ("book", 2, 3, "af962efe8563a79e3fd4145ae6efc9df8994692d739f3fde24c7b0ff93618337"),
    ("gl3", 2, 0, "a7d60c5a4517c328032e8b9c40f0193fcffb06a740d890d7a21b3e72abada3fc"),
    ("gl3", 2, 1, "3b9fb836b9675eb4dd0bdb9f05317c2cf7281acdffde7b49734ff8cddaa3ef94"),
    ("gl3", 2, 2, "077783eaee283642e4e2e01e082808fb9c96b9bc5bbb877c664b016bd48d1834"),
    ("gl3", 2, 3, "0d2549e829e95d4f9655d99996618420bfcaf8eb762ffe18af6a93a5a96cdcaa"),
    ("gl3", 3, 0, "926febd8369a77d70af1c80b6b0df6643bec0f3874976661b1f1fdf123d8d693"),
    ("gl3", 3, 1, "f944511af769aeba279535b1a21ca4e6a6b0ff0304b876fa0ca6f44433bffd32"),
    ("gl3", 3, 2, "9121e55bc64a3019a63f1a82dbe685c3d8771ee050967b4e9d015dd33644abdf"),
    ("gl3", 4, 0, "718c081d78f584c353e344d33419a3ec27a9cb3696f8987d8d9e53ae87d5452b"),
    ("gl3", 4, 1, "6dbc1be4c6447b43fa6d4add52f27e81a5c47df07f5ba8a89cb8c6ac6c503016"),
    ("gl3", 4, 2, "729bf047192f0e61d888c71f16026279c90c91c0b7ea1fd79de01739fc15fda2"),
])
def test_cohomology_text_digests_are_pinned(request, name, k, d, digest):
    structure = (_gl_lie_poisson(int(name[2])) if name.startswith("gl")
                 else request.getfixturevalue(f"{name}_structure"))
    text = cohomology(structure, k, d).serialize()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", ["s3_standard", "book", "so3", "r2_xdxdy"])
def test_d_pi_derivation_rule_matches_schouten(name):
    # cohomology and multivec.schouten read the 2n generator images off pi
    # and build d_pi from them on coded keys; the superalgebra bracket of the
    # oracle on each generator and on each basis element is the reference
    # (compared as dicts of decoded keys: the term order differs), at the
    # least radix and at a larger one
    structure = _fixture_structure(name)
    chart = structure.chart

    def as_dict(terms):
        out = {(idx, e): c for idx, e, c in terms}
        assert len(out) == len(terms)  # each (index, exponent) once
        return out

    pi = structure.pi
    of_x, of_d = structure.generator_images
    for j in range(chart.dim):
        bracket_x = schouten_oracle(pi, MultiVec.from_scalar(RatFunc.var(chart, j)))
        assert as_dict(of_x[j]) == multivec_terms(bracket_x)
        assert as_dict(of_d[j]) == multivec_terms(schouten_oracle(pi, MultiVec.basis_vector(chart, j)))
    count = 0
    for k in range(chart.dim + 1):
        for d in range(3):
            basis = poisson._kvector_basis(chart, k, d)
            direct = [multivec_terms(schouten_oracle(pi, basis_element(chart, *b))) for b in basis]
            for radix in (8, 16):
                coded = [(multivec._key(idx, mono, radix), idx, mono) for idx, mono in basis]
                images = poisson._d_pi_images(coded, structure.wedge_plans(radix))
                for image, want in zip(images, direct, strict=True):
                    image = {key: c for key, c in image.items() if c}
                    decoded = {multivec._decoded(key, chart.dim, radix): c
                               for key, c in image.items()}
                    assert len(decoded) == len(image) and decoded == want
                    count += 1
    assert count == 2 * 2 ** chart.dim * sum(
        len(poisson._kvector_basis(chart, 0, d)) for d in range(3))


def test_cohomology_takes_the_generator_images_once(monkeypatch):
    # a CLI cohomology task loops over d = 0..d_max on one structure: it
    # takes one Schouten square in verify, then no d_pi and no bracket, and
    # reads the generator images off pi once; the manifest is loaded first,
    # as checking its Lie algebra takes a Schouten square of its own.  The
    # wedge plans are built once per radix, R = 8 for d <= 7 and R = 16 for
    # d = 8, and the plan of each index tuple once per radix
    doc = {**fixtures.fixture_manifest("so3"),
           "tasks": [{"task": "cohomology", "k": 1, "d_max": 8}]}
    manifest = cli.load_manifest(doc)
    events, planned = [], []

    class CountedPlans(multivec._WedgePlans):
        def __init__(self, images, radix):
            events.append(("plans", radix))
            super().__init__(images, radix)

        def __missing__(self, idx):
            planned.append((self.radix, idx))
            return super().__missing__(idx)

    monkeypatch.setattr(poisson, "_WedgePlans", CountedPlans)
    for module, name in ((poisson, "verify"), (poisson, "d_pi"), (poisson, "schouten"),
                         (multivec, "schouten")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, name=name, original=original:
                            events.append(name) or original(*a))
    images = poisson.PoissonStructure.generator_images
    counted = cached_property(lambda self: events.append("generator_images")
                              or images.func(self))
    counted.__set_name__(poisson.PoissonStructure, "generator_images")
    monkeypatch.setattr(poisson.PoissonStructure, "generator_images", counted)
    [result] = cli.run_tasks(manifest)
    assert len(result.data["reports"]) == 9
    assert events == ["verify", "schouten", "generator_images", ("plans", 8), ("plans", 16)]
    assert len(planned) == len(set(planned)) == 2 * 4  # d/dx, d/dy, d/dz and () at each R


@pytest.mark.parametrize("name,k,d,radix", [
    ("so3", 1, 7, 8),
    ("so3", 1, 8, 16),
    ("s3_standard", 1, 6, 8),
    ("s3_standard", 1, 7, 16),
    ("s3_standard", 2, 7, 16),
])
def test_cohomology_where_the_radix_grows_matches_the_oracle(request, name, k, d, radix):
    # the radix of the coded keys is the least power of two above
    # d + |delta - 1| and at least 8: 16 from so3's d = 8 (delta = 1) and
    # s3_standard's d = 7 (delta = 2) on
    structure = (_fixture_structure(name) if name == "s3_standard"
                 else request.getfixturevalue(f"{name}_structure"))
    assert multivec._radix(d + abs(structure.coefficient_degree - 1)) == radix
    got, want = cohomology(structure, k, d), cohomology_oracle(structure, k, d)
    assert got == want and got.serialize() == want.serialize()
    assert list(vars(structure)["_plans"]) == [radix]


def test_no_module_cache_keeps_a_structure_alive(so3_structure):
    # the wedge plans live on the structure; the module caches hold only
    # charts, degrees and radices, so a structure is freed with its last
    # reference
    structure = require_poisson(so3_structure.pi)
    for d in range(4):
        cohomology(structure, 1, d)
    d_pi(structure, structure.pi)
    assert vars(structure)["_plans"] and poisson._coded_basis.cache_info().currsize
    ref = weakref.ref(structure)
    del structure
    gc.collect()
    assert ref() is None


def test_generator_images_stay_out_of_equality_and_repr(so3_structure):
    fresh = require_poisson(so3_structure.pi)
    assert so3_structure.generator_images  # cached on one of the two
    assert "generator_images" in vars(so3_structure)
    assert "generator_images" not in vars(fresh)
    assert so3_structure == fresh
    assert repr(so3_structure) == repr(fresh)
    assert "generator_images" not in repr(so3_structure)


# -- gauge transformations ----------------------------------------------------------------------------


def test_gauge_identity(ch3, so3_structure):
    out = gauge_transform(so3_structure, DiffForm.zero(ch3, 2))
    assert out.pi == so3_structure.pi


def test_gauge_constant_2d(chqp, pican_structure):
    # B = c dq^dp with c = 2: pi_B = (1/(1+c)) dp^dq (2x2 inverse by hand)
    b = DiffForm(chqp, 2, {(0, 1): RatFunc.const(chqp, 2)})
    out = gauge_transform(pican_structure, b)
    assert out.verified
    assert out.pi == MultiVec(chqp, 2, {(0, 1): RatFunc.const(chqp, F(-1, 3))})


def test_gauge_involution(ch2, xdxdy_structure):
    b = DiffForm(ch2, 2, {(0, 1): parse_expr("y", ch2)})
    forward = gauge_transform(xdxdy_structure, b)
    assert forward.verified
    back = gauge_transform(forward, DiffForm(ch2, 2, {(0, 1): parse_expr("-y", ch2)}))
    assert back.pi == xdxdy_structure.pi
    # the backward gauge clears the denominator of P; both outputs are the
    # ones RatFunc Gauss-Jordan printed
    assert (str(forward.pi), str(back.pi)) == ("((-x)/(x*y - 1)) d/dx^d/dy", "x d/dx^d/dy")


def test_gauges_compose_through_polynomial_denominators(ch3, so3_structure):
    # gauging by B1, then B2 is gauging by B1 + B2; the second gauge starts
    # from a P with the denominator x*z - 1 in every entry
    b1 = {(0, 1): "x"}
    b2 = {(1, 2): "z", (0, 2): "2"}

    def gauge(structure, table):
        return gauge_transform(structure, DiffForm(ch3, 2, {
            idx: parse_expr(text, ch3) for idx, text in table.items()}))

    once = gauge(so3_structure, b1)
    twice = gauge(once, b2)
    assert str(once.pi) == ("((-z)/(x*z - 1)) d/dx^d/dy + (y/(x*z - 1)) d/dx^d/dz"
                            " + ((-x)/(x*z - 1)) d/dy^d/dz")
    den = "(2*x*z - 2*y - 1)"
    assert str(twice.pi) == (f"((-z)/{den}) d/dx^d/dy + (y/{den}) d/dx^d/dz"
                             f" + ((-x)/{den}) d/dy^d/dz")
    assert twice.pi == gauge(so3_structure, {**b1, **b2}).pi


def test_gauge_denominators_are_primitive(ch3, so3_structure):
    # a form with non-integral coefficients: the common denominator of P_B
    # is printed primitive, with integer coefficients (it was 1/2*x*z - 1)
    b = DiffForm(ch3, 2, {(0, 1): parse_expr("1/2*x", ch3)})
    assert str(gauge_transform(so3_structure, b).pi) == (
        "((-2*z)/(x*z - 2)) d/dx^d/dy + (2*y/(x*z - 2)) d/dx^d/dz"
        " + ((-2*x)/(x*z - 2)) d/dy^d/dz")


# the gauge shapes of the rational benchmark workload
GAUGE_SHAPES = pytest.mark.parametrize("fixture,alpha", [
    ("so3", {0: "3*y*z", 1: "-2*x^2"}),
    ("book", {0: "x*y - 2*z^2", 1: "3*x*z", 2: "y^2"}),
    ("s3_standard", {2: "2*x*y"}),
    ("sl2r", {0: "-x*z", 1: "2*y^2"}),
])


def _gauge_case(fixture, alpha):
    """(pi, chart, d(alpha)) for a fixture's bivector and a 1-form table."""
    manifest = cli.load_manifest(fixtures.fixture_manifest(fixture))
    ch = manifest.chart
    return manifest.bivectors["pi"], ch, multivec.exterior_derivative(DiffForm(ch, 1, {
        (i,): parse_expr(text, ch) for i, text in alpha.items()}))


@GAUGE_SHAPES
def test_gauge_matrix_takes_one_gcd_per_entry(fixture, alpha):
    # the Pfaffian pair takes no gcd; each entry of P_B above
    # the diagonal is reduced by at most one, and each entry below it is the
    # negative of one above
    pi, ch, b = _gauge_case(fixture, alpha)
    gcd = expr.poly_gcd
    with mock.patch.object(expr, "poly_gcd", side_effect=gcd) as counted:
        pb = poisson.gauge_matrix(poisson.bivector_matrix(pi), poisson.bivector_matrix(b))
    assert pb is not None and any(not e.is_polynomial for row in pb for e in row)
    assert 0 < counted.call_count <= ch.dim * (ch.dim - 1) // 2
    assert all(pb[i][j] == -pb[j][i] for i in range(ch.dim) for j in range(ch.dim))


@GAUGE_SHAPES
def test_gauge_transform_takes_one_gcd_per_upper_entry_and_no_verify(fixture, alpha):
    # only the n(n-1)/2 entries above the diagonal are built, and the square
    # of a Poisson result is decided without verify
    pi, ch, b = _gauge_case(fixture, alpha)
    pi = verify(pi)
    gcd = expr.poly_gcd
    with mock.patch.object(expr, "poly_gcd", side_effect=gcd) as counted, \
            mock.patch.object(poisson, "verify", side_effect=verify) as verified:
        out = gauge_transform(pi, b)
    assert out.verified and out.schouten_square is None
    assert any(not c.is_polynomial for c in out.pi.coeffs.values())
    assert 0 < counted.call_count <= ch.dim * (ch.dim - 1) // 2
    assert verified.call_count == 0


def _pairs(matrix):
    """Each entry's numerator and denominator terms, in dict order."""
    return [[(list(e.num.terms.items()), list(e.den.terms.items())) for e in row]
            for row in matrix]


def _entries(pair):
    """RatFunc(x_ij, delta) above the diagonal, in row order, for a pair
    (x, delta) whose x is ``_gauge_pair``'s dict or the oracle's full matrix."""
    x, delta = pair
    if not isinstance(x, dict):
        x = {(i, j): x[i][j] for i, j in itertools.combinations(range(len(x)), 2)}
    return [[RatFunc(e, delta) for e in x.values()]]


def _assert_gauge_is_the_oracle(p, w):
    # the Pfaffian pair gives the entries of the Bareiss pair: the same
    # values, text and term order, and gauge_matrix builds those entries
    ours, theirs = _entries(poisson._gauge_pair(p, w)), _entries(bareiss_gauge_pair(p, w))
    assert ours == theirs
    assert str(ours) == str(theirs)
    assert _pairs(ours) == _pairs(theirs)
    upper = itertools.combinations(range(len(p)), 2)
    assert _pairs([[poisson.gauge_matrix(p, w)[i][j] for i, j in upper]]) == _pairs(theirs)


def _assert_closed_form_is_the_solve(p, w):
    # for pi ^ pi = 0, the Pfaffian pair is (c P, c (1 - beta)), beta =
    # sum_(i<j) W_ij P_ij, with c > 0 making delta primitive and integral
    x, delta = poisson._gauge_pair(p, w)
    upper = list(itertools.combinations(range(len(p)), 2))
    one_minus = 1 - sum((w[i][j] * p[i][j] for i, j in upper), RatFunc.zero(delta.chart))
    c = RatFunc.from_poly(delta) / one_minus
    assert c.is_polynomial and c.num.is_constant and c.num.constant_value() > 0
    assert all(RatFunc.from_poly(x[i, j]) == p[i][j] * c for i, j in upper)
    _assert_gauge_is_the_oracle(p, w)


def _rank_two(p):
    """Every 4 x 4 Pfaffian of P vanishes: pi ^ pi = 0."""
    pf = linalg.pfaffians(p)
    return all(pf(s).is_zero for s in itertools.combinations(range(len(p)), 4))


@GAUGE_SHAPES
def test_id_plus_over_poly_is_the_ratfunc_product(fixture, alpha):
    # I + P W over Poly, from the numerators of the polynomial P and W, is
    # the oracle's RatFunc product, and (I + P W) x = delta P holds exactly
    pi, _, b = _gauge_case(fixture, alpha)
    p, w = poisson.bivector_matrix(pi), poisson.bivector_matrix(b)
    pp, ww = ([[e.as_poly() for e in row] for row in m] for m in (p, w))
    id_plus = [[e + 1 if i == j else e for j, e in enumerate(row)]
               for i, row in enumerate(linalg.matmul(p, w))]
    by_poly = [[e + expr.Poly.const(e.chart, 1) if i == j else e for j, e in enumerate(row)]
               for i, row in enumerate(linalg.matmul(pp, ww))]
    assert by_poly == [[e.as_poly() for e in row] for row in id_plus]
    x, delta = poisson._gauge_pair(p, w)
    zero = expr.Poly.zero(delta.chart)
    n = len(p)
    full = [[x[i, j] if i < j else -x[j, i] if j < i else zero for j in range(n)]
            for i in range(n)]
    assert linalg.matmul(by_poly, full) == [[delta * e for e in row] for row in pp]


@GAUGE_SHAPES
def test_closed_form_gauge_is_the_solve_on_the_benchmark_shapes(fixture, alpha):
    pi, _, b = _gauge_case(fixture, alpha)
    _assert_closed_form_is_the_solve(poisson.bivector_matrix(pi), poisson.bivector_matrix(b))


def test_id_plus_over_poly_keeps_the_order_of_random_products(ch3):
    # entries of several terms in both P and W, so each product's term order shows
    rng = rng_for("id-plus")
    for _ in range(5):
        p = poisson.bivector_matrix(random_multivec(rng, ch3, 2))
        w = poisson.bivector_matrix(random_form(rng, ch3, 2))
        _assert_closed_form_is_the_solve(p, w)


def test_gauge_with_a_rational_pi_takes_the_ratfunc_product(ch3):
    # so3 over 1 + x^2 + y^2 + z^2, which is Poisson: a denominator that is
    # not constant is cleared before the Pfaffians, with the text the
    # RatFunc solve always gave
    den = "/(x^2 + y^2 + z^2 + 1)"
    pi = verify(MultiVec(ch3, 2, {(0, 1): parse_expr("z" + den, ch3),
                                  (1, 2): parse_expr("x" + den, ch3),
                                  (0, 2): parse_expr("-y" + den, ch3)}))
    b = multivec.exterior_derivative(DiffForm(ch3, 1, {(0,): parse_expr("y*z", ch3)}))
    out = gauge_transform(pi, b)
    assert out.verified and str(out.pi) == (
        "(z/(x^2 + 2*z^2 + 1)) d/dx^d/dy + ((-y)/(x^2 + 2*z^2 + 1)) d/dx^d/dz"
        " + (x/(x^2 + 2*z^2 + 1)) d/dy^d/dz")
    den_terms = [((2, 0, 0), 1), ((0, 0, 2), 2), ((0, 0, 0), 1)]
    assert _pairs([out.pi.coeffs.values()]) == [[
        ([((0, 0, 1), 1)], den_terms), ([((0, 1, 0), -1)], den_terms),
        ([((1, 0, 0), 1)], den_terms)]]
    _assert_gauge_is_the_oracle(poisson.bivector_matrix(pi.pi), poisson.bivector_matrix(b))


@pytest.mark.parametrize("n", [4, 5])
def test_closed_form_gauge_of_random_decomposable_bivectors(n):
    # pi = u ^ v, Poisson when u = f a and v = b for constant a and b, and in
    # general not; B = d(alpha), with integer or Fraction coefficients.  The
    # gauge reports the square that verify takes of its result
    rng = rng_for(f"closed-form gauge/{n}")
    ch = chart(*"xyzuv"[:n])
    seen = set()
    for k in range(8):
        if k % 2:
            f = random_poly(rng, ch, 1, 2)
            u = [f * rng.randint(-2, 2) for _ in range(n)]
            v = [RatFunc.const(ch, rng.randint(-2, 2)) for _ in range(n)]
        else:
            u, v = ([random_poly(rng, ch, 1, 2) for _ in range(n)] for _ in range(2))
        pi = MultiVec(ch, 2, {(i, j): u[i] * v[j] - u[j] * v[i]
                              for i, j in itertools.combinations(range(n), 2)})
        scale = F(1, k % 3 + 1)
        b = multivec.exterior_derivative(DiffForm(ch, 1, {
            (i,): random_poly(rng, ch, 2, 1) * scale for i in range(n)}))
        p, w = poisson.bivector_matrix(pi), poisson.bivector_matrix(b)
        assert _rank_two(p)
        _, delta = bareiss_gauge_pair(p, w)
        assert len(delta.terms) <= 200  # the solve's gcds are under the size guard
        _assert_closed_form_is_the_solve(p, w)
        out = gauge_transform(pi, b)
        assert out == verify(out.pi)
        seen.add((out.verified, scale == 1))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_closed_form_gauge_reduces_past_the_gcd_size_guard(ch2):
    # beta = x^5 y^4: (1 - beta)^2, the denominator of the Bareiss pair, has
    # degree 18, over poly_gcd's size guard, so the solve left its entries
    # unreduced; the Pfaffian pair's entries are reduced, with the same values
    pi = MultiVec(ch2, 2, {(0, 1): parse_expr("x^5", ch2)})
    b = DiffForm(ch2, 2, {(0, 1): parse_expr("y^4", ch2)})
    p, w = poisson.bivector_matrix(pi), poisson.bivector_matrix(b)
    ours = _entries(poisson._gauge_pair(p, w))
    theirs = _entries(bareiss_gauge_pair(p, w))
    assert ours == theirs
    assert str(theirs[0][0]) == "(-x^10*y^4 + x^5)/(x^10*y^8 - 2*x^5*y^4 + 1)"
    assert str(ours[0][0]) == "(-x^5)/(x^5*y^4 - 1)"
    assert str(gauge_transform(pi, b).pi) == "((-x^5)/(x^5*y^4 - 1)) d/dx^d/dy"


@pytest.mark.parametrize("case", ["canonical R^4", "not Poisson", "rational"])
def test_gauge_of_rank_four_or_rational_bivectors_takes_the_solve(case):
    # bivectors with pi ^ pi != 0 or rational entries take the same Pfaffian
    # route, with the entries of the solve
    ch = chart("x", "y", "z", "w")
    pi = MultiVec(ch, 2, {idx: parse_expr(text, ch) for idx, text in {
        "canonical R^4": {(0, 1): "-1", (2, 3): "-1"},
        "not Poisson": {(0, 1): "z", (2, 3): "x", (1, 2): "w"},
        "rational": {(0, 1): "1/(1 + x^2)"},
    }[case].items()})
    b = multivec.exterior_derivative(DiffForm(ch, 1, {(0,): parse_expr("y*z", ch)}))
    p = poisson.bivector_matrix(pi)
    assert _rank_two(p) == (case == "rational")
    _assert_gauge_is_the_oracle(p, poisson.bivector_matrix(b))
    out = gauge_transform(pi, b)
    assert any(not c.is_polynomial for c in out.pi.coeffs.values())


def _random_gauge(rng, n, poisson_pi, rational, scale):
    """(pi, d(alpha)) on an n-dimensional chart.  A Poisson pi is f times
    dx^dy or so3 on the first two or three coordinates, f a polynomial or
    1/(g^2 + 1) in them, plus a constant pair on each further two; any other
    pi has one-term linear entries on about 70% of the pairs, its first row
    over 1 + h^2 when rational.  alpha has two-term components of degree 2
    or less on n - 1 coordinates, times scale."""
    ch = chart(*"xyzuvw"[:n])
    if poisson_pi:
        k = 3 if n % 2 else 2
        g = random_poly(rng, chart(*"xyz"[:k]), 1, 2).lift(ch)
        f = 1 / (g * g + 1) if rational else g + 2
        coeffs = {idx: parse_expr(text, ch) * f
                  for idx, text in (BASE_PI[3] if k == 3 else {(0, 1): "1"}).items()}
        coeffs.update({(i, i + 1): RatFunc.const(ch, rng.choice([-2, -1, 1, 2]))
                       for i in range(k, n - 1, 2)})
    else:
        coeffs = {idx: random_poly(rng, ch, 1, 1)
                  for idx in itertools.combinations(range(n), 2) if rng.random() < 0.7}
        if rational:
            coeffs = {idx: c / (random_poly(rng, ch, 1, 1) ** 2 + 1) if idx[0] == 0 else c
                      for idx, c in coeffs.items()}
    alpha = DiffForm(ch, 1, {(i,): random_poly(rng, ch, 2, 2) * scale
                             for i in rng.sample(range(n), n - 1)})
    return MultiVec(ch, 2, coeffs), multivec.exterior_derivative(alpha)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_gauge_pair_solves_i_plus_pw_exactly(n):
    # with P = X / a and W = Y / b cleared, (I + P W) (x / delta) = P reads
    # (ab I + X Y) x = delta b X over Poly.  The pair is the Bareiss
    # oracle's by value, and by text wherever the oracle's delta is under
    # poly_gcd's size guard; a Poisson pi gauges to a Poisson pi_B
    rng = rng_for(f"pfaffian gauge/{n}")
    seen = set()
    for k in range(8):
        poisson_pi, rational = k % 2 == 0, k % 4 >= 2
        pi, b = _random_gauge(rng, n, poisson_pi, rational, F(1, k % 3 + 1))
        assert verify(pi).verified or not poisson_pi
        p, w = poisson.bivector_matrix(pi), poisson.bivector_matrix(b)
        pair, theirs = poisson._gauge_pair(p, w), bareiss_gauge_pair(p, w)
        assert (pair is None) == (theirs is None)
        if pair is None:
            continue
        x, delta = pair
        (xp, a), (y, b_scale) = linalg._cleared_matrix(p), linalg._cleared_matrix(w)
        # the cleared matrices are zero on and below the diagonal
        assert all(m[i][j].is_zero for m in (xp, y) for i in range(n) for j in range(i + 1))
        xp, y = ([[m[i][j] if i < j else -m[j][i] for j in range(n)] for i in range(n)]
                 for m in (xp, y))
        zero = expr.Poly.zero(delta.chart)
        full = [[x[i, j] if i < j else -x[j, i] if j < i else zero for j in range(n)]
                for i in range(n)]
        lhs = [[e + a * b_scale if i == j else e for j, e in enumerate(row)]
               for i, row in enumerate(linalg.matmul(xp, y))]
        assert linalg.matmul(lhs, full) == [[delta * b_scale * e for e in row] for row in xp]
        assert all((x[i, j] * theirs[1] - theirs[0][i][j] * delta).is_zero for i, j in x)
        if len(theirs[1].terms) <= 200:
            assert str(_entries(pair)) == str(_entries(theirs))
        if poisson_pi:
            assert gauge_transform(pi, b).verified
        seen.add((poisson_pi, rational, delta.is_constant))
    assert {(True, False), (True, True), (False, False), (False, True)} <= {
        key[:2] for key in seen if not key[2]}


@pytest.mark.parametrize("name,degree,terms,den_terms", [
    ("r4a", 2, 4, 6), ("r4b", 3, 5, 19), ("r4c", 3, 9, 35)])
def test_rank_four_gauges_of_canonical_r4(name, degree, terms, den_terms):
    # canonical R^4 gauged by d(alpha): delta is Pf(M), and the Bareiss
    # oracle's delta is its square up to a constant.  Each entry of pi_B is
    # the oracle's by value, over one den_terms-term denominator.  "r4a" and
    # "r4b" keep the oracle's text; "r4c"'s oracle delta is past poly_gcd's
    # size guard, and the solve left its entries over 287 terms
    manifest = cli.load_manifest(fixtures.fixture_manifest("r4_canonical"))
    ch, pi, rng = manifest.chart, manifest.bivectors["pi"], rng_for(name)
    b = multivec.exterior_derivative(DiffForm(ch, 1, {
        (i,): random_poly(rng, ch, degree, terms) for i in range(ch.dim)}))
    p, w = poisson.bivector_matrix(pi), poisson.bivector_matrix(b)
    (x, delta), (theirs, their_delta) = poisson._gauge_pair(p, w), bareiss_gauge_pair(p, w)
    ratio = RatFunc(their_delta, delta * delta)
    assert ratio.num.is_constant and ratio.den.is_constant
    assert all((x[i, j] * their_delta - theirs[i][j] * delta).is_zero for i, j in x)
    out = gauge_transform(pi, b)
    assert out.verified
    assert [len(c.den.terms) for c in out.pi.coeffs.values()] == [den_terms] * 6
    assert (len(their_delta.terms) > 200) == (name == "r4c")
    if name != "r4c":
        assert str(_entries((x, delta))) == str(_entries((theirs, their_delta)))


def _poisson_gauge_pairs(rng, ch, pi):
    """(X, delta) of the gauge of the Poisson bivector pi by d(alpha) for two
    seeded random polynomial 1-forms alpha, by the Bareiss oracle: X / delta
    is Poisson."""
    p, pairs = poisson.bivector_matrix(pi), []
    while len(pairs) < 2:
        alpha = DiffForm(ch, 1, {(i,): random_poly(rng, ch, 2) for i in range(ch.dim)})
        b = multivec.exterior_derivative(alpha)
        pair = bareiss_gauge_pair(p, poisson.bivector_matrix(b))
        if pair is not None and not pair[1].is_constant:
            pairs.append(pair)
    return pairs


BASE_PI = {
    3: {(0, 1): "z", (1, 2): "x", (0, 2): "-y"},
    4: {(0, 1): "1", (2, 3): "1"},
    5: {(0, 1): "z", (1, 2): "x", (0, 2): "-y", (3, 4): "1"},
}


def _bivector_pairs(n):
    """Seeded (X, delta, expected) on an n-dimensional chart, where expected
    says whether X / delta is Poisson: two gauges of the Poisson bivector
    BASE_PI[n] (Poisson), a random X over a random delta (not checked), and
    BASE_PI[n] over a random delta, Poisson in dimension 3 only."""
    rng = rng_for(f"cleared-square/{n}")
    ch = chart(*"xyzuv"[:n])
    pi = MultiVec(ch, 2, {idx: parse_expr(text, ch) for idx, text in BASE_PI[n].items()})
    out = [(x, delta, True) for x, delta in _poisson_gauge_pairs(rng, ch, pi)]
    for x, expected in ((random_multivec(rng, ch, 2), None), (pi, n == 3)):
        delta = expr.Poly.const(ch, 5)
        while delta.is_constant:
            delta = random_poly(rng, ch, 2).as_poly() + expr.Poly.const(ch, 5)
        out.append(([[e.as_poly() for e in row] for row in poisson.bivector_matrix(x)],
                    delta, expected))
    return ch, out


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cleared_square_identity_against_schouten(n):
    # delta^3 [X/delta, X/delta] = delta [X, X] + 2 V ^ X with
    # V_j = sum_i d(delta)/dx_i X_ij, checked against the Schouten bracket of
    # the rational bivector; V ^ X vanishes in dimension 3, and the gauge
    # check is zero exactly when [X/delta, X/delta] is
    ch, pairs = _bivector_pairs(n)
    upper = list(itertools.combinations(range(n), 2))
    seen = set()
    for x, delta, expected in pairs:
        pi = MultiVec(ch, 2, {(i, j): RatFunc(x[i][j], delta) for i, j in upper})
        x_mv = MultiVec(ch, 2, {(i, j): RatFunc.from_poly(x[i][j]) for i, j in upper})
        d = RatFunc.from_poly(delta)
        v = MultiVec(ch, 1, {(j,): RatFunc.from_poly(sum(
            (delta.diff(i) * x[i][j] for i in range(n)), expr.Poly.zero(ch))) for j in range(n)})
        cleared, v_x = schouten_oracle(pi, pi).scale(d ** 3), wedge(v, x_mv)
        assert cleared == schouten_oracle(x_mv, x_mv).scale(d) + v_x.scale(2)
        assert v_x.is_zero or n > 3
        check = poisson._cleared_square(x_mv, delta)
        assert check == cleared
        assert expected in (None, check.is_zero)
        seen.add(check.is_zero)
    assert seen == {True, False}


def _random_rational_bivector(rng, ch):
    """A random bivector whose coefficients have random denominators of their own."""
    coeffs = {}
    for idx, c in random_multivec(rng, ch, 2).coeffs.items():
        den = random_poly(rng, ch, 1)
        coeffs[idx] = c if den.is_zero else c / den
    return MultiVec(ch, 2, coeffs)


@pytest.mark.parametrize("n", [3, 4])
def test_verify_of_rational_bivectors_matches_the_oracle(n):
    # verify writes pi over the lcm of its denominators; the square it reports
    # is the oracle's [pi, pi] by value, and verified says whether that is
    # zero.  The X / delta of _bivector_pairs add Poisson cases, and V ^ X is
    # formed in dimension 4 only
    ch, pairs = _bivector_pairs(n)
    upper = list(itertools.combinations(range(n), 2))
    cases = [MultiVec(ch, 2, {(i, j): RatFunc(x[i][j], delta) for i, j in upper})
             for x, delta, _ in pairs]
    rng = rng_for(f"rational squares/{n}")
    cases += [_random_rational_bivector(rng, ch) for _ in range(6)]
    seen = set()
    for pi in cases:
        with mock.patch.object(poisson, "wedge", side_effect=wedge) as wedged:
            ps = verify(pi)
        expected = schouten_oracle(pi, pi)
        assert ps.verified == expected.is_zero
        assert ps.schouten_square == (None if ps.verified else expected)
        assert wedged.called == (n > 3)
        seen.add(ps.verified)
    assert seen == {True, False}


def test_f_times_so3_verifies_for_a_rational_f(ch3, so3_structure):
    for text in ["1/(1 + x^2 + y^2 + z^2)", "(x - y*z)/(2*x^2 + 3*y + 1)", "x^2/3"]:
        pi = so3_structure.pi.scale(parse_expr(text, ch3))
        assert verify(pi).verified and schouten_oracle(pi, pi).is_zero


@pytest.mark.parametrize("alpha", [{0: "y"}, {0: "y*z", 3: "x^2"}, {1: "w^2", 2: "x*y"}])
def test_gauge_of_a_bivector_that_is_not_poisson_takes_no_verify(alpha):
    # the gauge reports the square it took, which is the oracle's [pi_B, pi_B]
    ch = chart("x", "y", "z", "w")
    pi = MultiVec(ch, 2, {(0, 1): parse_expr("z", ch), (2, 3): parse_expr("x", ch),
                          (1, 2): parse_expr("w", ch)})
    b = multivec.exterior_derivative(DiffForm(ch, 1, {
        (i,): parse_expr(text, ch) for i, text in alpha.items()}))
    with mock.patch.object(poisson, "verify", side_effect=verify) as verified:
        out = gauge_transform(pi, b)
    assert verified.call_count == 0
    assert any(not c.is_polynomial for c in out.pi.coeffs.values())
    assert not out.verified and out.schouten_square == schouten_oracle(out.pi, out.pi)


def test_gauge_failure_is_verifys_report():
    # a 4-D bivector that is not Poisson, gauged by a constant closed B: the
    # result reports the Schouten square exactly as verify does
    ch = chart("x", "y", "z", "w")
    pi = MultiVec(ch, 2, {(0, 1): parse_expr("z", ch), (2, 3): parse_expr("x", ch),
                          (1, 2): parse_expr("w", ch)})
    assert not verify(pi).verified
    out = gauge_transform(pi, DiffForm(ch, 2, {(0, 1): RatFunc.const(ch, 1)}))
    assert any(not c.is_polynomial for c in out.pi.coeffs.values())
    report = verify(out.pi)
    assert out.verified is False and out.schouten_square is not None
    assert out.schouten_square == report.schouten_square
    assert str(out.schouten_square) == str(report.schouten_square)
    assert out == report


def test_gauge_rejects_nonclosed():
    ch = chart("x", "y", "z")
    pi = verify(MultiVec(ch, 2, {(0, 1): RatFunc.const(ch, 1)}))
    b = DiffForm(ch, 2, {(0, 1): parse_expr("z", ch)})
    with pytest.raises(NotClosedError):
        gauge_transform(pi, b)


def test_gauge_rejects_singular(ch2):
    # with {x,y} = 1 and B = c dx^dy the matrix I + P W is (1 - c) I, so
    # c = 1 makes it identically singular
    pi = verify(MultiVec(ch2, 2, {(0, 1): RatFunc.const(ch2, 1)}))
    b = DiffForm(ch2, 2, {(0, 1): RatFunc.const(ch2, 1)})
    with pytest.raises(PoissonError):
        gauge_transform(pi, b)


def test_closed_form_gauge_rejects_one_minus_beta_zero_without_a_solve():
    # {x,y} = 1 and B = dx^dy + z dz^dw give beta = 1: I + P W is singular
    # exactly when 1 - beta = 0, as the solve finds too
    ch = chart("x", "y", "z", "w")
    pi = verify(MultiVec(ch, 2, {(0, 1): RatFunc.const(ch, 1)}))
    b = DiffForm(ch, 2, {(0, 1): RatFunc.const(ch, 1), (2, 3): parse_expr("z", ch)})
    with pytest.raises(
            PoissonError, match=r"^Id \+ B_flat pi# singular as a rational-function matrix$"):
        gauge_transform(pi, b)
    p = poisson.bivector_matrix(pi.pi)
    assert bareiss_gauge_pair(p, poisson.bivector_matrix(b)) is None


# -- is_poisson_map -------------------------------------------------------------------------------------


def test_projection_is_poisson_map(ch3, so3_structure):
    big = chart("x1", "y1", "z1", "u", "v")
    # product of so3* with the zero structure on R^2
    coeffs = {}
    for (i, j), c in so3_structure.pi.coeffs.items():
        coeffs[(i, j)] = c.subst([RatFunc.var(big, k) for k in range(3)])
    product = verify(MultiVec(big, 2, coeffs))
    proj = PolyMap(big, ch3, tuple(RatFunc.var(big, i) for i in range(3)))
    assert is_poisson_map(proj, product, so3_structure)


def test_identity_is_poisson_map(ch3, so3_structure):
    assert is_poisson_map(PolyMap.identity(ch3), so3_structure, so3_structure)


def test_diagonal_not_poisson_map(ch2, xdxdy_structure):
    big = chart("x1", "y1", "x2", "y2")
    x1 = parse_expr("x1", big)
    x2 = parse_expr("x2", big)
    product = verify(MultiVec(big, 2, {(0, 1): x1, (2, 3): x2}))
    diag = PolyMap(ch2, big, (
        parse_expr("x", ch2), parse_expr("y", ch2),
        parse_expr("x", ch2), parse_expr("y", ch2),
    ))
    assert not is_poisson_map(diag, xdxdy_structure, product)


def test_rational_poisson_map(ch2, xdxdy_structure):
    # on pi = x d/dx ^ d/dy, phi = (x, y + g(x)) keeps {x, y} = x for any g,
    # and (x, y/(1 + x^2)) scales it; decided exactly, with no sample points
    x = parse_expr("x", ch2)
    shear = PolyMap(ch2, ch2, (x, parse_expr("y + 1/(1+x^2)", ch2)))
    assert is_poisson_map(shear, xdxdy_structure, xdxdy_structure) is True
    scaled = PolyMap(ch2, ch2, (x, parse_expr("y/(1+x^2)", ch2)))
    assert is_poisson_map(scaled, xdxdy_structure, xdxdy_structure) is False
    # the same verdicts on {x, y} = 1/(1+x^2): both brackets depend on x
    # alone, and det(dphi) is 1 for the shear and 1/(1+x^2) for the scaling
    rational = verify(MultiVec(ch2, 2, {(0, 1): parse_expr("1/(1+x^2)", ch2)}))
    assert is_poisson_map(shear, rational, rational) is True
    assert is_poisson_map(scaled, rational, rational) is False


# -- top power and log degeneracy -----------------------------------------------------------------------


def test_top_power_canonical(chqp, pican_structure):
    top = top_power(pican_structure)
    assert top.coeff((0, 1)) == RatFunc.const(chqp, -1)


def test_top_power_odd_dimension(ch3, so3_structure):
    with pytest.raises(PoissonError):
        top_power(so3_structure)


def test_log_degeneracy_log4d():
    ch = chart("y1", "y2", "q", "p")
    pi = verify(MultiVec(ch, 2, {
        (0, 1): parse_expr("y1", ch),
        (2, 3): RatFunc.const(ch, -1),
    }))
    top = top_power(pi)
    coeff = top.coeff((0, 1, 2, 3))
    assert coeff == parse_expr("-2*y1", ch)  # raw wedge, no 1/n!
    samples = [[F(0), F(t), F(1), F(2)] for t in range(3)]
    report = log_degeneracy_check(pi, samples)
    assert report.all_transversal


def test_log_degeneracy_violation(ch2):
    pi = verify(MultiVec(ch2, 2, {(0, 1): parse_expr("x^2", ch2)}))
    report = log_degeneracy_check(pi, [[F(0), F(1)]])
    assert not report.all_transversal
    assert report.violating_points == [[F(0), F(1)]]


def test_log_degeneracy_rejects_off_locus(ch2, xdxdy_structure):
    with pytest.raises(PoissonError):
        log_degeneracy_check(xdxdy_structure, [[F(1), F(0)]])


def test_log_degeneracy_prints_the_sample_off_the_locus(ch2, xdxdy_structure):
    with pytest.raises(PoissonError, match=r"^sample \(1/2, 0\) is not on the zero locus$"):
        log_degeneracy_check(xdxdy_structure, [[F(1, 2), F(0)]])


# -- isotropy Lie algebra ------------------------------------------------------------------------------


def test_isotropy_so3_at_origin(so3_structure):
    g = isotropy_bracket_at(so3_structure, [F(0)] * 3)
    assert g.dim == 3
    assert g.constants[0][1] == (F(0), F(0), F(1))
    assert g.constants[1][2] == (F(1), F(0), F(0))
    assert g.constants[2][0] == (F(0), F(1), F(0))


def test_isotropy_trivial_on_symplectic(pican_structure):
    g = isotropy_bracket_at(pican_structure, [F(2), F(-1)])
    assert g.dim == 0


def test_isotropy_abelian(ch2):
    pi = verify(MultiVec(ch2, 2, {(0, 1): parse_expr("x^2+y^2", ch2)}))
    g = isotropy_bracket_at(pi, [F(0), F(0)])
    assert g.dim == 2
    assert all(
        g.constants[i][j] == (F(0), F(0)) for i in range(2) for j in range(2)
    )


# -- structural invariants ---------------------------------------------------------------------------------


def test_hamiltonian_fields_bracket_homomorphism(ch3, so3_structure):
    rng = rng_for("brkpres")
    for _ in range(10):
        f = random_poly(rng, ch3)
        g = random_poly(rng, ch3)
        lhs = schouten_oracle(
            hamiltonian_vf(so3_structure, f), hamiltonian_vf(so3_structure, g)
        )
        rhs = hamiltonian_vf(so3_structure, bracket(so3_structure, f, g))
        assert lhs == rhs


def test_bracket_leibniz(ch3, sl2r_structure):
    rng = rng_for("leib2")
    for _ in range(10):
        f, g, h = (random_poly(rng, ch3) for _ in range(3))
        assert bracket(sl2r_structure, f, g * h) == \
            bracket(sl2r_structure, f, g) * h + bracket(sl2r_structure, f, h) * g
