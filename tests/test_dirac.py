from fractions import Fraction as F

from poisskit import poisson
from poisskit.dirac import (
    ConstraintSystem,
    DiracSectionFamily,
    coregularity_check,
    courant_tensor,
    dirac_bracket,
    dual_pair_check,
    forward_matches,
    from_2form_at,
    from_bivector_at,
    gauge_at,
    kernel_and_range,
    reconstruct_from_range,
    transversal_induced_poisson_at,
)
from poisskit.expr import RatFunc, chart, parse_expr
from poisskit.multivec import DiffForm, MultiVec, PolyMap
from poisskit.poisson import gauge_transform, is_poisson_map, jacobiator_trivector, matrix_at

P = [F(1), F(2), F(3)]


def _form(ch, table):
    return DiffForm(ch, 2, {idx: parse_expr(text, ch) for idx, text in table.items()})


def _bivector(ch, table):
    return MultiVec(ch, 2, {idx: parse_expr(text, ch) for idx, text in table.items()})


# -- pointwise graphs and the gauge action ----------------------------------------


def test_graph_of_2form_is_gauge_of_zero(ch3):
    b = _form(ch3, {(0, 1): "z", (1, 2): "x"})
    zero = DiffForm.zero(ch3, 2)
    assert from_2form_at(b, P) == gauge_at(from_2form_at(zero, P), matrix_at(b, P))


def test_gauge_at_matches_gauge_transform(ch3, so3_structure):
    b = _form(ch3, {(0, 1): "1", (1, 2): "2"})
    lhs = gauge_at(from_bivector_at(so3_structure, P), matrix_at(b, P))
    assert lhs == from_bivector_at(gauge_transform(so3_structure, b), P)


def test_reconstruct_from_range_inverts_kernel_and_range(so3_structure):
    lag = from_bivector_at(so3_structure, P)
    assert reconstruct_from_range(kernel_and_range(lag), 3) == lag


# -- Courant tensor -------------------------------------------------------------------


def test_courant_tensor_of_bivector_graph_is_jacobiator(ch3, so3_structure):
    family = DiracSectionFamily.graph_of_bivector(so3_structure.pi, samples=[P])
    assert all(v.is_zero for v in courant_tensor(family).values())
    pi = _bivector(ch3, {(0, 1): "x", (1, 2): "y"})
    tensor = courant_tensor(DiracSectionFamily.graph_of_bivector(pi))
    assert tensor == {(0, 1, 2): parse_expr("x", ch3)}
    assert jacobiator_trivector(pi).coeff((0, 1, 2)) == parse_expr("x", ch3)


def test_courant_tensor_of_2form_graph_is_d_omega(ch3):
    omega = _form(ch3, {(0, 1): "z", (1, 2): "x"})
    tensor = courant_tensor(DiracSectionFamily.graph_of_2form(omega))
    assert tensor == {(0, 1, 2): RatFunc.const(ch3, 2)}
    closed = _form(ch3, {(0, 1): "x", (1, 2): "z"})
    assert courant_tensor(DiracSectionFamily.graph_of_2form(closed))[(0, 1, 2)].is_zero


# -- maps ------------------------------------------------------------------------------


def test_dual_pair_check(chqp):
    line = chart("u")
    zero = MultiVec.zero(line, 2)
    omega = _form(chqp, {(0, 1): "1"})
    q = PolyMap(chqp, line, (parse_expr("q", chqp),))
    p = PolyMap(chqp, line, (parse_expr("p", chqp),))
    samples = [[F(1), F(2)], [F(-1), F(1, 2)]]
    assert dual_pair_check(omega, q, q, zero, zero, samples)
    assert not dual_pair_check(omega, q, p, zero, zero, samples)


def test_forward_matches_agrees_with_is_poisson_map(ch3, so3_structure):
    samples = [P, [F(0), F(1), F(-1)]]
    identity = PolyMap.identity(ch3)
    assert forward_matches(identity, so3_structure, so3_structure, samples)
    double = PolyMap.linear(ch3, ch3, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert not forward_matches(double, so3_structure, so3_structure, samples)
    assert is_poisson_map(double, so3_structure, so3_structure) == (False, "symbolic")


def test_coregularity_of_a_line_into_so3(ch3, so3_structure):
    line = chart("t")
    t = parse_expr("t", line)
    phi = PolyMap(line, ch3, (t, RatFunc.zero(line), RatFunc.zero(line)))
    report = coregularity_check(so3_structure, phi, [[F(1)], [F(2)]])
    assert report.dims == [3, 3] and report.constant
    report = coregularity_check(so3_structure, phi, [[F(1)], [F(0)]])
    assert report.dims == [3, 1] and not report.constant


# -- constraint systems -----------------------------------------------------------------


def test_transversal_induced_poisson_matches_dirac_bracket(ch4):
    structure = poisson.require_poisson(_bivector(ch4, {(0, 1): "1", (2, 3): "1"}))
    plane = chart("a", "b")
    a, b, zero = parse_expr("a", plane), parse_expr("b", plane), RatFunc.zero(plane)
    cs = ConstraintSystem(
        structure,
        [parse_expr("q2", ch4), parse_expr("p2", ch4)],
        [0, 0],
        parametrization=PolyMap(plane, ch4, (a, b, zero, zero)),
    )
    matrix = transversal_induced_poisson_at(structure, cs, [F(1), F(2)])
    assert matrix == [[0, 1], [-1, 0]]
    bracket, _ = dirac_bracket(cs)
    assert bracket(parse_expr("q1", ch4), parse_expr("p1", ch4)) == RatFunc.const(plane, 1)
