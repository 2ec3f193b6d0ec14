from fractions import Fraction as F

import pytest

from poisskit import flow, linalg, poisson
from poisskit.dirac import (
    ConstraintSystem,
    DiracError,
    DiracSectionFamily,
    LinearLagrangian,
    NotCosymplecticError,
    SubmanifoldFlags,
    backward_image,
    classify_submanifold,
    constraint_bracket_matrix,
    coregularity_check,
    courant_tensor,
    dirac_bracket,
    dual_pair_check,
    forward_image,
    gauge_at,
    kernel_and_range,
    reconstruct_from_range,
    transversal_induced_poisson_at,
)
from poisskit.expr import ChartMismatchError, RatFunc, chart, parse_expr
from poisskit.multivec import DiffForm, MultiVec, PolyMap, exterior_derivative
from poisskit.poisson import gauge_transform, is_poisson_map, matrix_at

from conftest import (
    bareiss_det,
    bareiss_inverse,
    courant_oracle,
    dirac_bivector_oracle,
    dirac_bracket_oracle,
    jacobiator_trivector,
    random_form,
    random_multivec,
    random_poly,
    rng_for,
)

P = [F(1), F(2), F(3)]


def _graph_at(structure, point):
    return DiracSectionFamily.graph_of_bivector(structure).evaluate_at(point)


def _form(ch, table):
    return DiffForm(ch, 2, {idx: parse_expr(text, ch) for idx, text in table.items()})


def _bivector(ch, table):
    return MultiVec(ch, 2, {idx: parse_expr(text, ch) for idx, text in table.items()})


# -- pointwise graphs and the gauge action ----------------------------------------


def test_linear_lagrangian_accepts_spans_and_rejects_the_rest():
    # the graph of [[0, 1], [-1, 0]], given by two different spanning sets
    graph = LinearLagrangian(2, [[1, 0, 0, 1], [0, 1, -1, 0]])
    assert graph == LinearLagrangian(2, [[1, 1, -1, 1], [F(1, 2), 0, 0, F(1, 2)]])
    assert graph != LinearLagrangian(2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert str(graph) == "span{(1, 0, 0, 1); (0, 1, -1, 0)}"
    assert str(LinearLagrangian(2, [[0, 0, 2, 4], [0, 0, 0, 3]])) == \
        "span{(0, 0, 1, 0); (0, 0, 0, 1)}"
    assert LinearLagrangian(1, [[0, 5]]) == LinearLagrangian(1, [[0, 1]])
    with pytest.raises(DiracError, match="basis vectors must have length 2n"):
        LinearLagrangian(2, [[1, 0, 0, 1], [0, 1, -1]])
    for dim, basis in [
        (2, []),                                          # empty
        (0, []),                                          # empty at dim 0
        (2, [[1, 0, 0, 1], [0, 1, -1, 0], [1, 1, -1, 1]]),  # n + 1 rows of rank n
        (2, [[1, 0, 0, 1], [2, 0, 0, 2]]),                # rank n - 1
        (2, [[1, 0, 0, 1], [0, 1, 1, 0]]),                # not isotropic
        (1, [[1, 1]]),                                    # <v, v> = 2
    ]:
        with pytest.raises(DiracError, match="basis does not span a lagrangian subspace"):
            LinearLagrangian(dim, basis)


def test_graph_of_2form_is_gauge_of_zero(ch3):
    b = _form(ch3, {(0, 1): "z", (1, 2): "x"})
    zero = DiffForm.zero(ch3, 2)
    graph, graph_of_zero = (DiracSectionFamily.graph_of_2form(w).evaluate_at(P) for w in (b, zero))
    assert graph == gauge_at(graph_of_zero, matrix_at(b, P))


def test_gauge_at_matches_gauge_transform(ch3, so3_structure):
    b = _form(ch3, {(0, 1): "1", (1, 2): "2"})
    lhs = gauge_at(_graph_at(so3_structure, P), matrix_at(b, P))
    assert lhs == _graph_at(gauge_transform(so3_structure, b), P)


def test_reconstruct_from_range_inverts_kernel_and_range(so3_structure):
    lag = _graph_at(so3_structure, P)
    assert reconstruct_from_range(kernel_and_range(lag), 3) == lag


def test_reconstruct_from_range_is_one_elimination(so3_structure, monkeypatch):
    # the range of the so3 graph at P is 2-dimensional; every alpha_a comes
    # from one RREF, and the other is the canonical span LinearLagrangian stores
    lag = _graph_at(so3_structure, P)
    data = kernel_and_range(lag)
    assert len(data.range_basis) == 2
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m) or rref(m))
    result = reconstruct_from_range(data, 3)
    assert len(calls) == 2
    assert result == lag


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


def _random_entry(rng, ch):
    """Zero, a polynomial, or a polynomial over 1 + c x_i^2."""
    if rng.random() < 0.25:
        return RatFunc.zero(ch)
    num = random_poly(rng, ch)
    if rng.random() < 0.3:
        x = RatFunc.var(ch, rng.randrange(ch.dim))
        num = num / (1 + rng.randint(1, 3) * x * x)
    return num


@pytest.mark.parametrize("names", ["xyz", "xyzw"])
def test_courant_tensor_of_general_families_matches_the_definition(names):
    # rows that are in general neither isotropic nor spanning: the expansion
    # must agree with the Dorfman bracket and pairing of the definition
    ch = chart(*names)
    n = ch.dim
    rng = rng_for(f"courant {names}")
    nonzero = 0
    for _ in range(12 if n == 3 else 4):
        rows = [[_random_entry(rng, ch) for _ in range(2 * n)] for _ in range(n)]
        tensor = courant_tensor(DiracSectionFamily(ch, rows))
        assert tensor == courant_oracle(rows)
        nonzero += sum(not v.is_zero for v in tensor.values())
    assert nonzero > 10


@pytest.mark.parametrize("names", ["xyz", "xyzw"])
def test_courant_tensor_of_random_graphs(names):
    # graph of pi: the jacobiator (1/2)[pi, pi]; graph of omega: d omega
    ch = chart(*names)
    rng = rng_for(f"graphs {names}")
    for _ in range(4):
        pi = random_multivec(rng, ch, 2)
        jacobiator = jacobiator_trivector(pi)
        tensor = courant_tensor(DiracSectionFamily.graph_of_bivector(pi))
        assert tensor == {idx: jacobiator.coeff(idx) for idx in tensor}
        assert any(not v.is_zero for v in tensor.values())
        omega = random_form(rng, ch, 2)
        d_omega = exterior_derivative(omega)
        tensor = courant_tensor(DiracSectionFamily.graph_of_2form(omega))
        assert tensor == {idx: d_omega.coeff(idx) for idx in tensor}
        assert any(not v.is_zero for v in tensor.values())


def test_section_family_checks_its_rows(ch3):
    x, one = parse_expr("x", ch3), RatFunc.const(ch3, 1)
    with pytest.raises(DiracError, match="need exactly n sections, each a row of 2n entries"):
        DiracSectionFamily(ch3, [[x] * 6, [x] * 6])
    with pytest.raises(DiracError, match="need exactly n sections, each a row of 2n entries"):
        DiracSectionFamily(ch3, [[x] * 6, [x] * 6, [x] * 5])
    with pytest.raises(ChartMismatchError, match="section entries must be RatFuncs on the chart"):
        DiracSectionFamily(ch3, [[x] * 6, [x] * 6, [x] * 5 + [RatFunc.const(chart("u"), 1)]])
    with pytest.raises(ChartMismatchError, match="section entries must be RatFuncs on the chart"):
        DiracSectionFamily(ch3, [[x] * 6, [x] * 6, [x] * 5 + [1]])
    with pytest.raises(DiracError, match="graph_of_2form needs a 2-form"):
        DiracSectionFamily.graph_of_2form(DiffForm(ch3, 1, {(0,): one}))
    # non-isotropic rows have a Courant tensor, but fail the check at a sample
    rows = [[one] * 6, [x] * 6, [one, x, one, x, one, x]]
    assert set(courant_tensor(DiracSectionFamily(ch3, rows))) == {(0, 1, 2)}
    with pytest.raises(DiracError, match="basis does not span a lagrangian subspace"):
        courant_tensor(DiracSectionFamily(ch3, rows, samples=[P]))


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


def test_dual_pair_check_prints_the_failing_sample(chqp):
    line = chart("u")
    zero = MultiVec.zero(line, 2)
    omega = _form(chqp, {(0, 1): "1"})
    q = PolyMap(chqp, line, (parse_expr("q", chqp),))
    p = PolyMap(chqp, line, (parse_expr("p", chqp),))
    with pytest.raises(DiracError, match=r"^2-form degenerate at sample \(0, 1/2\)$"):
        dual_pair_check(_form(chqp, {(0, 1): "q"}), q, p, zero, zero, [[F(0), F(1, 2)]])
    square = PolyMap(chqp, line, (parse_expr("q^2", chqp),))
    with pytest.raises(DiracError, match=r"^a leg is not a submersion at \(0, 3\)$"):
        dual_pair_check(omega, square, p, zero, zero, [[F(0), F(3)]])


def test_dual_pair_check_takes_structures_on_the_legs_targets(chqp):
    omega = _form(chqp, {(0, 1): "1"})
    q = PolyMap(chqp, chart("u"), (parse_expr("q", chqp),))
    p = PolyMap(chqp, chart("u"), (parse_expr("p", chqp),))
    samples = [[F(1), F(2)]]
    on_v = MultiVec.zero(chart("v"), 2)
    with pytest.raises(ChartMismatchError, match="each structure must live on its leg's target"):
        dual_pair_check(omega, q, q, on_v, on_v, samples)
    plane = MultiVec.zero(chart("u", "w"), 2)
    with pytest.raises(ChartMismatchError, match="each structure must live on its leg's target"):
        dual_pair_check(omega, q, p, MultiVec.zero(chart("u"), 2), plane, samples)


def test_forward_image_of_graph_agrees_with_is_poisson_map(ch3, so3_structure):
    # phi is Poisson exactly when dphi pushes the graph of pi at each point
    # onto the graph of pi at its image; both sides are linear in the point
    # for a linear phi on so3*, so three independent points decide it
    samples = [P, [F(0), F(1), F(-1)], [F(1), F(0), F(1)]]
    rng = rng_for("forward")
    maps = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [1, 0, 0], [0, 0, -1]],
            [[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[2, 0, 0], [0, 2, 0], [0, 0, 2]]]
    maps += [[[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)] for _ in range(26)]
    verdicts = []
    for matrix in maps:
        phi = PolyMap.linear(ch3, ch3, matrix)
        pushes = all(forward_image(_graph_at(so3_structure, p), phi.jacobian_at(p))
                     == _graph_at(so3_structure, phi(p)) for p in samples)
        assert is_poisson_map(phi, so3_structure, so3_structure) is pushes
        verdicts.append(pushes)
    assert verdicts[:4] == [True, True, True, False] and verdicts.count(False) > 4


def test_coregularity_of_a_line_into_so3(ch3, so3_structure):
    line = chart("t")
    t = parse_expr("t", line)
    phi = PolyMap(line, ch3, (t, RatFunc.zero(line), RatFunc.zero(line)))
    report = coregularity_check(so3_structure, phi, [[F(1)], [F(2)]])
    assert report.dims == [3, 3] and report.constant
    report = coregularity_check(so3_structure, phi, [[F(1)], [F(0)]])
    assert report.dims == [3, 1] and not report.constant


def test_coregularity_of_a_map_takes_the_structures_chart(ch3, so3_structure):
    line = chart("t")
    t = parse_expr("t", line)
    elsewhere = PolyMap(line, chart("u", "v", "w"), (t, RatFunc.zero(line), RatFunc.zero(line)))
    with pytest.raises(ChartMismatchError, match="the map must land in the structure's chart"):
        coregularity_check(so3_structure, elsewhere, [[F(1)], [F(2)]])


def test_each_image_takes_two_reductions(so3_structure, monkeypatch):
    # the preimage rows of the kernel already span; rref runs once on the
    # image rows and once in LinearLagrangian
    lag = _graph_at(so3_structure, P)
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m) or rref(m))
    back = backward_image(lag, [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]])
    assert len(calls) == 2
    forward = forward_image(lag, [[F(1), F(0), F(0)], [F(0), F(1), F(1)]])
    assert len(calls) == 4
    assert str(back) == "span{(1, -4/5, 0, 0); (0, 0, 1, 5/4)}"
    assert str(forward) == "span{(1, 0, 0, -1); (0, 1, 1, 0)}"


# -- constraint systems -----------------------------------------------------------------


def _symplectic_plane_system(ch4):
    structure = poisson.require_poisson(_bivector(ch4, {(0, 1): "1", (2, 3): "1"}))
    plane = chart("a", "b")
    a, b, zero = parse_expr("a", plane), parse_expr("b", plane), RatFunc.zero(plane)
    return ConstraintSystem(structure, [parse_expr("q2", ch4), parse_expr("p2", ch4)], [0, 0],
                            [[F(1), F(2), F(0), F(0)], [F(0), F(0), F(0), F(0)]],
                            PolyMap(plane, ch4, (a, b, zero, zero)))


def test_transversal_induced_poisson_matches_dirac_bracket(ch4):
    cs = _symplectic_plane_system(ch4)
    matrix = transversal_induced_poisson_at(cs, [F(1), F(2)])
    assert matrix == [[0, 1], [-1, 0]]
    pd = dirac_bracket(cs)
    assert cs.restrict(poisson.bracket(pd, parse_expr("q1", ch4), parse_expr("p1", ch4))) == \
        RatFunc.const(cs.parametrization.source, 1)


def test_transversal_induced_poisson_reads_the_systems_structure(ch4):
    cs = _symplectic_plane_system(ch4)
    doubled = poisson.require_poisson(_bivector(ch4, {(0, 1): "2", (2, 3): "1"}))
    over_doubled = ConstraintSystem(doubled, cs.constraints, cs.level, cs.samples,
                                    cs.parametrization)
    assert transversal_induced_poisson_at(over_doubled, [F(1), F(2)]) == [[0, 2], [-2, 0]]


def test_coregularity_of_a_system_takes_its_structure_and_level_set(ch4):
    cs = _symplectic_plane_system(ch4)
    assert coregularity_check(cs.structure, cs).dims == [2, 2]
    on_n = [[F(3), F(-1), F(0), F(0)], [F(0), F(5), F(0), F(0)]]
    assert coregularity_check(cs.structure, cs, on_n).dims == [2, 2]
    with pytest.raises(DiracError, match="is not on the level set"):
        coregularity_check(cs.structure, cs, [[F(1), F(2), F(5), F(7)], [F(0), F(0), F(3), F(3)]])
    doubled = poisson.require_poisson(_bivector(ch4, {(0, 1): "2", (2, 3): "1"}))
    with pytest.raises(DiracError, match="lies over another structure"):
        coregularity_check(doubled, cs)


def test_dirac_bracket_through_polynomial_denominators():
    # psi2 = p2/(1 + q1^2) gives {psi1, psi2} = 1/(q1^2 + 1): the constraint
    # matrix, and the one restricted to N, have polynomial denominators.
    # The printed values are the ones RatFunc Gauss-Jordan gave; the Bareiss
    # oracle's inverse and determinant keep them, and Pf(C)^2 is its det.
    ch4 = chart("q1", "p1", "q2", "p2")
    structure = poisson.require_poisson(_bivector(ch4, {(0, 1): "1", (2, 3): "1"}))
    plane = chart("a", "b")
    a, b = parse_expr("a", plane), parse_expr("b", plane)
    cs = ConstraintSystem(
        structure, [parse_expr("q2 - q1^2", ch4), parse_expr("p2/(1 + q1^2)", ch4)], [0, 0],
        parametrization=PolyMap(plane, ch4, (a, b, a * a, RatFunc.zero(plane))))
    pd = dirac_bracket(cs)
    assert _rows(bareiss_inverse(constraint_bracket_matrix(cs))) == \
        [["0", "-q1^2 - 1"], ["q1^2 + 1", "0"]]
    p1, p2 = parse_expr("p1", ch4), parse_expr("p2", ch4)
    assert str(poisson.bracket(pd, p1, p2)) == "(-2*q1*p2)/(q1^2 + 1)"
    assert cs.restrict(poisson.bracket(pd, p1, p2)).is_zero
    f, g = parse_expr("p1*q2", ch4), parse_expr("q1 + p2", ch4)
    assert str(poisson.bracket(pd, f, g)) == "(-q1^2*q2 - 2*q1*q2*p2 - q2)/(q1^2 + 1)"
    assert str(cs.restrict(poisson.bracket(pd, f, g))) == "-a^2"
    restricted = [[e.subst([a, b, a * a, RatFunc.zero(plane)]) for e in row]
                  for row in constraint_bracket_matrix(cs)]
    assert _rows(restricted) == [["0", "1/(a^2 + 1)"], ["(-1)/(a^2 + 1)", "0"]]
    assert str(bareiss_det(restricted)) == "1/(a^4 + 2*a^2 + 1)"
    pf = linalg.pfaffians(restricted)((0, 1))
    assert str(pf) == "1/(a^2 + 1)" and pf * pf == bareiss_det(restricted)
    assert classify_submanifold(cs) == SubmanifoldFlags(
        poisson=False, coisotropic=False, cosymplectic=True, mode="exact")


def test_pfaffians_take_cleared_polynomial_matrices(monkeypatch):
    # the expansion cancels through gcds on RatFunc entries with distinct
    # denominators, so each caller clears its matrix first: the gauge pair,
    # dirac_bracket and the exact classification pass Poly entries only,
    # here from constraint and bivector entries over 1 + q1^2
    seen = []
    pfaffians = linalg.pfaffians
    monkeypatch.setattr(linalg, "pfaffians", lambda a: seen.append(
        {type(e).__name__ for row in a for e in row}) or pfaffians(a))
    ch4 = chart("q1", "p1", "q2", "p2")
    structure = poisson.require_poisson(_bivector(ch4, {(0, 1): "1/(1 + q1^2)", (2, 3): "1"}))
    gauge_transform(structure, _form(ch4, {(0, 2): "1", (1, 3): "p1"}))
    assert seen == [{"Poly"}, {"Poly"}]
    plane = chart("a", "b")
    a, b = parse_expr("a", plane), parse_expr("b", plane)
    cs = ConstraintSystem(
        structure, [parse_expr("q2 - q1^2", ch4), parse_expr("p2/(1 + q1^2)", ch4)], [0, 0],
        parametrization=PolyMap(plane, ch4, (a, b, a * a, RatFunc.zero(plane))))
    dirac_bracket(cs)
    classify_submanifold(cs)
    assert seen == [{"Poly"}] * 4


# -- the Dirac bivector ----------------------------------------------------------------

Q4 = ("q1", "p1", "q2", "p2")
Q6 = ("q1", "p1", "q2", "p2", "q3", "p3")

# the benchmark's systems, three second-class systems, one with a polynomial
# denominator, and four constraints in dimension 6
DIRAC_SYSTEMS = [
    *((Q4, [f"q2 - {a}*q1^2", f"p2 - {b}*p1^2"]) for a in (-2, -1, 1, 2) for b in (-2, -1, 1, 2)),
    (Q4, ["q2", "p2"]),
    (Q4, ["q2 + q1^2", "p2 + q1*p1"]),
    (Q4, ["q1*q2 + p1", "p2 - q1^2"]),
    (Q4, ["q2 - q1^2", "p2/(1 + q1^2)"]),
    (Q6, ["q2 - q1^2", "p2 + q1*p3", "q3 - p1*q2", "p3 - q1*p1"]),
]


def _canonical(names):
    ch = chart(*names)
    one = RatFunc.const(ch, 1)
    return poisson.require_poisson(MultiVec(ch, 2, {(i, i + 1): one
                                                    for i in range(0, len(names), 2)}))


def _system_through(structure, psi, point):
    """The system of the level set of psi through a point, sampled there."""
    psi = [parse_expr(text, structure.chart) for text in psi]
    point = [F(v) for v in point]
    return ConstraintSystem(structure, psi, [q.eval(point) for q in psi], [point])


@pytest.mark.parametrize("names,psi", DIRAC_SYSTEMS, ids=[", ".join(psi)
                                                          for _, psi in DIRAC_SYSTEMS])
def test_dirac_bivector_is_poisson_with_the_constraints_as_casimirs(names, psi):
    rng = rng_for(f"dirac {psi}")
    cs = _system_through(_canonical(names), psi, [rng.randint(-3, 3) for _ in names])
    pd = dirac_bracket(cs)
    assert isinstance(pd, poisson.PoissonStructure) and pd.verified
    assert poisson.verify(pd.pi).verified
    oracle = dirac_bivector_oracle(cs)
    assert pd.pi == oracle and str(pd.pi) == str(oracle)
    assert all(poisson.casimir_check(pd, q) for q in cs.constraints)
    for _ in range(3):
        f, g = random_poly(rng, pd.chart), random_poly(rng, pd.chart)
        got, want = poisson.bracket(pd, f, g), dirac_bracket_oracle(cs, f, g)
        assert got == want and str(got) == str(want)


@pytest.mark.parametrize("names", [Q4, Q6, "xyz"])
def test_constraint_bracket_matrix_is_the_full_matrix_of_brackets(names, request):
    # the matrix takes the brackets above the diagonal only; each entry is
    # the bracket the full k^2 loop takes, by value and by printed text
    structure = (request.getfixturevalue("so3_structure") if names == "xyz"
                 else _canonical(names))
    ch = structure.chart
    rng = rng_for(f"constraint brackets {names}")
    for _ in range(10):
        psi = [_random_entry(rng, ch) for _ in range(rng.randint(1, 4))]
        cs = ConstraintSystem(structure, psi, [0] * len(psi))
        full = [[poisson.bracket(structure, f, g) for g in psi] for f in psi]
        m = constraint_bracket_matrix(cs)
        assert m == full and _rows(m) == _rows(full)


def test_three_constraints_are_never_cosymplectic():
    # an odd number of constraints has Pf(C) = 0: the Dirac bracket raises,
    # and the exact classification reads cosymplectic = False
    structure = _canonical(Q6)
    ch, src = structure.chart, chart("a", "b", "c")
    a, b, c = (parse_expr(v, src) for v in "abc")
    zero = RatFunc.zero(src)
    cs = ConstraintSystem(structure, [parse_expr(t, ch) for t in ("q2 - q1^2", "p2 - q1", "q3")],
                          [0, 0, 0], parametrization=PolyMap(src, ch, (a, b, a * a, a, zero, c)))
    assert dirac_bivector_oracle(cs) is None
    with pytest.raises(NotCosymplecticError, match="not cosymplectic"):
        dirac_bracket(cs)
    assert classify_submanifold(cs) == SubmanifoldFlags(
        poisson=False, coisotropic=False, cosymplectic=False, mode="exact")


def test_dirac_bivector_without_constraints_is_pi(ch4, pican4_structure):
    cs = ConstraintSystem(pican4_structure, [], [], [[F(1), F(2), F(3), F(4)]])
    assert dirac_bracket(cs) == pican4_structure


def test_dirac_flow_stays_on_the_level_set():
    # X_H of pi_D is tangent to N, so RK4 keeps each psi to its truncation
    # error; the flow of pi itself leaves N
    structure = _canonical(Q4)
    x0 = [F(1, 2), F(-1, 3), F(0), F(0)]
    cs = _system_through(structure, ["q2 + q1^2", "p2 + q1*p1"], x0)
    h = parse_expr("(q1^2 + p1^2)/2 + q2*p2 + p2^2", structure.chart)
    cfg = flow.FlowConfig(dt=0.01, t_max=2.0, tol=1e-8)
    traj = flow.integrate_hamiltonian(dirac_bracket(cs), h, x0, cfg, casimirs=cs.constraints)
    assert all(d < cfg.tol for d in [traj.h_drift, *traj.casimir_drifts])
    free = flow.integrate_hamiltonian(structure, h, x0, cfg, casimirs=cs.constraints)
    assert min(free.casimir_drifts) > 0.1


def test_constraint_and_level_counts_must_match(ch3, so3_structure):
    x, y = parse_expr("x", ch3), parse_expr("y", ch3)
    with pytest.raises(DiracError, match="2 constraints but 1 level value"):
        ConstraintSystem(so3_structure, [x, y], [1], [[F(1), F(5), F(0)]])


# -- golden values of the pointwise linear algebra ----------------------------------------
#
# Each value was taken from the implementation that solved one linear system
# per basis vector; every one is a canonical form (an RREF or a matrix of
# Fractions), so any correct rewrite reproduces it exactly.


def _rows(m):
    return [[str(x) for x in row] for row in m]


def test_golden_images_gauge_and_sharp(so3_structure):
    lag = _graph_at(so3_structure, P)
    assert str(lag) == "span{(1, 0, -1/3, 0, -1/3, 0); (0, 1, -2/3, 0, -2/3, -1); (0, 0, 0, 1, 2, 3)}"
    onto = [[F(1), F(0), F(0), F(1)], [F(0), F(1), F(0), F(0)], [F(0), F(0), F(1), F(0)]]
    assert str(backward_image(lag, onto)) == (
        "span{(1, 0, 0, -1, 0, 0, 0, 0); (0, 1, 0, -2, 0, 0, -1, 0); "
        "(0, 0, 1, -3, 0, 1, 0, 0); (0, 0, 0, 0, 1, 2, 3, 1)}"
    )
    plane = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]
    assert str(backward_image(lag, plane)) == "span{(1, -4/5, 0, 0); (0, 0, 1, 5/4)}"
    projection = [[F(1), F(0), F(0)], [F(0), F(1), F(1)]]
    assert str(forward_image(lag, projection)) == "span{(1, 0, 0, -1); (0, 1, 1, 0)}"
    b = [[F(0), F(1), F(2)], [F(-1), F(0), F(3)], [F(-2), F(-3), F(0)]]
    assert str(gauge_at(lag, b)) == (
        "span{(1, 0, -1/3, 0, 1/3, 0); (0, 1, -2/3, 0, 2/3, 1); (0, 0, 0, 1, 2, 3)}"
    )
    # pi#(alpha) for alpha = d(x - y + 2z) is X_f for f = x - y + 2z
    xf = poisson.hamiltonian_vf(so3_structure, parse_expr("x - y + 2*z", so3_structure.chart))
    assert [c.eval(P) for c in xf.components()] == [7, 1, -3]


@pytest.mark.parametrize("which,kernel,range_basis,omega,annihilator", [
    ("graph", [], [["1", "0", "-1/3"], ["0", "1", "-2/3"]],
     [["0", "-1/3"], ["1/3", "0"]], [["1", "2", "3"]]),
    ("gauge", [], [["1", "0", "-1/3"], ["0", "1", "-2/3"]],
     [["0", "1/3"], ["-1/3", "0"]], [["1", "2", "3"]]),
    ("backward", [["1", "0", "0", "-1"]],
     [["1", "0", "0", "-1"], ["0", "1", "0", "-2"], ["0", "0", "1", "-3"]],
     [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]], [["1", "2", "3", "1"]]),
])
def test_golden_kernel_and_range(so3_structure, which, kernel, range_basis, omega, annihilator):
    lag = _graph_at(so3_structure, P)
    if which == "gauge":
        lag = gauge_at(lag, [[F(0), F(1), F(2)], [F(-1), F(0), F(3)], [F(-2), F(-3), F(0)]])
    elif which == "backward":
        lag = backward_image(lag, [[F(1), F(0), F(0), F(1)], [F(0), F(1), F(0), F(0)],
                                   [F(0), F(0), F(1), F(0)]])
    data = kernel_and_range(lag)
    assert _rows(data.kernel) == kernel
    assert _rows(data.range_basis) == range_basis
    assert _rows(data.omega) == omega
    assert _rows(data.annihilator) == annihilator
    assert reconstruct_from_range(data, lag.dim) == lag


def test_golden_coregularity_dims(ch3, so3_structure):
    x, y = parse_expr("x", ch3), parse_expr("y", ch3)
    cs = ConstraintSystem(so3_structure, [x, y], [1, 2], [P, [F(1), F(2), F(0)]])
    assert coregularity_check(so3_structure, cs).dims == [2, 1]
    plane = chart("a", "b")
    a, b = parse_expr("a", plane), parse_expr("b", plane)
    phi = PolyMap(plane, ch3, (a, b, RatFunc.zero(plane)))
    assert coregularity_check(so3_structure, phi, [[F(1), F(1)], [F(0), F(0)]]).dims == [3, 2]


def test_golden_transversal_induced_poisson(ch4):
    # {q1,p1} = {q2,p2} = 1 and {p1,p2} = q1
    structure = poisson.require_poisson(_bivector(ch4, {(0, 1): "1", (2, 3): "1", (1, 3): "q1"}))
    plane = chart("a", "b")
    a, b, zero = parse_expr("a", plane), parse_expr("b", plane), RatFunc.zero(plane)
    cs = ConstraintSystem(
        structure,
        [parse_expr("q2", ch4), parse_expr("p2 - q1", ch4)],
        [0, 0],
        parametrization=PolyMap(plane, ch4, (2 * a, 3 * b, zero, 2 * a)),
    )
    assert _rows(transversal_induced_poisson_at(cs, [F(3), F(-1)])) == [
        ["0", "1/6"], ["-1/6", "0"]]
    coordinate_planes = ConstraintSystem(
        structure,
        [parse_expr("q1", ch4), parse_expr("q2", ch4)],
        [0, 0],
        parametrization=PolyMap(plane, ch4, (zero, a, zero, b)),
    )
    with pytest.raises(poisson.NotCosymplecticError) as err:
        transversal_induced_poisson_at(coordinate_planes, [F(1), F(2)])
    assert str(err.value) == "TN (+) TN^pi != TM at (0, 1, 0, 2): not cosymplectic there"
