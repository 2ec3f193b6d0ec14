import functools
import itertools
import json
import math
import operator
import sys
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poisskit import cli, flow, poisson
from poisskit.expr import Poly, RatFunc, chart, parse_expr
from poisskit.multivec import DiffForm, MultiVec

SO3_RATIONAL = {
    "chart": ["x", "y", "z"],
    "bivectors": {"pi": {"0,1": "z", "1,2": "x", "0,2": "-y"}},
    "expressions": {"h": "(x^2 + 2*y^2 + 3*z^2)/(1 + z^2)", "casimir": "x^2+y^2+z^2"},
    "flow": {"dt": 0.01, "t_max": 5.0, "tol": 1e-6},
    "tasks": [{"task": "flow", "h": "h", "x0": ["1/2", "1/3", "-1/4"],
               "casimirs": ["casimir"]}],
}

SL2R_QUADRATIC = {
    "chart": ["x", "y", "z"],
    "bivectors": {"pi": {"0,1": "-z", "1,2": "x", "0,2": "-y"}},
    "expressions": {"h": "2*x^2 + 2*x*y + 3*y^2 + z^2", "casimir": "x^2+y^2-z^2"},
    "flow": {"dt": 0.002, "t_max": 4.0, "tol": 1e-9},
    "tasks": [
        {"task": "flow", "h": "h", "x0": ["1/8", "-3/8", "5/8"], "casimirs": ["casimir"]},
        {"task": "flow", "h": "x^2 + y^2 + 2*z^2", "x0": "1,0,1/2", "casimirs": ["casimir"]},
    ],
}

# H's components share powers and terms across components and up to sign
SO3_SHARED = {
    "chart": ["x", "y", "z"],
    "bivectors": {"pi": {"0,1": "z", "1,2": "x", "0,2": "-y"}},
    "expressions": {"h": "2*x^2 + 2*x*y + 2*x*z + 3*y^2 + 4*y*z + 3*z^2",
                    "casimir": "x^2+y^2+z^2"},
    "flow": {"dt": 0.005, "t_max": 5.0, "tol": 1e-6},
    "tasks": [{"task": "flow", "h": "h", "x0": ["1/3", "-1/2", "1/4"], "casimirs": ["casimir"]}],
}

# Reference output of the three manifests: the text lines, and the drifts of
# --json to the last bit, which pins every RK4 step.
GOLDEN = [
    (SO3_RATIONAL,
     ["PASS flow h_drift=1.295e-11 casimir_drifts=['9.899e-12']"],
     [(1.2945644556339175e-11, [9.898637465255433e-12])]),
    (SL2R_QUADRATIC,
     ["PASS flow h_drift=6.883e-12 casimir_drifts=['7.818e-12']",
      "PASS flow h_drift=1.296e-12 casimir_drifts=['1.296e-12']"],
     [(6.882827641163658e-12, [7.817579916746809e-12]),
      (1.2956302697375577e-12, [1.2956302697375577e-12])]),
    (SO3_SHARED,
     ["PASS flow h_drift=1.212e-11 casimir_drifts=['1.207e-11']"],
     [(1.2120804360193915e-11, [1.207334232589119e-11])]),
]


def _run(tmp_path, capsys, doc, *flags):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    status = cli.main(["run", str(path), *flags])
    return status, capsys.readouterr().out


@pytest.mark.parametrize("doc,lines,drifts", GOLDEN)
def test_golden_flow_lines(tmp_path, capsys, doc, lines, drifts):
    status, out = _run(tmp_path, capsys, doc)
    assert status == 0
    assert out.splitlines() == lines
    status, out = _run(tmp_path, capsys, doc, "--json")
    assert status == 0
    dump = json.loads(out)
    assert [(r["data"]["h_drift"], r["data"]["casimir_drifts"]) for r in dump] == drifts
    assert [r["passed"] for r in dump] == [True] * len(lines)


def test_coefficient_overflow_is_a_flow_failure(tmp_path, capsys):
    doc = dict(SO3_RATIONAL, expressions={"h": "10^400*x^2 + y^2 + z^2",
                                          "casimir": "x^2+y^2+z^2"})
    status, out = _run(tmp_path, capsys, doc)
    assert status == 1
    assert out.startswith("FAIL flow ") and "overflows a float" in out


@pytest.fixture
def qp_canonical():
    qp = chart("q", "p")
    return qp, poisson.require_poisson(MultiVec(qp, 2, {(0, 1): RatFunc.const(qp, 1)}))


def test_rk4_global_error_is_fourth_order(qp_canonical):
    # X_H = -p d/dq + q d/dp: the exact flow rotates (q, p) by the angle t
    qp, pi = qp_canonical
    h = parse_expr("(q^2 + p^2)/2", qp)
    q0, p0, t = 1.0, 0.5, 2.0
    exact = np.array([q0 * math.cos(t) - p0 * math.sin(t), q0 * math.sin(t) + p0 * math.cos(t)])
    errors = []
    for dt in (0.1, 0.05, 0.025):
        traj = flow.integrate_hamiltonian(pi, h, [q0, p0], flow.FlowConfig(dt=dt, t_max=t))
        assert traj.steps == round(t / dt) and len(traj.final) == 2
        assert traj.steps * dt == pytest.approx(t)
        errors.append(float(np.max(np.abs(np.asarray(traj.final) - exact))))
    for coarse, fine in zip(errors, errors[1:]):
        assert 14 < coarse / fine < 18


def test_moser_deviation_falls_at_fourth_order(so3_structure, ch3):
    alpha = DiffForm(ch3, 1, {(0,): parse_expr("y", ch3), (1,): parse_expr("2*x + z", ch3)})
    samples = [[0.5, 0.3, -0.25], [-0.3, 0.2, 0.4]]
    devs = [
        flow.moser_verify(so3_structure, alpha, [0.5, 1.0], samples,
                          flow.FlowConfig(dt=dt, t_max=1.0)).max_deviation
        for dt in (0.1, 0.05, 0.025)
    ]
    assert devs[-1] < 1e-7
    for coarse, fine in zip(devs, devs[1:]):
        assert coarse / fine >= 12


# The Moser shapes of the benchmark, at its settings: a linear alpha (flow
# workload) and alpha = (a y, b x z, 0) (rational workload), with the
# deviations per sample and grid time that the Bareiss solve of the gauge
# family gave, as the bytes of their doubles.
MOSER_PINS = [
    (["-2*z", "-x", "-z"], [[0.171, -0.391, -0.737], [0.713, 0.316, -0.597]],
     ["0000000054efca3d0000000063bad03d", "000000005036c13d000000008ad3d43d"]),
    (["y", "2*x*z", "0"], [[-0.599, 0.68, 0.182], [-0.598, 0.13, 0.281]],
     ["00000000c0f1913d00000000a0b5b03d", "00000000802d653d00000000c04d783d"]),
]


@pytest.mark.parametrize("alpha,samples,pinned", MOSER_PINS, ids=["linear", "inhomogeneous"])
def test_moser_deviations_are_pinned_to_the_last_bit(so3_structure, ch3, alpha, samples, pinned):
    # the gauge family P_t and X_t compile to the same float code, term order
    # included, so every deviation keeps its last bit
    form = DiffForm(ch3, 1, {(i,): parse_expr(t, ch3) for i, t in enumerate(alpha) if t != "0"})
    report = flow.moser_verify(so3_structure, form, [0.1, 0.2], samples,
                               flow.FlowConfig(dt=0.005, t_max=1.0, tol=1e-6))
    assert [array("d", row).tobytes().hex() for row in report.per_sample] == pinned


@pytest.mark.parametrize("t_grid", [["nan"], [0.5, math.nan], [math.inf, 0.5]])
def test_moser_rejects_a_time_that_is_not_finite(so3_structure, ch3, t_grid):
    alpha = DiffForm(ch3, 1, {(0,): parse_expr("y", ch3)})
    bad = next(t for t in map(float, t_grid) if not math.isfinite(t))
    with pytest.raises(flow.FlowError, match=f"^t_grid time {bad} is not finite$"):
        flow.moser_verify(so3_structure, alpha, t_grid, [[0.5, 0.3, -0.25]],
                          flow.FlowConfig(dt=0.1, t_max=1.0))


@pytest.mark.parametrize("t_grid,samples,argument", [
    ([], [[0.5, 0.3, -0.25]], "t_grid"), ([0.5], [], "samples"), ([], [], "t_grid"),
])
def test_moser_rejects_an_empty_grid_or_sample_list(so3_structure, ch3, t_grid, samples,
                                                     argument):
    # an empty t_grid or sample list leaves nothing to check
    alpha = DiffForm(ch3, 1, {(0,): parse_expr("y", ch3)})
    with pytest.raises(flow.FlowError, match=f"^{argument} is empty: there is nothing to check$"):
        flow.moser_verify(so3_structure, alpha, t_grid, samples,
                          flow.FlowConfig(dt=0.1, t_max=1.0))


def test_spray_and_realization_check_reject_an_empty_sample_list(so3_structure):
    # no samples leave nothing to check, as for moser_verify
    cfg = flow.FlowConfig(dt=0.1, t_max=1.0)
    with pytest.raises(flow.FlowError, match="^samples is empty: there is nothing to check$"):
        flow.spray_realization(so3_structure, [], 5, cfg)
    with pytest.raises(flow.FlowError,
                       match="^realization_samples is empty: there is nothing to check$"):
        flow.realization_check([], so3_structure)
    with pytest.raises(flow.FlowError, match="^realization_samples must be a sequence, not None$"):
        flow.realization_check(None, so3_structure)


def test_times_are_read_exactly(so3_structure, ch3):
    # a time that is not a float is read through Fraction, as points are
    cfg = flow.FlowConfig(dt=0.1, t_max=1.0)
    alpha = DiffForm(ch3, 1, {(0,): parse_expr("y", ch3)})
    sample = [[0.5, 0.3, -0.25]]
    assert (flow.moser_verify(so3_structure, alpha, ["1/2", 1], sample, cfg)
            == flow.moser_verify(so3_structure, alpha, [0.5, 1.0], sample, cfg))
    gens, x0 = [parse_expr("x + 2*y", ch3)], [0.6, -0.2, 0.3]
    casimirs = [parse_expr("x^2 + y^2 + z^2", ch3)]
    exact = flow.leaf_trace(so3_structure, gens, x0, [(0, "1/2"), (0, Fraction(-1, 4))], cfg,
                            casimirs)
    floats = flow.leaf_trace(so3_structure, gens, x0, [(0, 0.5), (0, -0.25)], cfg, casimirs)
    assert exact == floats and exact.steps == 7
    spray = [[0.3, -0.2, 0.1, 0.2, 0.1, -0.3]]
    exact = flow.spray_realization(so3_structure, spray, ["0", "1/2", "1"], cfg)
    floats = flow.spray_realization(so3_structure, spray, [0.0, 0.5, 1.0], cfg)
    assert np.array_equal(exact[0].omega, floats[0].omega)
    # a float subclass, such as numpy's float64, becomes a plain float for the RK4 loop
    assert type(flow._read(np.float64(0.5), "a time")) is float


@pytest.mark.parametrize("bad,reason", [
    (None, "not a number"), ("half", "not a rational number"), ("1/0", "zero denominator"),
    ("1e400", "too large for a float"), (10**400, "too large for a float"),
], ids=["None", "half", "1/0", "1e400", "10**400"])
def test_unreadable_times_are_named(so3_structure, ch3, bad, reason):
    cfg = flow.FlowConfig(dt=0.1, t_max=1.0)
    alpha = DiffForm(ch3, 1, {(0,): parse_expr("y", ch3)})
    with pytest.raises(flow.FlowError, match=f"^cannot read t_grid time at index 1: {reason}$"):
        flow.moser_verify(so3_structure, alpha, [0.5, bad], [[0.5, 0.3, -0.25]], cfg)
    with pytest.raises(flow.FlowError,
                       match=f"^cannot read the time of schedule entry 1: {reason}$"):
        flow.leaf_trace(so3_structure, [parse_expr("x", ch3)], [0.6, -0.2, 0.3],
                        [(0, 0.5), (0, bad)], cfg)
    with pytest.raises(flow.FlowError, match=f"^cannot read quadrature node at index 2: {reason}$"):
        flow.spray_realization(so3_structure, [[0.3, -0.2, 0.1, 0.2, 0.1, -0.3]],
                               [0.0, 1.0, bad], cfg)


def test_spray_realization_deviation_falls_at_second_order(so3_structure):
    samples = [[0.3, -0.2, 0.1, 0.2, 0.1, -0.3], [0.1, 0.2, -0.2, -0.1, 0.3, 0.2]]
    cfg = flow.FlowConfig(dt=0.01, t_max=1.0)
    devs = []
    for nodes in (11, 21, 41):
        realization = flow.spray_realization(so3_structure, samples, nodes, cfg)
        for s in realization:
            assert s.nondegenerate
            assert all(s.omega[a][b] == -s.omega[b][a] for a in range(6) for b in range(6))
        devs.append(flow.realization_check(realization, so3_structure))
    for coarse, fine in zip(devs, devs[1:]):
        assert 3.5 < coarse / fine < 4.5


SL2R_PI = {(0, 1): "-z", (1, 2): "x", (0, 2): "-y"}


def _record_nodes(monkeypatch):
    """The list that flow._at_nodes's (t, y, J) go into, from now on."""
    nodes, at_nodes = [], flow._at_nodes

    def recording(*args):
        for node in at_nodes(*args):
            nodes.append(node)
            yield node
    monkeypatch.setattr(flow, "_at_nodes", recording)
    return nodes


@pytest.mark.parametrize("nodes", [11, [0.0, 0.2, 0.7, 1.0]])
def test_spray_matches_numpy(monkeypatch, so3_structure, ch3, nodes):
    # omega against the trapezoid sum of numpy's J^T W J; det and the
    # inverse, exact on omega's floats, against numpy's LU-based det and inv,
    # which agree to the rounding of a well-conditioned 6 x 6 solve
    sl2r = poisson.require_poisson(
        MultiVec(ch3, 2, {idx: parse_expr(c, ch3) for idx, c in SL2R_PI.items()}))
    samples = [[0.3, -0.2, 0.1, 0.2, 0.1, -0.3], [0.1, 0.2, -0.2, -0.1, 0.3, 0.2]]
    cfg = flow.FlowConfig(dt=0.01, t_max=1.0)
    w_can = np.block([[np.zeros((3, 3)), np.eye(3)], [-np.eye(3), np.zeros((3, 3))]])
    grid = flow._quadrature_nodes(nodes)
    for structure in (so3_structure, sl2r):
        recorded = _record_nodes(monkeypatch)
        realization = flow.spray_realization(structure, samples, nodes, cfg)
        p_fn = flow.compile_matrix(poisson.bivector_matrix(structure.pi))
        worst = 0.0
        for k, sample in enumerate(realization):
            values = [np.array(j).T @ w_can @ np.array(j)
                      for _, _, j in recorded[k * len(grid):(k + 1) * len(grid)]]
            acc = sum(0.5 * (b - a) * (u + v)
                      for a, b, u, v in zip(grid, grid[1:], values, values[1:]))
            omega = np.array(sample.omega)
            assert np.max(np.abs(omega - acc)) <= 1e-14
            assert abs(sample.det - np.linalg.det(omega)) <= 1e-12 * abs(sample.det)
            pushed = np.linalg.inv(omega)[:3, :3]
            worst = max(worst, float(np.max(np.abs(pushed - p_fn(sample.point[:3])))))
        assert abs(flow.realization_check(realization, structure) - worst) <= 1e-12


def test_a_node_count_gives_the_nodes_of_linspace():
    for k in range(2, 61):
        nodes = flow._quadrature_nodes(k)
        assert array("d", nodes).tobytes() == np.linspace(0.0, 1.0, k).tobytes()


def test_moser_deviations_match_numpy(monkeypatch, so3_structure, ch3):
    # record the nodes and the two compiled matrices that moser_verify uses,
    # then recompute each deviation as numpy's max |J P0 J^T - P_t|
    nodes, matrices, compile_matrix = _record_nodes(monkeypatch), {}, flow.compile_matrix

    def recording_compile_matrix(entries):
        matrices[entries[0][0].chart.dim] = compile_matrix(entries)
        return matrices[entries[0][0].chart.dim]

    monkeypatch.setattr(flow, "compile_matrix", recording_compile_matrix)
    alpha = DiffForm(ch3, 1, {(0,): parse_expr("y", ch3), (1,): parse_expr("2*x + z", ch3)})
    samples = [[0.5, 0.3, -0.25], [-0.3, 0.2, 0.4]]
    report = flow.moser_verify(so3_structure, alpha, [0.25, 0.5, 1.0], samples,
                               flow.FlowConfig(dt=0.05, t_max=1.0))
    p0_fn, p_t_fn = matrices[3], matrices[4]
    recorded = iter(nodes)
    for x0, devs in zip(samples, report.per_sample):
        p0 = np.array(p0_fn(x0))
        for dev in devs:
            t, x, j = next(recorded)
            j = np.array(j)
            assert abs(dev - np.max(np.abs(j @ p0 @ j.T - p_t_fn(x + [t])))) <= 1e-15
    assert next(recorded, None) is None and len(nodes) == 6


def test_pole_proximity(ch2):
    # X_H = -(1 + 2y/x) d/dx - y^2/x^2 d/dy keeps y = 0 and runs x into the
    # pole at unit speed, to within 1e-15 of it at t = 1
    pi = poisson.require_poisson(MultiVec(ch2, 2, {(0, 1): RatFunc.const(ch2, 1)}))
    h = parse_expr("y + y^2/x", ch2)
    cfg = flow.FlowConfig(dt=0.01, t_max=2.0)
    with pytest.raises(flow.PoleProximityError) as info:
        flow.integrate_hamiltonian(pi, h, [1.0, 0.0], cfg)
    # the message gives the last state before the step
    assert str(info.value) == ("denominator below threshold near "
                               "[-7.528699885739343e-16, 0.0]")


# p' = p^2 blows up at t = 1 and leaves the escape radius on the way; for
# H = q*p^40 the power p^40 overflows at the first stage (an ArithmeticError,
# reported with the last completed state), and for H = q^3*p^3 a step ends
# in a state that is not finite
ESCAPES = {
    ("q*p^2", 0.01): ([0.5, 1.0], "[40314457.22352435, 10100521457889.361]"),
    ("q*p^40", 0.01): ([0.5, 1e8], "[0.5, 100000000.0]"),
    ("q^3*p^3", 0.1): ([1e3, 1e3], "[nan, inf]"),
}


@pytest.mark.parametrize("h,dt", list(ESCAPES))
def test_escape(qp_canonical, h, dt):
    qp, pi = qp_canonical
    x0, state = ESCAPES[h, dt]
    with pytest.raises(flow.FlowError) as info:
        flow.integrate_hamiltonian(pi, parse_expr(h, qp), x0,
                                   flow.FlowConfig(dt=dt, t_max=1000 * dt))
    assert str(info.value) == f"trajectory escaped near {state}"


def test_leaf_trace_there_and_back(so3_structure, ch3):
    x0 = [0.6, -0.2, 0.3]
    gens = [parse_expr("x + 2*y", ch3), parse_expr("y*z", ch3)]
    schedule = [(1, 1.5), (0, 0.7), (0, -0.7), (1, -1.5)]
    casimirs = [parse_expr("x^2+y^2+z^2", ch3), parse_expr("x*z - y", ch3)]
    trace = flow.leaf_trace(so3_structure, gens, x0, schedule,
                            flow.FlowConfig(dt=1e-3, t_max=1.0), casimirs=casimirs)
    assert trace.steps == 2 * (1500 + 700)
    assert np.allclose(trace.final, x0, rtol=0, atol=1e-10)
    assert trace.casimir_drifts[0] < 1e-10
    # the drifts run on across the segments, to the last bit of the max over
    # the states of one-step calls of each generator's loop
    states, y = array("d", x0), x0
    for index, t in schedule:
        field = flow.compile_field(poisson.hamiltonian_vf(so3_structure, gens[index]).components())
        _, segment = _advance_states(field, 0.0, y, t / round(abs(t) / 1e-3), round(abs(t) / 1e-3))
        states.extend(segment[3:])
        y = segment[-3:].tolist()
    assert array("d", trace.final).tobytes() == states[-3:].tobytes()
    assert (array("d", trace.casimir_drifts).tobytes()
            == array("d", _drift_reference(casimirs, states, 3)).tobytes())


@pytest.mark.parametrize("schedule", [[(0, 0.5)], []])
def test_leaf_trace_without_generators_says_so(so3_structure, ch3, schedule):
    # no generators leave nothing to flow and nothing to check
    with pytest.raises(flow.FlowError, match="^generators is empty: there is nothing to check$"):
        flow.leaf_trace(so3_structure, [], [0.6, -0.2, 0.3], schedule,
                        flow.FlowConfig(dt=0.01, t_max=1.0),
                        casimirs=[parse_expr("x^2+y^2+z^2", ch3)])


def test_leaf_trace_rejects_a_generator_index_out_of_range(so3_structure, ch3):
    gens = [parse_expr("x", ch3), parse_expr("y", ch3)]
    cfg = flow.FlowConfig(dt=0.01, t_max=1.0)
    for index in (-1, 2):
        with pytest.raises(flow.FlowError, match=f"generator {index}; the indices run from 0 to 1"):
            flow.leaf_trace(so3_structure, gens, [0.6, -0.2, 0.3], [(0, 0.1), (index, 0.5)], cfg)


@pytest.mark.parametrize("call,argument", [
    ("moser_verify", "t_grid"), ("moser_verify", "samples"), ("spray_realization", "samples"),
    ("leaf_trace", "schedule"), ("leaf_trace", "generators"), ("leaf_trace", "casimirs"),
    ("integrate_hamiltonian", "casimirs"),
])
def test_container_arguments_that_are_none_are_named(so3_structure, ch3, call, argument):
    h, x0 = parse_expr("x + 2*y", ch3), [0.6, -0.2, 0.3]
    args = {
        "moser_verify": {"alpha": DiffForm(ch3, 1, {(0,): parse_expr("y", ch3)}),
                         "t_grid": [0.5], "samples": [x0]},
        "spray_realization": {"samples": [[0.3, -0.2, 0.1, 0.2, 0.1, -0.3]], "quad_nodes": 5},
        "leaf_trace": {"generators": [h], "x0": x0, "schedule": [(0, 0.1)], "casimirs": [h]},
        "integrate_hamiltonian": {"hamiltonian": h, "x0": x0, "casimirs": [h]},
    }[call]
    with pytest.raises(flow.FlowError, match=f"^{argument} must be a sequence, not None$"):
        getattr(flow, call)(so3_structure, **{**args, argument: None},
                            cfg=flow.FlowConfig(dt=0.1, t_max=1.0))


def _flow_watching(call, structure, ch3, casimir):
    h, x0, cfg = parse_expr("x + 2*y", ch3), [0.5, 0.3, -0.2], flow.FlowConfig(dt=0.01, t_max=0.5)
    if call == "leaf_trace":
        return flow.leaf_trace(structure, [h], x0, [(0, 0.5)], cfg, casimirs=[casimir])
    return flow.integrate_hamiltonian(structure, h, x0, cfg, casimirs=[casimir])


@pytest.mark.parametrize("call", ["integrate_hamiltonian", "leaf_trace"])
def test_a_casimir_on_a_smaller_chart_is_named(so3_structure, ch3, call):
    # x^2 + y^2 on the chart (x, y) would be compiled as a function of the
    # first two coordinates, and its drift reported for the wrong function
    casimir = parse_expr("x^2+y^2", chart("x", "y"))
    with pytest.raises(flow.FlowError, match=r"^Casimir 0, x\^2 \+ y\^2, is not a function on "
                                             r"the structure's chart Chart\(x, y, z\)$"):
        _flow_watching(call, so3_structure, ch3, casimir)


@pytest.mark.parametrize("call", ["integrate_hamiltonian", "leaf_trace"])
def test_a_casimir_on_a_larger_chart_is_named(so3_structure, ch3, call):
    # x^2 + w^2 reads a fourth coordinate that the flow does not have
    casimir = parse_expr("x^2+w^2", chart("x", "y", "z", "w"))
    with pytest.raises(flow.FlowError, match="^Casimir 0, .*, is not a function on "
                                             "the structure's chart"):
        _flow_watching(call, so3_structure, ch3, casimir)


def test_leaf_trace_rejects_a_schedule_entry_that_is_not_a_pair(so3_structure, ch3):
    with pytest.raises(flow.FlowError, match="^schedule entry 1 must be a "
                                             "\\(generator index, time\\) pair, not \\(0,\\)$"):
        flow.leaf_trace(so3_structure, [parse_expr("x", ch3)], [0.6, -0.2, 0.3],
                        [(0, 0.1), (0,)], flow.FlowConfig(dt=0.1, t_max=1.0))


@pytest.mark.parametrize("nodes", [[], [0.0], 1, 0, -3, np.int64(1), 5.0])
def test_spray_needs_two_quadrature_nodes(so3_structure, nodes):
    cfg = flow.FlowConfig(dt=0.01, t_max=1.0)
    with pytest.raises(flow.FlowError, match="at least two quadrature nodes"):
        flow.spray_realization(so3_structure, [[0.3, -0.2, 0.1, 0.2, 0.1, -0.3]], nodes, cfg)


@pytest.mark.parametrize("nodes", [[0.0, math.nan, 1.0], [0.0, 1.0, -math.inf]])
def test_spray_rejects_a_node_that_is_not_finite(so3_structure, nodes):
    bad = next(t for t in nodes if not math.isfinite(t))
    with pytest.raises(flow.FlowError, match=f"^quadrature node {bad} is not finite$"):
        flow.spray_realization(so3_structure, [[0.3, -0.2, 0.1, 0.2, 0.1, -0.3]], nodes,
                               flow.FlowConfig(dt=0.01, t_max=1.0))


def test_spray_node_count_may_be_any_integer(so3_structure):
    cfg = flow.FlowConfig(dt=0.01, t_max=1.0)
    sample = [[0.3, -0.2, 0.1, 0.2, 0.1, -0.3]]
    ours = flow.spray_realization(so3_structure, sample, np.int64(5), cfg)
    assert np.array_equal(ours[0].omega,
                          flow.spray_realization(so3_structure, sample, 5, cfg)[0].omega)


def test_points_are_read_exactly(so3_structure):
    cfg = flow.FlowConfig(dt=0.01, t_max=1.0)
    exact = flow.spray_realization(so3_structure, [["1/2", "0", "0", "0", "1/4", "0"]], 5, cfg)
    floats = flow.spray_realization(so3_structure, [[0.5, 0.0, 0.0, 0.0, 0.25, 0.0]], 5, cfg)
    assert np.array_equal(exact[0].point, floats[0].point)
    assert np.array_equal(exact[0].omega, floats[0].omega)
    for bad in (["1/2", "half", "0", "0", "0", "0"], ["1/0"] * 6, None):
        with pytest.raises(flow.FlowError, match="cannot read point"):
            flow.spray_realization(so3_structure, [bad], 5, cfg)


def _rk4_states(rhs, t, y, h, steps):
    """The reference: ``steps`` calls of flow.rk4_step, every state kept."""
    states = array("d", y)
    for _ in range(steps):
        y = flow.rk4_step(rhs, t, y, h)
        t += h
        states.extend(y)
    return t, states


def _advance_states(field, t, y, h, steps):
    """``steps`` one-step calls of ``field.advance``, every state kept."""
    states = array("d", y)
    for _ in range(steps):
        t, y = field.advance(t, y, h, 1, "pole {}")
        states.extend(y)
    return t, states


def test_generated_loop_is_bit_identical_to_rk4_step():
    # each component of X_H has the nonconstant denominator (1 + z^2)^2, so
    # the loop checks three pole guards per step
    ch = chart("x", "y", "z")
    pi = poisson.verify(MultiVec(ch, 2, {(0, 1): parse_expr("z", ch),
                                         (1, 2): parse_expr("x", ch),
                                         (0, 2): parse_expr("-y", ch)}))
    h = parse_expr("(x^2 + 2*y^2 + 3*z^2)/(1 + z^2)", ch)
    casimir = parse_expr("x^2 + y^2 + z^2", ch)
    components = poisson.hamiltonian_vf(pi, h).components()
    field = flow.compile_field(components)
    assert len(field.guards) == 3
    cfg, x0 = flow.FlowConfig(dt=0.01, t_max=5.0), [0.5, 1 / 3, -0.25]
    traj = flow.integrate_hamiltonian(pi, h, x0, cfg, casimirs=[casimir])
    _, states = _rk4_states(_unshared_rhs(components, False), 0.0, x0, cfg.dt, 500)
    assert _advance_states(field, 0.0, x0, cfg.dt, 500)[1].tobytes() == states.tobytes()
    # the loop's final state, and the drifts it takes, to the last bit
    assert array("d", traj.final).tobytes() == states[-3:].tobytes()
    assert (array("d", [traj.h_drift, *traj.casimir_drifts]).tobytes()
            == array("d", _drift_reference([h, casimir], states, 3)).tobytes())


def test_generated_variational_loop_is_bit_identical_to_rk4_step():
    # a time-dependent field with a pole, and its variational equations, as
    # in a Moser path; the loop starts at t = 0.3 and runs in two calls, with
    # steps at which t + h differs from t + h/2 + h/2
    ch = chart("x", "y", "t")
    components = [parse_expr("y*t/(2 + x^2)", ch), parse_expr("t^2*y - x + x*y", ch)]
    field = flow.compile_field(components, time_var=2, variational=True)
    y0 = [0.3, -0.7, 1.0, 0.0, 0.0, 1.0]
    t, y = field.advance(0.3, y0, 0.07, 20, "pole {}")
    t, y = field.advance(t, y, 1 / 30, 15, "pole {}")
    got_t, got = _advance_states(field, 0.3, y0, 0.07, 20)
    got_t, tail = _advance_states(field, got_t, got[-6:].tolist(), 1 / 30, 15)
    got.extend(tail[6:])
    rhs = _unshared_rhs(components, True)
    ref_t, ref = _rk4_states(rhs, 0.3, y0, 0.07, 20)
    ref_t, tail = _rk4_states(rhs, ref_t, ref[-6:].tolist(), 1 / 30, 15)
    ref.extend(tail[6:])
    assert got.tobytes() == ref.tobytes() and got_t == ref_t
    assert array("d", [t, *y]).tobytes() == array("d", [ref_t, *ref[-6:]]).tobytes()


# the spray's shape: dx_j/dt = sum_i xi_i P_ij(x), dxi/dt = 0, with a
# quadratic P, on 6 coordinates and their 6 x 6 variational matrix
SPRAY_P = [["0", "z^2 + x", "-y"], ["-z^2 - x", "0", "x*y"], ["y", "-x*y", "0"]]


def _spray_field():
    ch = chart("x", "y", "z", "a", "b", "c")
    spray = [parse_expr(" + ".join(f"{xi}*({SPRAY_P[i][j]})" for i, xi in enumerate("abc")), ch)
             for j in range(3)]
    return spray + [RatFunc.zero(ch)] * 3


def _mixed_field():
    ch = chart("x", "y", "z")
    return [parse_expr("x*y - z", ch), parse_expr("y^2 + x*z", ch), parse_expr("x/(1 + y^2)", ch)]


@pytest.mark.parametrize("components,variational,y0", [
    (_spray_field(), True, [0.3, -0.2, 0.1, 0.2, 0.1, -0.3]),
    (_mixed_field(), False, [0.4, -0.3, 0.2]),
    (_mixed_field(), True, [0.4, -0.3, 0.2]),
], ids=["spray", "mixed", "mixed-variational"])
def test_generated_loop_is_bit_identical_on_written_in_and_called_entries(components,
                                                                          variational, y0):
    m = len(components)
    field = flow.compile_field(components, variational=variational)
    if variational:
        y0 = y0 + [float(i == j) for i in range(m) for j in range(m)]
    t, y = field.advance(0.0, y0, 0.01, 150, "pole {}")
    _, got = _advance_states(field, 0.0, y0, 0.01, 150)
    ref_t, ref = _rk4_states(_unshared_rhs(components, variational), 0.0, y0, 0.01, 150)
    assert len(y) == len(y0)
    assert got.tobytes() == ref.tobytes()
    assert array("d", [t, *y]).tobytes() == array("d", [ref_t, *ref[-len(y0):]]).tobytes()


def _unshared_rhs(components, variational):
    """The right-hand side that ``compile_field(components, time_var=m,
    variational)`` integrates, as a function of (t, p), from one
    ``compile_ratfunc`` per component and entry of A, so that it shares no
    power or term between them: the reference that ``flow.rk4_step`` steps.
    Without a time variable, on a chart of m variables, it is that of
    ``compile_field(components, variational=variational)``."""
    m = len(components)
    fs = [flow.compile_ratfunc(c) for c in components]
    rows = [[(k, flow.compile_ratfunc(c.diff(k))) for k in range(m) if not c.diff(k).is_zero]
            for c in components]

    def rhs(t, p):
        point = [*p[:m], t]
        out = [f(point) for f in fs]
        if variational:
            for row in rows:
                a = [(k, g(point)) for k, g in row]
                for j in range(m):
                    terms = [v * p[m + k * m + j] for k, v in a]
                    out.append(functools.reduce(operator.add, terms) if terms else 0.0)
        return out
    return rhs


STAGE_CHART = chart("x", "y", "z", "t")
# monomials of total degree at most 3 in x, y, z and the time t: squares,
# cubes, and t, t^2, ... as factors; drawn from the 35 exponent tuples, with
# no filter for hypothesis's health check to trip on
_monomials = st.sampled_from([e for e in itertools.product(range(4), repeat=4) if sum(e) <= 3])
_terms = st.tuples(_monomials, st.sampled_from([1, 2, 3, Fraction(1, 2)]))


def _field_from(pool):
    """Three components made of terms of ``pool``, each with either sign,
    so that components repeat terms and terms up to sign."""
    component = st.dictionaries(st.sampled_from(pool), st.sampled_from([1, -1]), max_size=5).map(
        lambda picks: RatFunc.from_poly(Poly(STAGE_CHART, {
            e: sign * c for (e, c), sign in picks.items()})))
    return st.lists(component, min_size=3, max_size=3)


@settings(max_examples=100, deadline=None)
@given(st.lists(_terms, min_size=1, max_size=5).flatmap(_field_from),
       st.booleans(), st.lists(st.floats(-1, 1), min_size=4, max_size=4))
def test_generated_loop_is_bit_identical_to_an_unshared_reference(components, variational,
                                                                   start):
    m = len(components)
    field = flow.compile_field(components, time_var=m, variational=variational)
    t0, y0 = start[m], start[:m]
    if variational:
        y0 = y0 + [float(i == j) for i in range(m) for j in range(m)]
    t, y = field.advance(t0, y0, 0.01, 10, "pole {}")
    _, got = _advance_states(field, t0, y0, 0.01, 10)
    ref_t, ref = _rk4_states(_unshared_rhs(components, variational), t0, y0, 0.01, 10)
    assert got.tobytes() == ref.tobytes()
    assert array("d", [t, *y]).tobytes() == array("d", [ref_t, *ref[-len(y0):]]).tobytes()


def _calls_per_step(field, y0, watch=()):
    """Python function calls per step of ``field.advance``, watching
    ``watch``, counted by sys.setprofile as the difference between runs of
    20 and 40 steps."""
    def calls(steps):
        count = 0
        drifts = flow._Drifts.at(watch, y0)

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call"
        sys.setprofile(profile)
        try:
            field.advance(0.0, y0, 0.01, steps, "pole {}", None, drifts)
        finally:
            sys.setprofile(None)
        assert drifts.failure is None
        return count
    return (calls(40) - calls(20)) / 20


def _watched_sl2r():
    """X_H of SL2R_QUADRATIC's H, and H and the Casimir to watch."""
    ch = chart("x", "y", "z")
    pi = MultiVec(ch, 2, {idx: parse_expr(c, ch) for idx, c in SL2R_PI.items()})
    h, casimir = (parse_expr(SL2R_QUADRATIC["expressions"][k], ch) for k in ("h", "casimir"))
    return poisson.hamiltonian_vf(pi, h).components(), [h, casimir]


_SL2R_FIELD, _SL2R_WATCHED = _watched_sl2r()
_MIXED_WATCHED = [parse_expr("x/(1 + y^2)", chart("x", "y", "z")),
                  parse_expr("x^2 + y^2", chart("x", "y", "z"))]


@pytest.mark.parametrize("components,variational,y0,watch", [
    (_spray_field(), False, [0.3, -0.2, 0.1, 0.2, 0.1, -0.3], []),
    (_spray_field(), True, [0.3, -0.2, 0.1, 0.2, 0.1, -0.3], []),
    (_mixed_field(), False, [0.4, -0.3, 0.2], []),
    (_mixed_field(), True, [0.4, -0.3, 0.2], []),
    (_SL2R_FIELD, False, [0.125, -0.375, 0.625], _SL2R_WATCHED),
    (_mixed_field(), False, [0.4, -0.3, 0.2], _MIXED_WATCHED),
], ids=["spray", "spray-variational", "mixed", "mixed-variational", "hamiltonian-watching",
        "mixed-watching"])
def test_a_step_calls_only_the_rational_entries_and_the_guards(components, variational, y0,
                                                               watch):
    # polynomial entries are written into the loop; each rational entry is
    # one call per stage, and each pole guard one call per step; the watched
    # functions, rational or not, are written in after the step, so a
    # polynomial field watching a polynomial H and Casimir makes no call
    m = len(components)
    field = flow.compile_field(components, variational=variational, watch=watch)
    entries = list(components)
    if variational:
        entries += [c.diff(k) for c in components for k in range(m)]
        y0 = y0 + [float(i == j) for i in range(m) for j in range(m)]
    rational = sum(not e.den.is_constant for e in entries)
    assert _calls_per_step(field, y0, watch) == 4 * rational + len(field.guards)


def _drifts_by_steps(functions, rhs, t, y, h, steps):
    """The reference drifts of ``functions`` along ``steps`` flow.rk4_step
    calls of ``rhs``: (drifts, None), or (None, the FlowError text)
    when the flow overflows (before the drifts are taken) or a function
    cannot be evaluated at a state (the first such state)."""
    states = array("d", y)
    try:
        for _ in range(steps):
            y = flow.rk4_step(rhs, t, y, h)
            t += h
            states.extend(y)
    except ArithmeticError:
        return None, f"flow overflowed near {flow._state_text(y)}"
    m = len(y)
    for state in zip(*[iter(states)] * m):
        for f in functions:
            try:
                flow.compile_ratfunc(f)(state)
            except ArithmeticError as err:
                return None, f"cannot evaluate {f} at {flow._state_text(state)}: {err}"
    return _drift_reference(functions, states, m), None


def _fused_drifts(functions, field, t, y, h, steps):
    """The drifts that ``field.advance`` takes in its loop, as
    ``_drifts_by_steps`` gives them."""
    drifts = flow._Drifts.at(functions, y)
    try:
        field.advance(t, y, h, steps, "pole {}", None, drifts)
        return drifts.result(), None
    except flow.FlowError as err:
        return None, str(err)


def test_first_stage_reads_the_values_of_the_drift_pass(monkeypatch, so3_structure, ch3):
    # H's powers and terms serve the drifts of a state and the first stage of
    # the next step; states and drifts are those of rk4_step to the last bit,
    # also when a watched function fails at the state after step 7, after
    # which each step computes its own first stage
    h = parse_expr(SO3_SHARED["expressions"]["h"], ch3)
    components = poisson.hamiltonian_vf(so3_structure, h).components()
    x0, dt = [1 / 3, -1 / 2, 1 / 4], 0.01
    _, states = _rk4_states(_unshared_rhs(components, False), 0.0, x0, dt, 20)
    c = states[7 * 3]
    assert c not in states[0:7 * 3:3]
    pole = RatFunc.const(ch3, 1) / (RatFunc.var(ch3, 0) - RatFunc.const(ch3, Fraction(c)))
    sources, source = [], flow._advance_source
    monkeypatch.setattr(flow, "_advance_source",
                        lambda *args: sources.append(source(*args)) or sources[-1])
    # H's drift is taken at every state up to the first failure, that one included
    for watch, failure, last in (([h], None, 20), ([h, pole], list(states[21:24]), 7)):
        field = flow.compile_field(components, watch=watch)
        drifts = flow._Drifts.at(watch, x0)
        _, y = field.advance(0.0, x0, dt, 20, "pole {}", None, drifts)
        assert array("d", y).tobytes() == states[-3:].tobytes()
        assert drifts.failure == failure
        assert array("d", drifts.worst[:1]).tobytes() == array(
            "d", _drift_reference([h], states[:(last + 1) * 3], 3)).tobytes()
    assert len(sources) == 2 and all("            if fresh:\n" in text for text in sources)


def test_drift_pass_raises_at_a_pole(so3_structure, ch3):
    # 1/x has a pole at the first state of the trace
    cfg = flow.FlowConfig(dt=0.01, t_max=1.0)
    with pytest.raises(flow.FlowError) as info:
        flow.leaf_trace(so3_structure, [parse_expr("x", ch3)], [0, 1 / 3, -1 / 4], [(0, 0.5)],
                        cfg, casimirs=[parse_expr("x^2", ch3), parse_expr("1/x", ch3)])
    assert str(info.value) == ("cannot evaluate 1/(x) at [0.0, 0.3333333333333333, -0.25]: "
                               "float division by zero")
    # z/(x - c) has a pole at the state after step 7, and at no earlier one
    h, x0 = parse_expr("x + 2*y", ch3), [0.6, -0.2, 0.3]
    rhs = _unshared_rhs(poisson.hamiltonian_vf(so3_structure, h).components(), False)
    _, states = _rk4_states(rhs, 0.0, x0, cfg.dt, 100)
    c = states[7 * 3]
    assert c not in states[0:7 * 3:3]
    pole = parse_expr("z", ch3) / (RatFunc.var(ch3, 0) - RatFunc.const(ch3, Fraction(c)))
    functions = [parse_expr("y", ch3), pole]
    message = f"cannot evaluate {pole} at {flow._state_text(states[21:24])}: float division by zero"
    assert _drifts_by_steps(functions, rhs, 0.0, x0, cfg.dt, 100) == (None, message)
    with pytest.raises(flow.FlowError) as info:
        flow.integrate_hamiltonian(so3_structure, h, x0, cfg, casimirs=functions)
    assert str(info.value) == message


def test_drift_pass_keeps_the_first_state_until_a_strictly_greater_one(tmp_path, capsys, ch3):
    # the overflow manifest: its Casimir is inf - inf = nan at x0, and no
    # later drift is greater than nan, so the task fails (max([0.0, nan])
    # would pass it)
    doc = {"chart": ["x", "y", "z"], "bivectors": {"pi": {"0,1": "-z", "1,2": "x", "0,2": "-y"}},
           "expressions": {"h": "x^2+y^2-z^2", "casimir": "10^300*x^2*y - 10^300*x^2*z"},
           "flow": {"dt": 0.01, "t_max": 1.0, "tol": 1e-6},
           "tasks": [{"task": "flow", "h": "h", "x0": ["1000", "1000", "1000"],
                      "casimirs": ["casimir"]}]}
    status, out = _run(tmp_path, capsys, doc)
    assert (status, out) == (1, "FAIL flow h_drift=0.000e+00 casimir_drifts=['nan']\n")
    # on a moving flow through the same x0, against the max over the states
    sl2r = MultiVec(ch3, 2, {idx: parse_expr(c, ch3) for idx, c in SL2R_PI.items()})
    h = parse_expr(SL2R_QUADRATIC["expressions"]["h"], ch3)
    functions = [h, parse_expr(doc["expressions"]["casimir"], ch3), parse_expr("y + z", ch3)]
    cfg = flow.FlowConfig(dt=1e-6, t_max=1e-4)
    traj = flow.integrate_hamiltonian(sl2r, h, [1000, 1000, 1000], cfg, casimirs=functions[1:])
    rhs = _unshared_rhs(poisson.hamiltonian_vf(sl2r, h).components(), False)
    expected, _ = _drifts_by_steps(functions, rhs, 0.0, [1000.0] * 3, cfg.dt, traj.steps)
    got = [traj.h_drift, *traj.casimir_drifts]
    assert math.isnan(got[1]) and 0.0 < got[2] < math.inf
    assert array("d", got).tobytes() == array("d", expected).tobytes()
    # and a nan after x0 never replaces a drift: x*y - x*z is 0 at x0, and
    # inf - inf once x' = 10^308 x has run x to inf (with no escape test)
    grow = [parse_expr("10^308*x", ch3), RatFunc.zero(ch3), RatFunc.zero(ch3)]
    functions = [parse_expr("x*y - x*z", ch3), parse_expr("x - y", ch3)]
    field = flow.compile_field(grow, watch=functions)
    expected = ([0.0, math.inf], None)
    assert _drifts_by_steps(functions, _unshared_rhs(grow, False), 0.0, [1.0, 1.0, 1.0], 1.0,
                            3) == expected
    assert _fused_drifts(functions, field, 0.0, [1.0, 1.0, 1.0], 1.0, 3) == expected


def _drift_reference(functions, states, n):
    out = []
    for f in map(flow.compile_ratfunc, functions):
        f0 = f(states[:n])
        out.append(max(abs(f(x) - f0) for x in zip(*[iter(states)] * n)))
    return out


DRIFT_CHART = chart("x", "y", "z")
_exponents = st.tuples(*[st.integers(0, 2)] * 3)
_polys = st.dictionaries(_exponents, st.integers(-3, 3), max_size=4).map(
    lambda terms: RatFunc.from_poly(Poly(DRIFT_CHART, terms)))
# denominators 1 + a x^2 + b y^2 z^2 have no real zeros, so the poles come
# only from overflow
_denominators = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
    lambda ab: RatFunc.from_poly(Poly(DRIFT_CHART, {(0, 0, 0): 1, (2, 0, 0): ab[0],
                                                    (0, 2, 2): ab[1]})))
_functions = st.one_of(_polys, st.builds(lambda a, b: a / b, _polys, _denominators))
# lists whose functions share terms up to sign: f beside -f, f + 1 or 2 - f
_relatives = st.sampled_from([lambda f: -f, lambda f: f + 1, lambda f: 2 - f])
_function_lists = st.lists(_functions, max_size=3).flatmap(
    lambda fs: st.lists(st.tuples(st.sampled_from(fs), _relatives), max_size=2).map(
        lambda extra: fs + [relative(f) for f, relative in extra]) if fs else st.just(fs))
_coordinates = st.one_of(st.floats(-4, 4), st.floats(allow_nan=False),
                         st.sampled_from([math.inf, -math.inf, 0.0, -0.0, 1e200]))


@settings(max_examples=150, deadline=None)
@given(_function_lists, st.lists(_terms, min_size=1, max_size=5).flatmap(_field_from),
       st.lists(_coordinates, min_size=3, max_size=3), st.integers(1, 6))
def test_drift_pass_matches_max_over_the_states(functions, components, x0, steps):
    # the fields of the stage test, with no escape test, so that the states
    # run through inf and nan; the flow's overflow comes first, then the
    # first state at which a function fails, else the drifts to the last bit
    field = flow.compile_field(components, time_var=3, watch=functions)
    expected = _drifts_by_steps(functions, _unshared_rhs(components, False), 0.0, x0, 0.25,
                                steps)
    got = _fused_drifts(functions, field, 0.0, x0, 0.25, steps)
    if expected[0] is None:
        assert got == expected
    else:
        assert array("d", got[0]).tobytes() == array("d", expected[0]).tobytes()


def test_escape_wins_over_a_casimir_pole(qp_canonical):
    # the Casimir 1/(2q - 1) has a pole at x0, and 1/(q - c) at the state
    # after step 30: both drifts fail before the flow escapes, and the
    # escape is what is reported
    qp, pi = qp_canonical
    h = parse_expr("q*p^2", qp)
    x0, state = ESCAPES["q*p^2", 0.01]
    rhs = _unshared_rhs(poisson.hamiltonian_vf(pi, h).components(), False)
    _, states = _rk4_states(rhs, 0.0, x0, 0.01, 30)
    c = states[-2]
    assert c not in states[0::2][:-1]
    later = RatFunc.const(qp, 1) / (RatFunc.var(qp, 0) - RatFunc.const(qp, Fraction(c)))
    for casimir in (parse_expr("1/(2*q - 1)", qp), later):
        with pytest.raises(flow.FlowError) as info:
            flow.integrate_hamiltonian(pi, h, x0, flow.FlowConfig(dt=0.01, t_max=10.0),
                                       casimirs=[casimir])
        assert str(info.value) == f"trajectory escaped near {state}"
        # without the escape, the pole is reported
        with pytest.raises(flow.FlowError, match="^cannot evaluate "):
            flow.integrate_hamiltonian(pi, h, x0, flow.FlowConfig(dt=0.01, t_max=0.5),
                                       casimirs=[casimir])


def test_overflow_message_without_escape_test():
    # x' = x^2 blows up at t = 1; with no escape test the power overflows
    x = chart("x")
    field = flow.compile_field([parse_expr("x^2", x)])
    with pytest.raises(flow.FlowError) as info:
        field.advance(0.0, [1.0], 0.01, 1000, "pole {}")
    assert str(info.value) == "flow overflowed near [4.7751776308164157e+173]"


def test_step_counts(tmp_path, capsys, so3_structure, ch3):
    cfg = flow.FlowConfig(dt=0.003, t_max=1.0)
    h = parse_expr("x^2 + 2*y^2", ch3)
    traj = flow.integrate_hamiltonian(so3_structure, h, [0.1, 0.2, 0.3], cfg)
    assert traj.steps == round(cfg.t_max / cfg.dt)
    # the final state is the one after that many steps
    field = flow.compile_field(poisson.hamiltonian_vf(so3_structure, h).components())
    _, states = _advance_states(field, 0.0, [0.1, 0.2, 0.3], cfg.dt, traj.steps)
    assert array("d", traj.final).tobytes() == states[-3:].tobytes()
    schedule = [(0, 0.5), (1, -0.25), (0, 0.0), (1, 0.1)]
    trace = flow.leaf_trace(so3_structure, [parse_expr("x", ch3), parse_expr("y*z", ch3)],
                            [0.6, -0.2, 0.3], schedule, cfg)
    assert trace.steps == sum(max(1, round(abs(t) / cfg.dt)) for _, t in schedule if t)
    status, out = _run(tmp_path, capsys, SO3_RATIONAL, "--json")
    assert status == 0 and json.loads(out)[0]["data"]["steps"] == 500


@pytest.mark.parametrize("settings,message", [
    ({"dt": math.nan}, "dt must be finite"),
    ({"t_max": math.inf}, "t_max must be finite"),
    ({"tol": math.inf}, "tol must be finite"),
    ({"tol": math.nan}, "tol must be finite"),
])
def test_flow_config_rejects_non_finite_values(settings, message):
    with pytest.raises(flow.FlowError, match=message):
        flow.FlowConfig(**settings)


def test_step_counts_past_max_steps_are_flow_errors(so3_structure, ch3):
    # t_max / dt overflows to inf: compared with max_steps as a float, it
    # never reaches int()
    cfg = flow.FlowConfig(dt=1e-300, t_max=1e300)
    h, x0 = parse_expr("x^2 + y", ch3), [0.1, 0.2, 0.3]
    with pytest.raises(flow.FlowError, match="step count inf exceeds max_steps"):
        flow.integrate_hamiltonian(so3_structure, h, x0, cfg)
    with pytest.raises(flow.FlowError, match="step count 1e\\+30 exceeds max_steps"):
        flow.leaf_trace(so3_structure, [h], x0, [(0, 1e-270)], cfg)
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(flow.FlowError, match="is not finite"):
            flow.leaf_trace(so3_structure, [h], x0, [(0, t)], cfg)
