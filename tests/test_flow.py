import json
import math
from array import array

import numpy as np
import pytest

from poisskit import cli, flow, poisson
from poisskit.expr import RatFunc, chart, parse_expr
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

# Reference output of the two manifests: the text lines, and the drifts of
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
        assert traj.xs.shape == (round(t / dt) + 1, 2)
        assert traj.ts[-1] == pytest.approx(t)
        errors.append(float(np.max(np.abs(traj.xs[-1] - exact))))
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


def test_spray_realization_deviation_falls_at_second_order(so3_structure):
    samples = [[0.3, -0.2, 0.1, 0.2, 0.1, -0.3], [0.1, 0.2, -0.2, -0.1, 0.3, 0.2]]
    cfg = flow.FlowConfig(dt=0.01, t_max=1.0)
    devs = []
    for nodes in (11, 21, 41):
        realization = flow.spray_realization(so3_structure, samples, nodes, cfg)
        assert all(s.nondegenerate and s.antisym_error < 1e-12 for s in realization)
        devs.append(flow.realization_check(realization, so3_structure))
    for coarse, fine in zip(devs, devs[1:]):
        assert 3.5 < coarse / fine < 4.5


def test_pole_proximity(ch2):
    # X_H = -d/dx - x^-2 d/dy runs x into the pole of x^-2 at unit speed
    pi = poisson.require_poisson(MultiVec(ch2, 2, {(0, 1): RatFunc.const(ch2, 1)}))
    h = parse_expr("y + 1/x", ch2)
    cfg = flow.FlowConfig(dt=0.01, t_max=2.0, pole_threshold=1e-3)
    with pytest.raises(flow.PoleProximityError) as info:
        flow.integrate_hamiltonian(pi, h, [1.0, 0.0], cfg)
    # the message gives the last state before the step
    assert str(info.value) == ("denominator below threshold near "
                               "[ 3.00000000e-02 -3.23364674e+01]")


# p' = p^2 blows up at t = 1, and a float power overflows on the way (an
# ArithmeticError, reported with the last completed state); for H = q*p the
# state grows by about e per unit step until a product is inf
ESCAPES = {
    ("q*p^2", 0.01, 1e9): "[4.03144572e+07 1.01005215e+13]",
    ("q*p^2", 0.01, float("inf")): "[3.04948524e+169 4.77517763e+173]",
    ("q*p", 1.0, float("inf")): "[2.56585805e-304             inf]",
}


@pytest.mark.parametrize("h,dt,radius", list(ESCAPES))
def test_escape(qp_canonical, h, dt, radius):
    qp, pi = qp_canonical
    cfg = flow.FlowConfig(dt=dt, t_max=1000 * dt, escape_radius=radius)
    with pytest.raises(flow.FlowError) as info:
        flow.integrate_hamiltonian(pi, parse_expr(h, qp), [0.5, 1.0], cfg)
    assert str(info.value) == f"trajectory escaped near {ESCAPES[h, dt, radius]}"


def test_leaf_trace_there_and_back(so3_structure, ch3):
    x0 = [0.6, -0.2, 0.3]
    gens = [parse_expr("x + 2*y", ch3), parse_expr("y*z", ch3)]
    trace = flow.leaf_trace(so3_structure, gens, x0, [(1, 1.5), (0, 0.7), (0, -0.7), (1, -1.5)],
                            flow.FlowConfig(dt=1e-3, t_max=1.0),
                            casimirs=[parse_expr("x^2+y^2+z^2", ch3)])
    assert trace.points.shape == (2 * (1500 + 700) + 1, 3)
    assert np.allclose(trace.points[-1], x0, rtol=0, atol=1e-10)
    assert trace.casimir_drifts[0] < 1e-10


def test_leaf_trace_rejects_a_generator_index_out_of_range(so3_structure, ch3):
    gens = [parse_expr("x", ch3), parse_expr("y", ch3)]
    cfg = flow.FlowConfig(dt=0.01, t_max=1.0)
    for index in (-1, 2):
        with pytest.raises(flow.FlowError, match=f"generator {index}; the indices run from 0 to 1"):
            flow.leaf_trace(so3_structure, gens, [0.6, -0.2, 0.3], [(0, 0.1), (index, 0.5)], cfg)


@pytest.mark.parametrize("nodes", [[], [0.0], 1, 0, -3, np.int64(1), 5.0])
def test_spray_needs_two_quadrature_nodes(so3_structure, nodes):
    cfg = flow.FlowConfig(dt=0.01, t_max=1.0)
    with pytest.raises(flow.FlowError, match="at least two quadrature nodes"):
        flow.spray_realization(so3_structure, [[0.3, -0.2, 0.1, 0.2, 0.1, -0.3]], nodes, cfg)


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


def test_generated_loop_is_bit_identical_to_rk4_step():
    # each component of X_H has the nonconstant denominator (1 + z^2)^2, so
    # the loop checks three pole guards per step
    ch = chart("x", "y", "z")
    pi = poisson.verify(MultiVec(ch, 2, {(0, 1): parse_expr("z", ch),
                                         (1, 2): parse_expr("x", ch),
                                         (0, 2): parse_expr("-y", ch)}))
    h = parse_expr("(x^2 + 2*y^2 + 3*z^2)/(1 + z^2)", ch)
    field = flow.compile_field(poisson.hamiltonian_vf(pi, h).components())
    assert len(field.guards) == 3
    cfg = flow.FlowConfig(dt=0.01, t_max=5.0)
    traj = flow.integrate_hamiltonian(pi, h, [0.5, 1 / 3, -0.25], cfg)
    _, states = _rk4_states(field.rhs, 0.0, [0.5, 1 / 3, -0.25], cfg.dt, 500)
    assert traj.xs.tobytes() == states.tobytes()


def test_generated_variational_loop_is_bit_identical_to_rk4_step():
    # a time-dependent field with a pole, and its variational equations, as
    # in a Moser path; the loop starts at t = 0.3 and runs in two calls, with
    # steps at which t + h differs from t + h/2 + h/2
    ch = chart("x", "y", "t")
    components = [parse_expr("y*t/(2 + x^2)", ch), parse_expr("t^2*y - x + x*y", ch)]
    field = flow.compile_field(components, time_var=2, variational=True)
    y0 = [0.3, -0.7, 1.0, 0.0, 0.0, 1.0]
    cfg = flow.FlowConfig()
    got = array("d", y0)
    t, y = field.advance(0.3, y0, 0.07, 20, cfg, "pole {}", out=got)
    t, y = field.advance(t, y, 1 / 30, 15, cfg, "pole {}", out=got)
    ref_t, ref = _rk4_states(field.rhs, 0.3, y0, 0.07, 20)
    ref_t, tail = _rk4_states(field.rhs, ref_t, ref[-6:].tolist(), 1 / 30, 15)
    ref.extend(tail[6:])
    assert got.tobytes() == ref.tobytes()
    assert array("d", [t, *y]).tobytes() == array("d", [ref_t, *ref[-6:]]).tobytes()


def test_overflow_message_without_escape_test():
    # x' = x^2 blows up at t = 1; with no escape test the power overflows
    x = chart("x")
    field = flow.compile_field([parse_expr("x^2", x)])
    with pytest.raises(flow.FlowError) as info:
        field.advance(0.0, [1.0], 0.01, 1000, flow.FlowConfig(), "pole {}")
    assert str(info.value) == "flow overflowed near [4.77517763e+173]"


def test_step_counts(tmp_path, capsys, so3_structure, ch3):
    cfg = flow.FlowConfig(dt=0.003, t_max=1.0)
    traj = flow.integrate_hamiltonian(so3_structure, parse_expr("x^2 + 2*y^2", ch3),
                                      [0.1, 0.2, 0.3], cfg)
    assert traj.steps == round(cfg.t_max / cfg.dt) == len(traj.xs) - 1
    schedule = [(0, 0.5), (1, -0.25), (0, 0.0), (1, 0.1)]
    trace = flow.leaf_trace(so3_structure, [parse_expr("x", ch3), parse_expr("y*z", ch3)],
                            [0.6, -0.2, 0.3], schedule, cfg)
    assert trace.steps == sum(max(1, round(abs(t) / cfg.dt)) for _, t in schedule if t)
    assert trace.steps == len(trace.points) - 1
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
