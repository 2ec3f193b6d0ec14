"""Numeric side: Hamiltonian flows by fixed-step classical RK4, leaf traces
by composed flows, Moser-path verification, and spray-based symplectic
realization by quadrature.

All symbolic data is converted to 64-bit floats on entry: each vector field
is compiled to generated scalar Python code (``compile_field``), both its
right-hand side and one generated RK4 loop, ``advance``, that keeps the state
in scalar locals and runs the pole guards, the escape test and the recording
of states inside the loop.  ``rk4_step`` is the reference step: the loop does
the float operations of repeated ``rk4_step`` calls in the same order, so the
two give bit-identical states (the tests hold the loop to it).  The
integrator is deliberately fixed-step RK4 (no adaptivity) so traces are
reproducible; variational (Jacobian) equations are integrated alongside the
base flow.  Trajectories are stored in a flat ``array('d')`` and returned as
numpy views; numpy is imported by the functions that return or use arrays,
not with the module.
"""

from __future__ import annotations

import math
import numbers
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import poisson
from .expr import Chart, ExprError, RatFunc, chart as make_chart
from .multivec import DiffForm, MultiVec, exterior_derivative
from .poisson import PoissonStructure, _pi_of, bivector_matrix, hamiltonian_vf

if TYPE_CHECKING:
    import numpy as np


class FlowError(ExprError):
    pass


class PoleProximityError(FlowError):
    pass


@dataclass
class FlowConfig:
    dt: float = 1e-3
    t_max: float = 10.0
    tol: float = 1e-6
    pole_threshold: float = 1e-9
    escape_radius: float = 1e9
    max_steps: int = 10_000_000

    def __post_init__(self):
        for name in ("dt", "t_max", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise FlowError(f"{name} must be finite, not {getattr(self, name)}")
        if self.dt <= 0 or self.t_max <= 0 or self.dt > self.t_max:
            raise FlowError("need 0 < dt <= t_max")
        if self.tol <= 0:
            raise FlowError("tolerance must be positive")


# -- compiling exact expressions to float code -----------------------------------


def _poly_source(poly, names) -> str:
    if poly.is_zero:
        return "0.0"
    parts = []
    for e, c in poly.terms.items():
        try:
            factors = [repr(float(c))]
        except OverflowError:
            raise FlowError(f"coefficient of {len(str(c))} digits overflows a float") from None
        for i, k in enumerate(e):
            if k == 1:
                factors.append(names[i])
            elif k > 1:
                factors.append(f"{names[i]}**{k}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def _ratfunc_source(rf: RatFunc, names) -> str:
    num_src = _poly_source(rf.num, names)
    if rf.den.is_constant:
        return f"({num_src})"
    return f"({num_src}) / ({_poly_source(rf.den, names)})"


def _names(chart: Chart, time_var=None) -> list[str]:
    names = [f"p[{i}]" for i in range(chart.dim)]
    if time_var is not None:
        names[time_var] = "t"
    return names


def compile_ratfunc(rf: RatFunc):
    """Compile a RatFunc to a float-valued callable of a coordinate sequence."""
    # generated from trusted numeric terms only
    return eval(f"lambda p: {_ratfunc_source(rf, _names(rf.chart))}")


def compile_matrix(entries):
    import numpy as np

    fns = [[compile_ratfunc(c) for c in row] for row in entries]
    def matrix(p):
        return np.array([[f(p) for f in row] for row in fns])
    return matrix


class CompiledField(NamedTuple):
    rhs: Callable
    guards: list
    advance: Callable


def compile_field(components, time_var=None, variational=False) -> CompiledField:
    """Compile the vector field p' = X(t, p) to its ``rhs``, ``guards`` and
    ``advance``.

    ``rhs(t, p)`` returns the tuple of components as floats; chart variable
    ``time_var``, if given, reads the time t.  With ``variational`` the state
    p carries, after its m coordinates, the m x m matrix J (row-major) of the
    variational equation J' = A J with A_ik = dX_i/dp_k, and rhs appends the
    entries of A J, skipping the zero entries of A.  ``guards`` are callables
    ``g(t, p)`` for the nonconstant denominators of the components.

    ``advance(t, y, h, steps, cfg, pole_msg, escape_msg=None, out=None)`` is
    the field's generated RK4 loop (see ``_advance_source``): it takes
    ``steps`` steps of size h from the state y at time t and returns the new
    (t, y), y as a list.

    Each nonzero component and entry of A is compiled by its own eval, and
    the loop calls ``rhs`` at each stage instead of repeating its
    expressions: one compile of a large field's whole source takes more
    memory than its parts one at a time.
    """
    m = len(components)
    names = _names(components[0].chart, time_var)
    env = {}

    def compiled(rf):
        name = f"f{len(env)}"
        env[name] = eval(f"lambda t, p: {_ratfunc_source(rf, names)}")
        return name

    values = ["0.0" if c.is_zero else f"{compiled(c)}(t, p)" for c in components]
    body = []
    if variational:
        for i, c in enumerate(components):
            row = []
            for k in range(m):
                a = c.diff(k)
                if not a.is_zero:
                    body.append(f"    a{i}_{k} = {compiled(a)}(t, p)\n")
                    row.append(k)
            for j in range(m):
                values.append(" + ".join(f"a{i}_{k} * p[{m + k * m + j}]" for k in row)
                              or "0.0")
    exec(f"def rhs(t, p):\n{''.join(body)}    return ({', '.join(values)},)\n", env)
    guards = [eval(f"lambda t, p: {_poly_source(c.den, names)}")
              for c in components if not c.den.is_constant]
    env.update((f"g{i}", g) for i, g in enumerate(guards))
    env.update(FLOAT_MAX=sys.float_info.max, FlowError=FlowError,
               PoleProximityError=PoleProximityError, state_error=_state_error)
    exec(_advance_source(m + m * m if variational else m, len(guards)), env)
    return CompiledField(env["rhs"], guards, env["advance"])


# -- RK4 -------------------------------------------------------------------------


def rk4_step(f, t, y, h):
    """One classical RK4 step of y' = f(t, y) on lists of floats.

    This is the reference step.  The generated loops of ``compile_field``
    do its float operations in its order, and the tests compare them with
    it bit for bit; the benchmark's tracer (``perfbench/tracing.py``) wraps
    it by name, and the integrators do not call it.
    """
    h2 = h / 2
    k1 = f(t, y)
    k2 = f(t + h2, [a + h2 * b for a, b in zip(y, k1)])
    k3 = f(t + h2, [a + h2 * b for a, b in zip(y, k2)])
    k4 = f(t + h, [a + h * b for a, b in zip(y, k3)])
    h6 = h / 6
    return [a + h6 * (b + 2 * c + 2 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]


def _advance_source(size, guard_count):
    """Source of ``advance``, the RK4 loop of ``rk4_step`` on a state of
    ``size`` floats held in the locals y0, y1, ...

    Before each step every guard g0, g1, ... must be at least the pole
    threshold in absolute value.  Each step calls ``rhs`` at the four stages
    with ``rk4_step``'s operations in its order: the stage points are
    y + h2*k and, last, y + h*k; the stage times t + h2 and t + h; the update
    y + h6*(k1 + 2*k2 + 2*k3 + k4).  After each step, if ``escape_msg`` is
    given, the state must be finite and inside the escape radius, and it is
    appended to ``out`` if given.  The messages are format templates for the
    state; when a float operation fails, that is the last completed state.
    """
    ys = [f"y{i}" for i in range(size)]
    state = f"({', '.join(ys)},)"

    def stage(k, point):
        targets = "".join(f"k{k}_{i}, " for i in range(size))
        return f"            {targets}= rhs({point})\n"

    def moved(coef, k):
        return "".join(f"y{i} + {coef} * k{k}_{i}, " for i in range(size))

    update = "".join(f"y{i} + h6 * (k1_{i} + 2 * k2_{i} + 2 * k3_{i} + k4_{i}), "
                     for i in range(size))
    inside = " and ".join(f"low <= {y} <= radius" for y in ys)
    guards = "".join(f"            if abs(g{g}(t, p)) < threshold:\n"
                     f"                raise state_error(PoleProximityError, pole_msg, p)\n"
                     for g in range(guard_count))
    return (
        "def advance(t, y, h, steps, cfg, pole_msg, escape_msg=None, out=None):\n"
        f"    {state} = y\n"
        "    h2 = h / 2\n"
        "    h6 = h / 6\n"
        "    threshold = cfg.pole_threshold\n"
        "    # the test is False for nan, and for inf once the radius is finite\n"
        "    radius = float(min(cfg.escape_radius, FLOAT_MAX))\n"
        "    low = -radius\n"
        "    try:\n"
        "        for _ in range(steps):\n"
        f"            p = {state}\n"
        f"{guards}"
        + stage(1, "t, p")
        + stage(2, f"t + h2, ({moved('h2', 1)})")
        + stage(3, f"t + h2, ({moved('h2', 2)})")
        + stage(4, f"t + h, ({moved('h', 3)})")
        + f"            {state} = ({update})\n"
        "            t += h\n"
        f"            if escape_msg is not None and not ({inside}):\n"
        f"                raise state_error(FlowError, escape_msg, {state})\n"
        "            if out is not None:\n"
        f"                out.extend({state})\n"
        "    except ArithmeticError:  # a float power overflowed, or a stage hit a pole\n"
        "        raise state_error(FlowError, escape_msg or 'flow overflowed near {}',\n"
        f"                          {state}) from None\n"
        f"    return t, [{', '.join(ys)}]\n"
    )


def _state_error(cls, template, state):
    """``cls`` with its message: ``template`` formatted with the state as an
    array."""
    import numpy as np

    return cls(template.format(np.array(state)))


def _step_count(span: float, cfg: FlowConfig) -> int:
    """round(span / dt) RK4 steps, at least one.  The ratio is held against
    max_steps while it is a float, so that no overflowing count reaches int()."""
    ratio = span / cfg.dt
    if ratio > cfg.max_steps:
        raise FlowError(f"step count {ratio:.4g} exceeds max_steps ({cfg.max_steps})")
    return max(1, round(ratio))


def _at_nodes(field: CompiledField, y0, nodes, cfg: FlowConfig, pole_msg, escape_msg=None):
    """Flow y0 with its variational matrix J (J = I at t = 0) through the
    increasing times ``nodes``; yields (t, y, J) at each node."""
    import numpy as np

    m = len(y0)
    t, state = 0.0, y0 + [float(i == j) for i in range(m) for j in range(m)]
    for node in nodes:
        gap = node - t
        if gap > 0:
            steps = _step_count(gap, cfg)
            t, state = field.advance(t, state, gap / steps, steps, cfg, pole_msg, escape_msg)
        yield t, state[:m], np.array(state[m:]).reshape(m, m)


def _point(x, n, message):
    """Coordinates as floats; anything but a float is read exactly first,
    so rational strings such as "1/2" are accepted as in CLI points."""
    try:
        x = [v if isinstance(v, float) else float(Fraction(v)) for v in x]
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as err:
        raise FlowError(f"cannot read point {x!r}: {err}") from None
    if len(x) != n:
        raise FlowError(message)
    return x


def _drifts(functions, states, n):
    """Max |f(x) - f(x_0)| over the flat array of n-coordinate states, per f."""
    out = []
    for f in functions:
        fn = compile_ratfunc(f)
        f0 = fn(states[:n])
        out.append(max(abs(fn(x) - f0) for x in zip(*[iter(states)] * n)))
    return out


# -- Hamiltonian trajectories ------------------------------------------------------


@dataclass
class Trajectory:
    ts: np.ndarray
    xs: np.ndarray
    h_drift: float
    casimir_drifts: list
    steps: int                   # RK4 steps taken


def integrate_hamiltonian(structure, hamiltonian: RatFunc, x0, cfg: FlowConfig,
                          casimirs=()) -> Trajectory:
    """RK4 trajectory of X_H with H- and Casimir-drift reporting."""
    import numpy as np

    n = hamiltonian.chart.dim
    field = compile_field(hamiltonian_vf(structure, hamiltonian).components())
    steps = _step_count(cfg.t_max, cfg)
    x = _point(x0, n, f"x0 needs {n} coordinates")
    xs = array("d", x)
    field.advance(0.0, x, cfg.dt, steps, cfg,
                  "denominator below threshold near {}", "trajectory escaped near {}", xs)
    h_drift, *drifts = _drifts([hamiltonian, *casimirs], xs, n)
    return Trajectory(np.arange(len(xs) // n) * cfg.dt, np.frombuffer(xs).reshape(-1, n),
                      h_drift, drifts, steps)


@dataclass
class LeafTrace:
    points: np.ndarray
    hamiltonians: list
    casimir_drifts: list
    steps: int                   # RK4 steps taken, over the whole schedule


def leaf_trace(structure, generators, x0, schedule, cfg: FlowConfig,
               casimirs=()) -> LeafTrace:
    """Compose Hamiltonian flows of the generators per the schedule
    [(generator index, time), ...]; negative times flow backwards."""
    import numpy as np

    n = _pi_of(structure).chart.dim
    fields = [compile_field(hamiltonian_vf(structure, g).components()) for g in generators]
    x = _point(x0, n, f"x0 needs {n} coordinates")
    points = array("d", x)
    taken = 0
    for gen_index, t_total in schedule:
        if gen_index not in range(len(fields)):
            raise FlowError(f"schedule names generator {gen_index!r}; "
                            f"the indices run from 0 to {len(fields) - 1}")
        t_abs = abs(float(t_total))
        if t_abs == 0.0:
            continue
        if not math.isfinite(t_abs):
            raise FlowError(f"schedule time {t_total!r} is not finite")
        steps = _step_count(t_abs, cfg)
        h = (t_abs / steps) * (1.0 if t_total > 0 else -1.0)
        _, x = fields[gen_index].advance(0.0, x, h, steps, cfg,
                                         "denominator below threshold near {}",
                                         "trajectory escaped near {}", points)
        taken += steps
    return LeafTrace(np.frombuffer(points).reshape(-1, n), list(generators),
                     _drifts(casimirs, points, n), taken)


# -- Moser-path verification --------------------------------------------------------


@dataclass
class MoserReport:
    max_deviation: float
    per_sample: list


def _lift_chart(chart: Chart, extra) -> Chart:
    """The chart with the variables named ``extra`` appended, renamed apart."""
    names = list(chart.var_names)
    for name in extra:
        while name in names:
            name += "_"
        names.append(name)
    return make_chart(*names)


def moser_verify(structure: PoissonStructure, alpha: DiffForm, t_grid, samples,
                 cfg: FlowConfig) -> MoserReport:
    """Numerically verify (phi_t)_* pi_0 = pi_t for pi_t the gauge of pi_0 by
    B_t = -t d(alpha) and X_t = pi_t#(alpha).

    The time variable is adjoined to the chart so pi_t comes out of one exact
    gauge transformation; the flow and its variational equations are then
    integrated with RK4 and the pushforward J P_0 J^T is compared against the
    exact pi_t matrix at the endpoint, at every requested grid time.
    """
    import numpy as np

    chart = structure.chart
    n = chart.dim
    if alpha.degree != 1 or alpha.chart != chart:
        raise FlowError("alpha must be a 1-form on the structure's chart")
    big = _lift_chart(chart, ["t"])
    t_var = RatFunc.var(big, n)
    d_alpha = exterior_derivative(alpha)
    # B_t = -t d(alpha): closed on the x-chart for every fixed t (it is exact)
    b_coeffs = {
        idx: -t_var * c.lift(big) for idx, c in d_alpha.coeffs.items()
    }
    b_t = DiffForm(big, 2, b_coeffs)
    pi_lift = MultiVec(
        big, 2, {idx: c.lift(big) for idx, c in structure.pi.coeffs.items()}
    )
    p_t = poisson.gauge_matrix(bivector_matrix(pi_lift), bivector_matrix(b_t), big)
    if p_t is None:
        raise FlowError("Id + B_t_flat pi# singular along the requested family")
    # X_t = pi_t#(alpha)
    alpha_lift = [alpha.coeff((i,)).lift(big) for i in range(n)]
    x_t = [sum((alpha_lift[i] * p_t[i][j] for i in range(n)), RatFunc.zero(big))
           for j in range(n)]
    field = compile_field(x_t, time_var=n, variational=True)
    p_t_fn = compile_matrix([row[:n] for row in p_t[:n]])

    grid = sorted(float(t) for t in t_grid)
    if any(t < 0 for t in grid):
        raise FlowError("t_grid times must be nonnegative")
    starts = [_point(s, n, f"samples need {n} coordinates") for s in samples]
    # invertibility at the samples across the grid (precondition check)
    for s, x0 in zip(samples, starts):
        for t in grid:
            for g in field.guards:
                if abs(g(t, x0)) < cfg.pole_threshold:
                    raise FlowError(f"gauge family degenerate at sample {s}, t={t}")

    p0_fn = compile_matrix(bivector_matrix(structure.pi))
    per_sample = []
    overall = 0.0
    for x0 in starts:
        p0 = p0_fn(x0)
        devs = [float(np.max(np.abs(j @ p0 @ j.T - p_t_fn(x + [t]))))
                for t, x, j in _at_nodes(field, x0, grid, cfg, "flow hit a gauge pole")]
        per_sample.append(devs)
        overall = max(overall, max(devs))
    return MoserReport(overall, per_sample)


# -- spray realization ----------------------------------------------------------------


@dataclass
class RealizationSample:
    point: np.ndarray            # (x, xi) in the cotangent chart
    omega: np.ndarray            # 2n x 2n matrix of the averaged 2-form
    antisym_error: float
    det: float
    condition: float

    @property
    def nondegenerate(self) -> bool:
        return self.det != 0 and math.isfinite(self.condition)


def spray_realization(structure, samples, quad_nodes, cfg: FlowConfig):
    """Integrate the flat-connection Poisson spray Y|_xi = hor(xi, pi#(xi))
    on the cotangent chart and average the pullbacks of omega_can over
    t in [0,1] by the trapezoid rule on the given nodes: ``quad_nodes`` is a
    sequence of nodes, or any integer as a count of evenly spaced ones.

    omega_can = sum_i dx_i ^ dxi_i, for which the chart projection of the
    resulting symplectic form is a Poisson map onto pi (realization_check).
    """
    import numpy as np

    pi = _pi_of(structure)
    chart = pi.chart
    n = chart.dim
    big = _lift_chart(chart, [f"xi{i + 1}" for i in range(n)])
    p = bivector_matrix(pi)
    p_lift = [[e.lift(big) for e in row] for row in p]
    # spray: dx_j/dt = sum_i xi_i P_ij(x), dxi/dt = 0
    spray = [sum((RatFunc.var(big, n + i) * p_lift[i][j] for i in range(n)), RatFunc.zero(big))
             for j in range(n)]
    field = compile_field(spray + [RatFunc.zero(big)] * n, variational=True)

    if isinstance(quad_nodes, numbers.Integral):
        quad_nodes = np.linspace(0.0, 1.0, max(int(quad_nodes), 0))
    try:
        nodes = sorted(float(t) for t in quad_nodes)
    except (TypeError, ValueError):
        raise FlowError(f"quad_nodes must be a node count or a sequence of at least two "
                        f"quadrature nodes, not {quad_nodes!r}") from None
    if len(nodes) < 2:
        raise FlowError("the trapezoid rule needs at least two quadrature nodes")
    if nodes[0] != 0.0 or nodes[-1] != 1.0:
        raise FlowError("quadrature nodes must span [0, 1]")
    w_can = np.zeros((2 * n, 2 * n))
    w_can[:n, n:] = np.eye(n)
    w_can[n:, :n] = -np.eye(n)

    out = []
    for s in samples:
        y0 = _point(s, 2 * n, "samples live in the cotangent chart (length 2n)")
        values = [j.T @ w_can @ j for _, _, j in _at_nodes(
            field, y0, nodes, cfg, "spray flow hit a pole",
            f"spray flow escaped for sample {s}")]
        acc = np.zeros((2 * n, 2 * n))
        for k in range(len(nodes) - 1):
            acc += 0.5 * (nodes[k + 1] - nodes[k]) * (values[k] + values[k + 1])
        antisym = float(np.max(np.abs(acc + acc.T)))
        det = float(np.linalg.det(acc))
        cond = float(np.linalg.cond(acc)) if det != 0 else float("inf")
        out.append(RealizationSample(np.array(y0), acc, antisym, det, cond))
    return out


def realization_check(realization_samples, structure) -> float:
    """Invert each omega to a bivector on the cotangent chart, push it down
    the projection (the [I 0] block), and compare with pi at the base point;
    returns the max entrywise deviation."""
    import numpy as np

    pi = _pi_of(structure)
    n = pi.chart.dim
    p_fn = compile_matrix(bivector_matrix(pi))
    worst = 0.0
    for sample in realization_samples:
        if sample.det == 0:
            raise FlowError("singular omega in realization_check")
        inv = np.linalg.inv(sample.omega)
        pushed = inv[:n, :n]
        target = p_fn(sample.point[:n])
        worst = max(worst, float(np.max(np.abs(pushed - target))))
    return worst
