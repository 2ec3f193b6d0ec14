"""Numeric side: Hamiltonian flows by fixed-step classical RK4, leaf traces
by composed flows, Moser-path verification, and spray-based symplectic
realization by quadrature.

All symbolic data is converted to 64-bit floats on entry: each vector field
is compiled to generated scalar Python code (``compile_field``), one RK4
loop, ``advance``, that keeps the state in scalar locals and runs the pole
guards, the escape test and the drifts of H and the Casimirs inside the
loop.  The four stages hold the field itself: polynomial entries
(components, Jacobian entries and the entries of J' = A J) are written in as
expressions, so a step of a polynomial field makes no Python call, while
each entry with a nonconstant denominator stays one compiled lambda that the
stages call (see ``compile_field`` for why).  ``rk4_step`` is the reference
step: the loop does the float operations of repeated ``rk4_step`` calls in
the same order, so the two give bit-identical states (the tests hold the
loop to ``rk4_step`` on the field's entries, each compiled by
``compile_ratfunc``).  H and the Casimirs are written in too, after each
step, and the loop keeps their largest |f(x_k) - f(x_0)|: no trajectory is
stored, and a flow returns its final state and these drifts.  Stages and
drifts compute each power and term that they repeat only once
(``_shared_sources``, exact to the last bit), and the first stage of a step
reads those that the drifts of its state computed.
The integrator is deliberately fixed-step RK4 (no adaptivity) so traces are
reproducible; variational (Jacobian) equations are integrated alongside the
base flow.  Three fixed limits stop a flow: a pole guard below
``POLE_THRESHOLD`` (1e-9) in absolute value, a state coordinate beyond
``ESCAPE_RADIUS`` (1e9) or not finite, and a step count above ``MAX_STEPS``
(10^7).  Pointwise linear algebra goes through ``linalg``.
"""

from __future__ import annotations

import functools
import math
import numbers
from fractions import Fraction
from typing import Callable, NamedTuple

from . import linalg, poisson
from .expr import Chart, ExprError, RatFunc, chart as make_chart, fields_repr
from .multivec import DiffForm, MultiVec, exterior_derivative
from .poisson import PoissonStructure, _pi_of, bivector_matrix, hamiltonian_vf


class FlowError(ExprError):
    pass


class PoleProximityError(FlowError):
    pass


POLE_THRESHOLD = 1e-9
ESCAPE_RADIUS = 1e9
MAX_STEPS = 10_000_000


class FlowConfig:
    __slots__ = ("dt", "t_max", "tol")

    def __init__(self, dt: float = 1e-3, t_max: float = 10.0, tol: float = 1e-6):
        for name, value in zip(self.__slots__, (dt, t_max, tol)):
            if not math.isfinite(value):
                raise FlowError(f"{name} must be finite, not {value}")
        if dt <= 0 or t_max <= 0 or dt > t_max:
            raise FlowError("need 0 < dt <= t_max")
        if tol <= 0:
            raise FlowError("tolerance must be positive")
        self.dt, self.t_max, self.tol = dt, t_max, tol

    def __repr__(self):
        return fields_repr(self, self.__slots__)


# -- compiling exact expressions to float code -----------------------------------


def _float(c) -> float:
    try:
        return float(c)
    except OverflowError:
        raise FlowError(f"coefficient of {len(str(c))} digits overflows a float") from None


def _poly_source(poly, names) -> str:
    if poly.is_zero:
        return "0.0"
    parts = []
    for e, c in poly.terms.items():
        factors = [repr(_float(c))]
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


def _shared_sources(functions, names, local, counted=(), known=None):
    """(prelude, sources, shared): float sources of the RatFuncs
    ``functions`` on ``names``, and the lines that compute each power x**k
    and term |c|*x^m that they would compute twice or more once, into
    local(0), local(1), ...; ``shared`` maps each of these values to its
    local.  The uses in ``counted`` count too, though they are not written,
    and a value in ``known``, a ``shared`` of lines that ran before, is read
    from its local.

    Otherwise the sources do the float operations of ``_ratfunc_source`` in
    its order, with rewrites that are exact because rounding to nearest is
    sign-symmetric: a term of coefficient -c is the +c term negated
    ((-c*a)*b == -((c*a)*b), x + -t == x - t), and a coefficient 1.0 is left
    out.  No sum is reordered and x**k stays a power (libm's pow(v, 2) is not
    always v*v), so the values are bit-identical up to the sign of a nan.
    """
    uses, prelude, known = {}, {}, known or {}

    def count(key, make):
        # a repeated term is made once, so only its first use counts its powers
        if key in known:
            return ""
        uses[key] = uses.get(key, 0) + 1
        return make() if uses[key] == 1 else ""

    def share(key, make):
        if key in known:
            return known[key]
        if uses[key] > 1 and key not in prelude:
            text = make()
            prelude[key] = local(len(prelude)), text
        return prelude[key][0] if key in prelude else make()

    def render(value, functions):
        def power(i, k):
            text = f"{names[i]}**{k}"
            return value(("**", i, k), lambda: text)

        def source(poly):
            parts = []
            for e, c in poly.terms.items():
                c = _float(c)
                xs = [(i, k) for i, k in enumerate(e) if k]
                unit = abs(c) == 1.0 and bool(xs)

                def term():
                    factors = [names[i] if k == 1 else power(i, k) for i, k in xs]
                    return "*".join(factors if unit else [repr(abs(c)), *factors])
                text = value((abs(c), e), term) if len(xs) + (not unit) > 1 else term()
                negative = math.copysign(1.0, c) < 0
                parts.append(("- " if negative else "+ ") + text if parts
                             else ("-" if negative else "") + text)
            return " ".join(parts) or "0.0"
        return [f"({source(f.num)})" if f.den.is_constant
                else f"({source(f.num)}) / ({source(f.den)})" for f in functions]

    render(count, [*functions, *counted])
    sources = render(share, functions)
    return ([f"{name} = {text}" for name, text in prelude.values()], sources,
            {key: name for key, (name, _) in prelude.items()})


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
    """Compile a matrix of RatFuncs to a callable that returns its float rows."""
    fns = [[compile_ratfunc(c) for c in row] for row in entries]
    return lambda p: [[f(p) for f in row] for row in fns]


class CompiledField(NamedTuple):
    guards: list
    advance: Callable


def compile_field(components, time_var=None, variational=False, watch=()) -> CompiledField:
    """Compile the vector field p' = X(t, p) to its ``guards`` and
    ``advance``.

    Chart variable ``time_var``, if given, reads the time t, and chart
    variable i < m reads coordinate i.  With ``variational`` the state p
    carries, after its m coordinates, the m x m matrix J (row-major) of the
    variational equation J' = A J with A_ik = dX_i/dp_k, whose entries follow
    the components in the field, the zero entries of A skipped.  ``guards``
    are callables ``g(t, p)`` for the nonconstant denominators of the
    components.

    ``advance(t, y, h, steps, pole_msg, escape_msg=None, drifts=None)`` is
    the field's generated RK4 loop (see ``_advance_source``): it takes
    ``steps`` steps of size h from the state y at time t and returns the new
    (t, y), y as a list.  It stores no state, and takes the drifts of
    ``watch``, RatFuncs on the m coordinates, into their ``_Drifts`` ``drifts``.
    The drifts of a state keep the powers and terms that they share with
    the next step's first stage in locals, and that stage reads them.

    The four stages of ``advance`` hold the field itself.  A component or
    entry of A with a constant denominator, and each entry of A J, is
    written into every stage as an expression.  Stage k first computes the
    powers and terms that these entries repeat into c{k}_0, c{k}_1, ...:
    the sharing is worked out once, on the template, and changes no bit,
    since it relies on the sign symmetry of rounding and keeps every sum's
    order and every ``**`` (``_shared_sources``).  An entry with a
    nonconstant denominator is compiled to a lambda by its own eval, and
    each stage calls it: writing the rational entries in as well would
    compile four copies of them, and the Moser gauge families of the
    benchmark's ``rational`` workload have entries of up to 62/52 terms:
    that raised its peak RSS from 33.5 to 43.0 MB, against under 2% for
    writing in the polynomial entries only.
    """
    m = len(components)
    size = m + m * m if variational else m
    # stage text is a template: {i} is coordinate i, {t} the stage time, {p}
    # the stage point as a tuple, and {k} the stage number
    names = [f"{{{i}}}" for i in range(components[0].chart.dim)]
    if time_var is not None:
        names[time_var] = "{t}"
    jacobian = [[c.diff(col) for col in range(m)] for c in components] if variational else []
    entries = [*components, *(a for row in jacobian for a in row if not a.is_zero)]
    written_in = [e for e in entries if e.den.is_constant]
    env, called = {}, {}
    for n, rf in enumerate(entries):
        if not rf.den.is_constant:
            name = called[n] = f"f{len(env)}"
            env[name] = eval(f"lambda t, p: {_ratfunc_source(rf, _names(rf.chart, time_var))}")

    def stage_body(prelude, written):
        written = iter(written)
        texts = iter([f"{called[n]}({{t}}, {{p}})" if n in called else next(written)
                      for n in range(len(entries))])
        body = prelude + [f"k{{k}}_{i} = {next(texts)}" for i in range(m)]
        for i, row in enumerate(jacobian):
            cols = [col for col, a in enumerate(row) if not a.is_zero]
            body += [f"a{i}_{col} = {next(texts)}" for col in cols]
            body += [f"k{{k}}_{m + i * m + j} = "
                     + (" + ".join(f"a{i}_{col} * {{{m + col * m + j}}}" for col in cols)
                        or "0.0")
                     for j in range(m)]
        return body

    def local(j):
        return f"c{{k}}_{j}"

    body = stage_body(*_shared_sources(written_in, names, local)[:2])
    # the drifts and the next step's stage 1 read the same state: on one
    # chart, the drifts keep every value they share with stage 1 in a local
    same = bool(watch) and components[0].chart == watch[0].chart
    *watched, known = _shared_sources(watch, [f"y{i}" for i in range(m)], lambda j: f"w{j}",
                                      counted=written_in if same else ())
    after_drift = stage_body(*_shared_sources(written_in, names, local, known=known)[:2])
    guards = [eval(f"lambda t, p: {_poly_source(c.den, _names(c.chart, time_var))}")
              for c in components if not c.den.is_constant]
    env.update((f"g{i}", g) for i, g in enumerate(guards))
    env.update(FlowError=FlowError, PoleProximityError=PoleProximityError,
               state_text=_state_text)
    exec(_advance_source(size, m, body, len(guards), *watched,
                         after_drift if after_drift != body else None), env)
    return CompiledField(guards, env["advance"])


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


def _stage(body, k, names, time, point, indent):
    """Stage k of the RK4 step: the template ``body`` of ``compile_field``
    on the coordinate locals ``names``, the time ``time`` and the point tuple
    ``point``, one statement a line."""
    return "".join(f"{indent}{line.format(*names, t=time, p=point, k=k)}\n" for line in body)


def _advance_source(size, m, body, guard_count, watch_prelude, watched, after_drift=None):
    """Source of ``advance``, the RK4 loop of ``rk4_step`` on a state of
    ``size`` floats held in the locals y0, y1, ...

    The loop writes the stage template ``body`` (see ``compile_field``) out
    four times: the first stage reads the state and the time t, the later
    ones the stage locals q0, q1, ... and s.  A stage of a polynomial field
    makes no Python call; a stage with rational entries calls their lambdas
    on its point, the state tuple p or the tuple q of the first m stage
    locals, which it builds only then.

    Before each step every guard g0, g1, ... must be at least
    ``POLE_THRESHOLD`` in absolute value.  The stages keep ``rk4_step``'s
    operations in its order: the stage points are y + h2*k and, last, y + h*k; the
    stage times t + h2 and t + h; the update y + h6*(k1 + 2*k2 + 2*k3 + k4),
    its 2 written 2.0 (the same product, with no int operand to convert).
    After each step, if ``escape_msg`` is given, every coordinate must lie
    within ``ESCAPE_RADIUS`` (which fails for inf and nan).  Both limits are
    written in as literals.  The messages are format templates for the state;
    when a float operation fails, that is the last completed state.  Then
    ``watch_prelude`` and ``watched`` (``_shared_sources``, into w0, w1, ...)
    evaluate the watched functions, and drift b_i takes |f_i(x) - f_i(x_0)|
    if strictly greater (``max``'s rule).  The first state where one fails
    ends the drifts, not the loop: a later guard, escape or overflow wins.
    ``after_drift``, if given, is the first stage's template reading the
    values that the drifts keep in w0, w1, ...: the next step runs it when
    the drift pass of its state ran through (``fresh``), and ``body`` else.
    """
    ys = [f"y{i}" for i in range(size)]
    qs = [f"q{i}" for i in range(size)]
    state = f"({', '.join(ys)},)"
    text = "\n".join(body)
    calls, timed = "{p}" in text, "{t}" in text
    indent = "            "

    def later_stage(k, coef, time):
        """Stage k > 1 on the point y + coef*k_{k-1}; a time of None keeps s."""
        lines = [f"s = {time}"] if timed and time else []
        lines += [f"q{i} = y{i} + {coef} * k{k - 1}_{i}" for i in range(size)]
        if calls:
            lines.append(f"q = ({', '.join(qs[:m])},)")
        return ("".join(f"{indent}{line}\n" for line in lines)
                + _stage(body, k, qs, "s", "q", indent))

    update = "".join(f"y{i} + h6 * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i}), "
                     for i in range(size))
    inside = " and ".join(f"{-ESCAPE_RADIUS!r} <= {y} <= {ESCAPE_RADIUS!r}" for y in ys)
    guards = "".join(f"            if abs(g{g}(t, p)) < {POLE_THRESHOLD!r}:\n"
                     f"                raise PoleProximityError(pole_msg.format(state_text(p)))\n"
                     for g in range(guard_count))
    starts, worst = (", ".join(f"{v}{i}" for i in range(len(watched))) for v in "vb")
    drift = "".join(f"                    {line}\n" for line in watch_prelude) + "".join(
        f"                    d = abs({v} - v{i})\n"
        f"                    if d > b{i}: b{i} = d\n" for i, v in enumerate(watched))
    stage1 = _stage(body, 1, ys, "t", "p", indent)
    if after_drift is not None:
        stage1 = (f"{indent}if fresh:\n" + _stage(after_drift, 1, ys, "t", "p", indent + "    ")
                  + f"{indent}else:\n" + _stage(body, 1, ys, "t", "p", indent + "    "))
        drift += "                    fresh = True\n"
    return (
        "def advance(t, y, h, steps, pole_msg, escape_msg=None, drifts=None):\n"
        f"    {state} = y\n"
        + (f"    ({starts},) = drifts.start\n    ({worst},) = drifts.worst\n"
           if watched else "")
        + "    h2 = h / 2\n"
        "    h6 = h / 6\n"
        + ("    fresh = False\n" if after_drift is not None else "")
        + "    try:\n"
        "        for _ in range(steps):\n"
        + (f"            p = {state}\n" if guard_count or calls else "")
        + guards
        + stage1
        + later_stage(2, "h2", "t + h2")
        + later_stage(3, "h2", None)
        + later_stage(4, "h", "t + h")
        + f"            {state} = ({update})\n"
        "            t += h\n"
        f"            if escape_msg is not None and not ({inside}):\n"
        f"                raise FlowError(escape_msg.format(state_text({state})))\n"
        + ("            if drifts.failure is None:\n"
           "                try:\n"
           f"{drift}"
           "                except ArithmeticError:  # a pole, an overflowing power\n"
           f"                    drifts.failure = [{', '.join(ys[:m])}]\n"
           + ("                    fresh = False\n" if after_drift is not None else "")
           if watched else "")
        + "    except ArithmeticError:  # a float power overflowed, or a stage hit a pole\n"
        "        raise FlowError((escape_msg or 'flow overflowed near {}').format(\n"
        f"            state_text({state}))) from None\n"
        + (f"    drifts.worst = [{worst}]\n" if watched else "")
        + f"    return t, [{', '.join(ys)}]\n"
    )


def _state_text(state) -> str:
    """A state in an error message: the list of its floats' reprs."""
    return str([float(v) for v in state])


def _step_count(span: float, cfg: FlowConfig) -> int:
    """round(span / dt) RK4 steps, at least one.  The ratio is held against
    MAX_STEPS while it is a float, so that no overflowing count reaches int()."""
    ratio = span / cfg.dt
    if ratio > MAX_STEPS:
        raise FlowError(f"step count {ratio:.4g} exceeds max_steps ({MAX_STEPS})")
    return max(1, round(ratio))


def _at_nodes(field: CompiledField, y0, nodes, cfg: FlowConfig, pole_msg, escape_msg=None):
    """Flow y0 with its variational matrix J (J = I at t = 0) through the
    increasing times ``nodes``; yields (t, y, J) at each node, J as rows."""
    m = len(y0)
    t, state = 0.0, y0 + [float(i == j) for i in range(m) for j in range(m)]
    for node in nodes:
        gap = node - t
        if gap > 0:
            steps = _step_count(gap, cfg)
            t, state = field.advance(t, state, gap / steps, steps, pole_msg, escape_msg)
        yield t, state[:m], [state[m + i * m:m + i * m + m] for i in range(m)]


_UNREADABLE = {ValueError: "not a rational number", ZeroDivisionError: "zero denominator",
               OverflowError: "too large for a float"}


def _read(v, what):
    """A coordinate or time ``v`` as a float.  A float keeps its value, as a
    plain float (a float subclass in the RK4 loop would make each of its
    operations a call of the subclass); anything else is read exactly
    through Fraction, so "1/2" reads as in CLI points, and only what
    Fraction rejects ("nan", "inf", an object with only ``__float__``) is
    read by float().  FlowError names ``what`` and the reason, not the
    value, which may be hundreds of digits long (1e400)."""
    if isinstance(v, float):
        return float(v)
    try:
        try:
            return float(Fraction(v))
        except (TypeError, ValueError):
            return float(v)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as err:
        reason = _UNREADABLE.get(type(err), "not a number")
        raise FlowError(f"cannot read {what}: {reason}") from None


def _sequence(values, what) -> list:
    """``values`` as a list; FlowError names ``what`` when it is not iterable."""
    try:
        return list(values)
    except TypeError:
        raise FlowError(f"{what} must be a sequence, not {values!r}") from None


def _nonempty(values, what) -> list:
    """``values`` as a list (``_sequence``), with at least one to check."""
    values = _sequence(values, what)
    if not values:
        raise FlowError(f"{what} is empty: there is nothing to check")
    return values


def _casimirs(structure, casimirs) -> list:
    """``casimirs`` as a list (``_sequence``); FlowError names one that is not
    a function on the structure's chart."""
    chart = _pi_of(structure).chart
    casimirs = _sequence(casimirs, "casimirs")
    for k, c in enumerate(casimirs):
        if getattr(c, "chart", None) != chart:
            raise FlowError(f"Casimir {k}, {c}, is not a function on the structure's "
                            f"chart {chart!r}")
    return casimirs


def _point(x, n, message):
    """Coordinates as floats, each read by ``_read``."""
    try:
        coords = [_read(v, f"point coordinate {i}") for i, v in enumerate(x)]
    except TypeError:  # x is not a sequence
        raise FlowError("cannot read point: not a sequence") from None
    if len(coords) != n:
        raise FlowError(message)
    return coords


class _Drifts:
    """The drifts of ``functions``, carried by the ``advance`` loops of a flow:
    ``start`` holds f(x_0) for each f, ``worst`` the max of |f(x_k) - f(x_0)|
    so far, and ``failure`` the first state where an f cannot be evaluated,
    or None."""

    __slots__ = ("functions", "start", "worst", "failure")

    def __init__(self, functions: list, start: list, worst: list, failure: list | None):
        self.functions, self.start, self.worst, self.failure = functions, start, worst, failure

    @classmethod
    def at(cls, functions, x) -> _Drifts:
        """At x_0 = x each drift is |f(x_0) - f(x_0)|: 0.0, or a nan that stands."""
        try:
            start = [compile_ratfunc(f)(x) for f in functions]
        except ArithmeticError:
            return cls(functions, [0.0] * len(functions), [0.0] * len(functions), x)
        return cls(functions, start, [abs(v - v) for v in start], None)

    def result(self) -> list:
        """The drifts; FlowError names the first state and function that fail."""
        for f in self.functions if self.failure is not None else ():
            try:
                compile_ratfunc(f)(self.failure)
            except ArithmeticError as err:
                raise FlowError(f"cannot evaluate {f} at {_state_text(self.failure)}: "
                                f"{err}") from None
        return self.worst


# -- Hamiltonian trajectories ------------------------------------------------------


class Trajectory(NamedTuple):
    final: list                  # the state x_steps at t = steps * dt
    h_drift: float
    casimir_drifts: list
    steps: int                   # RK4 steps taken


def integrate_hamiltonian(structure, hamiltonian: RatFunc, x0, cfg: FlowConfig,
                          casimirs=()) -> Trajectory:
    """RK4 trajectory of X_H with H- and Casimir-drift reporting."""
    n = hamiltonian.chart.dim
    watched = [hamiltonian, *_casimirs(structure, casimirs)]
    field = compile_field(hamiltonian_vf(structure, hamiltonian).components(), watch=watched)
    steps = _step_count(cfg.t_max, cfg)
    x = _point(x0, n, f"x0 needs {n} coordinates")
    drifts = _Drifts.at(watched, x)
    _, x = field.advance(0.0, x, cfg.dt, steps, "denominator below threshold near {}",
                         "trajectory escaped near {}", drifts)
    h_drift, *casimir_drifts = drifts.result()
    return Trajectory(x, h_drift, casimir_drifts, steps)


class LeafTrace(NamedTuple):
    final: list                  # the state after the last RK4 step
    casimir_drifts: list         # over the start and the state after each step
    steps: int                   # RK4 steps taken, over the whole schedule


def leaf_trace(structure, generators, x0, schedule, cfg: FlowConfig,
               casimirs=()) -> LeafTrace:
    """Compose Hamiltonian flows of the generators per the schedule
    [(generator index, time), ...]; negative times flow backwards."""
    n = _pi_of(structure).chart.dim
    casimirs = _casimirs(structure, casimirs)
    fields = [compile_field(hamiltonian_vf(structure, g).components(), watch=casimirs)
              for g in _nonempty(generators, "generators")]
    x = _point(x0, n, f"x0 needs {n} coordinates")
    drifts = _Drifts.at(casimirs, x)
    taken = 0
    for k, entry in enumerate(_sequence(schedule, "schedule")):
        try:
            gen_index, t_total = entry
        except (TypeError, ValueError):
            raise FlowError(f"schedule entry {k} must be a (generator index, time) pair, "
                            f"not {entry!r}") from None
        if gen_index not in range(len(fields)):
            raise FlowError(f"schedule names generator {gen_index!r}; "
                            f"the indices run from 0 to {len(fields) - 1}")
        t = _read(t_total, f"the time of schedule entry {k}")
        if t == 0.0:
            continue
        if not math.isfinite(t):
            raise FlowError(f"schedule time {t!r} is not finite")
        steps = _step_count(abs(t), cfg)
        h = math.copysign(abs(t) / steps, t)
        _, x = fields[gen_index].advance(0.0, x, h, steps,
                                         "denominator below threshold near {}",
                                         "trajectory escaped near {}", drifts)
        taken += steps
    return LeafTrace(x, drifts.result(), taken)


def _times(values, what):
    """``values`` read by ``_read`` and sorted; FlowError names one that is
    unreadable, by its index, or not finite."""
    times = [_read(t, f"{what} at index {i}") for i, t in enumerate(values)]
    for t in times:
        if not math.isfinite(t):
            raise FlowError(f"{what} {t} is not finite")
    return sorted(times)


def _max_gap(a, b) -> float:
    """The largest |a_ij - b_ij| of two float matrices of one shape."""
    return max(abs(x - y) for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b))


# -- Moser-path verification --------------------------------------------------------


class MoserReport(NamedTuple):
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
    p_t = poisson.gauge_matrix(bivector_matrix(pi_lift), bivector_matrix(b_t))
    if p_t is None:
        raise FlowError("Id + B_t_flat pi# singular along the requested family")
    # X_t = pi_t#(alpha)
    alpha_lift = [alpha.coeff((i,)).lift(big) for i in range(n)]
    x_t = [sum((alpha_lift[i] * p_t[i][j] for i in range(n)), RatFunc.zero(big))
           for j in range(n)]
    field = compile_field(x_t, time_var=n, variational=True)
    p_t_fn = compile_matrix([row[:n] for row in p_t[:n]])

    grid = _times(_nonempty(t_grid, "t_grid"), "t_grid time")
    if any(t < 0 for t in grid):
        raise FlowError("t_grid times must be nonnegative")
    samples = _nonempty(samples, "samples")
    starts = [_point(s, n, f"samples need {n} coordinates") for s in samples]
    # invertibility at the samples across the grid (precondition check)
    for s, x0 in zip(samples, starts):
        for t in grid:
            for g in field.guards:
                if abs(g(t, x0)) < POLE_THRESHOLD:
                    raise FlowError(f"gauge family degenerate at sample {s}, t={t}")

    p0_fn = compile_matrix(bivector_matrix(structure.pi))
    per_sample = []
    for x0 in starts:
        p0 = p0_fn(x0)
        per_sample.append([
            _max_gap(linalg.matmul(linalg.matmul(j, p0), linalg.transpose(j)), p_t_fn(x + [t]))
            for t, x, j in _at_nodes(field, x0, grid, cfg, "flow hit a gauge pole")])
    return MoserReport(max([0.0, *map(max, per_sample)]), per_sample)


# -- spray realization ----------------------------------------------------------------


class RealizationSample(NamedTuple):
    point: list                  # (x, xi) in the cotangent chart
    omega: list                  # 2n x 2n matrix of the averaged 2-form, a list of rows
    det: float                   # det omega, exact on omega's floats, rounded once

    @property
    def nondegenerate(self) -> bool:
        return self.det != 0


def spray_realization(structure, samples, quad_nodes, cfg: FlowConfig):
    """Integrate the flat-connection Poisson spray Y|_xi = hor(xi, pi#(xi))
    on the cotangent chart and average the pullbacks of omega_can over
    t in [0,1] by the trapezoid rule on the given nodes: ``quad_nodes`` is a
    sequence of nodes, or any integer as a count of evenly spaced ones.

    omega_can = sum_i dx_i ^ dxi_i, for which the chart projection of the
    resulting symplectic form is a Poisson map onto pi (realization_check).
    """
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

    nodes = _quadrature_nodes(quad_nodes)
    out = []
    for s in _nonempty(samples, "samples"):
        y0 = _point(s, 2 * n, "samples live in the cotangent chart (length 2n)")
        values = [_pullback(j, n) for _, _, j in _at_nodes(
            field, y0, nodes, cfg, "spray flow hit a pole",
            f"spray flow escaped for sample {s}")]
        acc = [[0.0] * (2 * n) for _ in range(2 * n)]
        for k in range(len(nodes) - 1):
            w = 0.5 * (nodes[k + 1] - nodes[k])
            acc = [[x + w * (u + v) for x, u, v in zip(*rows)]
                   for rows in zip(acc, values[k], values[k + 1])]
        det = float(linalg.det([[Fraction(x) for x in row] for row in acc]))
        out.append(RealizationSample(y0, acc, det))
    return out


def _quadrature_nodes(quad_nodes):
    """The trapezoid rule's sorted nodes, two or more spanning [0, 1]: the
    sequence ``quad_nodes``, or for an integer k the k nodes i * (1.0 / (k - 1))
    for i < k - 1, then 1.0."""
    if isinstance(quad_nodes, numbers.Integral):
        k = int(quad_nodes)  # k < 2 leaves the one node 1.0
        quad_nodes = [i * (1.0 / (k - 1)) for i in range(k - 1)] + [1.0]
    try:
        nodes = _times(quad_nodes, "quadrature node")
    except TypeError:  # quad_nodes is not a sequence
        raise FlowError(f"quad_nodes must be a node count or a sequence of at least two "
                        f"quadrature nodes, not {quad_nodes!r}") from None
    if len(nodes) < 2:
        raise FlowError("the trapezoid rule needs at least two quadrature nodes")
    if nodes[0] != 0.0 or nodes[-1] != 1.0:
        raise FlowError("quadrature nodes must span [0, 1]")
    return nodes


def _pullback(j, n):
    """J^T W J for W the matrix of omega_can: entry (a, b) is the sum over
    k < n, in order, of J_ka J_(k+n)b - J_(k+n)a J_kb."""
    terms = [[[x * v - u * y for y, v in zip(top, bottom)] for x, u in zip(top, bottom)]
             for top, bottom in zip(j[:n], j[n:])]
    return functools.reduce(
        lambda p, q: [[s + t for s, t in zip(a, b)] for a, b in zip(p, q)], terms)


def realization_check(realization_samples, structure) -> float:
    """Invert each omega to a bivector on the cotangent chart, push it down
    the projection (the [I 0] block), and compare with pi at the base point;
    returns the max entrywise deviation of the exact inverse, rounded."""
    pi = _pi_of(structure)
    n = pi.chart.dim
    p_fn = compile_matrix(bivector_matrix(pi))
    worst = 0.0
    for sample in _nonempty(realization_samples, "realization_samples"):
        inv = linalg.mat_inverse([[Fraction(x) for x in row] for row in sample.omega])
        if inv is None:
            raise FlowError("singular omega in realization_check")
        pushed = [[float(x) for x in row[:n]] for row in inv[:n]]
        worst = max(worst, _max_gap(pushed, p_fn(sample.point[:n])))
    return worst
