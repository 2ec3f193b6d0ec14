"""Manifest-driven command line front end.

A manifest is a single JSON document describing one chart and named objects
over it; all mathematical values are strings in the expression grammar
(floats appear only inside flow configs).  Index keys are 0-based, bivector
and form coefficient tables are keyed "i,j" with i < j, and vector field
tables are keyed "i": the ``expect`` of a ``modular`` task is such a table,
e.g. {"task": "modular", "expect": {"1": "-1"}} for -d/dy on (x, y), and is
compared with the modular vector field by value.

    {
      "chart": ["x", "y", "z"],
      "expressions":  {"f": "x^2+y^2+z^2"},
      "bivectors":    {"pi": {"0,1": "z", "1,2": "x", "0,2": "-y"}},
      "forms":        {"B": {"0,1": "1"}},
      "lie_algebras": {"so3": {"dim": 3, "constants": [[0,1,2,"1"], ...]}},
      "constraints":  {"n": {"bivector": "pi", "psi": ["x"], "level": ["1"],
                             "samples": [["1","0","0"]]}},
      "flow":         {"dt": 1e-3, "t_max": 10.0, "tol": 1e-6},
      "tasks":        [{"task": "is_poisson", "bivector": "pi"}, ...]
    }

Reports are deterministic line streams prefixed PASS/FAIL/INFO; exit status
is 0 iff no FAIL line was produced.  ``--json`` emits a structured dump
instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import NamedTuple

from . import dirac, fixtures, flow, liealg, poisson
from .expr import Chart, ExprError, ParseError, RatFunc, chart as make_chart, parse_expr
from .multivec import DiffForm, MultiVec


class ManifestError(ExprError):
    pass


class Manifest(NamedTuple):
    chart: Chart
    expressions: dict
    bivectors: dict
    forms: dict
    lie_algebras: dict
    constraints: dict
    flow_config: flow.FlowConfig
    tasks: list


def _parse_fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise ManifestError(f"invalid rational {text!r}") from None


def _parse_point(spec, chart: Chart):
    if isinstance(spec, str):
        parts = [p.strip() for p in spec.split(",")]
    elif isinstance(spec, (list, tuple)):
        parts = list(spec)
    else:
        raise ManifestError(f"point {spec!r} is not a list or a comma-separated string")
    if len(parts) != chart.dim:
        raise ManifestError(f"point {spec!r} has wrong dimension for {chart}")
    return [_parse_fraction(p) for p in parts]


_JSON_TYPES = {dict: "object", list: "list", str: "string"}


def _typed(value, kind, what):
    if not isinstance(value, kind):
        raise ManifestError(f"{what} must be a JSON {_JSON_TYPES[kind]}")
    return value


def _int(value, what) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ManifestError(f"{what} must be an integer")
    try:
        return int(value)
    except ValueError as err:
        raise ManifestError(f"{what} must be an integer: {err}") from None


def _float(value, what) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ManifestError(f"{what} must be a number")
    try:
        return float(value)
    except ValueError as err:
        raise ManifestError(f"{what} must be a number: {err}") from None


def _required(spec: dict, key: str, what: str):
    if key not in spec:
        raise ManifestError(f"{what} needs {key!r}")
    return spec[key]


def _named(table: dict, name, what: str):
    """The entry of a manifest table that ``name`` refers to."""
    if not isinstance(name, str) or name not in table:
        raise ManifestError(f"unknown {what} {name!r}")
    return table[name]


def _structure_constant(entry, algebra):
    if not isinstance(entry, list) or len(entry) != 4:
        raise ManifestError(f"Lie algebra {algebra!r}: a 'constants' entry must be a list [i, j, k, value]")
    i, j, k, value = entry
    what = f"Lie algebra {algebra!r}: a constant's index"
    return _int(i, what), _int(j, what), _int(k, what), _parse_fraction(value)


def _section(doc: dict, key: str, kind=dict):
    return _typed(doc.get(key, kind()), kind, f"manifest entry {key!r}")


def _parse_table(table, chart: Chart, degree: int):
    coeffs = {}
    for key, text in _typed(table, dict, "a coefficient table").items():
        try:
            idx = tuple(int(p) for p in str(key).split(","))
        except ValueError as err:
            raise ManifestError(
                f"key {key!r} is not a degree-{degree} index tuple: {err}") from None
        if len(idx) != degree:
            raise ManifestError(f"key {key!r} is not a degree-{degree} index tuple")
        coeffs[idx] = parse_expr(str(text), chart)
    return coeffs


def load_manifest(doc: dict) -> Manifest:
    names = doc.get("chart") if isinstance(doc, dict) else None
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ManifestError("manifest needs a 'chart' entry: a list of variable names")
    chart = make_chart(*names)
    expressions = {
        name: parse_expr(_typed(text, str, f"expression {name!r}"), chart)
        for name, text in _section(doc, "expressions").items()
    }
    bivectors = {}
    for name, table in _section(doc, "bivectors").items():
        bivectors[name] = MultiVec(chart, 2, _parse_table(table, chart, 2))
    forms = {}
    for name, table in _section(doc, "forms").items():
        forms[name] = DiffForm(chart, 2, _parse_table(table, chart, 2))
    algebras = {}
    for name, spec in _section(doc, "lie_algebras").items():
        what = f"Lie algebra {name!r}"
        _typed(spec, dict, what)
        constants = _typed(_required(spec, "constants", what), list, f"{what} 'constants'")
        triples = [_structure_constant(entry, name) for entry in constants]
        algebras[name] = liealg.lie_from_constants(
            _int(_required(spec, "dim", what), f"{what} 'dim'"), triples)
    constraints = {}
    for name, spec in _section(doc, "constraints").items():
        what = f"constraint system {name!r}"
        pi_name = _required(_typed(spec, dict, what), "bivector", what)
        if not isinstance(pi_name, str) or pi_name not in bivectors:
            raise ManifestError(f"{what} references unknown bivector {pi_name!r}")
        structure = poisson.verify(bivectors[pi_name])
        psi = [parse_expr(str(t), chart)
               for t in _typed(_required(spec, "psi", what), list, f"{what} 'psi'")]
        level = [_parse_fraction(v)
                 for v in _typed(_required(spec, "level", what), list, f"{what} 'level'")]
        samples = [_parse_point(p, chart)
                   for p in _typed(spec.get("samples", []), list, f"{what} 'samples'")]
        constraints[name] = dirac.ConstraintSystem(structure, psi, level, samples)
    fc = _section(doc, "flow")
    flow_config = flow.FlowConfig(
        dt=_float(fc.get("dt", 1e-3), "flow 'dt'"),
        t_max=_float(fc.get("t_max", 10.0), "flow 't_max'"),
        tol=_float(fc.get("tol", 1e-6), "flow 'tol'"),
    )
    tasks = _section(doc, "tasks", list)
    for spec in tasks:
        _typed(spec, dict, "a task")
    return Manifest(
        chart,
        expressions,
        bivectors,
        forms,
        algebras,
        constraints,
        flow_config,
        list(tasks),
    )


# -- task registry --------------------------------------------------------------


class TaskResult(NamedTuple):
    name: str
    passed: bool | None          # None for purely informational tasks
    lines: list
    data: dict


def _get_expr(manifest: Manifest, params: dict, key: str) -> RatFunc:
    text = params.get(key)
    if text is None:
        raise ManifestError(f"task needs parameter {key!r}")
    if isinstance(text, str) and text in manifest.expressions:
        return manifest.expressions[text]
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise ManifestError(f"parameter {key!r} must be an expression or a name")
    try:
        return parse_expr(str(text), manifest.chart)
    except ParseError as err:
        raise ManifestError(f"parameter {key!r}: {err}") from None


def _get_point(manifest: Manifest, params: dict, key: str):
    spec = params.get(key)
    if spec is None:
        raise ManifestError(f"task needs parameter {key!r}")
    return _parse_point(spec, manifest.chart)


def _get_bivector(manifest: Manifest, params: dict) -> MultiVec:
    name = params.get("bivector")
    if name is None:
        if len(manifest.bivectors) == 1:
            return next(iter(manifest.bivectors.values()))
        raise ManifestError("task needs a 'bivector' parameter")
    return _named(manifest.bivectors, name, "bivector")


def _task_is_poisson(manifest, params):
    ps = poisson.verify(_get_bivector(manifest, params))
    if ps.verified:
        return TaskResult("is_poisson", True, ["PASS is_poisson [pi,pi]=0"],
                          {"verified": True})
    return TaskResult(
        "is_poisson", False,
        [f"FAIL is_poisson [pi,pi] = {ps.schouten_square}"],
        {"verified": False, "schouten_square": str(ps.schouten_square)},
    )


def _task_casimir(manifest, params):
    pi = _get_bivector(manifest, params)
    f = _get_expr(manifest, params, "f")
    ok = poisson.casimir_check(pi, f)
    line = "PASS casimir" if ok else f"FAIL casimir X_f = {poisson.hamiltonian_vf(pi, f)}"
    return TaskResult("casimir", ok, [line], {"casimir": ok, "f": str(f)})


def _task_bracket(manifest, params):
    pi = _get_bivector(manifest, params)
    f = _get_expr(manifest, params, "f")
    g = _get_expr(manifest, params, "g")
    value = poisson.bracket(pi, f, g)
    return TaskResult("bracket", None, [f"INFO bracket {{f,g}} = {value}"],
                      {"bracket": str(value)})


def _task_hamiltonian_vf(manifest, params):
    pi = _get_bivector(manifest, params)
    f = _get_expr(manifest, params, "f")
    xf = poisson.hamiltonian_vf(pi, f)
    return TaskResult("hamiltonian_vf", None, [f"INFO hamiltonian_vf X_f = {xf}"],
                      {"hamiltonian_vf": str(xf)})


def _task_rank(manifest, params):
    pi = _get_bivector(manifest, params)
    point = _get_point(manifest, params, "point")
    r = poisson.rank_at(pi, point)
    return TaskResult("rank", None, [f"INFO rank {r}"], {"rank": r})


def _task_modular(manifest, params):
    pi = _get_bivector(manifest, params)
    chart = manifest.chart
    volume = DiffForm(chart, chart.dim,
                      {tuple(range(chart.dim)): RatFunc.const(chart, 1)})
    mv = poisson.modular_vf(pi, volume)
    expect = params.get("expect")
    if expect is None:
        return TaskResult("modular", None, [f"INFO modular {mv}"], {"modular": str(mv)})
    try:
        expected = MultiVec(chart, 1, _parse_table(expect, chart, 1))
    except (ExprError, ValueError) as err:
        raise ManifestError(f"parameter 'expect' of modular: {err}") from None
    ok = mv == expected
    line = "PASS modular" if ok else f"FAIL modular {mv} != {expected}"
    return TaskResult("modular", ok, [line], {"modular": str(mv)})


def _task_cohomology(manifest, params):
    pi = _get_bivector(manifest, params)
    ps = poisson.require_poisson(pi)
    k = _int(params.get("k", 0), "parameter 'k'")
    d_max = _int(params.get("d_max", params.get("d", 0)), "parameter 'd_max'")
    if d_max < 0:  # an empty range of degrees, rejected as cohomology rejects d < 0
        raise poisson.PoissonError("invalid (k, d)")
    expect = params.get("expect_dim")
    expected = None if expect is None else _int(expect, "parameter 'expect_dim'")
    total = 0
    lines = []
    reports = []
    for d in range(d_max + 1):
        rep = poisson.cohomology(ps, k, d)
        total += rep.dim_h
        reports.append(rep.serialize())
    lines.append(f"INFO cohomology H^{k} cumulative dim (d<= {d_max}) = {total}")
    passed = None
    if expected is not None:
        passed = total == expected
        lines.append("PASS cohomology" if passed else
                     f"FAIL cohomology dim {total} != {expect}")
    return TaskResult("cohomology", passed, lines,
                      {"dim": total, "reports": reports})


def _task_gauge(manifest, params):
    pi = _get_bivector(manifest, params)
    form = _named(manifest.forms, params.get("form"), "form")
    result = poisson.gauge_transform(pi, form)
    ok = result.verified
    line = f"PASS gauge pi_B = {result.pi}" if ok else "FAIL gauge result not Poisson"
    return TaskResult("gauge", ok, [line], {"pi_B": str(result.pi)})


def _task_classify(manifest, params):
    cs = _named(manifest.constraints, params.get("constraints"), "constraint system")
    flags = dirac.classify_submanifold(cs)
    line = (
        f"INFO classify poisson={flags.poisson} coisotropic={flags.coisotropic} "
        f"cosymplectic={flags.cosymplectic} ({flags.mode})"
    )
    return TaskResult("classify", None, [line], {
        "poisson": flags.poisson,
        "coisotropic": flags.coisotropic,
        "cosymplectic": flags.cosymplectic,
        "mode": flags.mode,
    })


def _task_dirac_bracket(manifest, params):
    cs = _named(manifest.constraints, params.get("constraints"), "constraint system")
    try:
        pd = dirac.dirac_bracket(cs)
    except poisson.NotCosymplecticError as err:
        return TaskResult("dirac_bracket", False, [f"FAIL dirac_bracket {err}"], {})
    f = _get_expr(manifest, params, "f")
    g = _get_expr(manifest, params, "g")
    value = cs.restrict(poisson.bracket(pd, f, g))
    text = str(value) if isinstance(value, RatFunc) else str([str(v) for v in value])
    return TaskResult("dirac_bracket", None,
                      [f"INFO dirac_bracket {{f,g}}_N = {text}"],
                      {"value": text})


def _task_lie_poisson(manifest, params):
    g = _named(manifest.lie_algebras, params.get("algebra"), "Lie algebra")
    ps = liealg.lie_poisson(g, manifest.chart if manifest.chart.dim == g.dim else None)
    return TaskResult("lie_poisson", True,
                      [f"PASS lie_poisson pi = {ps.pi}"], {"pi": str(ps.pi)})


def _task_modular_character(manifest, params):
    chi = liealg.modular_character(
        _named(manifest.lie_algebras, params.get("algebra"), "Lie algebra"))
    text = ", ".join(str(c) for c in chi)
    return TaskResult("modular_character", None,
                      [f"INFO modular_character ({text})"], {"chi": [str(c) for c in chi]})


def _task_flow(manifest, params):
    pi = _get_bivector(manifest, params)
    h = _get_expr(manifest, params, "h")
    x0 = _get_point(manifest, params, "x0")
    casimirs = []
    for name in _typed(params.get("casimirs", []), list, "parameter 'casimirs'"):
        casimirs.append(_get_expr(manifest, {"casimirs": name}, "casimirs"))
    traj = flow.integrate_hamiltonian(pi, h, x0, manifest.flow_config, casimirs=casimirs)
    # all, not max: a nan drift fails, and max([d, nan]) is d
    ok = all(d < manifest.flow_config.tol for d in [traj.h_drift, *traj.casimir_drifts])
    line = (
        f"{'PASS' if ok else 'FAIL'} flow h_drift={traj.h_drift:.3e} "
        f"casimir_drifts={[f'{d:.3e}' for d in traj.casimir_drifts]}"
    )
    return TaskResult("flow", ok, [line], {"h_drift": traj.h_drift,
                                           "casimir_drifts": traj.casimir_drifts,
                                           "steps": traj.steps})


TASKS = {
    "is_poisson": _task_is_poisson,
    "casimir": _task_casimir,
    "bracket": _task_bracket,
    "hamiltonian_vf": _task_hamiltonian_vf,
    "rank": _task_rank,
    "modular": _task_modular,
    "cohomology": _task_cohomology,
    "gauge": _task_gauge,
    "classify": _task_classify,
    "dirac_bracket": _task_dirac_bracket,
    "lie_poisson": _task_lie_poisson,
    "modular_character": _task_modular_character,
    "flow": _task_flow,
}


def run_tasks(manifest: Manifest, selected=None, extra_params=None):
    """Execute the manifest's tasks (optionally filtered/augmented); returns
    the ordered TaskResult list.  A task that fails on its mathematics gives a
    FAIL result; a malformed task (unknown name, missing or unusable
    parameter) raises ManifestError and stops the run."""
    extra_params = extra_params or {}
    tasks = list(manifest.tasks)
    if selected:
        chosen = [t for t in tasks if t.get("task") in selected]
        for name in selected:
            if not any(t.get("task") == name for t in chosen):
                chosen.append({"task": name})
        tasks = chosen
    jobs = []
    for spec in tasks:
        name = spec.get("task")
        params = dict(spec)
        params.update(extra_params)
        jobs.append((name, _named(TASKS, name, "task"), params))

    def execute(job):
        name, task, params = job
        try:
            return task(manifest, params)
        except ManifestError:
            raise
        except ExprError as err:
            return TaskResult(name, False, [f"FAIL {name} {err}"], {"error": str(err)})

    return [execute(job) for job in jobs]


# -- entry point -------------------------------------------------------------------


def _cmd_run(args) -> int:
    extra = {}
    if args.f is not None:
        extra["f"] = args.f
    if args.point is not None:
        extra["point"] = args.point
    try:
        with open(args.manifest) as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise ManifestError("JSON nested too deeply") from None
        manifest = load_manifest(doc)
        results = run_tasks(manifest, selected=args.task or None, extra_params=extra)
    except (OSError, ExprError, KeyError, ValueError) as err:
        print(f"FAIL manifest {err}")
        return 2
    if args.json:
        dump = [
            {"task": r.name, "passed": r.passed, "lines": r.lines, "data": r.data}
            for r in results
        ]
        print(json.dumps(dump, indent=2, sort_keys=True))
    else:
        for r in results:
            for line in r.lines:
                print(line)
    return 1 if any(r.passed is False for r in results) else 0


def _cmd_list_fixtures(_args) -> int:
    for name in fixtures.list_fixtures():
        print(name)
    return 0


def _cmd_export_fixture(args) -> int:
    try:
        manifest = fixtures.fixture_manifest(args.name)
    except KeyError as err:
        print(err.args[0])
        return 2
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="poisskit",
        description="Exact Poisson-geometry computations driven by JSON manifests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run tasks from a manifest")
    run_p.add_argument("manifest")
    run_p.add_argument("--task", action="append", help="select/add a task by name")
    run_p.add_argument("--f", help="expression parameter for the selected task")
    run_p.add_argument("--point", help='point parameter, e.g. "1,0,0"')
    run_p.add_argument("--json", action="store_true", help="machine-readable output")
    run_p.set_defaults(fn=_cmd_run)

    list_p = sub.add_parser("list-fixtures", help="print the built-in fixture zoo")
    list_p.set_defaults(fn=_cmd_list_fixtures)

    exp_p = sub.add_parser("export-fixture", help="print a fixture manifest as JSON")
    exp_p.add_argument("name")
    exp_p.set_defaults(fn=_cmd_export_fixture)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
