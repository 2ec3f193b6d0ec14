"""Every name a poisskit module or a test file imports is used in that file, every
function, class and method it defines is referenced somewhere, and every
name the benchmark's tracer wraps exists; importing the CLI fills no
cohomology cache; importing the CLI imports neither numpy nor dataclasses nor
inspect, and running the numeric checks imports no numpy; and the benchmark's self-test passes against this source."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "poisskit"
TESTS = Path(__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_detects_an_unused_import():
    tree = ast.parse("from fractions import Fraction as Rational\nimport os\nos.sep\n")
    assert _unused_imports(tree) == [(1, "Rational")]


def _definitions(tree):
    """(line, name) of each module-level function or class, and of each
    method that is not a dunder, as ``Class.method``."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            out += [(item.lineno, f"{node.name}.{item.name}") for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))]
    return out


def _referenced(trees):
    refs = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return refs


def _dead_definitions(tree, refs):
    return [(line, name) for line, name in _definitions(tree)
            if name.rsplit(".", 1)[-1] not in refs]


def test_no_dead_entry_points():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in paths}
    refs = _referenced(trees.values())
    dead = {path.name: _dead_definitions(trees[path], refs)
            for path in paths if path.parent == SRC}
    assert {name: found for name, found in dead.items() if found} == {}


def test_detects_a_dead_entry_point():
    tree = ast.parse(
        "def used(): pass\n"
        "def unused(): pass\n"
        "class Box:\n"
        "    def __init__(self): self.open()\n"
        "    def open(self): pass\n"
        "    def close(self): pass\n"
        "Box()\n"
        "used()\n"
    )
    assert _dead_definitions(tree, _referenced([tree])) == [(2, "unused"), (6, "Box.close")]


def test_traced_names_exist():
    # Tracer.install raises AttributeError on a name that is gone, which
    # would end every traced benchmark run: a wrapped target, or a module
    # attribute its observers read (expr.GCD_DEGREE_CAP after
    # expr = modules["expr"])
    tree = ast.parse(TRACING.read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "TARGETS")
    bound = {node.targets[0].id: node.value.slice.value for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and isinstance(node.value, ast.Subscript)
             and getattr(node.value.value, "id", None) == "modules"}
    read = {(bound[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in bound}
    assert read  # the scan sees the observers
    missing = []
    for name, (module, path) in [*targets.items(), *((f"{m}.{a}", (m, a)) for m, a in read)]:
        obj = importlib.import_module(f"poisskit.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert missing == []


def test_cli_import_leaves_the_cohomology_caches_empty():
    # the coded bases are built on first use, so importing the CLI computes
    # none of them
    code = ("import poisskit.cli; from poisskit import poisson; "
            "print(sorted((name, f.cache_info().currsize) "
            "for name, f in vars(poisson).items() if hasattr(f, 'cache_info')))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[('_basis_index', 0), ('_coded_basis', 0), ('_monomials', 0)]"


@pytest.mark.parametrize("module", ["numpy", "dataclasses", "inspect"])
def test_cli_import_leaves_module_out(module):
    # numpy is for the flows only; dataclasses and inspect cost the CLI's
    # start-up several ms.  Only what the import adds counts, not what site
    # loaded before it.
    code = ("import sys; before = set(sys.modules); import poisskit.cli; "
            f"print(sorted(m for m in set(sys.modules) - before "
            f"if m == {module!r} or m.startswith({module + '.'!r})))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


NUMERIC_CHECKS = """
import sys
from poisskit import cli, flow, poisson
from poisskit.expr import chart, parse_expr
from poisskit.multivec import DiffForm, MultiVec

doc = {"chart": ["x", "y", "z"], "bivectors": {"pi": {"0,1": "z", "1,2": "x", "0,2": "-y"}},
       "flow": {"dt": 0.01, "t_max": 1.0, "tol": 1e-6},
       "tasks": [{"task": "flow", "h": "x^2 + 2*y^2 + 3*z^2", "x0": ["1/2", "1/3", "-1/4"],
                  "casimirs": ["x^2+y^2+z^2"]}]}
assert [r.passed for r in cli.run_tasks(cli.load_manifest(doc))] == [True]
ch = chart("x", "y", "z")
so3 = poisson.require_poisson(MultiVec(ch, 2, {(0, 1): parse_expr("z", ch),
                                               (1, 2): parse_expr("x", ch),
                                               (0, 2): parse_expr("-y", ch)}))
cfg = flow.FlowConfig(dt=0.05, t_max=1.0)
flow.leaf_trace(so3, [parse_expr("x + 2*y", ch)], [0.6, -0.2, 0.3], [(0, 0.5)], cfg,
                casimirs=[parse_expr("x^2+y^2+z^2", ch)])
flow.moser_verify(so3, DiffForm(ch, 1, {(0,): parse_expr("y", ch)}), [0.5, 1.0],
                  [[0.5, 0.3, -0.25]], cfg)
samples = flow.spray_realization(so3, [[0.3, -0.2, 0.1, 0.2, 0.1, -0.3]], 5, cfg)
assert flow.realization_check(samples, so3) < 0.1
print(sorted(m for m in sys.modules if m.startswith("numpy")))
"""


def test_numeric_checks_leave_numpy_out():
    # a CLI flow task, a leaf trace, a Moser check and a spray realization
    # with its check run on the standard library alone
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", NUMERIC_CHECKS], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_benchmark_selftest_passes():
    # one job of every oracle kind, run through the benchmark's own runners
    # and oracles (about 1 s), which import poisskit from ./src
    pytest.importorskip("sympy")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.rstrip().endswith("selftest ok")
